//! Cross-commit planner anchor.
//!
//! `prop.rs` compares two runs of the *same* build, so it cannot tell
//! whether a refactor of the simulator or the genetic operators moved a
//! plan.  This suite can: it pins the FNV-1a ([`StableHasher`]) of the
//! serialized [`GpResult`] of Table-1 runs on the case-study problem
//! (at `threads: 1` and `threads: 2`), and of the [`Fitness`] of a
//! seeded corpus of trees chosen to reach every corner of the
//! simulator — nested selectives past the flow cap, an unknown
//! terminal, a duplicated activity name, a goal no activity produces —
//! to values computed by the commit *before* the simulator was
//! rewritten over interned ids.  That simulator is gone, so these
//! values are the reference.  A change that moves them on purpose
//! regenerates them with
//!
//! ```text
//! cargo test --release -p gridflow-planner --test golden -- --ignored --nocapture print_goldens
//! ```
//!
//! and says in CHANGES.md, with a JSON diff of an affected `GpResult`,
//! what moved and why — the same rule as `tests/trace_golden.rs`.

use gridflow::casestudy;
use gridflow_plan::PlanNode;
use gridflow_planner::genetic::random_tree;
use gridflow_planner::prelude::*;
use gridflow_planner::{evaluate, FitnessWeights};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// `(seed, hash of serde_json::to_string(&GpResult))` at Table 1's
/// parameters on `casestudy::planning_problem()`.
const GOLDEN_RESULTS: &[(u64, u128)] = &[
    (1, 0x5f0d5d2c84fa2c659a30174636cb54ea),
    (2, 0xeb84d77d25ae12e69a39e83cd9cae468),
    (3, 0xa0c8d069444772ab05041b76f5c073dd),
    (4, 0xa8b06a4e0aab048f02bad83b74598929),
    (5, 0xcd0ee6dc09f7998393fa0519fa35128d),
    (6, 0xc4c036099e0f95af12280fcbee5d41e8),
    (7, 0xf14a3d0322387c97ceae70d9dfad8098),
    (8, 0x575673b8ad50f3e4f1d464c55b250596),
    (9, 0x4f59cd942a0c2c10c7da702b360c4e27),
    (10, 0x3adaef0844353b9d571d5db6b3bcf23f),
];

/// `(corpus, trees, hash of their Fitness tuples)`.
const GOLDEN_FITNESS: &[(&str, usize, u128)] = &[
    ("cap-8", 603, 0xc5f57415c6768ca91f390b33b308d369),
    ("cap-1", 603, 0xc184b78c6ca1c9ee110fe0d5b7e461b3),
    ("cap-64-ghost-0", 603, 0xa207a44a04a0eab92b576894cddaf4e0),
];

fn hash_bytes(bytes: &[u8]) -> u128 {
    let mut hasher = StableHasher::new();
    hasher.write_bytes(bytes);
    hasher.finish()
}

fn result_hash(seed: u64, threads: usize) -> u128 {
    let config = GpConfig {
        seed,
        threads,
        ..GpConfig::default()
    };
    let result = GpPlanner::new(config, casestudy::planning_problem()).run();
    hash_bytes(
        serde_json::to_string(&result)
            .expect("serializes")
            .as_bytes(),
    )
}

/// A problem with every irregularity the simulator must keep handling
/// the same way: `prep` is declared twice (the first spec wins), `finish`
/// needs two `Mid`s, `gen` has no inputs, and `ghost_min` is the
/// `min_count` of a goal classification nothing produces.
fn corpus_problem(ghost_min: usize) -> PlanningProblem {
    PlanningProblem::builder()
        .initial(["Raw", "Raw", "Param"])
        .goal("Final", 1)
        .goal("Aux", 2)
        .goal("Ghost", ghost_min)
        .activity(ActivitySpec::new("prep", ["Raw"], ["Mid"]))
        .activity(ActivitySpec::new(
            "finish",
            ["Mid", "Param", "Mid"],
            ["Final"],
        ))
        .activity(ActivitySpec::new("side", ["Raw"], ["Aux"]))
        .activity(ActivitySpec::new("prep", ["Nope"], ["Final", "Final"]))
        .activity(ActivitySpec::new(
            "gen",
            Vec::<String>::new(),
            ["Mid", "Aux"],
        ))
        .build()
}

/// 600 random trees of sizes 1–40 over the problem's activity names
/// plus an unknown one, then hand-built selective towers that overflow
/// any small flow cap.
fn corpus_trees(problem: &PlanningProblem) -> Vec<PlanNode> {
    let mut names: Vec<String> = problem.activities.iter().map(|a| a.name.clone()).collect();
    names.push("bogus".into());
    let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
    let mut trees: Vec<PlanNode> = (0..600)
        .map(|i| random_tree(&mut rng, 1 + i % 40, &names))
        .collect();
    let pick = |a: &str, b: &str| {
        PlanNode::selective_unguarded([PlanNode::terminal(a), PlanNode::terminal(b)])
    };
    // 2^6 flows in sequence; each flow differs in what it produced.
    trees.push(PlanNode::Sequential(vec![
        pick("prep", "gen"),
        pick("side", "bogus"),
        pick("prep", "side"),
        pick("finish", "gen"),
        pick("side", "finish"),
        pick("finish", "prep"),
    ]));
    // Selectives nested inside selectives, five deep, with work between.
    let mut tower = pick("finish", "side");
    for level in 0..5 {
        tower = PlanNode::selective_unguarded([
            PlanNode::Sequential(vec![PlanNode::terminal("gen"), tower.clone()]),
            PlanNode::Iterative {
                cond: gridflow_process::Condition::True,
                body: vec![
                    PlanNode::terminal(if level % 2 == 0 { "prep" } else { "side" }),
                    tower,
                ],
            },
            PlanNode::Concurrent(vec![]),
        ]);
    }
    trees.push(tower.clone());
    trees.push(PlanNode::Sequential(vec![
        tower,
        pick("side", "finish"),
        PlanNode::Selective(vec![]),
    ]));
    trees
}

fn fitness_hash(problem: &PlanningProblem, trees: &[PlanNode], flow_cap: usize) -> u128 {
    let mut hasher = StableHasher::new();
    for tree in trees {
        let f = evaluate(tree, problem, 40, FitnessWeights::default(), flow_cap);
        for x in [f.validity, f.goal, f.representation, f.overall] {
            hasher.write_bytes(&x.to_bits().to_le_bytes());
        }
        hasher.write_bytes(&(f.size as u64).to_le_bytes());
    }
    hasher.finish()
}

/// `(name, trees, hash)` for each corpus: the flow cap at 8 (the towers
/// truncate), at 1 (every selective truncates) and at the default 64,
/// the last with the unproduced goal at `min_count` 0 — met by a
/// classification the simulation never saw.
fn fitness_corpora() -> Vec<(&'static str, usize, u128)> {
    [("cap-8", 1, 8), ("cap-1", 1, 1), ("cap-64-ghost-0", 0, 64)]
        .into_iter()
        .map(|(name, ghost_min, flow_cap)| {
            let problem = corpus_problem(ghost_min);
            let trees = corpus_trees(&problem);
            (name, trees.len(), fitness_hash(&problem, &trees, flow_cap))
        })
        .collect()
}

#[test]
fn gp_results_match_the_pinned_bytes_at_one_and_two_threads() {
    assert!(GOLDEN_RESULTS.len() >= 8);
    for &(seed, expected) in GOLDEN_RESULTS {
        for threads in [1, 2] {
            let got = result_hash(seed, threads);
            assert_eq!(
                got, expected,
                "GpResult of seed {seed} at threads {threads} moved: {got:#034x}"
            );
        }
    }
}

#[test]
fn fitness_corpus_matches_the_pinned_bytes() {
    assert_eq!(GOLDEN_FITNESS.len(), 3);
    for (got, expected) in fitness_corpora().iter().zip(GOLDEN_FITNESS) {
        assert!(got.1 >= 500);
        assert_eq!(got, expected, "fitness corpus {} moved", got.0);
    }
}

#[test]
#[ignore = "regenerates the golden tables; paste its output over GOLDEN_RESULTS / GOLDEN_FITNESS"]
fn print_goldens() {
    println!("const GOLDEN_RESULTS: &[(u64, u128)] = &[");
    for seed in 1..=10 {
        println!("    ({seed}, {:#034x}),", result_hash(seed, 1));
    }
    println!("];");
    println!("const GOLDEN_FITNESS: &[(&str, usize, u128)] = &[");
    for (name, trees, hash) in fitness_corpora() {
        println!("    ({name:?}, {trees}, {hash:#034x}),");
    }
    println!("];");
}
