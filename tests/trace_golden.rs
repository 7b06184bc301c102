//! Cross-commit trace anchor.
//!
//! Every other byte-identity suite in the repo compares two runs of the
//! *same* build (first vs second, crashed vs uninterrupted, warm vs
//! cold), so none of them can tell whether a refactor moved the trace.
//! This one can: it pins the record count and FNV-1a of the merged
//! JSONL of the engine's scenario shapes — flaky, clean, contended,
//! partitioned, node loss, recovery ladder, refusal, chaos, virus,
//! generated, plan churn, kill→recover — and of the single-case
//! [`Scenario`] path (scripted coordinator crash and resume, replan
//! churn, recovery ladder) to values computed by an earlier commit.  A
//! change that claims "same behaviour" must leave the tables alone; a
//! change that moves bytes on purpose regenerates the affected rows with
//!
//! ```text
//! cargo test -p gridflow-harness --test trace_golden -- --ignored --nocapture print_goldens
//! ```
//!
//! and says in CHANGES.md which rows moved and why.  To show *what*
//! moved, dump every pinned trace and the snapshot payload on both
//! commits and `diff -r` the two directories:
//!
//! ```text
//! cargo test -p gridflow-harness --test trace_golden -- --ignored dump_goldens
//! ls target/tmp/trace_golden/        # <row>.jsonl, kill-recover.snapshot.json
//! ```

use gridflow_harness::workload::{
    cook_loss_churn_plan, dinner_recovery_workload, dinner_replan_workload, dinner_workload,
    virus_reconstruction_workload, GraphShape, Workload, WorkloadGen,
};
use gridflow_harness::{FaultPlan, MultiCaseScenario, Scenario, ScenarioOutcome};
use gridflow_services::PlanCacheHandle;
use gridflow_store::{fnv1a64, merged_jsonl, MemStore, Store};
use std::sync::{Arc, Mutex};

/// `(scenario, record count, fnv1a64(merged JSONL))`.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("flaky-0", 103, 0xe403079dbec1d05d),
    ("flaky-1", 121, 0xd886e5306b0e657b),
    ("flaky-2", 104, 0xf9f280543b84fc5e),
    ("flaky-3", 107, 0xa3a20a45f58e922b),
    ("flaky-4", 126, 0xc13528349def7853),
    ("flaky-5", 70, 0xa2a55e8864a705c4),
    ("flaky-6", 126, 0xfc3c7fd4b605111d),
    ("flaky-7", 121, 0x9e0332fcdd85a7c3),
    ("flaky-8", 125, 0x8ef3efe6a0d22c14),
    ("flaky-9", 74, 0xf9ac57068e15f1a8),
    ("flaky-10", 56, 0x15b6d3a55cbcdfb5),
    ("flaky-11", 115, 0x0d4c2f2aec09e794),
    ("flaky-12", 125, 0x5fc8685aa52e6a1c),
    ("flaky-13", 80, 0xd25f54e3e74d9503),
    ("flaky-14", 77, 0x1e6f2e8766ea4e1a),
    ("flaky-15", 126, 0x7c2314b9ef353432),
    ("flaky-16", 115, 0x0d4c2f2aec09e794),
    ("flaky-17", 126, 0x49c66a220df1abba),
    ("flaky-18", 103, 0xe403079dbec1d05d),
    ("flaky-19", 79, 0x9562dc5cbeb2b1b8),
    ("flaky-20", 74, 0x4f367a3e85e0232d),
    ("flaky-21", 121, 0xabce13364a38d382),
    ("flaky-22", 72, 0x73d41a806f0d0602),
    ("flaky-23", 112, 0x91a761a8cb396fc2),
    ("flaky-24", 110, 0x0b62cb7d57471466),
    ("flaky-25", 104, 0xf9f280543b84fc5e),
    ("flaky-26", 76, 0x7a142b08eebeaf31),
    ("flaky-27", 67, 0xa584e4538f3e9a1b),
    ("flaky-28", 80, 0xe9ccbe2061292d1b),
    ("flaky-29", 90, 0xb134ea09781ed469),
    ("flaky-30", 126, 0xac8a5083f2be469d),
    ("flaky-31", 31, 0x7a52b2bef9fa0f52),
    ("clean-1", 26, 0x70755d1ebf82d987),
    ("clean-2", 47, 0x9d00b6cde6da87f7),
    ("clean-4", 92, 0x62ed83f1c3604264),
    ("clean-8", 180, 0xb3c01377a9b4e722),
    ("contended-5", 99, 0xc2ac832037607d27),
    ("partitioned-3", 94, 0x1a6cc532a1c8a7de),
    ("partitioned-17", 99, 0x967807fcd596bde7),
    ("partitioned-29", 80, 0x003a154f3c8460c2),
    ("node-loss-7", 71, 0x2b7180b76cd41d5d),
    ("recovery-ladder-2", 93, 0xab679e84145b77d2),
    ("recovery-ladder-13", 89, 0x990c679f3622562b),
    ("recovery-ladder-31", 108, 0x90f4957a45128756),
    ("refused", 12, 0x5bc733276ab30363),
    ("chaos-0", 89, 0x95ca9c06eb948839),
    ("chaos-1", 61, 0x079b0e8e2d67c1db),
    ("chaos-2", 46, 0x3898d28add997698),
    ("chaos-3", 100, 0xcf68aae0c65c987f),
    ("chaos-4", 97, 0xe7bd84a8798ea149),
    ("chaos-5", 70, 0x812f9a2a3f10bfec),
    ("chaos-6", 78, 0xbd7529123067a4ea),
    ("chaos-7", 97, 0x6bfafb4bcfa6c72c),
    ("virus", 191, 0x0b0999b5d90b538e),
    ("generated-linear", 49, 0x3201290c334465d1),
    ("generated-fanout", 117, 0x01142de9c60ac05d),
    ("generated-choice", 61, 0xace7edbb62b7f4a6),
    ("generated-iterative", 89, 0x6c3cc2c30b02ca0b),
    ("churn-uncached", 310, 0x354da403ec12ad2d),
    ("churn-cached", 316, 0xc110297c737bee8d),
    ("kill-recover", 93, 0x605aebcd98483566),
];

/// `(payload bytes, fnv1a64(payload))` of the snapshot the kill→recover
/// scenario recovers from: the latest one the crashed run left in the
/// store, with fibers still live and their blueprints interned.
const GOLDEN_SNAPSHOT: (usize, u64) = (26852, 0xa15dc13c3b606261);

/// `(scenario, record count, fnv1a64(JSONL))` of the single-case
/// [`Scenario`] path, whose only durability is the enactor's cadence
/// checkpoints.
const GOLDEN_SINGLE: &[(&str, usize, u64)] = &[
    ("single-crash-0", 23, 0xbe5e43e5e472b65e),
    ("single-crash-1", 29, 0x11165cc04fabb307),
    ("single-crash-2", 25, 0x50a3c0cace4a7503),
    ("single-crash-3", 23, 0xbe5e43e5e472b65e),
    ("single-crash-4", 27, 0x4f1965f5038022dd),
    ("single-crash-5", 25, 0x5a527a8afd9a5722),
    ("single-crash-6", 23, 0xbe5e43e5e472b65e),
    ("single-crash-7", 23, 0xbe5e43e5e472b65e),
    ("single-churn", 14, 0x90ba252ca53a379b),
    ("single-churn-crash", 56, 0xb9812d718f8ea5ab),
    ("single-recovery-ladder", 21, 0x9495d6fa7948a9d4),
];

/// FNV-1a of `serde_json::to_string(&outcome.last_checkpoint)` for
/// `single-crash-0`: the resumable checkpoint a crashed and resumed run
/// ends with, byte for byte.
const GOLDEN_LAST_CHECKPOINT: u64 = 0xb71708199d3b4ba0;

fn jsonl(plan: &FaultPlan, wl: &Workload, cases: usize, in_flight: usize) -> String {
    MultiCaseScenario::new(plan, wl, cases)
        .max_in_flight(in_flight)
        .traced()
        .run()
        .trace
        .expect("traced")
        .to_jsonl()
}

/// The churn fleet of `plan_cache_conformance`: six dinner cases lose
/// both `cook` hosts and replan the same content-addressed problem.
fn churn(cache: Option<PlanCacheHandle>) -> String {
    let plan = cook_loss_churn_plan(23);
    let wl = dinner_replan_workload(11);
    let mut scenario = MultiCaseScenario::new(&plan, &wl, 6)
        .max_in_flight(6)
        .traced();
    if let Some(cache) = cache {
        scenario = scenario.plan_cache(cache);
    }
    scenario.run().trace.expect("traced").to_jsonl()
}

/// Kill a flaky fleet mid-run, recover it from the same store, and
/// return the store's merged log plus the payload of the snapshot the
/// recovery started from.
fn kill_recover() -> (String, Vec<u8>) {
    let plan = FaultPlan::seeded(7).failing_activities(0.2);
    let wl = dinner_workload();
    let scenario = || MultiCaseScenario::new(&plan, &wl, 4).max_in_flight(2);
    let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(MemStore::new()));
    let crashed = scenario().store(store.clone(), 2).kill_at(5).run();
    assert!(crashed.engine.killed, "the run should have been killed");
    let snapshot = store
        .lock()
        .unwrap()
        .latest_snapshot()
        .unwrap()
        .expect("the crashed run snapshots before the kill tick");
    let recovered = scenario()
        .store(store.clone(), 2)
        .recover()
        .expect("recovery succeeds");
    assert!(!recovered.engine.killed);
    let merged = merged_jsonl(&store.lock().unwrap().replay_from(0).unwrap());
    (merged, snapshot.state)
}

/// Every pinned scenario's merged JSONL, in table order, and the
/// kill→recover snapshot payload.
fn traces() -> (Vec<(String, String)>, Vec<u8>) {
    let dinner = dinner_workload();
    let recovery = dinner_recovery_workload();
    let mut out: Vec<(String, String)> = Vec::new();
    for seed in 0..32u64 {
        let plan = FaultPlan::seeded(seed).failing_activities(0.2);
        out.push((format!("flaky-{seed}"), jsonl(&plan, &dinner, 5, 3)));
    }
    for cases in [1, 2, 4, 8] {
        out.push((
            format!("clean-{cases}"),
            jsonl(&FaultPlan::default(), &dinner, cases, 4),
        ));
    }
    out.push((
        "contended-5".into(),
        jsonl(&FaultPlan::seeded(5).losing_node("ac-h1", 0), &dinner, 4, 4),
    ));
    for seed in [3, 17, 29] {
        let plan = FaultPlan::seeded(seed)
            .failing_activities(0.1)
            .partitioning("coordinator", "ac-h0", 2, 6);
        out.push((format!("partitioned-{seed}"), jsonl(&plan, &recovery, 3, 3)));
    }
    out.push((
        "node-loss-7".into(),
        jsonl(
            &FaultPlan::seeded(7)
                .failing_activities(0.1)
                .losing_node("ac-h2", 3),
            &dinner,
            3,
            3,
        ),
    ));
    for seed in [2, 13, 31] {
        let plan = FaultPlan::seeded(seed)
            .failing_activities(0.3)
            .transient_failures();
        out.push((
            format!("recovery-ladder-{seed}"),
            jsonl(&plan, &recovery, 3, 2),
        ));
    }
    out.push((
        "refused".into(),
        jsonl(
            &FaultPlan::seeded(3)
                .losing_node("ac-h2", 0)
                .losing_node("ac-h3", 0),
            &dinner,
            3,
            2,
        ),
    ));
    // The nightly chaos sweep's plan recipe (node loss and a partition
    // window together), first eight seeds.
    for seed in 0..8u64 {
        let (wl, cases, in_flight) = if seed % 3 == 0 {
            (&recovery, 3, 2)
        } else {
            (&dinner, 4, 3)
        };
        let plan = FaultPlan::seeded(seed)
            .failing_activities(0.15)
            .losing_node(
                if seed % 2 == 0 { "ac-h1" } else { "ac-h4" },
                seed as usize % 5,
            )
            .partitioning(
                "coordinator",
                if seed % 2 == 0 { "ac-h2" } else { "ac-h0" },
                1 + seed % 3,
                4 + seed % 4,
            );
        out.push((format!("chaos-{seed}"), jsonl(&plan, wl, cases, in_flight)));
    }
    out.push((
        "virus".into(),
        jsonl(
            &FaultPlan::default(),
            &virus_reconstruction_workload(),
            2,
            16,
        ),
    ));
    for shape in GraphShape::ALL {
        let wl = WorkloadGen::new(42)
            .shape(shape)
            .width(3)
            .depth(2)
            .heterogeneous_capacity(true)
            .fleet(3)
            .build();
        out.push((
            format!("generated-{}", shape.name()),
            jsonl(&FaultPlan::default(), &wl, 3, 2),
        ));
    }
    out.push(("churn-uncached".into(), churn(None)));
    out.push((
        "churn-cached".into(),
        churn(Some(PlanCacheHandle::in_proc())),
    ));
    let (merged, snapshot) = kill_recover();
    out.push(("kill-recover".into(), merged));
    (out, snapshot)
}

/// Every pinned single-case scenario, in table order: the dinner under
/// a scripted coordinator crash after checkpoint 1 (eight flaky seeds),
/// the replan churn (uninterrupted, and crashed into a replanning
/// resume) and the recovery ladder.
fn single_case_outcomes() -> Vec<(String, ScenarioOutcome)> {
    let run = |plan: &FaultPlan, wl: &Workload| Scenario::new(plan, wl).budget(4).traced().run();
    let mut out: Vec<(String, ScenarioOutcome)> = Vec::new();
    for seed in 0..8u64 {
        let plan = FaultPlan::seeded(seed)
            .failing_activities(0.2)
            .crashing_after(1);
        out.push((
            format!("single-crash-{seed}"),
            run(&plan, &dinner_workload()),
        ));
    }
    // The cook hosts die after execution 1; the single-case runner
    // stages losses between phases, so only the crashed variant loses
    // them (on resume) and replans.
    let replan = dinner_replan_workload(11);
    out.push((
        "single-churn".into(),
        run(&cook_loss_churn_plan(23), &replan),
    ));
    out.push((
        "single-churn-crash".into(),
        run(&cook_loss_churn_plan(23).crashing_after(0), &replan),
    ));
    let ladder = FaultPlan::seeded(2)
        .failing_activities(0.3)
        .transient_failures();
    out.push((
        "single-recovery-ladder".into(),
        run(&ladder, &dinner_recovery_workload()),
    ));
    out
}

fn trace_of(outcome: &ScenarioOutcome) -> String {
    outcome.trace.as_ref().expect("traced").to_jsonl()
}

fn last_checkpoint_json(outcome: &ScenarioOutcome) -> String {
    serde_json::to_string(&outcome.last_checkpoint).expect("checkpoints serialize")
}

/// Compare `(name, jsonl)` rows against a pinned table, listing every
/// row that moved.
fn check_rows(rows: &[(String, String)], golden: &[(&str, usize, u64)], moved: &mut Vec<String>) {
    assert_eq!(rows.len(), golden.len(), "scenario list and table differ");
    for ((name, jsonl), &(golden_name, records, hash)) in rows.iter().zip(golden) {
        assert_eq!(name, golden_name, "scenario order and table order differ");
        let got = (jsonl.lines().count(), fnv1a64(jsonl.as_bytes()));
        if got != (records, hash) {
            moved.push(format!(
                "{name}: pinned ({records}, {hash:#018x}), got ({}, {:#018x})",
                got.0, got.1
            ));
        }
    }
}

fn print_rows(table: &str, rows: &[(String, String)]) {
    println!("const {table}: &[(&str, usize, u64)] = &[");
    for (name, jsonl) in rows {
        println!(
            "    ({name:?}, {}, {:#018x}),",
            jsonl.lines().count(),
            fnv1a64(jsonl.as_bytes())
        );
    }
    println!("];");
}

#[test]
fn traces_match_the_pinned_goldens() {
    let (traces, snapshot) = traces();
    let mut moved = Vec::new();
    check_rows(&traces, GOLDEN, &mut moved);
    let got = (snapshot.len(), fnv1a64(&snapshot));
    if got != GOLDEN_SNAPSHOT {
        moved.push(format!(
            "kill-recover snapshot payload: pinned ({}, {:#018x}), got ({}, {:#018x})",
            GOLDEN_SNAPSHOT.0, GOLDEN_SNAPSHOT.1, got.0, got.1
        ));
    }
    assert!(
        moved.is_empty(),
        "the trace moved across commits:\n{}",
        moved.join("\n")
    );
}

#[test]
fn single_case_traces_match_the_pinned_goldens() {
    let outcomes = single_case_outcomes();
    let rows: Vec<(String, String)> = outcomes
        .iter()
        .map(|(name, outcome)| (name.clone(), trace_of(outcome)))
        .collect();
    let mut moved = Vec::new();
    check_rows(&rows, GOLDEN_SINGLE, &mut moved);
    // The pinned checkpoint must come from a run the script really cut.
    let (name, crashed) = &outcomes[0];
    assert!(crashed.resumes >= 1, "{name} never crashed");
    let got = fnv1a64(last_checkpoint_json(crashed).as_bytes());
    if got != GOLDEN_LAST_CHECKPOINT {
        moved.push(format!(
            "{name} last checkpoint: pinned {GOLDEN_LAST_CHECKPOINT:#018x}, got {got:#018x}"
        ));
    }
    assert!(
        moved.is_empty(),
        "the single-case trace moved across commits:\n{}",
        moved.join("\n")
    );
}

#[test]
#[ignore = "regenerates the golden tables; paste its output over the GOLDEN* constants"]
fn print_goldens() {
    let (traces, snapshot) = traces();
    print_rows("GOLDEN", &traces);
    println!(
        "const GOLDEN_SNAPSHOT: (usize, u64) = ({}, {:#018x});",
        snapshot.len(),
        fnv1a64(&snapshot)
    );
    let outcomes = single_case_outcomes();
    let rows: Vec<(String, String)> = outcomes
        .iter()
        .map(|(name, outcome)| (name.clone(), trace_of(outcome)))
        .collect();
    print_rows("GOLDEN_SINGLE", &rows);
    println!(
        "const GOLDEN_LAST_CHECKPOINT: u64 = {:#018x};",
        fnv1a64(last_checkpoint_json(&outcomes[0].1).as_bytes())
    );
}

#[test]
#[ignore = "writes every pinned trace and the snapshot payload under target/tmp/trace_golden"]
fn dump_goldens() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace_golden");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the dump directory is creatable");
    let write = |file: String, bytes: &[u8]| {
        std::fs::write(dir.join(file), bytes).expect("the dump directory is writable")
    };
    let (traces, snapshot) = traces();
    for (name, jsonl) in &traces {
        write(format!("{name}.jsonl"), jsonl.as_bytes());
    }
    write("kill-recover.snapshot.json".into(), &snapshot);
    for (name, outcome) in &single_case_outcomes() {
        write(format!("{name}.jsonl"), trace_of(outcome).as_bytes());
        write(
            format!("{name}.last_checkpoint.json"),
            last_checkpoint_json(outcome).as_bytes(),
        );
    }
    println!("dumped to {}", dir.display());
}
