//! Integration of failure handling: container loss, stochastic failures,
//! retry fallbacks, and the §3.3 re-planning escalation, on the
//! case-study workflow.

use gridflow::casestudy;
use gridflow::prelude::*;
use gridflow_grid::failure::FailureModel;

fn enactment_config(seed: u64) -> EnactmentConfig {
    EnactmentConfig {
        max_replans: 3,
        planning_goals: casestudy::planning_problem().goals,
        // Fresh GP plans are loop-free; re-attach the case's refinement
        // loop so the resolution goal stays reachable after a re-plan.
        wrap_replans_with_constraint: Some("Cons1".into()),
        gp: GpConfig {
            seed,
            ..GpConfig::default()
        },
        ..EnactmentConfig::default()
    }
}

#[test]
fn retry_uses_backup_containers() {
    let mut world = casestudy::virtual_lab_world(0, 1);
    // The primary P3DR hosts die; anl-backup keeps the service alive.
    world.set_container_up("ac-purdue-sp2", false).unwrap();
    world.set_container_up("ac-sdsc-sp3", false).unwrap();
    let graph = casestudy::process_description();
    let case = casestudy::case_description();
    let report = Enactor::default().enact(&mut world, &graph, &case);
    assert!(report.success, "abort: {:?}", report.abort_reason);
    assert!(report
        .executions
        .iter()
        .filter(|e| e.service == "P3DR")
        .all(|e| e.container == "ac-anl-backup"));
}

#[test]
fn losing_every_host_of_a_required_service_fails_without_replanning() {
    let mut world = casestudy::virtual_lab_world(0, 2);
    for c in world.hosting_containers("P3DR") {
        world.set_container_up(&c, false).unwrap();
    }
    let graph = casestudy::process_description();
    let case = casestudy::case_description();
    let report = Enactor::default().enact(&mut world, &graph, &case);
    assert!(!report.success);
    assert!(report.abort_reason.is_some());
    assert_eq!(report.replans, 0);
}

#[test]
fn replanning_cannot_save_an_irreplaceable_service() {
    // P3DR is the only producer of 3D models: re-planning must try and
    // honestly fail.
    let mut world = casestudy::virtual_lab_world(0, 3);
    for c in world.hosting_containers("P3DR") {
        world.set_container_up(&c, false).unwrap();
    }
    let graph = casestudy::process_description();
    let case = casestudy::case_description();
    let report = Enactor::builder()
        .config(enactment_config(3))
        .build()
        .enact(&mut world, &graph, &case);
    assert!(!report.success);
    assert!(report.replans >= 1, "re-planning was attempted");
    assert!(report
        .abort_reason
        .as_deref()
        .unwrap()
        .contains("no viable plan"));
}

#[test]
fn replanning_routes_around_a_replaceable_service() {
    // Add an alternative reconstruction service, then kill P3DR: the
    // re-planner must switch to the alternative.
    let mut world = casestudy::virtual_lab_world(0, 4);
    world.offer(ServiceOffering::new(
        "P3DR-GPU",
        ["P3DR-Parameter", "2D Image", "Orientation File"],
        vec![OutputSpec::plain("3D Model")],
    ));
    // Host it on the UCF clusters.
    for (resource, container) in [
        ("ucf-cluster-1", "ac-ucf-cluster-1"),
        ("ucf-cluster-2", "ac-ucf-cluster-2"),
    ] {
        world
            .topology
            .resources
            .iter_mut()
            .find(|r| r.id == resource)
            .unwrap()
            .software
            .push("P3DR-GPU".into());
        world
            .topology
            .containers
            .iter_mut()
            .find(|c| c.id == container)
            .unwrap()
            .services
            .push("P3DR-GPU".into());
    }
    for c in world.hosting_containers("P3DR") {
        world.set_container_up(&c, false).unwrap();
    }
    let graph = casestudy::process_description();
    let case = casestudy::case_description();
    let report = Enactor::builder()
        .config(enactment_config(4))
        .build()
        .enact(&mut world, &graph, &case);
    assert!(report.success, "abort: {:?}", report.abort_reason);
    assert!(report.replans >= 1);
    assert!(report.executions.iter().any(|e| e.service == "P3DR-GPU"));
    assert!(
        report
            .executions
            .iter()
            .filter(|e| e.service == "P3DR")
            .count()
            <= 1,
        "dead service must not be re-dispatched after the re-plan"
    );
}

#[test]
fn stochastic_failures_degrade_success_without_retries() {
    // Sweep the per-execution failure probability; success of a
    // no-retry enactor should fall as failures rise, and a retrying
    // enactor should dominate it.
    let run = |failure_prob: f64, retries: usize, seed: u64| -> usize {
        let mut successes = 0;
        for trial in 0..10u64 {
            let mut world = casestudy::virtual_lab_world(0, 5);
            world.failure = if failure_prob == 0.0 {
                FailureModel::none()
            } else {
                FailureModel::new(seed * 100 + trial, failure_prob)
            };
            world.failures_are_persistent = false;
            let config = EnactmentConfig {
                max_candidates: retries,
                ..EnactmentConfig::default()
            };
            let report = Enactor::builder().config(config).build().enact(
                &mut world,
                &casestudy::process_description(),
                &casestudy::case_description(),
            );
            if report.success {
                successes += 1;
            }
        }
        successes
    };
    let clean = run(0.0, 1, 1);
    assert_eq!(clean, 10, "no failures ⇒ always succeeds");
    let flaky_no_retry = run(0.30, 1, 2);
    let flaky_retry = run(0.30, 3, 2);
    assert!(
        flaky_no_retry < 10,
        "30% failure must sink some no-retry runs"
    );
    assert!(
        flaky_retry >= flaky_no_retry,
        "retries must not hurt: {flaky_retry} vs {flaky_no_retry}"
    );
}

#[test]
fn failed_attempts_are_recorded_for_the_brokerage_history() {
    let mut world = casestudy::virtual_lab_world(0, 6);
    world.set_container_up("ac-purdue-sp2", false).unwrap();
    world.set_container_up("ac-sdsc-sp3", false).unwrap();
    let report = Enactor::default().enact(
        &mut world,
        &casestudy::process_description(),
        &casestudy::case_description(),
    );
    assert!(report.success);
    // Matchmaking filters downed containers, so no failed attempts are
    // logged here — but the broker still learns from world history.
    use gridflow_services::brokerage::BrokerageService;
    let mut broker = BrokerageService::new();
    broker.refresh(&world);
    assert!(broker.expected_duration("P3DR").is_some());
    let stats = broker.performance("P3DR", "ac-anl-backup");
    assert!(stats.successes > 0);
}
