//! The fault-injection conformance suite (hosted by `gridflow-harness`).
//!
//! Asserts the deterministic-simulation contract across the stack, every
//! enactment a [`MultiCaseScenario`] fleet of one (what survives a
//! process death is `tests/store_crash_replay.rs`'s theorem):
//!
//! 1. replanning converges after node loss;
//! 2. identical seeds yield byte-identical [`EnactmentReport`]s, and
//!    differing seeds yield different fault schedules;
//! 3. the booted agent stack survives message faults and agent crashes
//!    (degrading to timeouts, never to wrong answers);
//! 4. what a report accounts for, its trace shows, and every trace
//!    passes [`TraceQuery::check_all`];
//! 5. the recovery ladder completes scenarios the one-shot candidate
//!    loop fails.
//!
//! [`EnactmentReport`]: gridflow_services::coordination::EnactmentReport

use gridflow_agents::{AclMessage, AgentError, AgentRuntime, Performative, Transport};
use gridflow_engine::CaseOutcome;
use gridflow_harness::workload::{
    cook_loss_churn_plan, dinner_recovery_workload, dinner_replan_workload, dinner_workload,
    Workload,
};
use gridflow_harness::{
    FaultPlan, FaultyTransport, MultiCaseScenario, TraceEvent, TraceQuery, VirtualClock,
};
use gridflow_planner::prelude::GpConfig;
use gridflow_services::agents::{boot_stack, GRIDFLOW_ONTOLOGY};
use gridflow_services::coordination::EnactmentConfig;
use gridflow_services::planning::PlanningService;
use gridflow_services::world::share;
use serde_json::json;
use std::sync::Arc;
use std::time::Duration;

/// Enact `wl` under `plan` as a fleet of one: the case's outcome, its
/// trace (which has passed every whole-trace invariant) and the trace's
/// JSONL.
fn enact_one(plan: &FaultPlan, wl: &Workload) -> (CaseOutcome, TraceQuery, String) {
    let mut outcome = MultiCaseScenario::new(plan, wl, 1).traced().run();
    let log = outcome.trace.expect("traced run keeps its log");
    let q = TraceQuery::new(log.records());
    let world = wl.fresh_world(plan, 0);
    if let Err(violations) = q.check_all(world.capacities()) {
        panic!("{} under {plan:?}: {violations:?}", wl.name);
    }
    (outcome.engine.cases.remove(0), q, log.to_jsonl())
}

// -------------------------------------------------------------------- 1

#[test]
fn replanning_converges_after_node_loss() {
    // Both `cook` hosts are lost once `prep` has run.  With replanning
    // on, the planner must route around the loss via `nuke` and the
    // task must still complete.
    let (case, _, _) = enact_one(&cook_loss_churn_plan(1), &dinner_replan_workload(11));
    let report = case.report;
    assert!(report.success, "abort: {:?}", report.abort_reason);
    assert!(report.replans >= 1, "no replanning happened");
    assert!(
        report.executions.iter().any(|e| e.service == "nuke"),
        "expected the alternative cooker; executions: {:?}",
        report.executions
    );
}

// -------------------------------------------------------------------- 2

#[test]
fn identical_seeds_yield_byte_identical_reports() {
    for seed in [0, 7, 42] {
        let plan = FaultPlan::seeded(seed).failing_activities(0.3);
        let wl = dinner_workload();
        let (a, _, _) = enact_one(&plan, &wl);
        let (b, _, _) = enact_one(&plan, &wl);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "seed {seed} did not replay byte-identically"
        );
    }
}

#[test]
fn differing_seeds_yield_different_fault_schedules() {
    // Drive the same message sequence through transports seeded
    // differently: the decision logs must diverge.
    let sequence: Vec<AclMessage> = (0..128)
        .map(|i| AclMessage::new(Performative::Inform, "a", "b", "t", json!(i)))
        .collect();
    let mut schedules = Vec::new();
    for seed in [1u64, 2, 3] {
        let t = FaultyTransport::new(
            FaultPlan::seeded(seed)
                .dropping(0.2)
                .duplicating(0.2)
                .delaying(0.2, 2),
            VirtualClock::new(),
        );
        for m in &sequence {
            let _ = t.intercept(m.clone());
        }
        schedules.push(t.schedule());
    }
    assert_ne!(schedules[0], schedules[1]);
    assert_ne!(schedules[1], schedules[2]);
    // And differing seeds also shake the enactment itself.
    let wl = dinner_workload();
    let (r1, _, _) = enact_one(&FaultPlan::seeded(100).failing_activities(0.5), &wl);
    let (r2, _, _) = enact_one(&FaultPlan::seeded(101).failing_activities(0.5), &wl);
    assert_ne!(
        r1, r2,
        "different seeds produced identical outcomes under heavy failure"
    );
}

// -------------------------------------------------------------------- 3

fn booted_stack(
    rt: &mut AgentRuntime,
) -> (
    gridflow_services::agents::StackHandles,
    gridflow_process::ProcessGraph,
    gridflow_process::CaseDescription,
) {
    let wl = dinner_workload();
    let world = share(wl.fresh_world(&FaultPlan::default(), 0));
    let gp = GpConfig {
        population_size: 60,
        generations: 20,
        seed: 2,
        ..GpConfig::default()
    };
    let stack = boot_stack(
        rt,
        world,
        PlanningService::new(gp),
        EnactmentConfig::default(),
    )
    .expect("stack boots");
    (stack, wl.graph, wl.case)
}

#[test]
fn stack_survives_message_faults_and_recovers_when_they_stop() {
    let mut rt = AgentRuntime::new();
    let (stack, graph, case) = booted_stack(&mut rt);

    // Install a lossy transport *after* boot (registration traffic is
    // not the subject under test): drops, duplicates and delays.
    let plan = FaultPlan::seeded(5)
        .dropping(0.1)
        .duplicating(0.3)
        .delaying(0.2, 2);
    let transport = Arc::new(FaultyTransport::new(plan, VirtualClock::new()));
    rt.set_transport(transport.clone());

    let enact = json!({"action": "enact", "graph": graph, "case": case});
    for _ in 0..4 {
        match stack.client.request(
            &stack.coordination,
            GRIDFLOW_ONTOLOGY,
            enact.clone(),
            Duration::from_secs(5),
        ) {
            // Degraded, never wrong: a reply that does arrive carries a
            // correct report.
            Ok(reply) => {
                assert_eq!(reply.content["report"]["success"], json!(true));
            }
            // Dropped request or reply → timeout.  Acceptable under loss.
            Err(AgentError::Timeout { .. }) => {}
            Err(other) => panic!("unexpected failure under message faults: {other}"),
        }
    }
    assert!(!transport.schedule().is_empty(), "transport saw no traffic");

    // Faults stop → the stack must answer again.
    rt.directory().clear_transport();
    let reply = stack
        .client
        .request(
            &stack.coordination,
            GRIDFLOW_ONTOLOGY,
            enact,
            Duration::from_secs(10),
        )
        .expect("stack must recover once faults stop");
    assert_eq!(reply.content["report"]["success"], json!(true));
    rt.shutdown();
}

#[test]
fn stack_survives_message_reordering_and_recovers_when_it_stops() {
    let mut rt = AgentRuntime::new();
    let (stack, graph, case) = booted_stack(&mut rt);

    // Reordering swaps adjacent deliveries: a request can arrive after
    // the message sent behind it.  The stack must stay degraded-only —
    // a reply that arrives is correct, a swap that starves a waiter is
    // a timeout, and nothing is ever wrong.
    let plan = FaultPlan::seeded(9).reordering(0.3);
    let transport = Arc::new(FaultyTransport::new(plan, VirtualClock::new()));
    rt.set_transport(transport.clone());

    let enact = json!({"action": "enact", "graph": graph, "case": case});
    for _ in 0..4 {
        match stack.client.request(
            &stack.coordination,
            GRIDFLOW_ONTOLOGY,
            enact.clone(),
            Duration::from_secs(5),
        ) {
            Ok(reply) => {
                assert_eq!(reply.content["report"]["success"], json!(true));
            }
            Err(AgentError::Timeout { .. }) => {}
            Err(other) => panic!("unexpected failure under reordering: {other}"),
        }
    }
    assert!(!transport.schedule().is_empty(), "transport saw no traffic");

    // Reordering stops → the stack must answer again.
    rt.directory().clear_transport();
    let reply = stack
        .client
        .request(
            &stack.coordination,
            GRIDFLOW_ONTOLOGY,
            enact,
            Duration::from_secs(10),
        )
        .expect("stack must recover once reordering stops");
    assert_eq!(reply.content["report"]["success"], json!(true));
    rt.shutdown();
}

#[test]
fn crashed_coordination_agent_fails_over_to_a_replica() {
    let mut rt = AgentRuntime::new();
    let (stack, graph, case) = booted_stack(&mut rt);

    // Spawn a replica, crash the primary, and verify the replica picks
    // up enactments (the §2 replication story).
    let wl = dinner_workload();
    let world2 = share(wl.fresh_world(&FaultPlan::default(), 0));
    rt.spawn(gridflow_services::agents::CoordinationAgent::new(
        "coordination-2",
        EnactmentConfig::default(),
        world2,
    ))
    .expect("replica spawns");
    rt.stop_agent(&stack.coordination).expect("primary stops");

    // The crashed primary is gone from the directory…
    let enact = json!({"action": "enact", "graph": graph, "case": case});
    assert!(matches!(
        stack.client.request(
            &stack.coordination,
            GRIDFLOW_ONTOLOGY,
            enact.clone(),
            Duration::from_secs(2),
        ),
        Err(AgentError::UnknownAgent(_))
    ));
    // …and the replica answers in its stead.
    let reply = stack
        .client
        .request("coordination-2", "gridflow", enact, Duration::from_secs(10))
        .expect("replica must answer");
    assert_eq!(reply.content["report"]["success"], json!(true));
    rt.shutdown();
}

#[test]
fn duplicated_requests_do_not_corrupt_reply_correlation() {
    // Every message delivered twice: the client must still correlate
    // exactly one reply per request and the reports must be correct.
    struct DuplicateEverything;
    impl Transport for DuplicateEverything {
        fn intercept(&self, msg: AclMessage) -> Vec<AclMessage> {
            vec![msg.clone(), msg]
        }
    }
    let mut rt = AgentRuntime::new();
    let (stack, graph, case) = booted_stack(&mut rt);
    rt.set_transport(Arc::new(DuplicateEverything));
    for _ in 0..3 {
        let reply = stack
            .client
            .request(
                &stack.coordination,
                GRIDFLOW_ONTOLOGY,
                json!({"action": "enact", "graph": graph, "case": case}),
                Duration::from_secs(10),
            )
            .expect("duplication must not break request/reply");
        assert_eq!(reply.content["report"]["success"], json!(true));
    }
    rt.shutdown();
}

// -------------------------------------------------------------------- 4

#[test]
fn every_report_invariant_also_holds_in_trace_form() {
    // `enact_one` has run `check_all` over each trace; on top of that,
    // every execution the report accounts for is a completion in the
    // trace and the trace holds no other.
    for seed in 0..8 {
        let plan = FaultPlan::seeded(seed).failing_activities(0.2);
        let (case, q, _) = enact_one(&plan, &dinner_workload());
        for e in &case.report.executions {
            assert_eq!(
                q.count(|ev| matches!(
                    ev,
                    TraceEvent::ActivityCompleted { activity, .. } if *activity == e.activity
                )),
                1,
                "seed {seed}: execution of {} not traced once",
                e.activity
            );
        }
        assert_eq!(
            q.count(|ev| matches!(ev, TraceEvent::ActivityCompleted { .. })),
            case.report.executions.len(),
            "seed {seed}"
        );
    }
}

// -------------------------------------------------------------------- 5

/// The recovery acceptance scenario: one slow `prep` host (executions
/// succeed but outlive their leases) plus transient Bernoulli activity
/// failures.
fn degraded_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .failing_activities(0.5)
        .transient_failures()
        .slowing_container("ac-h1", 50.0)
}

#[test]
fn recovery_ladder_turns_failing_scenarios_into_completions() {
    // Sweep seeds over the degraded grid.  The one-shot candidate loop
    // (recovery disabled, no replanning) must fail on a healthy share
    // of them; the standard ladder must complete those same seeds, with
    // byte-identical traces across replays that carry the
    // retry/lease/breaker event families.
    let mut proven = 0;
    let mut saw_lease_expiry = false;
    for seed in 0..32 {
        let plan = degraded_plan(seed);
        let (legacy, _, _) = enact_one(&plan, &dinner_workload());

        let wl = dinner_recovery_workload();
        let (recovered, q, jsonl) = enact_one(&plan, &wl);
        assert_eq!(
            jsonl,
            enact_one(&plan, &wl).2,
            "seed {seed}: recovery traces must replay byte-identically"
        );

        if !legacy.report.success && recovered.report.success {
            // The slow host burns its retries and trips its breaker on
            // the way to the healthy one — visibly, in the trace.
            assert!(
                q.count(|e| matches!(e, TraceEvent::RetryScheduled { .. })) >= 1,
                "seed {seed}: no retry scheduled"
            );
            assert!(
                q.count(|e| matches!(e, TraceEvent::LeaseGranted { .. })) >= 1,
                "seed {seed}: no lease granted"
            );
            assert!(
                q.count(|e| matches!(e, TraceEvent::BreakerOpened { .. })) >= 1,
                "seed {seed}: no breaker opened"
            );
            saw_lease_expiry |= q.count(|e| matches!(e, TraceEvent::LeaseExpired { .. })) >= 1;
            proven += 1;
        }
    }
    assert!(
        proven >= 8,
        "only {proven}/32 seeds showed the ladder beating the one-shot loop"
    );
    assert!(saw_lease_expiry, "no proven seed ever expired a lease");
}

#[test]
#[ignore = "nightly: 32-seed lease+breaker replay-determinism sweep"]
fn nightly_recovery_seed_sweep() {
    for seed in 0..32 {
        let plan = degraded_plan(seed);
        let wl = dinner_recovery_workload();
        let (a, _, log_a) = enact_one(&plan, &wl);
        let (b, _, log_b) = enact_one(&plan, &wl);
        assert_eq!(a, b, "seed {seed}: outcome must replay identically");
        assert_eq!(
            log_a, log_b,
            "seed {seed}: trace must replay byte-identically"
        );
    }
}
