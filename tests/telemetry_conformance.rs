//! Trace-based conformance suite (hosted by `gridflow-harness`).
//!
//! Where `fault_conformance.rs` asserts over final *reports*, this suite
//! asserts over the *event trace* a run emits: the ordered, virtually
//! timestamped record of every dispatch, fault and replan.  Every
//! deterministic run here is a [`MultiCaseScenario`] fleet of one whose
//! trace has passed [`TraceQuery::check_all`]; on top of that:
//!
//! 1. a clean run produces a coherent span structure — one dispatch per
//!    activity, sequential ordering, zero retries;
//! 2. identical seeds produce **byte-identical JSONL event logs**;
//!    differing seeds produce differing ones; tracing never perturbs
//!    the run;
//! 3. the trace's retry and completion counts are the report's;
//! 4. every message dropped by a faulty transport is followed by a
//!    timeout or a retry — never by a wrong answer
//!    ([`TraceQuery::check_all`] on the live stack's trace);
//! 5. replanning, node loss and the recovery ladder appear in the trace
//!    in causal order;
//! 6. the metrics registry folded from a trace agrees with the
//!    enactment report's own accounting.

use gridflow_agents::{AgentError, AgentRuntime};
use gridflow_engine::CaseOutcome;
use gridflow_harness::workload::{
    cook_loss_churn_plan, dinner_recovery_workload, dinner_replan_workload, dinner_workload,
    Workload,
};
use gridflow_harness::{
    FaultPlan, FaultyTransport, MetricsRegistry, MultiCaseScenario, TraceEvent, TraceLog,
    TraceQuery, TraceSink, VirtualClock,
};
use gridflow_planner::prelude::GpConfig;
use gridflow_services::agents::{boot_stack, GRIDFLOW_ONTOLOGY};
use gridflow_services::coordination::EnactmentConfig;
use gridflow_services::monitoring::MonitoringService;
use gridflow_services::planning::PlanningService;
use gridflow_services::world::share;
use serde_json::json;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Enact `wl` under `plan` as a traced fleet of one: the case's outcome
/// and its log, which has passed every whole-trace invariant.
fn enact_one(plan: &FaultPlan, wl: &Workload) -> (CaseOutcome, TraceLog) {
    let mut outcome = MultiCaseScenario::new(plan, wl, 1).traced().run();
    let log = outcome.trace.expect("traced run keeps its log");
    let world = wl.fresh_world(plan, 0);
    if let Err(violations) = query(&log).check_all(world.capacities()) {
        panic!("{} under {plan:?}: {violations:?}", wl.name);
    }
    (outcome.engine.cases.remove(0), log)
}

fn query(log: &TraceLog) -> TraceQuery {
    TraceQuery::new(log.records())
}

/// Distinct activity ids that were dispatched, in first-dispatch order.
fn dispatched_activities(q: &TraceQuery) -> Vec<String> {
    let mut seen = Vec::new();
    for r in q.records() {
        if let TraceEvent::ActivityDispatched { activity, .. } = &r.event {
            if !seen.contains(activity) {
                seen.push(activity.clone());
            }
        }
    }
    seen
}

// -------------------------------------------------------------------- 1

#[test]
fn clean_run_emits_a_coherent_span_structure() {
    let (case, log) = enact_one(&FaultPlan::default(), &dinner_workload());
    assert!(case.report.success);
    let q = query(&log);

    // Bracketing: the enactment starts before any dispatch and finishes
    // successfully.
    assert_eq!(
        q.check_happens_before(
            "enactment start",
            |e| matches!(e, TraceEvent::EnactmentStarted { .. }),
            "first dispatch",
            |e| matches!(e, TraceEvent::ActivityDispatched { .. }),
        ),
        Ok(())
    );
    assert_eq!(
        q.count(|e| matches!(e, TraceEvent::EnactmentFinished { success: true, .. })),
        1
    );

    // No faults were injected, none may appear.
    assert_eq!(q.count(|e| e.is_fault()), 0);

    // One span per activity, zero retries.
    let activities = dispatched_activities(&q);
    assert_eq!(activities.len(), 3, "dinner has three steps");
    for a in &activities {
        q.span(a).expect("every activity has a full span");
        assert_eq!(q.check_retry_count(a, 0), Ok(()));
    }

    // The linear dinner order holds in the trace: each step completes
    // before the next is dispatched.
    for pair in ["prep", "cook", "plate"].windows(2) {
        let (earlier, later) = (pair[0].to_string(), pair[1].to_string());
        assert_eq!(q.check_happens_before(
            "earlier step completes",
            |e| matches!(e, TraceEvent::ActivityCompleted { service, .. } if *service == earlier),
            "later step dispatches",
            |e| matches!(e, TraceEvent::ActivityDispatched { service, .. } if *service == later),
        ), Ok(()));
    }

    // Sequence numbers and virtual time are monotonically nondecreasing,
    // and the trace clock accumulated exactly the simulated duration.
    let records = q.records();
    for pair in records.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
        assert!(pair[0].at_s <= pair[1].at_s);
    }
    let total = case.report.total_duration_s;
    assert!(
        (records.last().unwrap().at_s - total).abs() < 1e-9,
        "trace clock {} != report duration {}",
        records.last().unwrap().at_s,
        total
    );
}

// -------------------------------------------------------------------- 2

#[test]
fn identical_seeds_produce_byte_identical_event_logs() {
    for seed in [0, 7, 42] {
        let plan = FaultPlan::seeded(seed).failing_activities(0.25);
        let wl = dinner_workload();
        let (_, log_a) = enact_one(&plan, &wl);
        let (_, log_b) = enact_one(&plan, &wl);
        assert!(!log_a.is_empty());
        assert_eq!(
            log_a.to_jsonl(),
            log_b.to_jsonl(),
            "seed {seed}: event logs must replay byte-identically"
        );
        assert_eq!(log_a.fingerprint(), log_a.to_jsonl());
        // And the JSONL round-trips to the same records.
        let parsed = TraceLog::from_jsonl(&log_a.to_jsonl()).expect("jsonl parses");
        assert_eq!(parsed, log_a.records());
    }
}

#[test]
fn differing_seeds_produce_differing_event_logs() {
    let wl = dinner_workload();
    let (_, a) = enact_one(&FaultPlan::seeded(100).failing_activities(0.5), &wl);
    let (_, b) = enact_one(&FaultPlan::seeded(101).failing_activities(0.5), &wl);
    assert_ne!(a.to_jsonl(), b.to_jsonl());
}

#[test]
fn tracing_does_not_perturb_the_run() {
    // Observation must be free: the traced and untraced scenarios unfold
    // the same plan to identical outcomes.
    let plan = FaultPlan::seeded(21).failing_activities(0.3);
    let wl = dinner_workload();
    let untraced = MultiCaseScenario::new(&plan, &wl, 1).run();
    assert!(untraced.trace.is_none());
    let traced = MultiCaseScenario::new(&plan, &wl, 1).traced().run();
    assert_eq!(untraced.engine, traced.engine);
}

// -------------------------------------------------------------------- 3

#[test]
fn retry_counts_match_the_report_accounting() {
    // Every `ActivityFailed` in the trace corresponds to one
    // `failed_attempts` entry in the report.
    let plan = FaultPlan::seeded(4).failing_activities(0.35);
    let (case, log) = enact_one(&plan, &dinner_workload());
    let report = case.report;
    let q = query(&log);
    for activity in dispatched_activities(&q) {
        let expected = report
            .failed_attempts
            .iter()
            .filter(|(a, _)| *a == activity)
            .count();
        assert_eq!(q.check_retry_count(&activity, expected), Ok(()));
    }
    assert_eq!(
        q.count(|e| matches!(e, TraceEvent::ActivityCompleted { .. })),
        report.executions.len()
    );
}

// -------------------------------------------------------------------- 5

#[test]
fn node_loss_and_abort_appear_in_the_trace() {
    // Both `cook` hosts lost once `prep` has run, no replanning: the
    // trace must record the losses and a failed enactment with a reason.
    let (case, log) = enact_one(&cook_loss_churn_plan(3), &dinner_workload());
    assert!(!case.report.success);
    let q = query(&log);
    assert_eq!(q.count(|e| matches!(e, TraceEvent::NodeLost { .. })), 2);
    assert_eq!(
        q.count(|e| matches!(
            e,
            TraceEvent::EnactmentFinished {
                success: false,
                abort_reason: Some(_)
            }
        )),
        1
    );
    assert_eq!(
        q.check_happens_before(
            "node loss",
            |e| matches!(e, TraceEvent::NodeLost { .. }),
            "failed finish",
            |e| matches!(e, TraceEvent::EnactmentFinished { success: false, .. }),
        ),
        Ok(())
    );
}

#[test]
fn replanning_emits_generations_and_causally_ordered_replan_events() {
    let (case, log) = enact_one(&cook_loss_churn_plan(1), &dinner_replan_workload(11));
    assert!(case.report.success);
    assert!(case.report.replans >= 1);
    let q = query(&log);
    // The GP left its per-generation statistics in the trace…
    assert!(q.count(|e| matches!(e, TraceEvent::PlanGeneration { .. })) > 0);
    // …the replan names the service it routes around…
    assert!(q
        .filter(|e| matches!(e, TraceEvent::ReplanTriggered { .. }))
        .any(|r| matches!(
            &r.event,
            TraceEvent::ReplanTriggered { excluded, .. } if excluded.iter().any(|s| s == "cook")
        )));
    // …and a viable plan is installed after the trigger, never before.
    assert_eq!(
        q.check_happens_before(
            "replan trigger",
            |e| matches!(e, TraceEvent::ReplanTriggered { .. }),
            "viable plan installed",
            |e| matches!(e, TraceEvent::ReplanInstalled { viable: true }),
        ),
        Ok(())
    );
}

#[test]
fn recovery_events_satisfy_breaker_and_lease_discipline() {
    // One slow `prep` host, no other faults: the escalation ladder
    // leases out all three tries on the slow container, opens its
    // breaker, and fails over — and the trace must show exactly that
    // (`enact_one` has checked the quarantine invariants).
    let plan = FaultPlan::seeded(3).slowing_container("ac-h1", 50.0);
    let (case, log) = enact_one(&plan, &dinner_recovery_workload());
    assert!(case.report.success);
    let q = query(&log);

    // Three leases granted and expired on the slow host, with a retry
    // scheduled between consecutive tries.
    assert_eq!(q.lease_expiry_count("prep"), 3);
    assert_eq!(q.retry_schedule_count("prep"), 2);
    assert!(q.count(|e| matches!(e, TraceEvent::LeaseGranted { .. })) >= 4);

    // The breaker opens exactly once, for the slow container only.
    assert_eq!(
        q.count(|e| matches!(
            e,
            TraceEvent::BreakerOpened { container, .. } if container == "ac-h1"
        )),
        1
    );
    assert_eq!(
        q.count(|e| matches!(e, TraceEvent::BreakerOpened { .. })),
        1
    );

    // Causality: the first lease expiry precedes the breaker opening,
    // which precedes the successful finish on the healthy host.
    assert_eq!(
        q.check_happens_before(
            "first lease expiry",
            |e| matches!(e, TraceEvent::LeaseExpired { .. }),
            "breaker opens",
            |e| matches!(e, TraceEvent::BreakerOpened { .. }),
        ),
        Ok(())
    );
    assert_eq!(
        q.check_happens_before(
            "breaker opens",
            |e| matches!(e, TraceEvent::BreakerOpened { .. }),
            "successful finish",
            |e| matches!(e, TraceEvent::EnactmentFinished { success: true, .. }),
        ),
        Ok(())
    );
}

// -------------------------------------------------------------------- 6

#[test]
fn metrics_registry_agrees_with_the_trace_and_the_report() {
    let (case, log) = enact_one(&FaultPlan::default(), &dinner_workload());
    let report = case.report;
    let records = log.records();
    let m = MetricsRegistry::from_trace(&records);
    assert_eq!(
        m.counter("activity.completed") as usize,
        report.executions.len()
    );
    assert_eq!(m.counter("activity.failed"), 0);
    assert_eq!(m.message_fault_ratio(), 0.0);
    for service in ["prep", "cook", "plate"] {
        let h = m
            .latency(service)
            .unwrap_or_else(|| panic!("no latency histogram for {service}"));
        assert_eq!(h.count, 1);
    }
    // The monitoring service surfaces the same registry next to live
    // availability.
    let world = dinner_workload().fresh_world(&FaultPlan::default(), 0);
    let summary = MonitoringService.summary(&world, &records);
    assert_eq!(summary.availability, 1.0);
    assert_eq!(summary.metrics, m);
    assert!(m.render().contains("activity.completed"));
}

// -------------------------------------------------------------------- 4

#[test]
fn live_stack_drops_resolve_to_timeouts_or_retries_never_wrong_answers() {
    // The live multi-threaded stack cannot promise byte-identical traces
    // (thread interleaving orders the log), but the *invariants* must
    // still hold on whatever trace a run produces.
    let mut rt = AgentRuntime::new();
    let wl = dinner_workload();
    let world = share(wl.fresh_world(&FaultPlan::default(), 0));
    let gp = GpConfig {
        population_size: 60,
        generations: 20,
        seed: 2,
        ..GpConfig::default()
    };
    let stack = boot_stack(
        &mut rt,
        world,
        PlanningService::new(gp),
        EnactmentConfig::default(),
    )
    .expect("stack boots");

    let log = TraceLog::new();
    let sink: Arc<dyn TraceSink> = Arc::new(log.clone());
    rt.set_trace_sink(sink.clone());
    let transport = Arc::new(
        FaultyTransport::new(
            FaultPlan::seeded(5).dropping(0.15).duplicating(0.2),
            VirtualClock::new(),
        )
        .with_trace(sink),
    );
    rt.set_transport(transport.clone());

    let enact = json!({"action": "enact", "graph": wl.graph, "case": wl.case});
    for _ in 0..6 {
        match stack.client.request(
            &stack.coordination,
            GRIDFLOW_ONTOLOGY,
            enact.clone(),
            Duration::from_secs(5),
        ) {
            Ok(reply) => log.emit(
                "client",
                TraceEvent::RequestAnswered {
                    agent: stack.coordination.clone(),
                    correct: reply.content["report"]["success"] == json!(true),
                },
            ),
            Err(AgentError::Timeout { .. }) => log.emit(
                "client",
                TraceEvent::RequestTimedOut {
                    agent: stack.coordination.clone(),
                },
            ),
            Err(other) => panic!("unexpected failure under faults: {other}"),
        }
    }
    rt.directory().clear_transport();
    rt.shutdown();

    let q = query(&log);
    assert!(
        q.count(|e| matches!(e, TraceEvent::MessageSent { .. })) > 0,
        "directory emitted no traffic"
    );
    // Every drop the transport recorded is resolved later in the trace,
    // and no request was ever answered incorrectly.
    assert_eq!(q.check_all(&BTreeMap::new()), Ok(()));
}
