//! Recovery failover: the same degraded scenario enacted twice — once
//! with recovery disabled (it fails) and once under the standard
//! escalation ladder (retry with backoff → lease-driven failover →
//! circuit-breaker quarantine), where it completes.
//!
//! ```sh
//! cargo run --example recovery_failover          # default seed 7
//! cargo run --example recovery_failover -- 3     # any other seed
//! ```

use gridflow_harness::workload::{dinner_recovery_workload, dinner_workload};
use gridflow_harness::{FaultPlan, MultiCaseScenario, TraceEvent, TraceQuery};
use std::collections::BTreeMap;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);

    // A degraded grid: every execution fails half the time (transient),
    // and one `prep` host runs 50× slow — it still "succeeds", just far
    // too late, the mode leases (not failure counters) exist to catch.
    let plan = FaultPlan::seeded(seed)
        .failing_activities(0.5)
        .transient_failures()
        .slowing_container("ac-h1", 50.0);
    println!("plan: {}", serde_json::to_string(&plan).unwrap());

    // --- Every rung off: one try per candidate ------------------------
    let bare = MultiCaseScenario::new(&plan, &dinner_workload(), 1).run();
    let report = &bare.engine.cases[0].report;
    println!(
        "no recovery:  completed={} ({} failed attempts)",
        report.success,
        report.failed_attempts.len()
    );

    // --- The standard escalation ladder -------------------------------
    let wl = dinner_recovery_workload();
    let outcome = MultiCaseScenario::new(&plan, &wl, 1).traced().run();
    let log = outcome.trace.clone().expect("traced run keeps its log");
    let report = &outcome.engine.cases[0].report;
    println!(
        "with ladder:  completed={}; containers: {:?}",
        report.success,
        report
            .executions
            .iter()
            .map(|e| e.container.as_str())
            .collect::<Vec<_>>()
    );

    // The trace shows the ladder climbing rung by rung.
    let q = TraceQuery::new(log.records());
    let count = |label: &str, pred: fn(&TraceEvent) -> bool| {
        println!("  {:>16}: {}", label, q.count(pred));
    };
    count("retry.scheduled", |e| {
        matches!(e, TraceEvent::RetryScheduled { .. })
    });
    count("lease.granted", |e| {
        matches!(e, TraceEvent::LeaseGranted { .. })
    });
    count("lease.expired", |e| {
        matches!(e, TraceEvent::LeaseExpired { .. })
    });
    count("breaker.opened", |e| {
        matches!(e, TraceEvent::BreakerOpened { .. })
    });

    // The invariants every trace must satisfy.
    assert_eq!(q.check_all(&BTreeMap::new()), Ok(()));
    println!("trace invariants hold ✓");

    // Same (plan, workload) ⇒ byte-identical event log.
    let replay = MultiCaseScenario::new(&plan, &wl, 1)
        .traced()
        .run()
        .trace
        .expect("traced run keeps its log");
    assert_eq!(log.to_jsonl(), replay.to_jsonl());
    println!(
        "replay event log identical ✓ ({} records)",
        log.records().len()
    );
}
