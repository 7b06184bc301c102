//! Deterministic telemetry: run a faulty scenario with event tracing,
//! replay it to a byte-identical JSONL log, fold the trace into metrics,
//! and check execution invariants with the trace-query API.
//!
//! ```sh
//! cargo run --example telemetry_trace          # default seed 42
//! cargo run --example telemetry_trace -- 7     # any other seed
//! ```

use gridflow_harness::workload::dinner_workload;
use gridflow_harness::{FaultPlan, MetricsRegistry, MultiCaseScenario, TraceQuery};
use std::collections::BTreeMap;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    // --- Trace a seeded scenario ---------------------------------------
    let plan = FaultPlan::seeded(seed).failing_activities(0.25);
    let workload = dinner_workload();
    let outcome = MultiCaseScenario::new(&plan, &workload, 1).traced().run();
    let log = outcome.trace.clone().expect("traced run keeps its log");
    let completed = outcome.engine.all_succeeded();
    println!(
        "seed {seed}: completed={completed}; {} events traced",
        log.len()
    );

    // --- Replay: identical seeds ⇒ byte-identical event logs -----------
    let replay = MultiCaseScenario::new(&plan, &workload, 1)
        .traced()
        .run()
        .trace
        .expect("traced run keeps its log");
    assert_eq!(log.to_jsonl(), replay.to_jsonl());
    println!("replay JSONL identical ✓ ({} bytes)", log.to_jsonl().len());

    // --- A window into the log -----------------------------------------
    println!("\nfirst events:");
    for line in log.to_jsonl().lines().take(6) {
        println!("  {line}");
    }

    // --- Invariants, straight off the trace ----------------------------
    let q = TraceQuery::new(log.records());
    assert_eq!(q.check_all(&BTreeMap::new()), Ok(()));
    if completed {
        let span = q.span("a1").or_else(|_| {
            // Activity ids depend on the parsed graph; fall back to the
            // first dispatched activity.
            let first = q
                .records()
                .iter()
                .find_map(|r| match &r.event {
                    gridflow_harness::TraceEvent::ActivityDispatched { activity, .. } => {
                        Some(activity.clone())
                    }
                    _ => None,
                })
                .expect("a completed run dispatched something");
            q.span(&first)
        });
        println!("\nfirst activity span: {:?}", span.expect("span exists"));
    }
    println!("every whole-trace invariant holds ✓");

    // --- Metrics, folded from the same trace ---------------------------
    let metrics = MetricsRegistry::from_trace(&log.records());
    println!("\n{}", metrics.render());
}
