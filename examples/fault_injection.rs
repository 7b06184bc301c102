//! Deterministic fault injection: run a workload under a seeded
//! [`FaultPlan`] (activity failures), replay it byte-identically, then
//! point a lossy message transport at the live agent stack and watch it
//! degrade gracefully.
//!
//! ```sh
//! cargo run --example fault_injection          # default seed 42
//! cargo run --example fault_injection -- 7     # any other seed
//! ```

use gridflow_agents::{AgentError, AgentRuntime};
use gridflow_harness::workload::dinner_workload;
use gridflow_harness::{FaultPlan, FaultyTransport, MultiCaseScenario, VirtualClock};
use gridflow_planner::prelude::GpConfig;
use gridflow_services::agents::{boot_stack, GRIDFLOW_ONTOLOGY};
use gridflow_services::coordination::EnactmentConfig;
use gridflow_services::planning::PlanningService;
use gridflow_services::world::share;
use serde_json::json;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    // --- A seeded scenario: activity failures ---------------------------
    let plan = FaultPlan::seeded(seed).failing_activities(0.2);
    println!("plan: {}", serde_json::to_string(&plan).unwrap());

    let workload = dinner_workload();
    let outcome = MultiCaseScenario::new(&plan, &workload, 1).run();
    let report = &outcome.engine.cases[0].report;
    println!(
        "seed {seed}: completed={} with {} failed attempt(s); executions: {:?}",
        report.success,
        report.failed_attempts.len(),
        report
            .executions
            .iter()
            .map(|e| e.activity.as_str())
            .collect::<Vec<_>>()
    );

    // Same (seed, plan, workload) ⇒ byte-identical outcome.
    let replay = MultiCaseScenario::new(&plan, &workload, 1).run();
    let fingerprint = serde_json::to_string(&outcome.engine.cases).unwrap();
    assert_eq!(
        fingerprint,
        serde_json::to_string(&replay.engine.cases).unwrap()
    );
    println!(
        "replay fingerprint identical ✓ ({} bytes)",
        fingerprint.len()
    );

    // --- The same faults, against the live agent stack -----------------
    let mut rt = AgentRuntime::new();
    let world = share(workload.fresh_world(&FaultPlan::default(), 0));
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

    let transport = Arc::new(FaultyTransport::new(
        FaultPlan::seeded(seed)
            .dropping(0.1)
            .duplicating(0.2)
            .delaying(0.2, 2),
        VirtualClock::new(),
    ));
    rt.set_transport(transport.clone());

    let enact = json!({"action": "enact", "graph": workload.graph, "case": workload.case});
    let (mut answered, mut timed_out) = (0, 0);
    for _ in 0..4 {
        match stack.client.request(
            &stack.coordination,
            GRIDFLOW_ONTOLOGY,
            enact.clone(),
            Duration::from_secs(5),
        ) {
            Ok(reply) => {
                assert_eq!(reply.content["report"]["success"], json!(true));
                answered += 1;
            }
            Err(AgentError::Timeout { .. }) => timed_out += 1,
            Err(other) => panic!("unexpected failure under faults: {other}"),
        }
    }
    println!(
        "lossy transport: {answered} correct replies, {timed_out} timeouts, \
         {} fault decisions logged",
        transport.schedule().len()
    );

    // Faults stop ⇒ the stack answers again.
    rt.directory().clear_transport();
    let reply = stack
        .client
        .request(
            &stack.coordination,
            GRIDFLOW_ONTOLOGY,
            enact,
            Duration::from_secs(10),
        )
        .expect("stack recovers once faults stop");
    assert_eq!(reply.content["report"]["success"], json!(true));
    println!("faults cleared: stack recovered ✓");
    rt.shutdown();
}
