//! Cross-commit trace anchor.
//!
//! Every other byte-identity suite in the repo compares two runs of the
//! *same* build (first vs second, crashed vs uninterrupted, warm vs
//! cold), so none of them can tell whether a refactor moved the trace.
//! This one can: it pins the record count and FNV-1a of the merged
//! JSONL of the engine's scenario shapes — flaky, clean, contended,
//! partitioned, node loss, recovery ladder, refusal, chaos, virus,
//! generated, plan churn, kill→recover — to values computed by an
//! earlier commit.  A change that claims "same behaviour" must leave
//! the table alone; a change that moves bytes on purpose regenerates
//! the affected rows with
//!
//! ```text
//! cargo test -p gridflow-harness --test trace_golden -- --ignored --nocapture print_goldens
//! ```
//!
//! and says in CHANGES.md which rows moved and why.

use gridflow_harness::workload::{
    cook_loss_churn_plan, dinner_recovery_workload, dinner_replan_workload, dinner_workload,
    virus_reconstruction_workload, GraphShape, Workload, WorkloadGen,
};
use gridflow_harness::{FaultPlan, MultiCaseScenario};
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

#[test]
fn traces_match_the_pinned_goldens() {
    let (traces, snapshot) = traces();
    assert_eq!(traces.len(), GOLDEN.len(), "scenario list and table differ");
    let mut moved = Vec::new();
    for ((name, jsonl), &(golden_name, records, hash)) in traces.iter().zip(GOLDEN) {
        assert_eq!(name, golden_name, "scenario order and table order differ");
        let got = (jsonl.lines().count(), fnv1a64(jsonl.as_bytes()));
        if got != (records, hash) {
            moved.push(format!(
                "{name}: pinned ({records}, {hash:#018x}), got ({}, {:#018x})",
                got.0, got.1
            ));
        }
    }
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
#[ignore = "regenerates the golden table; paste its output over GOLDEN / GOLDEN_SNAPSHOT"]
fn print_goldens() {
    let (traces, snapshot) = traces();
    println!("const GOLDEN: &[(&str, usize, u64)] = &[");
    for (name, jsonl) in &traces {
        println!(
            "    ({name:?}, {}, {:#018x}),",
            jsonl.lines().count(),
            fnv1a64(jsonl.as_bytes())
        );
    }
    println!("];");
    println!(
        "const GOLDEN_SNAPSHOT: (usize, u64) = ({}, {:#018x});",
        snapshot.len(),
        fnv1a64(&snapshot)
    );
}
