//! Store conformance suite: the invariants that make the durable log
//! trustworthy *beyond* the crash/replay theorem.
//!
//! * Snapshot cadence is an availability knob, not a semantics knob:
//!   the stored **event** log is byte-identical for any `K`, and a
//!   crash recovers to the same truth whichever cadence was in force.
//! * Recovery on an empty log is just a fresh run — the cold-start and
//!   crash-recovery paths are one code path.
//! * Future-version snapshots are refused at recovery time with a typed
//!   error.

use gridflow_engine::PolicySpec;
use gridflow_harness::workload::dinner_workload;
use gridflow_harness::workload::Workload;
use gridflow_harness::{FaultPlan, MultiCaseScenario};
use gridflow_store::{
    merged_jsonl, MemStore, SnapshotRecord, Store, StoreError, SNAPSHOT_SCHEMA_VERSION,
};
use std::sync::{Arc, Mutex};

fn fixture() -> (FaultPlan, Workload) {
    (
        FaultPlan::seeded(17).failing_activities(0.2),
        dinner_workload(),
    )
}

fn scenario<'a>(plan: &'a FaultPlan, wl: &'a Workload) -> MultiCaseScenario<'a> {
    MultiCaseScenario::new(plan, wl, 4)
        .max_in_flight(2)
        .policy(PolicySpec::Fifo)
        .traced()
}

/// Snapshot-interval invariance: K ∈ {1, 7, 64} must all store the
/// identical event log, differ only in snapshot count, and all recover
/// a mid-run kill to the same byte-identical truth.
#[test]
fn snapshot_interval_never_changes_the_stored_truth() {
    let (plan, wl) = fixture();
    let baseline = scenario(&plan, &wl).run();
    let jsonl = baseline.trace.expect("traced").to_jsonl();
    let kill = baseline.engine.ticks / 2;

    let mut snapshot_counts = Vec::new();
    for k in [1u64, 7, 64] {
        // Complete run: the event log is K-invariant.
        let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(MemStore::new()));
        let done = scenario(&plan, &wl).store(store.clone(), k).run();
        assert!(!done.engine.killed);
        assert_eq!(
            merged_jsonl(&store.lock().unwrap().replay_from(0).unwrap()),
            jsonl,
            "K={k}: stored events diverged from the untraced baseline"
        );
        snapshot_counts.push(store.lock().unwrap().snapshot_count());

        // Crashed run: recovery lands on the same truth whatever K was.
        let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(MemStore::new()));
        let crashed = scenario(&plan, &wl)
            .store(store.clone(), k)
            .kill_at(kill)
            .run();
        assert!(crashed.engine.killed);
        let recovered = scenario(&plan, &wl)
            .store(store.clone(), k)
            .recover()
            .expect("recovery");
        assert_eq!(
            recovered.engine.cases, baseline.engine.cases,
            "K={k}: recovered outcomes diverged"
        );
        assert_eq!(
            merged_jsonl(&store.lock().unwrap().replay_from(0).unwrap()),
            jsonl,
            "K={k}: recovered log diverged"
        );
    }
    assert!(
        snapshot_counts[0] > snapshot_counts[1],
        "K=1 must snapshot more often than K=7: {snapshot_counts:?}"
    );
}

/// Recovery from a completely empty log is exactly a fresh run: same
/// outcomes, and the store afterwards holds the full trace.
#[test]
fn recovery_from_an_empty_log_equals_a_fresh_run() {
    let (plan, wl) = fixture();
    let baseline = scenario(&plan, &wl).run();
    let jsonl = baseline.trace.expect("traced").to_jsonl();

    let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(MemStore::new()));
    let recovered = scenario(&plan, &wl)
        .store(store.clone(), 3)
        .recover()
        .expect("cold-start recovery");
    assert!(!recovered.engine.killed);
    assert_eq!(recovered.engine.cases, baseline.engine.cases);
    assert_eq!(
        merged_jsonl(&store.lock().unwrap().replay_from(0).unwrap()),
        jsonl,
        "cold-start recovery must lay down the same log a run would"
    );
}

/// A snapshot stamped by a future build is refused at recovery time
/// with a typed error.
#[test]
fn future_version_snapshots_are_refused() {
    // Writing is permitted (the bytes may be fine for a newer reader),
    // recovering is not.
    let mut mem = MemStore::new();
    let mut future = SnapshotRecord::new(4, 0, 4, 1.0, b"from the future".to_vec());
    future.schema = SNAPSHOT_SCHEMA_VERSION + 1;
    mem.snapshot(future).expect("future snapshots store fine");
    let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(mem));
    assert_eq!(
        store.lock().unwrap().latest_snapshot(),
        Err(StoreError::UnsupportedSchema {
            found: SNAPSHOT_SCHEMA_VERSION + 1,
            supported: SNAPSHOT_SCHEMA_VERSION,
        })
    );
    let (plan, wl) = fixture();
    let err = scenario(&plan, &wl)
        .store(store, 3)
        .recover()
        .expect_err("recovery must refuse a future snapshot");
    assert!(
        matches!(err, StoreError::UnsupportedSchema { found, supported }
            if found == SNAPSHOT_SCHEMA_VERSION + 1 && supported == SNAPSHOT_SCHEMA_VERSION),
        "wrong refusal: {err}"
    );
}
