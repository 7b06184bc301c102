//! Store conformance suite: the invariants that make the durable log
//! trustworthy *beyond* the crash/replay theorem.
//!
//! * Snapshot cadence is an availability knob, not a semantics knob:
//!   the stored **event** log is byte-identical for any `K`, and a
//!   crash recovers to the same truth whichever cadence was in force.
//! * Recovery on an empty log is just a fresh run — the cold-start and
//!   crash-recovery paths are one code path.
//! * Future-version snapshots are refused at recovery time with a typed
//!   error, exactly mirroring `EnactmentCheckpoint::validate`'s refusal
//!   of future checkpoint versions.
//! * `EnactmentCheckpoint`s round-trip through the store's framed
//!   record format, whose explicit schema-version byte is pinned.

use gridflow_engine::PolicySpec;
use gridflow_harness::workload::dinner_workload;
use gridflow_harness::workload::Workload;
use gridflow_harness::{FaultPlan, MultiCaseScenario};
use gridflow_services::coordination::CHECKPOINT_VERSION;
use gridflow_services::{EnactmentCheckpoint, Enactor};
use gridflow_store::{
    merged_jsonl, record, MemStore, SnapshotRecord, Store, StoreError, SNAPSHOT_SCHEMA_VERSION,
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
/// with a typed error — the same contract `EnactmentCheckpoint::
/// validate` enforces for future checkpoint versions.
#[test]
fn future_version_snapshots_are_refused_like_future_checkpoints() {
    // Store side: writing is permitted (the bytes may be fine for a
    // newer reader), recovering is not.
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

    // Checkpoint side: the in-memory ancestor of the same rule.
    let mut checkpoint = captured_checkpoint();
    assert!(checkpoint.validate().is_ok());
    checkpoint.version = CHECKPOINT_VERSION + 1;
    let refusal = checkpoint.validate().expect_err("future checkpoint");
    assert!(
        refusal
            .to_string()
            .contains(&(CHECKPOINT_VERSION + 1).to_string()),
        "checkpoint refusal should name the offending version: {refusal}"
    );
}

/// An [`EnactmentCheckpoint`] — the paper's "checkpointing long-lasting
/// tasks" artifact — survives the store's framed record format intact,
/// and the frame carries an explicit schema-version byte at a pinned
/// offset.
#[test]
fn enactment_checkpoints_round_trip_through_the_record_format() {
    let checkpoint = captured_checkpoint();
    let payload = serde_json::to_string(&checkpoint)
        .expect("checkpoints serialize")
        .into_bytes();
    let snap = SnapshotRecord::new(6, 11, 6, 2.5, payload);
    let bytes = record::encode_snapshot(&snap);

    // Frame layout: [u32le len][kind][schema]… — the schema byte sits
    // at a fixed offset and is the *record's* version, independent of
    // the checkpoint's own version field inside the payload.
    assert_eq!(bytes[4], record::KIND_SNAPSHOT);
    assert_eq!(bytes[5], SNAPSHOT_SCHEMA_VERSION);

    let record::Decoded::Record {
        record: decoded,
        next_offset,
    } = record::decode_record(&bytes, 0)
    else {
        panic!("framed snapshot failed to decode");
    };
    assert_eq!(next_offset, bytes.len());
    let record::LogRecord::Snapshot(back) = decoded else {
        panic!("decoded the wrong record kind");
    };
    assert_eq!(back, snap, "snapshot record fields round-trip");

    let restored: EnactmentCheckpoint =
        serde_json::from_str(std::str::from_utf8(&back.state).unwrap())
            .expect("checkpoint deserializes from the stored payload");
    assert_eq!(restored.version, CHECKPOINT_VERSION);
    assert_eq!(
        serde_json::to_string(&restored).unwrap(),
        serde_json::to_string(&checkpoint).unwrap(),
        "checkpoint JSON round-trips byte-identically"
    );
}

/// A real mid-run checkpoint, captured by enacting the dinner workload
/// with a checkpoint cadence.
fn captured_checkpoint() -> EnactmentCheckpoint {
    let wl = dinner_workload();
    let mut world = wl.fresh_world(&FaultPlan::default(), 0);
    let report = Enactor::builder()
        .config(wl.config.clone())
        .checkpoint_every(2)
        .build()
        .enact(&mut world, &wl.graph, &wl.case);
    assert!(report.success);
    report
        .checkpoints
        .first()
        .expect("cadence 2 captures at least one checkpoint")
        .clone()
}
