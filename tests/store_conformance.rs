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
//! * Every other recovery refusal is a typed error too, each with the
//!   exact reason it names; a store that refuses a write aborts the run
//!   with one message per kind of write.
//! * A recovery handed a colder plan cache than its crashed run had
//!   re-plans where the store holds a cache hit, and is refused.

use gridflow_engine::{CaseScheduler, CaseSpec, EngineConfig, PolicySpec, StoreBinding};
use gridflow_harness::workload::{
    cook_loss_churn_plan, dinner_replan_workload, dinner_workload, Workload,
};
use gridflow_harness::{FaultPlan, MultiCaseScenario, VirtualClock};
use gridflow_services::PlanCacheHandle;
use gridflow_store::{
    merged_jsonl, MemStore, SnapshotRecord, Store, StoreError, StoreResult, SNAPSHOT_SCHEMA_VERSION,
};
use gridflow_telemetry::{TraceLog, TraceRecord};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};

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

/// A [`MemStore`] that misbehaves on request: it refuses appends past
/// its first `accept` records, refuses every snapshot, or hands
/// recovery its latest snapshot rewritten by `tamper`.
#[derive(Default)]
struct Unreliable {
    inner: MemStore,
    accept: Option<usize>,
    refuse_snapshots: bool,
    tamper: Option<fn(SnapshotRecord) -> SnapshotRecord>,
}

impl Store for Unreliable {
    fn append(&mut self, events: &[TraceRecord]) -> StoreResult<()> {
        let Some(accept) = self.accept else {
            return self.inner.append(events);
        };
        let room = accept.saturating_sub(self.inner.replay_from(0)?.len());
        self.inner.append(&events[..room.min(events.len())])?;
        if room < events.len() {
            return Err(StoreError::Io("disk full".into()));
        }
        Ok(())
    }

    fn snapshot(&mut self, snap: SnapshotRecord) -> StoreResult<()> {
        if self.refuse_snapshots {
            return Err(StoreError::Io("snapshot refused".into()));
        }
        self.inner.snapshot(snap)
    }

    fn replay_from(&self, seq: u64) -> StoreResult<Vec<TraceRecord>> {
        self.inner.replay_from(seq)
    }

    fn latest_snapshot(&self) -> StoreResult<Option<SnapshotRecord>> {
        let latest = self.inner.latest_snapshot()?;
        Ok(latest.map(|record| match self.tamper {
            Some(tamper) => tamper(record),
            None => record,
        }))
    }

    fn next_seq(&self) -> u64 {
        self.inner.next_seq()
    }

    fn snapshot_count(&self) -> usize {
        self.inner.snapshot_count()
    }
}

/// The fleet of [`scenario`] killed at tick 2 with a snapshot every
/// tick, journalled into an [`Unreliable`] store that serves its latest
/// snapshot through `tamper`.  At that snapshot two cases are live and
/// two still wait.
fn killed_fleet(tamper: Option<fn(SnapshotRecord) -> SnapshotRecord>) -> Arc<Mutex<dyn Store>> {
    let (plan, wl) = fixture();
    let unreliable = Unreliable {
        tamper,
        ..Unreliable::default()
    };
    let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(unreliable));
    let crashed = scenario(&plan, &wl)
        .store(store.clone(), 1)
        .kill_at(2)
        .run();
    assert!(crashed.engine.killed);
    store
}

/// Recover [`killed_fleet`] through the harness, which reseeds the
/// journal where the (tampered) snapshot says.
fn recover_killed(tamper: fn(SnapshotRecord) -> SnapshotRecord) -> StoreError {
    let (plan, wl) = fixture();
    let store = killed_fleet(Some(tamper));
    scenario(&plan, &wl)
        .store(store, 1)
        .recover()
        .expect_err("a tampered snapshot is refused")
}

/// `record` with its payload's top-level JSON object edited by `edit`,
/// under a fresh content hash.
fn edited(record: SnapshotRecord, edit: impl FnOnce(&mut serde_json::Value)) -> SnapshotRecord {
    let mut payload: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&record.state).unwrap()).unwrap();
    edit(&mut payload);
    let state = serde_json::to_string(&payload).unwrap().into_bytes();
    SnapshotRecord::new(
        record.next_tick,
        record.journal_seq,
        record.clock_ticks,
        record.clock_s,
        state,
    )
}

/// A scheduler over [`fixture`]'s fleet bound to `store`, journalling
/// into a log reseeded at `journal_seq`, asked to recover.
fn recover_reseeded_at(store: Arc<Mutex<dyn Store>>, journal_seq: u64) -> StoreError {
    let (plan, wl) = fixture();
    let journal = TraceLog::resuming(journal_seq, Arc::new(VirtualClock::new()));
    let mut scheduler = CaseScheduler::new(EngineConfig {
        max_in_flight: 2,
        store: Some(StoreBinding {
            store,
            journal: journal.clone(),
            snapshot_every: 1,
        }),
        ..EngineConfig::default()
    })
    .trace(Arc::new(journal));
    let case = Arc::new(wl.case.clone());
    for i in 0..4 {
        scheduler.submit(CaseSpec {
            label: format!("{}-{i}", wl.name),
            graph: wl.graph.clone(),
            case: case.clone(),
            config: wl.config.clone(),
            hints: Default::default(),
        });
    }
    scheduler
        .recover(&mut wl.fresh_world(&plan, 0), |_, _| {})
        .expect_err("a journal reseeded at the wrong sequence is refused")
}

#[test]
fn a_journal_reseeded_at_the_wrong_sequence_is_refused() {
    let store = killed_fleet(None);
    let expects = store
        .lock()
        .unwrap()
        .latest_snapshot()
        .unwrap()
        .expect("the killed fleet snapshotted")
        .journal_seq;
    assert_eq!(
        recover_reseeded_at(store, expects + 1),
        StoreError::Corrupt(format!(
            "journal reseeded at {}, snapshot expects {expects}",
            expects + 1
        ))
    );
    // With no snapshot to resume from, the journal must start at 0.
    let empty: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(MemStore::new()));
    assert_eq!(
        recover_reseeded_at(empty, 3),
        StoreError::Corrupt("replay-only recovery needs a journal reseeded at 0, got 3".into())
    );
}

#[test]
fn a_snapshot_whose_payload_disagrees_with_its_record_is_refused() {
    let refused = recover_killed(|mut record| {
        record.next_tick += 1;
        record
    });
    assert_eq!(
        refused,
        StoreError::Corrupt("snapshot payload resumes at tick 2 but its record says 3".into())
    );
}

#[test]
fn blueprint_references_past_the_pool_are_refused() {
    let live = recover_killed(|record| {
        edited(record, |payload| {
            assert_eq!(payload["live"].as_array().unwrap().len(), 2);
            payload["live"][1]["fiber"]["blueprint"] = 9.into();
        })
    });
    assert_eq!(
        live,
        StoreError::Corrupt("live case 1 references a blueprint past the pool".into())
    );
    let waiting = recover_killed(|record| {
        edited(record, |payload| {
            assert_eq!(payload["waiting"].as_array().unwrap().len(), 2);
            payload["waiting"][0]["blueprint"] = 9.into();
        })
    });
    assert_eq!(
        waiting,
        StoreError::Corrupt("waiting case 2 references blueprint 9 of 1".into())
    );
}

#[test]
fn a_world_image_the_world_cannot_take_is_refused() {
    let refused = recover_killed(|record| {
        edited(record, |payload| {
            payload["world"]["containers"][0]["id"] = "ac-nowhere".into();
        })
    });
    assert_eq!(
        refused,
        StoreError::Corrupt(
            "world restore: grid: unknown application container `ac-nowhere`".into()
        )
    );
}

/// Run [`scenario`] into `store` and return the message it panicked with.
fn panic_message(store: Arc<Mutex<dyn Store>>) -> String {
    let (plan, wl) = fixture();
    panic_text(|| scenario(&plan, &wl).store(store, 1).run())
}

/// The message `run` panicked with.
fn panic_text<T>(run: impl FnOnce() -> T) -> String {
    let payload = catch_unwind(AssertUnwindSafe(run))
        .err()
        .expect("the refused write aborts the run");
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload.downcast_ref::<&str>().unwrap().to_string(),
    }
}

#[test]
fn a_store_refusing_an_append_aborts_the_run_holding_what_it_accepted() {
    let accept = 5;
    let unreliable = Unreliable {
        accept: Some(accept),
        ..Unreliable::default()
    };
    let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(unreliable));
    assert_eq!(
        panic_message(store.clone()),
        "durable store rejected a journal flush: store io error: disk full"
    );
    let held = store
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .replay_from(0)
        .unwrap();
    assert_eq!(
        held.iter().map(|r| r.seq).collect::<Vec<_>>(),
        [0, 1, 2, 3, 4]
    );
    assert_eq!(held.len(), accept);
}

#[test]
fn a_store_refusing_a_snapshot_aborts_the_run() {
    let unreliable = Unreliable {
        refuse_snapshots: true,
        ..Unreliable::default()
    };
    let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(unreliable));
    assert_eq!(
        panic_message(store),
        "durable store rejected an engine snapshot: store io error: snapshot refused"
    );
}

/// `EngineConfig::plan_cache`'s recovery caveat: re-execution
/// regenerates the crashed run's `plan.cache_*` events, so it must run
/// against the cache the crashed run warmed.  The churn fleet runs GP
/// once, at tick 1 (the miss), before its last snapshot; two cases hit
/// that plan at tick 2, between the snapshot and the kill.  The crashed
/// run's handle reproduces the uninterrupted log.  A fresh handle misses
/// where the store holds a hit, and the store refuses the flush.
#[test]
fn recovery_needs_the_plan_cache_the_crashed_run_warmed() {
    let plan = cook_loss_churn_plan(23);
    let wl = dinner_replan_workload(11);
    let churn = |cache: &PlanCacheHandle| {
        MultiCaseScenario::new(&plan, &wl, 6)
            .max_in_flight(6)
            .plan_cache(cache.clone())
            .traced()
    };
    let uninterrupted = churn(&PlanCacheHandle::in_proc())
        .run()
        .trace
        .expect("traced")
        .to_jsonl();
    let crashed = |cache: &PlanCacheHandle| {
        let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(MemStore::new()));
        let run = churn(cache).store(store.clone(), 2).kill_at(3).run();
        assert!(run.engine.killed, "the run should have been killed");
        store
    };

    let warmed = PlanCacheHandle::in_proc();
    let store = crashed(&warmed);
    churn(&warmed)
        .store(store.clone(), 2)
        .recover()
        .expect("recovery with the crashed run's cache");
    assert_eq!(
        merged_jsonl(&store.lock().unwrap().replay_from(0).unwrap()),
        uninterrupted
    );

    let store = crashed(&PlanCacheHandle::in_proc());
    assert_eq!(
        panic_text(|| churn(&PlanCacheHandle::in_proc()).store(store, 2).recover()),
        "durable store rejected a journal flush: replay diverged from stored record at seq 102"
    );
}
