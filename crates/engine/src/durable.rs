//! The engine's one boundary with its durable store.
//!
//! Everything the tick loop persists, and everything recovery reads
//! back, goes through [`Durable`]: it holds the run's [`StoreBinding`],
//! the journal flush cursor, and the encoding caches of the snapshot
//! payload.  Capture and restore are the two directions of the
//! [`EngineSnapshot`] format, so they sit side by side here.

use crate::policy::Policy;
use crate::scheduler::{CaseScheduler, CaseSpec, LoopState, Slot};
use crate::snapshot::{
    BlueprintPool, EngineSnapshot, SlotImage, WaitingImage, ENGINE_SNAPSHOT_VERSION,
};
use gridflow_services::{CaseFiber, GridWorld};
use gridflow_store::{SnapshotRecord, Store, StoreError, StoreResult};
use gridflow_telemetry::TraceLog;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// The durable-store attachment for a run: where tick events and
/// snapshots go, and which journal they are read back out of.
///
/// `journal` **must** be the same [`TraceLog`] the scheduler records
/// into (wired via [`CaseScheduler::trace`]) — the tick loop flushes
/// `journal.with_records_from(..)` into `store` at every tick boundary, so a
/// different log would persist someone else's events.  For crash
/// recovery the caller reseeds the journal ([`TraceLog::resuming`],
/// with a clock resumed at the snapshot's reading) at the latest
/// snapshot's `journal_seq`, or at 0 when the store holds none, before
/// constructing the scheduler; the store then byte-verifies the
/// regenerated overlap instead of trusting it.
#[derive(Clone)]
pub struct StoreBinding {
    /// The durable backend (shared so tests and recovery can read it
    /// back after the run).
    pub store: Arc<Mutex<dyn Store>>,
    /// The trace log the engine journals into — the flush source.
    pub journal: TraceLog,
    /// Snapshot cadence: capture engine state every `snapshot_every`
    /// ticks.  `0` disables snapshots (the log still appends events,
    /// and recovery replays from the very beginning).
    pub snapshot_every: u64,
}

impl std::fmt::Debug for StoreBinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreBinding")
            .field("snapshot_every", &self.snapshot_every)
            .finish_non_exhaustive()
    }
}

impl StoreBinding {
    /// The store, locked.  The engine's lock order is journal, then
    /// store, and a store never emits.
    fn lock(&self) -> MutexGuard<'_, dyn Store + 'static> {
        self.store.lock().expect("store mutex poisoned")
    }
}

/// A run's relationship with its store, built from
/// [`EngineConfig::store`](crate::EngineConfig::store) when the run
/// starts.  Unbound, every write is a no-op and recovery is refused.
pub(crate) struct Durable {
    binding: Option<StoreBinding>,
    /// The first journal sequence number not yet in the store.
    cursor: u64,
    /// The loop's `finished[i]` as snapshot JSON, for the prefix some
    /// snapshot has already included: a sealed outcome never changes,
    /// so each is encoded once and its text spliced into every later
    /// payload.  Stays empty unless snapshots are taken.
    finished_json: Vec<String>,
    /// Byte length of the last snapshot payload captured (or restored
    /// from), which sizes the next one's buffer.
    snapshot_len: usize,
}

impl Durable {
    pub(crate) fn new(binding: Option<StoreBinding>) -> Self {
        Durable {
            cursor: binding.as_ref().map_or(0, |b| b.journal.next_seq()),
            binding,
            finished_json: Vec::new(),
            snapshot_len: 0,
        }
    }

    /// Append every journal record at or past the cursor to the store,
    /// advancing the cursor.  The records are lent, not cloned, one
    /// journal chunk's run per append: the journal stays locked while
    /// the store reads them.  The first refusal ends the flush.
    pub(crate) fn flush(&mut self) -> StoreResult<()> {
        let Some(b) = &self.binding else {
            return Ok(());
        };
        let mut flushed = Ok(());
        b.journal.with_records_from(self.cursor, |records| {
            let Some(last) = records.last().filter(|_| flushed.is_ok()) else {
                return;
            };
            self.cursor = last.seq + 1;
            flushed = b.lock().append(records);
        });
        flushed
    }

    /// On a cadence tick, freeze the loop state into an
    /// [`EngineSnapshot`] and store it.  The record's `journal_seq` is
    /// the flush cursor, so every event the snapshot assumes is already
    /// durable.  Waiting specs and live fibers are interned through a
    /// [`BlueprintPool`] so the shared workload is stored once, not once
    /// per case.
    pub(crate) fn capture(&mut self, st: &LoopState, world: &GridWorld) -> StoreResult<()> {
        let Some(b) = &self.binding else {
            return Ok(());
        };
        if b.snapshot_every == 0 || !st.tick.is_multiple_of(b.snapshot_every) {
            return Ok(());
        }
        let (clock_ticks, clock_s) = b.journal.clock_now();
        let mut pool = BlueprintPool::default();
        let waiting = st
            .waiting
            .iter()
            .map(|(index, spec)| WaitingImage {
                index: *index,
                label: spec.label.clone(),
                hints: spec.hints.clone(),
                blueprint: pool.intern(&spec.graph, &spec.case, &spec.config),
            })
            .collect();
        let live = st
            .live
            .iter()
            .map(|slot| SlotImage {
                index: slot.index,
                admitted_tick: slot.admitted_tick,
                blocked_ticks: slot.blocked_ticks,
                fiber: pool.slim(&slot.fiber),
            })
            .collect();
        for image in &st.finished[self.finished_json.len()..] {
            let json = serde_json::to_string(image).expect("finished images serialize");
            self.finished_json.push(json);
        }
        let payload = EngineSnapshot {
            version: ENGINE_SNAPSHOT_VERSION,
            next_tick: st.tick,
            blueprints: pool.entries,
            waiting,
            live,
            finished: Vec::new(),
            admissions: st.admissions.clone(),
            world: world.image(),
        }
        .to_bytes_with_finished(&self.finished_json, self.snapshot_len);
        self.snapshot_len = payload.len();
        let record = SnapshotRecord::new(st.tick, self.cursor, clock_ticks, clock_s, payload);
        b.lock().snapshot(record)
    }

    /// The loop state to resume from, restored from the latest snapshot
    /// onto `world` (see [`CaseScheduler::recover`]), or `None` when the
    /// store holds no snapshot and the run restarts from its submitted
    /// specs.
    pub(crate) fn recover(
        &mut self,
        engine: &CaseScheduler,
        world: &mut GridWorld,
    ) -> StoreResult<Option<LoopState>> {
        let b = self.binding.as_ref().ok_or(StoreError::NotBound)?;
        let snap = b.lock().latest_snapshot()?;
        // With no snapshot the run restarts from scratch, and the store
        // verifies the whole regenerated prefix against its events.
        let reseeded = b.journal.next_seq();
        let expects = snap.as_ref().map_or(0, |r| r.journal_seq);
        if reseeded != expects {
            return Err(StoreError::Corrupt(match snap {
                None => {
                    format!("replay-only recovery needs a journal reseeded at 0, got {reseeded}")
                }
                Some(_) => format!("journal reseeded at {reseeded}, snapshot expects {expects}"),
            }));
        }
        let Some(record) = snap else {
            return Ok(None);
        };
        let image = EngineSnapshot::from_bytes(&record.state)
            .map_err(|e| StoreError::Corrupt(format!("snapshot payload: {e}")))?;
        if image.next_tick != record.next_tick {
            return Err(StoreError::Corrupt(format!(
                "snapshot payload resumes at tick {} but its record says {}",
                image.next_tick, record.next_tick
            )));
        }
        world
            .restore_image(&image.world)
            .map_err(|e| StoreError::Corrupt(format!("world restore: {e}")))?;
        let mut policy = Policy::new(engine.config.policy);
        for a in &image.admissions {
            policy.admitted(&a.hints);
        }
        // Re-share each blueprint's description behind one Arc, as the
        // original submissions did, so snapshots taken from here on
        // intern waiting specs and live fibers by pointer again.
        let shared: Vec<_> = image
            .blueprints
            .into_iter()
            .map(|b| (b.graph, Arc::new(b.case), b.config))
            .collect();
        let mut live = Vec::new();
        for slot in image.live {
            let Some((graph, case, config)) = shared.get(slot.fiber.blueprint).cloned() else {
                return Err(StoreError::Corrupt(format!(
                    "live case {} references a blueprint past the pool",
                    slot.index
                )));
            };
            let trace = engine.case_trace(&slot.fiber.label);
            let mut fiber = CaseFiber::from_slim(slot.fiber, graph, case, config, trace);
            engine.install_plan_cache(&mut fiber);
            live.push(Slot {
                index: slot.index,
                fiber,
                admitted_tick: slot.admitted_tick,
                blocked_ticks: slot.blocked_ticks,
            });
        }
        let mut waiting = VecDeque::new();
        for w in image.waiting {
            let Some((graph, case, config)) = shared.get(w.blueprint).cloned() else {
                return Err(StoreError::Corrupt(format!(
                    "waiting case {} references blueprint {} of {}",
                    w.index,
                    w.blueprint,
                    shared.len()
                )));
            };
            let spec = CaseSpec {
                label: w.label,
                graph,
                case,
                config,
                hints: w.hints,
            };
            waiting.push_back((w.index, spec));
        }
        self.snapshot_len = record.state.len();
        Ok(Some(LoopState {
            waiting,
            live,
            finished: image.finished,
            tick: image.next_tick,
            policy,
            admissions: image.admissions,
        }))
    }
}

/// A store that refuses a write aborts the run, here and nowhere else:
/// a divergence means determinism itself broke, and a run that cannot
/// persist its log must not limp on as if it had.
pub(crate) fn flush_refused(e: StoreError) -> ! {
    panic!("durable store rejected a journal flush: {e}")
}

/// See [`flush_refused`].
pub(crate) fn snapshot_refused(e: StoreError) -> ! {
    panic!("durable store rejected an engine snapshot: {e}")
}
