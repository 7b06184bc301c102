//! The tick scheduler: admission, rotation-fair stepping, tick-scoped
//! reservations, and per-case scoped tracing.

use crate::policy::{AdmissionPolicy, CaseHints, PolicySpec, WaitingCase};
use crate::snapshot::{
    AdmissionRecord, BlueprintPool, EngineSnapshot, FinishedImage, SlotImage, WaitingImage,
};
use gridflow_process::{ActivityKind, CaseDescription, ProcessGraph};
use gridflow_services::matchmaking::{rank_candidates, MatchRequest};
use gridflow_services::{
    CaseFiber, EnactmentConfig, EnactmentReport, FiberStatus, GridWorld, PlanCacheHandle,
};
use gridflow_store::{SnapshotRecord, Store, StoreError, StoreResult};
use gridflow_telemetry::{TraceEvent, TraceHandle, TraceLog, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::{Arc, Mutex};

/// The durable-store attachment for a run: where tick events and
/// snapshots go, and which journal they are read back out of.
///
/// `journal` **must** be the same [`TraceLog`] the scheduler records
/// into (wired via [`CaseScheduler::trace`]) — the tick loop flushes
/// `journal.with_records_from(..)` into `store` at every tick boundary, so a
/// different log would persist someone else's events.  For crash
/// recovery the caller reseeds the journal
/// ([`TraceLog::resuming`]) at the snapshot's `journal_seq` before
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

impl PartialEq for StoreBinding {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.store, &other.store) && self.snapshot_every == other.snapshot_every
    }
}

/// Scheduler knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Read by nothing: the scheduler is single-threaded.  Kept only
    /// because `benchmark/src/fleet.rs` writes `EngineConfig { workers:
    /// .., .. }` literals and that directory is frozen between
    /// benchmark-archetype PRs.
    pub workers: usize,
    /// Cases enacting at once; the rest wait in the admission queue.
    pub max_in_flight: usize,
    /// Abort every still-running case once this many ticks have
    /// elapsed — the engine's defense against a live-locked schedule.
    pub max_ticks: u64,
    /// Which admission policy orders the waiting queue.  The default,
    /// [`PolicySpec::Fifo`], is byte-identical to the pre-policy
    /// engine; non-FIFO policies reorder admission only and stamp each
    /// `case.admitted` event with a `reason`.
    pub policy: PolicySpec,
    /// Durable store attachment.  `None` (the default) leaves the
    /// engine exactly as before — no I/O, no snapshots.  `Some` makes
    /// the tick loop flush the journal's new records into the store at
    /// every tick boundary and capture an [`EngineSnapshot`] every
    /// [`StoreBinding::snapshot_every`] ticks.
    pub store: Option<StoreBinding>,
    /// Crash-injection knob: stop the tick loop dead at the top of
    /// this tick, *before* the tick's `TickStarted` is emitted and
    /// before any of its events reach the store.  The durable log is
    /// left holding exactly the ticks `< kill_at` — the state a real
    /// process death at that boundary would leave.  `None` (the
    /// default) never kills.
    pub kill_at: Option<u64>,
    /// Fleet-shared, content-addressed plan cache.  `None` (the
    /// default) plans per-case exactly as before.  `Some` installs the
    /// handle into every fiber's planning service (fresh spawns and
    /// recovery rebuilds alike), so identical-key (re)plans across the
    /// fleet run GP once and reuse the byte-identical result.  Replans
    /// execute sequentially in the canonical stepping order, so the
    /// hit/miss pattern — and with it the merged trace —
    /// stays deterministic.
    ///
    /// Recovery note: re-execution regenerates the crashed run's
    /// events, so a store-verified recovery must be given the same (or
    /// an equally warmed) cache handle the crashed run used — or plan
    /// cache events in the journal will not reproduce.
    pub plan_cache: Option<PlanCacheHandle>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 1,
            max_in_flight: 16,
            max_ticks: 100_000,
            policy: PolicySpec::Fifo,
            store: None,
            kill_at: None,
            plan_cache: None,
        }
    }
}

/// One case submitted to the scheduler.
#[derive(Debug, Clone)]
pub struct CaseSpec {
    /// Unique name for the case; tags its trace events and reservation
    /// holds.  Submitting two cases with one label makes their
    /// reservation holds indistinguishable — keep labels unique.
    pub label: String,
    /// The workflow to enact.
    pub graph: ProcessGraph,
    /// The case description (initial data, goals, constraints).
    ///
    /// Shared, so a fleet of specs stamped from one workload holds one
    /// description between them and spawning a fiber never deep-copies
    /// the case's condition trees (`my_case.into()` converts an owned
    /// description).
    pub case: Arc<CaseDescription>,
    /// Per-case enactment configuration (recovery ladder included).
    pub config: EnactmentConfig,
    /// Scheduling hints the admission policy reads (priority, tenant,
    /// deadline).  Ignored by FIFO; defaults to neutral values.
    pub hints: CaseHints,
}

/// What became of one submitted case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseOutcome {
    /// The case's label, as submitted.
    pub label: String,
    /// The sealed enactment report.
    pub report: EnactmentReport,
    /// Tick at which the case was admitted; `None` if admission
    /// refused it (no live container could serve it).
    pub admitted_tick: Option<u64>,
    /// Tick at which the case finished (or was refused/aborted).
    pub finished_tick: u64,
    /// Ticks the case spent blocked on reserved-away containers.
    pub blocked_ticks: u64,
}

impl CaseOutcome {
    /// Virtual-tick makespan for cases that actually ran: admission to
    /// finish, inclusive of the finishing tick.  `None` when admission
    /// refused the case — a refused case never ran, and aggregations
    /// (percentiles, means) should filter it out rather than count it
    /// as an instant completion.
    pub fn admitted_makespan_ticks(&self) -> Option<u64> {
        self.admitted_tick
            .map(|t| self.finished_tick.saturating_sub(t) + 1)
    }
}

/// The whole run's result.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOutcome {
    /// One outcome per submitted case, in submission order.
    ///
    /// When [`EngineOutcome::killed`] is set, only cases that finished
    /// *before* the kill tick appear here — the rest died with the
    /// simulated process.
    pub cases: Vec<CaseOutcome>,
    /// Ticks the schedule took overall.
    pub ticks: u64,
    /// The run was stopped by [`EngineConfig::kill_at`] rather than
    /// running to completion — a simulated process death at a tick
    /// boundary.
    pub killed: bool,
}

impl EngineOutcome {
    /// Did every admitted case succeed?
    pub fn all_succeeded(&self) -> bool {
        self.cases.iter().all(|c| c.report.success)
    }
}

/// A fiber the scheduler is driving, with its accounting.
struct Slot {
    index: usize,
    fiber: CaseFiber,
    admitted_tick: u64,
    blocked_ticks: u64,
}

/// The tick loop's complete state, factored out of the loop so a
/// run can start fresh ([`CaseScheduler::run`]) or resume from a
/// restored [`EngineSnapshot`] ([`CaseScheduler::recover`]) through the
/// *same* code path — recovery re-executes the identical loop, which is
/// what makes the regenerated trace byte-verifiable.
struct LoopState {
    waiting: VecDeque<(usize, CaseSpec)>,
    live: Vec<Slot>,
    finished: Vec<FinishedImage>,
    /// `finished[i]` as snapshot JSON, for the prefix of `finished` some
    /// snapshot has already included: a sealed outcome never changes,
    /// so [`CaseScheduler::capture_snapshot`] encodes each one once and
    /// splices the text into every later payload.  Stays empty unless
    /// snapshots are being taken.
    finished_json: Vec<String>,
    /// Byte length of the last snapshot payload captured (or restored
    /// from), which sizes the next one's buffer.
    snapshot_len: usize,
    tick: u64,
    policy: Box<dyn AdmissionPolicy>,
    /// Committed admissions in order — serialized into snapshots so a
    /// restored run can rebuild the policy's history by replaying
    /// [`AdmissionPolicy::admitted`] calls.
    admissions: Vec<AdmissionRecord>,
}

/// The multi-case enactment engine.
///
/// Submit cases with [`CaseScheduler::submit`], then [`run`] them to
/// completion over a shared world.  Admission order is set by
/// [`EngineConfig::policy`] (FIFO in submission order by default); each
/// tick admits waiting cases up to [`EngineConfig::max_in_flight`],
/// steps every live case once in a rotated canonical order (rotation
/// index = tick mod live cases, so no case monopolizes first pick of
/// the tick's capacity), then releases all tick-scoped reservations.
///
/// [`run`]: CaseScheduler::run
pub struct CaseScheduler {
    config: EngineConfig,
    trace: TraceHandle,
    pending: Vec<CaseSpec>,
}

impl std::fmt::Debug for CaseScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaseScheduler")
            .field("config", &self.config)
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl CaseScheduler {
    /// An empty scheduler (no tracing).
    pub fn new(config: EngineConfig) -> Self {
        CaseScheduler {
            config,
            trace: TraceHandle::none(),
            pending: Vec::new(),
        }
    }

    /// Record the run into `sink`.  Engine events carry source
    /// `engine`; each case's enactor events are prefixed
    /// `case:<label>/`, so one merged log holds every case's story and
    /// [`gridflow_telemetry::TraceQuery`] can check cross-case
    /// invariants such as no-double-booking.
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = TraceHandle::new(sink);
        self
    }

    /// Queue a case for admission.  Order of submission is the default
    /// (FIFO) admission order, every policy's tie-breaker, and the
    /// canonical base order for stepping.
    pub fn submit(&mut self, spec: CaseSpec) {
        self.pending.push(spec);
    }

    /// Enact every submitted case to completion.
    pub fn run(&mut self, world: &mut GridWorld) -> EngineOutcome {
        self.run_with(world, |_, _| {})
    }

    /// Like [`run`](CaseScheduler::run), with a hook called at the top
    /// of every tick (after `TickStarted`, before admission) — the seam
    /// the harness uses to inject mid-schedule faults such as node
    /// loss.
    ///
    /// A case blocked on reserved-away capacity is stepped every tick
    /// like any other and announces one `CaseBlocked` per tick it stays
    /// blocked; what such a re-step may skip is the fiber's own
    /// business (the dispatch it caches between steps).
    pub fn run_with(
        &mut self,
        world: &mut GridWorld,
        on_tick: impl FnMut(u64, &mut GridWorld),
    ) -> EngineOutcome {
        let st = self.fresh_state();
        self.run_loop(world, on_tick, st)
    }

    /// The loop state of a run starting at tick 0 from the submitted
    /// specs.
    fn fresh_state(&mut self) -> LoopState {
        let specs = std::mem::take(&mut self.pending);
        // Sized once, and before the queue is built: a slot is about a
        // kilobyte, and the chain of dead buffers that growing the list
        // by doubling left in the heap cost `fleet-contended` 8 MB of
        // peak RSS once a slot shrank by 48 bytes (CHANGES.md, PR 23).
        // `finished` likewise, to the fleet, since every case ends up
        // there (DESIGN.md, "What makes a blocked fleet cheap").
        let live = Vec::with_capacity(self.config.max_in_flight.max(1).min(specs.len()));
        let finished = Vec::with_capacity(specs.len());
        LoopState {
            waiting: specs.into_iter().enumerate().collect(),
            live,
            finished,
            finished_json: Vec::new(),
            snapshot_len: 0,
            tick: 0,
            policy: self.config.policy.build(),
            admissions: Vec::new(),
        }
    }

    /// Resume a crashed run from the durable store.
    ///
    /// Loads the latest valid snapshot (schema- and hash-checked — a
    /// future-version snapshot is refused with
    /// [`StoreError::UnsupportedSchema`], and one this build could not
    /// re-execute faithfully with [`StoreError::Corrupt`]), restores the
    /// world image onto `world`, rebuilds every live fiber and the
    /// admission policy's history, and re-enters the tick loop at the
    /// snapshot's tick.
    /// With no snapshot in the log the run restarts from the submitted
    /// specs (replay-only recovery).  Either way the suffix is
    /// *re-executed*, not skipped: the store byte-verifies every
    /// regenerated event against what it already holds, so a successful
    /// recovery is a proof the rebuilt state matches the crashed run's.
    /// Replay-only recovery of a journal whose cases checkpointed (a
    /// pre-v4 build's) is unsupported: no snapshot is there to refuse,
    /// and its `checkpoint.captured` records fail that verification.
    ///
    /// The caller must have reseeded [`StoreBinding::journal`] at the
    /// snapshot's `journal_seq` (via [`TraceLog::resuming`] and a clock
    /// resumed at the snapshot's reading) — or at 0 for replay-only —
    /// before constructing the scheduler; a mismatch is reported as
    /// [`StoreError::Corrupt`], and a scheduler with no
    /// [`EngineConfig::store`] as [`StoreError::NotBound`].
    pub fn recover(
        &mut self,
        world: &mut GridWorld,
        on_tick: impl FnMut(u64, &mut GridWorld),
    ) -> StoreResult<EngineOutcome> {
        let binding = self.config.store.clone().ok_or(StoreError::NotBound)?;
        let snap = binding
            .store
            .lock()
            .expect("store mutex poisoned")
            .latest_snapshot()?;
        let Some(record) = snap else {
            // Replay-only recovery: no snapshot survived, so the run
            // restarts from scratch and the store verifies the whole
            // regenerated prefix against the stored events.
            if binding.journal.next_seq() != 0 {
                return Err(StoreError::Corrupt(format!(
                    "replay-only recovery needs a journal reseeded at 0, got {}",
                    binding.journal.next_seq()
                )));
            }
            let st = self.fresh_state();
            return Ok(self.run_loop(world, on_tick, st));
        };
        if binding.journal.next_seq() != record.journal_seq {
            return Err(StoreError::Corrupt(format!(
                "journal reseeded at {}, snapshot expects {}",
                binding.journal.next_seq(),
                record.journal_seq
            )));
        }
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
        // The snapshot, not the pending queue, is the truth now.
        self.pending.clear();
        let mut policy = self.config.policy.build();
        for a in &image.admissions {
            policy.admitted(&WaitingCase {
                submitted: a.submitted,
                label: &a.label,
                hints: &a.hints,
            });
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
            let index = slot.index;
            let Some((graph, case, config)) = shared.get(slot.fiber.blueprint) else {
                return Err(StoreError::Corrupt(format!(
                    "live case {index} references a blueprint past the pool"
                )));
            };
            let trace = self.trace.scoped(format_args!("case:{}", slot.fiber.label));
            let mut fiber = CaseFiber::from_slim(
                slot.fiber,
                graph.clone(),
                case.clone(),
                config.clone(),
                trace,
            );
            self.install_plan_cache(&mut fiber);
            live.push(Slot {
                index,
                fiber,
                admitted_tick: slot.admitted_tick,
                blocked_ticks: slot.blocked_ticks,
            });
        }
        let mut waiting = VecDeque::new();
        for w in image.waiting {
            let Some((graph, case, config)) = shared.get(w.blueprint) else {
                return Err(StoreError::Corrupt(format!(
                    "waiting case {} references blueprint {} of {}",
                    w.index,
                    w.blueprint,
                    shared.len()
                )));
            };
            waiting.push_back((
                w.index,
                CaseSpec {
                    label: w.label,
                    graph: graph.clone(),
                    case: case.clone(),
                    config: config.clone(),
                    hints: w.hints,
                },
            ));
        }
        let st = LoopState {
            waiting,
            live,
            finished: image.finished,
            finished_json: Vec::new(),
            snapshot_len: record.state.len(),
            tick: image.next_tick,
            policy,
            admissions: image.admissions,
        };
        Ok(self.run_loop(world, on_tick, st))
    }

    /// The tick loop proper, driving a [`LoopState`] that is either
    /// fresh or restored from a snapshot.  When a [`StoreBinding`] is
    /// configured, every tick boundary flushes the journal's new
    /// records into the store and every `snapshot_every` ticks captures
    /// an [`EngineSnapshot`]; [`EngineConfig::kill_at`] stops the loop
    /// dead at a tick boundary to simulate a crash.
    fn run_loop(
        &mut self,
        world: &mut GridWorld,
        mut on_tick: impl FnMut(u64, &mut GridWorld),
        mut st: LoopState,
    ) -> EngineOutcome {
        // Concurrent cases contend for container capacity through the
        // world's tick-scoped reservation protocol instead of
        // double-booking it; the world's own setting is restored when
        // the run ends.
        let reservations_before = world.reservations_enabled();
        world.enable_reservations(true);

        let binding = self.config.store.clone();
        let mut flush_cursor = binding.as_ref().map_or(0, |b| b.journal.next_seq());
        let mut killed = false;

        loop {
            // Simulated process death: stop before this tick emits
            // anything, so the durable log holds exactly the ticks
            // `< kill_at` — the state a real crash at the boundary
            // would leave behind.
            if self.config.kill_at == Some(st.tick) {
                killed = true;
                break;
            }

            self.trace
                .emit("engine", TraceEvent::TickStarted { tick: st.tick });
            on_tick(st.tick, world);

            // Policy-ordered admission, gated on matchmaking: a case
            // none of the live containers can serve is refused outright
            // instead of failing activity-by-activity later.
            while st.live.len() < self.config.max_in_flight.max(1) {
                let Some((index, spec, why)) =
                    Self::pick_next(st.policy.as_mut(), &mut st.waiting, st.tick)
                else {
                    break;
                };
                match self.admission_gap(world, &spec.graph) {
                    None => {
                        self.trace.emit(
                            "engine",
                            TraceEvent::CaseAdmitted {
                                case: spec.label.clone(),
                                tick: st.tick,
                                reason: why,
                            },
                        );
                        st.policy.admitted(&WaitingCase {
                            submitted: index,
                            label: &spec.label,
                            hints: &spec.hints,
                        });
                        st.admissions.push(AdmissionRecord {
                            submitted: index,
                            label: spec.label.clone(),
                            hints: spec.hints.clone(),
                        });
                        let fiber = self.spawn_fiber(&spec);
                        st.live.push(Slot {
                            index,
                            fiber,
                            admitted_tick: st.tick,
                            blocked_ticks: 0,
                        });
                    }
                    Some(reason) => {
                        self.trace.emit(
                            "engine",
                            TraceEvent::CaseRejected {
                                case: spec.label.clone(),
                                reason: reason.clone(),
                            },
                        );
                        let mut fiber = self.spawn_fiber(&spec);
                        fiber.abort(format!("admission refused: {reason}"));
                        st.finished.push(FinishedImage {
                            index,
                            outcome: CaseOutcome {
                                label: spec.label.clone(),
                                report: fiber.into_report(),
                                admitted_tick: None,
                                finished_tick: st.tick,
                                blocked_ticks: 0,
                            },
                        });
                    }
                }
            }

            if st.live.is_empty() && st.waiting.is_empty() {
                break;
            }

            // Step every live case once, in canonical order rotated by
            // the tick so first pick of the tick's capacity circulates.
            let n = st.live.len();
            let rotation = (st.tick as usize) % n.max(1);
            let mut done: Vec<usize> = Vec::new();
            for slot_idx in (0..n).map(|i| (i + rotation) % n) {
                let slot = &mut st.live[slot_idx];
                match slot.fiber.step(world) {
                    FiberStatus::Progressed => {}
                    FiberStatus::Blocked { .. } => slot.blocked_ticks += 1,
                    FiberStatus::Finished => done.push(slot_idx),
                }
            }

            // Retire finished cases (highest slot first so removals
            // don't shift pending indices).
            done.sort_unstable();
            for &slot_idx in done.iter().rev() {
                let slot = st.live.remove(slot_idx);
                self.trace.emit(
                    "engine",
                    TraceEvent::CaseCompleted {
                        case: slot.fiber.label().to_owned(),
                        success: slot.fiber.report().success,
                    },
                );
                st.finished.push(FinishedImage {
                    index: slot.index,
                    outcome: CaseOutcome {
                        label: slot.fiber.label().to_owned(),
                        report: slot.fiber.into_report(),
                        admitted_tick: Some(slot.admitted_tick),
                        finished_tick: st.tick,
                        blocked_ticks: slot.blocked_ticks,
                    },
                });
            }

            // Reservations are tick-scoped: release every hold, in
            // deterministic (container, holder) order.
            for (container, holders) in world.drain_reservations() {
                for case in holders {
                    self.trace.emit(
                        "engine",
                        TraceEvent::SlotReleased {
                            case,
                            container: container.clone(),
                        },
                    );
                }
            }

            // Durable boundary: everything emitted through the end of
            // this tick reaches the store before the next tick starts.
            if let Some(b) = &binding {
                Self::flush_events(b, &mut flush_cursor);
            }

            st.tick += 1;
            if st.tick >= self.config.max_ticks {
                for mut slot in st.live.drain(..) {
                    slot.fiber.abort(format!(
                        "engine tick budget exhausted after {} ticks",
                        self.config.max_ticks
                    ));
                    self.trace.emit(
                        "engine",
                        TraceEvent::CaseCompleted {
                            case: slot.fiber.label().to_owned(),
                            success: false,
                        },
                    );
                    st.finished.push(FinishedImage {
                        index: slot.index,
                        outcome: CaseOutcome {
                            label: slot.fiber.label().to_owned(),
                            report: slot.fiber.into_report(),
                            admitted_tick: Some(slot.admitted_tick),
                            finished_tick: st.tick,
                            blocked_ticks: slot.blocked_ticks,
                        },
                    });
                }
                st.waiting.clear();
                break;
            }

            // Snapshot cadence.  Placed after the budget check so a
            // snapshot never points a restored run at a tick the loop
            // would refuse to start; journal_seq equals the flush
            // cursor, so every event the snapshot assumes is already
            // durable.  During recovery the same snapshots are
            // regenerated and verified as duplicates — another equality
            // proof, this time over the full engine state.
            if let Some(b) = &binding {
                if b.snapshot_every > 0 && st.tick.is_multiple_of(b.snapshot_every) {
                    let (clock_ticks, clock_s) = b.journal.clock_now();
                    let record = SnapshotRecord::new(
                        st.tick,
                        flush_cursor,
                        clock_ticks,
                        clock_s,
                        Self::capture_snapshot(&mut st, world),
                    );
                    b.store
                        .lock()
                        .expect("store mutex poisoned")
                        .snapshot(record)
                        .unwrap_or_else(|e| {
                            panic!("durable store rejected an engine snapshot: {e}")
                        });
                }
            }
        }

        // A killed run deliberately loses its unflushed tail — that is
        // the crash being simulated.  Every other exit flushes the
        // final events (completion or budget-abort records).
        if !killed {
            if let Some(b) = &binding {
                Self::flush_events(b, &mut flush_cursor);
            }
        }

        world.enable_reservations(reservations_before);
        st.finished.sort_by_key(|f| f.index);
        EngineOutcome {
            cases: st.finished.into_iter().map(|f| f.outcome).collect(),
            ticks: st.tick.max(1),
            killed,
        }
    }

    /// Append every journal record at or past the cursor to the store,
    /// advancing the cursor.  The records are lent, not cloned, one
    /// journal chunk's run per append: the journal stays locked while
    /// the store (which never emits) reads them.  Store rejections are
    /// programming errors (a divergence here means determinism itself
    /// broke), so they panic rather than limp on with a corrupt log.
    fn flush_events(binding: &StoreBinding, cursor: &mut u64) {
        binding.journal.with_records_from(*cursor, |records| {
            let Some(last) = records.last() else {
                return;
            };
            *cursor = last.seq + 1;
            binding
                .store
                .lock()
                .expect("store mutex poisoned")
                .append(records)
                .unwrap_or_else(|e| panic!("durable store rejected a journal flush: {e}"));
        });
    }

    /// Freeze the loop state into a snapshot payload.  Waiting specs
    /// and live fibers are interned through a [`BlueprintPool`] so the
    /// shared workload is stored once, not once per case, and finished
    /// outcomes are encoded once each (see `LoopState::finished_json`).
    fn capture_snapshot(st: &mut LoopState, world: &GridWorld) -> Vec<u8> {
        let mut pool = BlueprintPool::default();
        let waiting = st
            .waiting
            .iter()
            .map(|(index, spec)| WaitingImage {
                index: *index,
                label: spec.label.clone(),
                hints: spec.hints.clone(),
                blueprint: pool.intern(spec),
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
        for image in &st.finished[st.finished_json.len()..] {
            st.finished_json
                .push(serde_json::to_string(image).expect("finished images serialize"));
        }
        let payload = EngineSnapshot {
            version: crate::snapshot::ENGINE_SNAPSHOT_VERSION,
            next_tick: st.tick,
            blueprints: pool.into_entries(),
            waiting,
            live,
            finished: Vec::new(),
            admissions: st.admissions.clone(),
            world: world.image(),
        }
        .to_bytes_with_finished(&st.finished_json, st.snapshot_len);
        st.snapshot_len = payload.len();
        payload
    }

    /// The admission policy's next pick, removed from the waiting queue
    /// and returned with its admission reason.  `None` ends admission
    /// for the tick (queue empty, or the policy declined).
    fn pick_next(
        policy: &mut dyn AdmissionPolicy,
        waiting: &mut VecDeque<(usize, CaseSpec)>,
        tick: u64,
    ) -> Option<(usize, CaseSpec, Option<String>)> {
        // FIFO fast path: the default policy always takes the queue
        // head with no reason, so building the O(waiting) borrowed view
        // per admission — O(fleet²) over a large fleet's admission
        // phase — is pure waste.  Pop the head directly.
        if policy.is_fifo() {
            let (index, spec) = waiting.pop_front()?;
            return Some((index, spec, None));
        }
        let admission = {
            let view: Vec<WaitingCase<'_>> = waiting
                .iter()
                .map(|(index, spec)| WaitingCase {
                    submitted: *index,
                    label: &spec.label,
                    hints: &spec.hints,
                })
                .collect();
            policy.next(&view, tick)?
        };
        let (index, spec) = waiting
            .remove(admission.pos)
            .expect("policy picked an out-of-range waiting position");
        Some((index, spec, admission.reason))
    }

    /// `None` when matchmaking can place every end-user service of
    /// `graph` on a live container; otherwise the first gap found.  The
    /// ranking stops at the first candidate: the gate asks whether one
    /// exists, not which.
    fn admission_gap(&self, world: &GridWorld, graph: &ProcessGraph) -> Option<String> {
        graph
            .activities()
            .iter()
            .filter(|a| a.kind == ActivityKind::EndUser)
            .find_map(|a| {
                let service = a.service.as_deref().unwrap_or(&a.id);
                rank_candidates(world, &MatchRequest::for_service(service), |_| {
                    ControlFlow::Break(())
                })
                .err()
                .map(|e| e.to_string())
            })
    }

    /// A fiber whose trace events are scoped `case:<label>/…` in the
    /// merged log (no-op when the scheduler is untraced).
    fn spawn_fiber(&self, spec: &CaseSpec) -> CaseFiber {
        let mut fiber = CaseFiber::new(
            spec.config.clone(),
            self.trace.scoped(format_args!("case:{}", spec.label)),
            &spec.graph,
            spec.case.clone(),
            spec.label.clone(),
        );
        self.install_plan_cache(&mut fiber);
        fiber
    }

    /// Hands the engine's shared plan cache (when configured) to a fiber so
    /// every replan across the fleet goes through the same content-addressed
    /// store and single-flight latch.
    fn install_plan_cache(&self, fiber: &mut CaseFiber) {
        if let Some(cache) = &self.config.plan_cache {
            fiber.set_plan_cache(cache.clone());
        }
    }
}
