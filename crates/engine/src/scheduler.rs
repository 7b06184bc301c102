//! The tick scheduler: admission, rotation-fair stepping, tick-scoped
//! reservations, and per-case scoped tracing.

pub use crate::durable::StoreBinding;
use crate::durable::{flush_refused, snapshot_refused, Durable};
use crate::policy::{CaseHints, Policy, PolicySpec};
use crate::snapshot::{AdmissionRecord, FinishedImage};
use gridflow_process::{ActivityKind, CaseDescription, ProcessGraph};
use gridflow_services::matchmaking::{rank_candidates, MatchRequest};
use gridflow_services::{
    CaseFiber, EnactmentConfig, EnactmentReport, FiberStatus, GridWorld, PlanCacheHandle,
};
use gridflow_store::StoreResult;
use gridflow_telemetry::{TraceEvent, TraceHandle, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Scheduler knobs.
#[derive(Debug, Clone)]
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
    /// Durable store attachment: the journal flushed at every tick
    /// boundary and the snapshot cadence.  `None` (the default) does no
    /// I/O and takes no snapshots.
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
    /// cache events in the journal will not reproduce, and the store
    /// refuses the flush (`tests/store_conformance.rs` pins both).
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
pub(crate) struct Slot {
    pub(crate) index: usize,
    pub(crate) fiber: CaseFiber,
    pub(crate) admitted_tick: u64,
    pub(crate) blocked_ticks: u64,
}

/// The tick loop's complete state, factored out of the loop so a
/// run can start fresh ([`CaseScheduler::run`]) or resume from a
/// restored engine snapshot ([`CaseScheduler::recover`]) through the
/// *same* code path — recovery re-executes the identical loop, which is
/// what makes the regenerated trace byte-verifiable.
pub(crate) struct LoopState {
    pub(crate) waiting: VecDeque<(usize, CaseSpec)>,
    pub(crate) live: Vec<Slot>,
    pub(crate) finished: Vec<FinishedImage>,
    pub(crate) tick: u64,
    pub(crate) policy: Policy,
    /// Committed admissions in order — serialized into snapshots so a
    /// restored run can rebuild the policy's history by replaying
    /// [`Policy::admitted`] calls.
    pub(crate) admissions: Vec<AdmissionRecord>,
}

impl LoopState {
    /// Seal `fiber`'s case into `finished` at this tick.  A case
    /// admission refused was never `admitted` and never `blocked`.
    fn seal(&mut self, index: usize, fiber: CaseFiber, admitted: Option<u64>, blocked: u64) {
        self.finished.push(FinishedImage {
            index,
            outcome: CaseOutcome {
                label: fiber.label().to_owned(),
                report: fiber.into_report(),
                admitted_tick: admitted,
                finished_tick: self.tick,
                blocked_ticks: blocked,
            },
        });
    }
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
    pub(crate) config: EngineConfig,
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
        let durable = Durable::new(self.config.store.clone());
        self.run_loop(world, on_tick, durable, st)
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
            tick: 0,
            policy: Policy::new(self.config.policy),
            admissions: Vec::new(),
        }
    }

    /// Resume a crashed run from the durable store.
    ///
    /// Restores the world, every live fiber and the admission policy's
    /// history from the latest valid snapshot and re-enters the tick
    /// loop at its tick; with no snapshot the run restarts from the
    /// submitted specs (replay-only recovery).  Either way the suffix is
    /// *re-executed* into a journal reseeded as [`StoreBinding`]
    /// describes, and the store byte-verifies it, so a successful
    /// recovery proves the rebuilt state matches the crashed run's.
    /// Refusals are typed: `UnsupportedSchema` for a newer snapshot,
    /// `Corrupt` for one this build cannot re-execute faithfully or a
    /// journal reseeded elsewhere, `NotBound` without
    /// [`EngineConfig::store`].  Replay-only recovery of a pre-v4
    /// journal whose cases checkpointed is unsupported: its
    /// `checkpoint.captured` records fail verification.
    pub fn recover(
        &mut self,
        world: &mut GridWorld,
        on_tick: impl FnMut(u64, &mut GridWorld),
    ) -> StoreResult<EngineOutcome> {
        let mut durable = Durable::new(self.config.store.clone());
        let restored = durable.recover(self, world)?;
        let st = restored.unwrap_or_else(|| self.fresh_state());
        // A restored snapshot, not the pending queue, is the truth now.
        self.pending.clear();
        Ok(self.run_loop(world, on_tick, durable, st))
    }

    /// The tick loop proper, driving a [`LoopState`] that is either
    /// fresh or restored from a snapshot.  The loop reaches the store
    /// only through `durable`: every tick boundary flushes the journal's
    /// new records, and every `snapshot_every` ticks captures an engine
    /// snapshot; [`EngineConfig::kill_at`] stops the loop dead at a tick
    /// boundary to simulate a crash.
    fn run_loop(
        &mut self,
        world: &mut GridWorld,
        mut on_tick: impl FnMut(u64, &mut GridWorld),
        mut durable: Durable,
        mut st: LoopState,
    ) -> EngineOutcome {
        // Concurrent cases contend for container capacity through the
        // world's tick-scoped reservation protocol instead of
        // double-booking it; the world's own setting is restored when
        // the run ends.
        let reservations_before = world.reservations_enabled();
        world.enable_reservations(true);
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
                let Some((index, spec, why)) = Self::pick_next(&st.policy, &mut st.waiting) else {
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
                        st.policy.admitted(&spec.hints);
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
                        st.seal(index, fiber, None, 0);
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
                let success = slot.fiber.report().success;
                self.complete(&mut st, slot, success);
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
            durable.flush().unwrap_or_else(|e| flush_refused(e));

            st.tick += 1;
            if st.tick >= self.config.max_ticks {
                for mut slot in std::mem::take(&mut st.live) {
                    slot.fiber.abort(format!(
                        "engine tick budget exhausted after {} ticks",
                        self.config.max_ticks
                    ));
                    self.complete(&mut st, slot, false);
                }
                st.waiting.clear();
                break;
            }

            // Snapshot cadence.  Placed after the budget check so a
            // snapshot never points a restored run at a tick the loop
            // would refuse to start.  During recovery the same snapshots
            // are regenerated and verified as duplicates — another
            // equality proof, this time over the full engine state.
            durable
                .capture(&st, world)
                .unwrap_or_else(|e| snapshot_refused(e));
        }

        // A killed run deliberately loses its unflushed tail — that is
        // the crash being simulated.  Every other exit flushes the
        // final events (completion or budget-abort records).
        if !killed {
            durable.flush().unwrap_or_else(|e| flush_refused(e));
        }

        world.enable_reservations(reservations_before);
        st.finished.sort_by_key(|f| f.index);
        EngineOutcome {
            cases: st.finished.into_iter().map(|f| f.outcome).collect(),
            ticks: st.tick.max(1),
            killed,
        }
    }

    /// Announce a live case's end with `success` (`false` for a budget
    /// abort) and seal it into `finished`.
    fn complete(&self, st: &mut LoopState, slot: Slot, success: bool) {
        self.trace.emit(
            "engine",
            TraceEvent::CaseCompleted {
                case: slot.fiber.label().to_owned(),
                success,
            },
        );
        let admitted = Some(slot.admitted_tick);
        st.seal(slot.index, slot.fiber, admitted, slot.blocked_ticks);
    }

    /// The admission policy's next pick, removed from the waiting queue
    /// and returned with its admission reason.  `None` when nothing
    /// waits.
    fn pick_next(
        policy: &Policy,
        waiting: &mut VecDeque<(usize, CaseSpec)>,
    ) -> Option<(usize, CaseSpec, Option<String>)> {
        // FIFO fast path: the default policy always takes the queue
        // head with no reason, so pop it directly.
        if policy.is_fifo() {
            let (index, spec) = waiting.pop_front()?;
            return Some((index, spec, None));
        }
        let (pos, reason) =
            policy.next(waiting.iter().map(|(index, spec)| (*index, &spec.hints)))?;
        let (index, spec) = waiting
            .remove(pos)
            .expect("policy picked an out-of-range waiting position");
        Some((index, spec, reason))
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

    /// A fresh fiber for `spec`'s case.
    fn spawn_fiber(&self, spec: &CaseSpec) -> CaseFiber {
        let mut fiber = CaseFiber::new(
            spec.config.clone(),
            self.case_trace(&spec.label),
            &spec.graph,
            spec.case.clone(),
            spec.label.clone(),
        );
        self.install_plan_cache(&mut fiber);
        fiber
    }

    /// The trace a case's fiber records into: scoped `case:<label>/…`
    /// in the merged log (no-op when the scheduler is untraced).
    pub(crate) fn case_trace(&self, label: &str) -> TraceHandle {
        self.trace.scoped(format_args!("case:{label}"))
    }

    /// Hands the engine's shared plan cache (when configured) to a fiber so
    /// every replan across the fleet goes through the same content-addressed
    /// map.
    pub(crate) fn install_plan_cache(&self, fiber: &mut CaseFiber) {
        if let Some(cache) = &self.config.plan_cache {
            fiber.set_plan_cache(cache.clone());
        }
    }
}
