//! Multi-case scenarios: N concurrent enactments of one workload over
//! one shared world, driven by the `gridflow-engine` scheduler under a
//! seeded [`FaultPlan`].
//!
//! This is the engine's half of the determinism bargain: the fault plan
//! scripts *what* goes wrong (node losses keyed to the shared world's
//! execution count, Bernoulli activity failures from the world seed)
//! and the scheduler fixes *when* each case may act, so the merged
//! trace of the whole fleet is a pure function of `(plan, workload,
//! case count)`.

use crate::clock::VirtualClock;
use crate::plan::FaultPlan;
use crate::workload::Workload;
use gridflow_engine::{
    CaseHints, CaseOutcome, CaseScheduler, CaseSpec, EngineConfig, EngineOutcome, PolicySpec,
    StoreBinding,
};
use gridflow_services::{GridWorld, PlanCacheHandle};
use gridflow_store::{Store, StoreError, StoreResult};
use gridflow_telemetry::{TraceEvent, TraceHandle, TraceLog, TraceSink};
use std::sync::{Arc, Mutex};

/// The record of one multi-case run.
#[derive(Debug, Clone)]
pub struct MultiCaseOutcome {
    /// The engine's verdict: one [`CaseOutcome`] per case, in
    /// submission order, plus the tick count.
    pub engine: EngineOutcome,
    /// The merged event log (engine events under source `engine`, each
    /// case's under `case:<label>/…`), when tracing was requested.
    pub trace: Option<TraceLog>,
}

impl MultiCaseOutcome {
    /// One case's outcome by label.
    pub fn case(&self, label: &str) -> Option<&CaseOutcome> {
        self.engine.cases.iter().find(|c| c.label == label)
    }
}

/// N concurrent copies of a workload's case, enacted over one shared
/// world built from the workload's fault plan.
///
/// Case `i` is labelled `<workload name>-<i>`; labels are the
/// scheduler's canonical order, its reservation-hold owners, and the
/// per-case trace scopes.
#[derive(Clone)]
pub struct MultiCaseScenario<'a> {
    plan: &'a FaultPlan,
    workload: &'a Workload,
    cases: usize,
    config: EngineConfig,
    traced: bool,
    hints_fn: Option<fn(usize) -> CaseHints>,
    store: Option<(Arc<Mutex<dyn Store>>, u64)>,
    kill_at: Option<u64>,
}

impl std::fmt::Debug for MultiCaseScenario<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiCaseScenario")
            .field("workload", &self.workload.name)
            .field("cases", &self.cases)
            .field("config", &self.config)
            .field("kill_at", &self.kill_at)
            .finish_non_exhaustive()
    }
}

impl<'a> MultiCaseScenario<'a> {
    /// `cases` concurrent copies of `workload` under `plan`, with the
    /// default [`EngineConfig`] and no tracing.
    pub fn new(plan: &'a FaultPlan, workload: &'a Workload, cases: usize) -> Self {
        MultiCaseScenario {
            plan,
            workload,
            cases,
            config: EngineConfig::default(),
            traced: false,
            hints_fn: None,
            store: None,
            kill_at: None,
        }
    }

    /// Read by nothing (see [`EngineConfig::workers`]); kept only
    /// because `benchmark/src/fleet.rs` calls it.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Cap concurrently-enacting cases; the rest queue for admission.
    pub fn max_in_flight(mut self, cap: usize) -> Self {
        self.config.max_in_flight = cap;
        self
    }

    /// Abort every still-running case once `ticks` ticks have elapsed
    /// ([`EngineConfig::max_ticks`]).
    pub fn max_ticks(mut self, ticks: u64) -> Self {
        self.config.max_ticks = ticks;
        self
    }

    /// Admit cases under `policy` instead of the FIFO default.
    pub fn policy(mut self, policy: PolicySpec) -> Self {
        self.config.policy = policy;
        self
    }

    /// Derive each case's scheduling hints from its fleet index
    /// (case `i` gets `hints(i)`).  Without this every case carries
    /// neutral [`CaseHints`], which makes every policy degrade to FIFO.
    pub fn case_hints(mut self, hints: fn(usize) -> CaseHints) -> Self {
        self.hints_fn = Some(hints);
        self
    }

    /// Record the merged run into a fresh [`TraceLog`] stamped by a
    /// [`VirtualClock`], returned in [`MultiCaseOutcome::trace`].
    pub fn traced(mut self) -> Self {
        self.traced = true;
        self
    }

    /// Journal the run into `store` at every tick boundary and capture
    /// an engine snapshot every `snapshot_every` ticks (`0` = events
    /// only).  Implies [`traced`](MultiCaseScenario::traced) — the
    /// store's flush source is the scenario's trace log.
    pub fn store(mut self, store: Arc<Mutex<dyn Store>>, snapshot_every: u64) -> Self {
        self.store = Some((store, snapshot_every));
        self.traced = true;
        self
    }

    /// Simulate a process death at the top of `tick`: the run stops
    /// before that tick emits anything, leaving the store holding
    /// exactly the ticks `< tick`.  Recover the fleet afterwards with
    /// [`MultiCaseScenario::recover`] on a scenario bound to the same
    /// store.
    pub fn kill_at(mut self, tick: u64) -> Self {
        self.kill_at = Some(tick);
        self
    }

    /// Route every fiber's replans through a fleet-shared,
    /// content-addressed plan cache.  A strict performance knob: GP is a
    /// deterministic function of `(seed, problem)`, so cache hits return
    /// byte-identical plans and the merged trace differs from an
    /// uncached run only in its `plan.cache_*` events.
    pub fn plan_cache(mut self, cache: PlanCacheHandle) -> Self {
        self.config.plan_cache = Some(cache);
        self
    }

    /// Drive every case to completion.
    ///
    /// Scripted node losses fire at the top of the tick on which the
    /// shared world's execution count reaches their threshold — a loss
    /// at `after_executions: k` lands between cases, never inside one
    /// activity.
    pub fn run(self) -> MultiCaseOutcome {
        let log = self
            .traced
            .then(|| TraceLog::with_clock(Arc::new(VirtualClock::new())));
        let mut scheduler = CaseScheduler::new(self.engine_config_for(log.as_ref()));
        let runner_trace = match &log {
            Some(log) => {
                // One sink shared by the scheduler and the runner's own
                // events, not an `Arc` each: the second allocation per
                // run is enough to move the benchmark's `durable-journal`
                // `peak_rss_mb` from 97 to 108 MB (CHANGES.md, PR 18).
                let sink: Arc<dyn TraceSink> = Arc::new(log.clone());
                scheduler = scheduler.trace(sink.clone());
                TraceHandle::new(sink)
            }
            None => TraceHandle::none(),
        };
        self.submit_fleet(&mut scheduler);
        let mut world = self.workload.fresh_world(self.plan, 0);
        let engine = scheduler.run_with(&mut world, Self::fault_hook(self.plan, runner_trace));
        MultiCaseOutcome { engine, trace: log }
    }

    /// Recover a crashed run from the scenario's store: reseed a trace
    /// log at the latest snapshot's journal position (and a
    /// [`VirtualClock`] at its stored reading), then let the engine's
    /// [`CaseScheduler::recover`] restore state and re-execute the
    /// suffix.  With no snapshot in the store the fleet restarts from
    /// scratch and the whole regenerated prefix is byte-verified
    /// against the stored events.
    ///
    /// The scenario must describe the *same* `(plan, workload, cases,
    /// config)` as the crashed run — recovery re-executes, so a
    /// different scenario would diverge and be rejected by the store.
    /// A scenario with no [`store`](MultiCaseScenario::store) is
    /// refused with [`StoreError::NotBound`].
    pub fn recover(self) -> StoreResult<MultiCaseOutcome> {
        let (store, _) = self.store.clone().ok_or(StoreError::NotBound)?;
        let snap = store
            .lock()
            .expect("store mutex poisoned")
            .latest_snapshot()?;
        let log = match &snap {
            Some(rec) => TraceLog::resuming(
                rec.journal_seq,
                Arc::new(VirtualClock::starting_at(rec.clock_ticks, rec.clock_s)),
            ),
            None => TraceLog::with_clock(Arc::new(VirtualClock::new())),
        };
        let sink: Arc<dyn TraceSink> = Arc::new(log.clone());
        let mut scheduler =
            CaseScheduler::new(self.engine_config_for(Some(&log))).trace(sink.clone());
        let runner_trace = TraceHandle::new(sink);
        // Submissions feed the replay-only path; a snapshot-led
        // recovery discards them in favor of the restored state.
        self.submit_fleet(&mut scheduler);
        let mut world = self.workload.fresh_world(self.plan, 0);
        let engine = scheduler.recover(&mut world, Self::fault_hook(self.plan, runner_trace))?;
        Ok(MultiCaseOutcome {
            engine,
            trace: Some(log),
        })
    }

    /// The engine configuration for a run: the scenario's config plus
    /// the run-time store binding (which needs the run's trace log) and
    /// the kill point.
    fn engine_config_for(&self, log: Option<&TraceLog>) -> EngineConfig {
        let mut config = self.config.clone();
        config.kill_at = self.kill_at;
        config.store = self.store.as_ref().map(|(store, snapshot_every)| {
            let journal = log
                .expect("a store-bound scenario is always traced")
                .clone();
            StoreBinding {
                store: store.clone(),
                journal,
                snapshot_every: *snapshot_every,
            }
        });
        config
    }

    /// Submit the fleet's specs in canonical label order.
    fn submit_fleet(&self, scheduler: &mut CaseScheduler) {
        let case = Arc::new(self.workload.case.clone());
        for i in 0..self.cases {
            scheduler.submit(CaseSpec {
                label: format!("{}-{i}", self.workload.name),
                graph: self.workload.graph.clone(),
                case: case.clone(),
                config: self.workload.config.clone(),
                hints: self.hints_fn.map(|f| f(i)).unwrap_or_default(),
            });
        }
    }

    /// The per-tick hook that stages scripted faults against the shared
    /// world: node losses keyed to the execution count, and partition
    /// windows keyed to the engine tick.  The hook remembers nothing, so
    /// restored worlds replay correctly: a loss already applied before
    /// the crash finds its container down (`was_up` false) and does not
    /// re-emit, and the engine calls the hook once per tick with
    /// consecutive ticks, so a window's boundaries are the ticks *equal*
    /// to `from_tick` / `heal_tick` — a run recovered inside an open
    /// window starts past the first and stages only the second.
    ///
    /// A partition `(a, b)` is applied conservatively: each side that
    /// names a container in the topology is unreachable (down) for
    /// `[from_tick, heal_tick)`; sides naming no container (e.g.
    /// `"coordinator"`) cost nothing, so `("coordinator", "ac-h2")`
    /// reads as "the coordinator cannot reach `ac-h2`".  The window's
    /// boundaries emit `transport.partitioned` / `transport.healed`
    /// exactly once each; on heal, a side stays down if a scripted node
    /// loss or another still-open partition holds it.
    fn fault_hook(
        plan: &FaultPlan,
        runner_trace: TraceHandle,
    ) -> impl FnMut(u64, &mut GridWorld) + '_ {
        move |tick, world| {
            for loss in &plan.node_loss {
                if loss.after_executions <= world.history.len() {
                    let was_up = world
                        .topology
                        .container(&loss.container)
                        .map(|c| c.up)
                        .unwrap_or(false);
                    let _ = world.set_container_up(&loss.container, false);
                    if was_up {
                        runner_trace.emit(
                            "runner",
                            TraceEvent::NodeLost {
                                container: loss.container.clone(),
                                after_executions: loss.after_executions,
                            },
                        );
                    }
                }
            }
            for (i, cut) in plan.partitions.iter().enumerate() {
                // A degenerate `from >= heal` window never opens.
                if cut.from_tick >= cut.heal_tick {
                    continue;
                }
                if tick == cut.from_tick {
                    for side in [&cut.a, &cut.b] {
                        if world.topology.container(side).is_some() {
                            let _ = world.set_container_up(side, false);
                        }
                    }
                    runner_trace.emit(
                        "runner",
                        TraceEvent::PartitionStarted {
                            a: cut.a.clone(),
                            b: cut.b.clone(),
                            heal_tick: cut.heal_tick,
                        },
                    );
                } else if tick == cut.heal_tick {
                    for side in [&cut.a, &cut.b] {
                        if world.topology.container(side).is_some()
                            && !held_down(plan, side, world.history.len(), tick, i)
                        {
                            let _ = world.set_container_up(side, true);
                        }
                    }
                    runner_trace.emit(
                        "runner",
                        TraceEvent::PartitionHealed {
                            a: cut.a.clone(),
                            b: cut.b.clone(),
                        },
                    );
                }
            }
        }
    }
}

/// Is `container` held down at `tick` by something other than partition
/// `healing` — a tripped node loss, or another still-open partition
/// naming it?
fn held_down(
    plan: &FaultPlan,
    container: &str,
    executions: usize,
    tick: u64,
    healing: usize,
) -> bool {
    plan.node_loss
        .iter()
        .any(|l| l.container == container && l.after_executions <= executions)
        || plan.partitions.iter().enumerate().any(|(j, p)| {
            j != healing && p.active_at(tick) && (p.a == container || p.b == container)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::dinner_workload;

    #[test]
    fn a_fleet_of_clean_cases_all_succeed() {
        let outcome = MultiCaseScenario::new(&FaultPlan::default(), &dinner_workload(), 3).run();
        assert_eq!(outcome.engine.cases.len(), 3);
        assert!(outcome.engine.all_succeeded());
        // Labels are unique and ordered.
        let labels: Vec<&str> = outcome
            .engine
            .cases
            .iter()
            .map(|c| c.label.as_str())
            .collect();
        assert_eq!(labels, ["dinner-0", "dinner-1", "dinner-2"]);
        // Interleaving three cases cannot take fewer ticks than the
        // longest single case.
        assert!(outcome.engine.ticks >= 4, "ticks: {}", outcome.engine.ticks);
    }

    #[test]
    fn recovering_a_scenario_with_no_store_is_a_typed_error() {
        let refused = MultiCaseScenario::new(&FaultPlan::default(), &dinner_workload(), 1)
            .recover()
            .unwrap_err();
        assert_eq!(refused, StoreError::NotBound);
    }

    #[test]
    fn fault_hook_stages_partition_windows_and_honors_holds() {
        use crate::workload::dinner_world;
        use gridflow_telemetry::TraceQuery;

        // Two overlapping windows plus a node loss that outlives them:
        //   ac-h2 cut for ticks [2, 4) by a coordinator-side partition,
        //   ac-h4/ac-h5 cut for [1, 3), and ac-h5 scripted lost from the
        //   start — its heal must find it held down.
        let plan = FaultPlan::seeded(1)
            .partitioning("coordinator", "ac-h2", 2, 4)
            .partitioning("ac-h4", "ac-h5", 1, 3)
            .losing_node("ac-h5", 0);
        let log = TraceLog::new();
        let mut world = dinner_world();
        let up = |w: &GridWorld, id: &str| w.topology.container(id).unwrap().up;
        {
            let mut hook = MultiCaseScenario::fault_hook(&plan, TraceHandle::from(log.clone()));
            for tick in 0..6 {
                hook(tick, &mut world);
                assert_eq!(up(&world, "ac-h2"), !(2..4).contains(&tick), "tick {tick}");
                assert_eq!(up(&world, "ac-h4"), !(1..3).contains(&tick), "tick {tick}");
                assert!(!up(&world, "ac-h5"), "node loss holds ac-h5 at tick {tick}");
            }
        }

        let records = log.records();
        let q = TraceQuery::new(records.clone());
        assert_eq!(q.check_all(world.capacities()), Ok(()));
        assert_eq!(q.count(|e| e.label() == "fault.node_lost"), 1);
        assert_eq!(q.count(|e| e.label() == "transport.partitioned"), 2);
        assert_eq!(q.count(|e| e.label() == "transport.healed"), 2);
        // Boundary order follows the windows: the [1,3) cut opens and
        // heals before the [2,4) one heals.
        let labels: Vec<&str> = records.iter().map(|r| r.event.label()).collect();
        assert_eq!(
            labels,
            [
                "fault.node_lost",
                "transport.partitioned", // ac-h4/ac-h5 at tick 1
                "transport.partitioned", // coordinator/ac-h2 at tick 2
                "transport.healed",      // ac-h4/ac-h5 at tick 3
                "transport.healed",      // coordinator/ac-h2 at tick 4
            ]
        );
    }

    #[test]
    fn traced_fleets_tag_every_case_event_with_its_scope() {
        let outcome = MultiCaseScenario::new(&FaultPlan::default(), &dinner_workload(), 2)
            .traced()
            .run();
        let log = outcome.trace.expect("traced run keeps its log");
        let records = log.records();
        assert!(records
            .iter()
            .any(|r| r.source.starts_with("case:dinner-0/")));
        assert!(records
            .iter()
            .any(|r| r.source.starts_with("case:dinner-1/")));
        // Engine events are unscoped.
        assert!(records
            .iter()
            .any(|r| r.source == "engine" && r.event.label() == "engine.tick"));
    }
}
