//! Driving a fleet through `CaseScheduler` directly.
//!
//! The end-to-end reps go through `MultiCaseScenario`, the product's own
//! harness.  The traced run needs to put a timing shim around the sink
//! and a tick stamp into the `run_with` hook, which the scenario does
//! not expose, so this module assembles the same run from the
//! scheduler's public pieces.  Each workload checks that both paths
//! produce the same trace bytes.

use crate::spans::{Recorder, TimedSink};
use gridflow_engine::{
    CaseHints, CaseScheduler, CaseSpec, EngineConfig, EngineOutcome, PolicySpec, StoreBinding,
};
use gridflow_harness::workload::Workload;
use gridflow_harness::{FaultPlan, MultiCaseScenario, VirtualClock};
use gridflow_services::{GridWorld, PlanCacheHandle};
use gridflow_store::{Store, StoreResult};
use gridflow_telemetry::{TraceEvent, TraceHandle, TraceLog, TraceSink};
use std::sync::{Arc, Mutex};

/// A store shared with the engine.
pub type SharedStore = Arc<Mutex<dyn Store>>;

/// Snapshot cadence of every store-bound run here, as in
/// `enactment_throughput`.
pub const SNAPSHOT_EVERY: u64 = 32;

/// Staggered hints so every non-FIFO policy visibly reorders the fleet:
/// three priority classes, two tenants, deadlines running against
/// submission order.
pub fn staggered_hints(i: usize) -> CaseHints {
    CaseHints {
        priority: (i % 3) as i64,
        tenant: Some(if i.is_multiple_of(2) {
            "a".into()
        } else {
            "b".into()
        }),
        deadline_tick: Some(1_000 - (i as u64 % 100) * 10),
    }
}

/// What is enacted and under which engine knobs.  Every fleet runs the
/// default core single-threaded.
#[derive(Clone)]
pub struct Fleet<'a> {
    pub plan: &'a FaultPlan,
    pub workload: &'a Workload,
    pub cases: usize,
    pub max_in_flight: usize,
    pub policy: PolicySpec,
    pub hints: Option<fn(usize) -> CaseHints>,
    pub plan_cache: Option<PlanCacheHandle>,
}

impl<'a> Fleet<'a> {
    pub fn new(
        plan: &'a FaultPlan,
        workload: &'a Workload,
        cases: usize,
        max_in_flight: usize,
    ) -> Self {
        Fleet {
            plan,
            workload,
            cases,
            max_in_flight,
            policy: PolicySpec::Fifo,
            hints: None,
            plan_cache: None,
        }
    }

    /// The same fleet as the harness's scenario, traced.
    pub fn scenario(&self) -> MultiCaseScenario<'a> {
        let mut scenario = MultiCaseScenario::new(self.plan, self.workload, self.cases)
            .workers(1)
            .max_in_flight(self.max_in_flight)
            .policy(self.policy)
            .traced();
        if let Some(hints) = self.hints {
            scenario = scenario.case_hints(hints);
        }
        if let Some(cache) = &self.plan_cache {
            scenario = scenario.plan_cache(cache.clone());
        }
        scenario
    }

    fn config(&self, store: Option<StoreBinding>) -> EngineConfig {
        EngineConfig {
            workers: 1,
            max_in_flight: self.max_in_flight,
            policy: self.policy,
            plan_cache: self.plan_cache.clone(),
            store,
            ..EngineConfig::default()
        }
    }

    fn submit(&self, scheduler: &mut CaseScheduler) {
        let case = Arc::new(self.workload.case.clone());
        for i in 0..self.cases {
            scheduler.submit(CaseSpec {
                label: format!("{}-{i}", self.workload.name),
                graph: self.workload.graph.clone(),
                case: case.clone(),
                config: self.workload.config.clone(),
                hints: self.hints.map(|f| f(i)).unwrap_or_default(),
            });
        }
    }

    /// The per-tick hook: the harness's scripted node losses (a loss at
    /// `after_executions: k` takes its container down once the shared
    /// world has executed `k` activities), then the recorder's tick
    /// stamp.  Partitions are not staged; no workload here scripts one.
    fn hook(
        &self,
        runner: TraceHandle,
        recorder: Option<Arc<Recorder>>,
    ) -> impl FnMut(u64, &mut GridWorld) + 'a {
        let plan = self.plan;
        assert!(
            plan.partitions.is_empty(),
            "partitions are not staged by the benchmark"
        );
        move |tick, world| {
            for loss in &plan.node_loss {
                if loss.after_executions <= world.history.len() {
                    let was_up = world
                        .topology
                        .container(&loss.container)
                        .is_some_and(|c| c.up);
                    let _ = world.set_container_up(&loss.container, false);
                    if was_up {
                        runner.emit(
                            "runner",
                            TraceEvent::NodeLost {
                                container: loss.container.clone(),
                                after_executions: loss.after_executions,
                            },
                        );
                    }
                }
            }
            if let Some(rec) = &recorder {
                rec.tick(tick);
            }
        }
    }

    /// Run the fleet through the scheduler.  `traced: false` installs no
    /// sink at all; a store implies tracing.  With a recorder, the sink
    /// is wrapped in [`TimedSink`] and every tick is stamped; the caller
    /// brackets the call with `begin_run` / `end_run`.
    pub fn run(
        &self,
        traced: bool,
        store: Option<SharedStore>,
        recorder: Option<Arc<Recorder>>,
    ) -> (EngineOutcome, Option<TraceLog>) {
        let log = (traced || store.is_some())
            .then(|| TraceLog::with_clock(Arc::new(VirtualClock::new())));
        let binding = store.map(|store| StoreBinding {
            store,
            journal: log.clone().expect("a store-bound run is traced"),
            snapshot_every: SNAPSHOT_EVERY,
        });
        let mut scheduler = CaseScheduler::new(self.config(binding));
        let runner = match self.sink(log.as_ref(), recorder.as_ref()) {
            Some(sink) => {
                scheduler = scheduler.trace(sink.clone());
                TraceHandle::new(sink)
            }
            None => TraceHandle::none(),
        };
        self.submit(&mut scheduler);
        let mut world = self.workload.fresh_world(self.plan, 0);
        let outcome = scheduler.run_with(&mut world, self.hook(runner, recorder));
        (outcome, log)
    }

    /// Recover a killed run from `store`, as `MultiCaseScenario::recover`
    /// does: reseed the log and clock at the latest snapshot, resubmit,
    /// and let the engine restore and re-execute.
    pub fn recover(
        &self,
        store: SharedStore,
        recorder: Option<Arc<Recorder>>,
    ) -> StoreResult<(EngineOutcome, TraceLog)> {
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
        let binding = StoreBinding {
            store,
            journal: log.clone(),
            snapshot_every: SNAPSHOT_EVERY,
        };
        let sink = self
            .sink(Some(&log), recorder.as_ref())
            .expect("a log is always a sink");
        let mut scheduler = CaseScheduler::new(self.config(Some(binding))).trace(sink.clone());
        self.submit(&mut scheduler);
        let mut world = self.workload.fresh_world(self.plan, 0);
        let outcome = scheduler.recover(&mut world, self.hook(TraceHandle::new(sink), recorder))?;
        Ok((outcome, log))
    }

    fn sink(
        &self,
        log: Option<&TraceLog>,
        recorder: Option<&Arc<Recorder>>,
    ) -> Option<Arc<dyn TraceSink>> {
        let base = Arc::new(log?.clone()) as Arc<dyn TraceSink>;
        Some(match recorder {
            Some(rec) => Arc::new(TimedSink::new(base, rec.clone())),
            None => base,
        })
    }
}

/// Sorted makespans (virtual ticks) of the cases that were admitted.
pub fn makespans(outcome: &EngineOutcome) -> Vec<u64> {
    let mut ticks: Vec<u64> = outcome
        .cases
        .iter()
        .filter_map(|c| c.admitted_makespan_ticks())
        .collect();
    ticks.sort_unstable();
    ticks
}

/// Cases that did not succeed: failed, refused or aborted.
pub fn failed_cases(outcome: &EngineOutcome) -> usize {
    outcome.cases.iter().filter(|c| !c.report.success).count()
}
