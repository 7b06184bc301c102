//! The coordination service: "Coordination services act as proxies for
//! the end-user.  A coordination service receives a case description and
//! controls the enactment of the workflow" (§2) by driving the abstract
//! ATN machine over the process description.
//!
//! [`Enactor`] is the core: it runs ready activities against the grid
//! world (locating containers through matchmaking and walking the
//! dispatch ladder of `coordination/ladder.rs` over them), folds each
//! activity's outputs into the case's data state, evaluates choice/loop
//! conditions against that state, and — when every candidate container
//! for an activity has failed — triggers re-planning through the
//! planning service, exactly the escalation of §3.3.

use crate::error::{Result, ServiceError};
use crate::planning::{PlanRequest, PlanningService};
use crate::world::GridWorld;
use gridflow_planner::prelude::GpConfig;
use gridflow_planner::GoalSpec;
use gridflow_process::{ActivityKind, AtnSnapshot, CaseDescription, DataState, ProcessGraph};
use gridflow_recovery::{RecoveryManager, RecoveryPolicy, RecoveryState};
use gridflow_telemetry::{Label, TraceEvent, TraceHandle, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

mod ladder;

use ladder::{ActivityOutcome, PendingDispatch};

/// Configuration of an enactment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnactmentConfig {
    /// How many candidate containers to try per activity execution.
    pub max_candidates: usize,
    /// Re-planning rounds allowed when an activity fails on every
    /// candidate; `0` (the default) aborts the case instead.
    pub max_replans: usize,
    /// Goal specifications handed to the planning service on re-plans
    /// (required when `max_replans > 0`).
    pub planning_goals: Vec<GoalSpec>,
    /// GP configuration for re-planning.
    pub gp: GpConfig,
    /// Abort if any loop header executes more than this many times
    /// (defends against plans whose loop conditions never falsify).
    pub max_loop_iterations: usize,
    /// When re-planning, wrap the fresh (loop-free) GP plan in an
    /// iterative node guarded by this named constraint of the case
    /// description — restoring the refinement semantics the original
    /// workflow carried (Fig. 10's Cons1 loop).  Ignored when the case
    /// has no constraint of that name.
    pub wrap_replans_with_constraint: Option<String>,
    /// The failure policy the enactor escalates through: retry with
    /// backoff → failover to the next candidate → breaker quarantine →
    /// re-plan.  The default is [`RecoveryPolicy::disabled`]: one try
    /// per candidate, then re-plan.
    pub recovery: RecoveryPolicy,
}

impl Default for EnactmentConfig {
    fn default() -> Self {
        EnactmentConfig {
            max_candidates: 3,
            max_replans: 0,
            planning_goals: Vec::new(),
            gp: GpConfig {
                population_size: 100,
                generations: 20,
                ..GpConfig::default()
            },
            max_loop_iterations: 64,
            wrap_replans_with_constraint: None,
            recovery: RecoveryPolicy::disabled(),
        }
    }
}

/// One successful activity execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityExecution {
    /// Activity id in the process graph (e.g. `P3DR1`).
    pub activity: String,
    /// Service executed.
    pub service: String,
    /// Container it ran on.
    pub container: String,
    /// Duration (virtual seconds).
    pub duration_s: f64,
    /// Market cost.
    pub cost: f64,
}

/// The record of one enactment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnactmentReport {
    /// Did the workflow reach End with all case goals met?
    pub success: bool,
    /// Successful executions, in order.
    pub executions: Vec<ActivityExecution>,
    /// `(activity, container)` pairs that failed.
    pub failed_attempts: Vec<(String, String)>,
    /// Re-planning rounds used.
    pub replans: usize,
    /// The data state at the end.
    pub final_state: DataState,
    /// Sum of execution durations (the enactor serializes execution; see
    /// the simulation service for a parallelism-aware estimate).
    pub total_duration_s: f64,
    /// Total market cost.
    pub total_cost: f64,
    /// Classifications produced during the run.
    pub produced: Vec<String>,
    /// Why the enactment aborted, if it did.
    pub abort_reason: Option<String>,
}

/// The enactment engine.
#[derive(Debug, Clone, Default)]
pub struct Enactor {
    /// Configuration.
    pub config: EnactmentConfig,
    /// Optional trace sink: dispatch/completion/failure, flow-control
    /// transitions, and re-planning as typed events.
    trace: TraceHandle,
}

/// Builder for [`Enactor`]: configuration, trace wiring, and recovery
/// policy in one fluent chain —
/// `Enactor::builder().config(cfg).trace(sink).recovery(policy).build()`.
#[derive(Debug, Clone, Default)]
pub struct EnactorBuilder {
    config: EnactmentConfig,
    trace: TraceHandle,
}

impl EnactorBuilder {
    /// Replace the whole enactment configuration.
    pub fn config(mut self, config: EnactmentConfig) -> Self {
        self.config = config;
        self
    }

    /// Record every enactment event into `sink`.
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = TraceHandle::new(sink);
        self
    }

    /// Install a recovery policy (shorthand for setting
    /// [`EnactmentConfig::recovery`] on the configuration).
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.config.recovery = policy;
        self
    }

    /// Finish the chain.
    pub fn build(self) -> Enactor {
        Enactor {
            config: self.config,
            trace: self.trace,
        }
    }
}

impl Enactor {
    /// Start building an enactor — the one construction surface (the
    /// 0.5.0-era `new`/`with_trace`/`with_trace_handle` shims are
    /// gone; their equivalence to the builder was pinned by the shim
    /// suite before removal).
    pub fn builder() -> EnactorBuilder {
        EnactorBuilder::default()
    }

    /// Enact `graph` under `case` against `world`, stepping a
    /// [`CaseFiber`] until it finishes.  Reservation holds are released
    /// after every step (the fiber is its own tick), so an enabled
    /// reservation protocol can never deadlock one case against itself;
    /// with the protocol off (the default) the drain is a no-op.
    pub fn enact(
        &self,
        world: &mut GridWorld,
        graph: &ProcessGraph,
        case: &CaseDescription,
    ) -> EnactmentReport {
        let mut fiber = CaseFiber::new(
            self.config.clone(),
            self.trace.clone(),
            graph,
            case.clone(),
            graph.name.clone(),
        );
        loop {
            let status = fiber.step(world);
            world.drain_reservations();
            if status == FiberStatus::Finished {
                break;
            }
        }
        fiber.into_report()
    }
}

/// How far one [`CaseFiber::step`] call moved the case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FiberStatus {
    /// The fiber made progress: it executed one activity, installed a
    /// re-planned graph, or rebuilt its machine.
    Progressed,
    /// Every candidate container the case matched was already reserved
    /// by another case this tick.  Nothing failed — busy is not broken
    /// — and the case retries on the next tick.
    Blocked {
        /// The service the case was trying to dispatch.
        service: Label,
    },
    /// The enactment reached a terminal state; the report is final.
    Finished,
}

/// A serializable capture of a [`CaseFiber`] between steps — the
/// per-case payload of a durable engine snapshot.
///
/// A slim image holds what a live fiber cannot re-derive at a tick
/// boundary: ATN, data and recovery-layer state and the report so far,
/// but not the blueprint-shaped bulk ([`CaseFiber::blueprint`]: graph,
/// case description, config) a fleet shares, which the capturer stores
/// once and records where in `blueprint`.  Handed those three parts
/// back, [`CaseFiber::from_slim`] rebuilds the fiber, emitting nothing:
/// the transition baseline comes from the ATN state, and the first step
/// walks the ladder the blocked-dispatch cache would have skipped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FiberSlim {
    /// The capturer's reference to the fiber's (graph, case, config) —
    /// in an engine snapshot, an index into its blueprint table.
    pub blueprint: usize,
    /// Case label (trace scope and reservation-hold owner).
    pub label: Label,
    /// ATN machine state, if any step has run.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub snapshot: Option<AtnSnapshot>,
    /// Data state.
    pub state: DataState,
    /// The report so far.
    pub report: EnactmentReport,
    /// Services excluded by re-planning.
    pub excluded: Vec<String>,
    /// Recovery-layer state (the recovery clock and the breakers).
    pub recovery: RecoveryState,
}

/// A resumable, single-step enactment — the coroutine the enactor's
/// old internal loop was unrolled into.
///
/// One [`CaseFiber::step`] executes at most one activity (or installs
/// one re-planned graph) and reports how far it got, so a scheduler can
/// interleave many fibers over one shared [`GridWorld`].  The fiber owns
/// its graph and its ATN state ([`AtnSnapshot`], the same value a
/// [`FiberSlim`] serializes) and plays the token game on them directly, so
/// a step clones no graph and rebuilds no machine; the graph is
/// validated once, on the first step after it is installed.  A
/// fiber-driven single case traces byte-identically to the pre-fiber
/// enactor.
pub struct CaseFiber {
    config: EnactmentConfig,
    trace: TraceHandle,
    /// Shared, not owned: a fleet of fibers enacting one workload holds
    /// one description between them, so spawning and retiring a fiber
    /// never deep-copies the case's goal/constraint condition trees.
    case: Arc<CaseDescription>,
    label: Label,
    planning: PlanningService,
    initial_classifications: Vec<String>,
    current_graph: ProcessGraph,
    snapshot: Option<AtnSnapshot>,
    /// Flow-transition baseline: ATN execution counts for the
    /// non-end-user nodes, so each increment after an activity step
    /// surfaces as a `TransitionFired` event.
    flow_base: BTreeMap<String, usize>,
    state: DataState,
    report: EnactmentReport,
    excluded: Vec<String>,
    recovery: RecoveryManager,
    done: bool,
    /// Set while the fiber is blocked on capacity and its ladder has no
    /// breaker (see [`PendingDispatch`]).
    pending: Option<PendingDispatch>,
    /// Has `current_graph` passed [`ProcessGraph::validate`]?  Cleared
    /// whenever a graph is installed (construction, restore, re-plan),
    /// so the first step on it checks and later steps do not.
    graph_checked: bool,
}

impl std::fmt::Debug for CaseFiber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaseFiber")
            .field("label", &self.label)
            .field("graph", &self.current_graph.name)
            .field("done", &self.done)
            .finish()
    }
}

impl CaseFiber {
    /// A fiber for a fresh enactment of `graph` under `case`.  `label`
    /// names the case in engine traces and reservation holds; emits
    /// `EnactmentStarted` immediately.
    /// The case may be passed owned (`CaseDescription`) or shared
    /// (`Arc<CaseDescription>`); schedulers spawning a fleet over one
    /// workload should share, so each spawn is a pointer bump instead
    /// of a deep copy of the case's condition trees.
    pub fn new(
        config: EnactmentConfig,
        trace: TraceHandle,
        graph: &ProcessGraph,
        case: impl Into<Arc<CaseDescription>>,
        label: impl Into<Label>,
    ) -> Self {
        let case = case.into();
        trace.emit(
            "enactor",
            TraceEvent::EnactmentStarted {
                workflow: graph.name.clone(),
                resumed: false,
            },
        );
        CaseFiber {
            recovery: RecoveryManager::with_trace_handle(config.recovery.clone(), trace.clone()),
            planning: PlanningService::new(config.gp).with_trace_handle(trace.clone()),
            initial_classifications: initial_classifications(&case),
            state: case.initial_data.clone(),
            report: empty_report(&case),
            config,
            trace,
            case,
            label: label.into(),
            current_graph: graph.clone(),
            snapshot: None,
            flow_base: BTreeMap::new(),
            excluded: Vec::new(),
            done: false,
            pending: None,
            graph_checked: false,
        }
    }

    /// The blueprint-shaped bulk a [`FiberSlim`] leaves out, borrowed:
    /// the graph in force (original or re-planned), the shared case
    /// description and the enactment configuration.
    pub fn blueprint(&self) -> (&ProcessGraph, &Arc<CaseDescription>, &EnactmentConfig) {
        (&self.current_graph, &self.case, &self.config)
    }

    /// Capture the fiber's state as a serializable [`FiberSlim`] whose
    /// `blueprint` field records where the caller keeps
    /// [`CaseFiber::blueprint`].  Must be taken between steps of a live fiber.
    pub fn slim(&self, blueprint: usize) -> FiberSlim {
        FiberSlim {
            blueprint,
            label: self.label.clone(),
            snapshot: self.snapshot.clone(),
            state: self.state.clone(),
            report: self.report.clone(),
            excluded: self.excluded.clone(),
            recovery: self.recovery.snapshot(),
        }
    }

    /// Rebuild a fiber from a captured [`FiberSlim`] and the blueprint
    /// parts it was captured beside, *silently*: no `EnactmentStarted`
    /// (or any other event) is emitted, because the original run
    /// already emitted everything up to the capture point and a
    /// crash-recovered trace must stay byte-identical to an
    /// uninterrupted one.
    pub fn from_slim(
        slim: FiberSlim,
        graph: ProcessGraph,
        case: Arc<CaseDescription>,
        config: EnactmentConfig,
        trace: TraceHandle,
    ) -> Self {
        let FiberSlim {
            blueprint: _,
            label,
            snapshot,
            state,
            report,
            excluded,
            recovery,
        } = slim;
        // Between steps a traced fiber's baseline is exactly the non-zero
        // execution counts of its flow-control nodes.
        let flow_base = snapshot.iter().flat_map(|atn| {
            graph
                .activities()
                .iter()
                .filter(|a| a.kind != ActivityKind::EndUser)
                .map(|a| (a.id.clone(), atn.executions(&a.id)))
                .filter(|&(_, n)| n > 0)
        });
        let flow_base = flow_base.collect();
        let recovery = RecoveryManager::restore(config.recovery.clone(), recovery, trace.clone());
        let planning = PlanningService::new(config.gp).with_trace_handle(trace.clone());
        let initial_classifications = initial_classifications(&case);
        CaseFiber {
            config,
            trace,
            case,
            label,
            planning,
            initial_classifications,
            current_graph: graph,
            snapshot,
            flow_base,
            state,
            report,
            excluded,
            recovery,
            done: false,
            pending: None,
            graph_checked: false,
        }
    }

    /// The case label this fiber reserves and traces under.
    pub fn label(&self) -> &Label {
        &self.label
    }

    /// Route this fiber's replans through a fleet-shared plan cache.
    ///
    /// A strict performance knob: GP planning is a deterministic function
    /// of `(seed, problem)`, so a cache hit returns the byte-identical
    /// plan the fiber would have computed itself — only the wall time
    /// (and the `plan.cache_*` trace events) change.
    pub fn set_plan_cache(&mut self, cache: crate::plan_cache::PlanCacheHandle) {
        self.planning.set_plan_cache(cache);
    }

    /// The report so far (final once a step returned
    /// [`FiberStatus::Finished`]).
    pub fn report(&self) -> &EnactmentReport {
        &self.report
    }

    /// Consume the fiber, yielding its report.  A fiber that never
    /// finished is aborted first so the report is always sealed (and
    /// `EnactmentFinished` is always emitted).
    pub fn into_report(mut self) -> EnactmentReport {
        if !self.done {
            self.abort("fiber dropped before completion");
        }
        self.report
    }

    /// Abort the enactment from outside (e.g. a scheduler exhausting
    /// its tick budget): seals the report with `reason` and emits
    /// `EnactmentFinished`.  No-op once finished.
    pub fn abort(&mut self, reason: impl Into<String>) {
        if self.done {
            return;
        }
        self.report.abort_reason = Some(reason.into());
        self.finish();
    }

    /// Advance the enactment by at most one activity execution (or one
    /// re-planning round).  Terminal steps emit `EnactmentFinished` and
    /// seal the report; further calls return [`FiberStatus::Finished`]
    /// without side effects.
    pub fn step(&mut self, world: &mut GridWorld) -> FiberStatus {
        if self.done {
            return FiberStatus::Finished;
        }
        if let Some(status) = self.still_blocked(world) {
            return status;
        }
        // The ATN state is the step's to mutate; it goes back into
        // `self.snapshot` unless the step ends the enactment or installs
        // another graph.
        let fresh = self.snapshot.is_none();
        let mut atn = self.snapshot.take().unwrap_or_default();
        if fresh {
            self.flow_base.clear();
        }
        if !self.graph_checked {
            if let Err(e) = self.current_graph.validate() {
                let what = if fresh {
                    "invalid process graph"
                } else {
                    "snapshot restore failed"
                };
                return self.finish_aborted(format!("{what}: {e}"));
            }
            self.graph_checked = true;
        }
        if fresh {
            if let Err(e) = atn.start(&self.current_graph, &self.state) {
                return self.finish_aborted(format!("start failed: {e}"));
            }
            self.emit_transitions(&atn);
        }

        if atn.is_finished() {
            self.report.success = self.case.goals_met(&self.state);
            if !self.report.success {
                self.report.abort_reason = Some("workflow finished but case goals unmet".into());
            }
            return self.finish();
        }
        // Loop-bound defense.
        if let Some(merge) = self
            .current_graph
            .activities()
            .iter()
            .filter(|a| a.kind == ActivityKind::Merge)
            .find(|a| atn.executions(&a.id) > self.config.max_loop_iterations)
        {
            return self.finish_aborted(format!(
                "loop at `{}` exceeded {} iterations",
                merge.id, self.config.max_loop_iterations
            ));
        }
        let Some(activity_id) = atn.ready().first().cloned() else {
            return self.finish_aborted("workflow stuck: no ready activities".to_string());
        };
        let service = self
            .current_graph
            .activity(&activity_id)
            .and_then(|a| a.service.clone())
            .unwrap_or_else(|| activity_id.clone());

        match self.run_activity(world, &service, &activity_id) {
            Ok(ActivityOutcome::Blocked { taken }) => {
                self.snapshot = Some(atn);
                self.note_blocked(world, service.into(), taken)
            }
            Ok(ActivityOutcome::Completed) => self.advance_machine(atn, &activity_id),
            Err(_) => self.escalate_replan(world, &activity_id, &service),
        }
    }

    /// Advance the ATN past a completed activity: fire its token,
    /// surface flow transitions, and keep the state for the next step.
    fn advance_machine(&mut self, mut atn: AtnSnapshot, activity_id: &str) -> FiberStatus {
        if let Err(e) = atn.run_activity(&self.current_graph, activity_id, &self.state) {
            return self.finish_aborted(format!("machine error: {e}"));
        }
        self.emit_transitions(&atn);
        self.snapshot = Some(atn);
        FiberStatus::Progressed
    }

    /// Every candidate failed → escalate to re-planning (or abort once
    /// `max_replans` rounds are used, at once when it is 0).
    fn escalate_replan(
        &mut self,
        world: &mut GridWorld,
        activity_id: &str,
        service: &str,
    ) -> FiberStatus {
        if self.report.replans >= self.config.max_replans {
            return self.finish_aborted(
                ServiceError::ActivityFailed {
                    activity: activity_id.to_owned(),
                    service: service.to_owned(),
                }
                .to_string(),
            );
        }
        self.report.replans += 1;
        if !self.excluded.iter().any(|e| e == service) {
            self.excluded.push(service.to_owned());
        }
        self.trace.emit(
            "enactor",
            TraceEvent::ReplanTriggered {
                activity: activity_id.to_owned(),
                service: service.to_owned(),
                excluded: self.excluded.clone(),
                round: self.report.replans,
            },
        );
        let request = PlanRequest {
            initial: self.initial_classifications.clone(),
            goals: self.config.planning_goals.clone(),
            produced: self.report.produced.clone(),
            excluded: self.excluded.clone(),
        };
        match self.planning.plan(world, &request) {
            Ok(response) if response.viable => {
                self.trace
                    .emit("enactor", TraceEvent::ReplanInstalled { viable: true });
                match self.refinement_wrap(&response) {
                    Ok(g) => {
                        // The next step validates the re-planned graph
                        // and starts a fresh token game on it.
                        self.current_graph = g;
                        self.graph_checked = false;
                        self.snapshot = None;
                        FiberStatus::Progressed
                    }
                    Err(e) => self.finish_aborted(format!("re-plan wrapping failed: {e}")),
                }
            }
            Ok(_) => {
                self.trace
                    .emit("enactor", TraceEvent::ReplanInstalled { viable: false });
                self.finish_aborted("re-planning produced no viable plan".to_string())
            }
            Err(e) => self.finish_aborted(format!("re-planning failed: {e}")),
        }
    }

    fn finish_aborted(&mut self, reason: String) -> FiberStatus {
        self.report.abort_reason = Some(reason);
        self.finish()
    }

    /// Seal the report and emit `EnactmentFinished`.
    fn finish(&mut self) -> FiberStatus {
        self.done = true;
        self.report.final_state = self.state.clone();
        self.trace.emit(
            "enactor",
            TraceEvent::EnactmentFinished {
                success: self.report.success,
                abort_reason: self.report.abort_reason.clone(),
            },
        );
        FiberStatus::Finished
    }

    /// Emit a `TransitionFired` event for every flow-control node whose
    /// ATN execution count grew past the baseline, then advance it.
    fn emit_transitions(&mut self, atn: &AtnSnapshot) {
        if !self.trace.is_installed() {
            return;
        }
        for a in self
            .current_graph
            .activities()
            .iter()
            .filter(|a| a.kind != ActivityKind::EndUser)
        {
            let n = atn.executions(&a.id);
            let prev = self.flow_base.get(&a.id).copied().unwrap_or(0);
            for _ in prev..n {
                self.trace.emit(
                    "enactor",
                    TraceEvent::TransitionFired {
                        kind: kind_label(a.kind).to_owned(),
                        node: a.id.clone(),
                    },
                );
            }
            if n != prev {
                self.flow_base.insert(a.id.clone(), n);
            }
        }
    }

    /// Apply the configured refinement constraint to a fresh plan (see
    /// [`EnactmentConfig::wrap_replans_with_constraint`]).
    fn refinement_wrap(&self, response: &crate::planning::PlanResponse) -> Result<ProcessGraph> {
        let cond = self
            .config
            .wrap_replans_with_constraint
            .as_ref()
            .and_then(|name| self.case.constraints.get(name));
        match cond {
            Some(cond) => {
                let wrapped = gridflow_plan::PlanNode::Iterative {
                    cond: cond.clone(),
                    body: vec![response.tree.clone()],
                };
                Ok(gridflow_plan::tree_to_graph("replan+refinement", &wrapped)?)
            }
            None => Ok(response.graph.clone()),
        }
    }
}

/// A blank report carrying the case's initial data as `final_state`.
fn empty_report(case: &CaseDescription) -> EnactmentReport {
    EnactmentReport {
        success: false,
        executions: Vec::new(),
        failed_attempts: Vec::new(),
        replans: 0,
        final_state: case.initial_data.clone(),
        total_duration_s: 0.0,
        total_cost: 0.0,
        produced: Vec::new(),
        abort_reason: None,
    }
}

/// Stable label for a flow-control node kind in trace events.
fn kind_label(kind: ActivityKind) -> &'static str {
    match kind {
        ActivityKind::Begin => "Begin",
        ActivityKind::End => "End",
        ActivityKind::EndUser => "EndUser",
        ActivityKind::Fork => "Fork",
        ActivityKind::Join => "Join",
        ActivityKind::Choice => "Choice",
        ActivityKind::Merge => "Merge",
    }
}

/// Classifications of a case's initial data items.
pub fn initial_classifications(case: &CaseDescription) -> Vec<String> {
    case.initial_data
        .iter()
        .filter_map(|(_, item)| item.classification().map(str::to_owned))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matchmaking::{matchmake, MatchRequest};
    use crate::world::{OutputSpec, ServiceOffering};
    use gridflow_grid::GridTopology;
    use gridflow_process::{lower::lower, parser::parse_process, Condition, DataItem};

    /// A hand-built topology: each service hosted on two dedicated
    /// containers, so failing one service's hosts never disables another
    /// service.
    fn dinner_topology() -> GridTopology {
        use gridflow_grid::container::ApplicationContainer;
        use gridflow_grid::resource::{Resource, ResourceKind};
        let mut resources = Vec::new();
        let mut containers = Vec::new();
        let hosting: [(&str, &[&str]); 8] = [
            ("h0", &["prep"]),
            ("h1", &["prep"]),
            ("h2", &["cook"]),
            ("h3", &["cook"]),
            ("h4", &["nuke"]),
            ("h5", &["nuke"]),
            ("h6", &["plate"]),
            ("h7", &["plate"]),
        ];
        for (i, (name, services)) in hosting.iter().enumerate() {
            resources.push(
                Resource::new(*name, ResourceKind::PcCluster)
                    .with_nodes(4 + i as u32)
                    .with_software(services.iter().map(|s| s.to_string())),
            );
            containers.push(
                ApplicationContainer::new(format!("ac-{name}"), *name)
                    .hosting(services.iter().map(|s| s.to_string())),
            );
        }
        GridTopology {
            resources,
            containers,
        }
    }

    fn world(_seed: u64) -> GridWorld {
        let mut w = GridWorld::new(dinner_topology());
        w.offer(ServiceOffering::new(
            "prep",
            ["Raw"],
            vec![OutputSpec::plain("Prepped")],
        ));
        w.offer(ServiceOffering::new(
            "cook",
            ["Prepped"],
            vec![OutputSpec::plain("Cooked")],
        ));
        // `nuke` is an alternative cooker.
        w.offer(ServiceOffering::new(
            "nuke",
            ["Prepped"],
            vec![OutputSpec::plain("Cooked")],
        ));
        w.offer(ServiceOffering::new(
            "plate",
            ["Cooked"],
            vec![OutputSpec::plain("Plated")],
        ));
        w
    }

    fn case() -> CaseDescription {
        CaseDescription::new("dinner")
            .with_data("D1", DataItem::classified("Raw"))
            .with_goal(
                "G1",
                Condition::classified("D101", "Plated").or(plated_exists()),
            )
    }

    /// Goal: some produced item is classified Plated.  Data ids are
    /// fresh (D101, D102, …), so express the goal over a range of ids.
    fn plated_exists() -> Condition {
        (102..=116)
            .map(|i| Condition::classified(format!("D{i}"), "Plated"))
            .fold(Condition::classified("D101", "Plated"), Condition::or)
    }

    fn graph() -> gridflow_process::ProcessGraph {
        let ast = parse_process("BEGIN prep; cook; plate; END").unwrap();
        lower("dinner", &ast).unwrap()
    }

    #[test]
    fn fiber_images_round_trip_mid_enactment_without_emitting() {
        use gridflow_telemetry::{TraceHandle, TraceLog};
        // Original run: step a traced fiber partway through the dinner
        // workflow.
        let log_a = TraceLog::new();
        let mut wa = world(5);
        let mut fa = CaseFiber::new(
            EnactmentConfig::default(),
            TraceHandle::from(log_a.clone()),
            &graph(),
            case(),
            "img-case",
        );
        fa.step(&mut wa);
        fa.step(&mut wa);
        assert!(!fa.done);

        // Capture both halves of the state (fiber + world), serialize
        // the fiber image, and restore into a fresh world rebuilt from
        // the same seed.
        let image = fa.slim(0);
        let json = serde_json::to_string(&image).unwrap();
        let back: FiberSlim = serde_json::from_str(&json).unwrap();
        assert_eq!(back, image);
        let (graph, case, config) = fa.blueprint();
        let world_image = wa.image();
        let mut wb = world(5);
        wb.restore_image(&world_image).unwrap();
        let log_b = TraceLog::resuming(
            log_a.len() as u64,
            std::sync::Arc::new(gridflow_telemetry::FrozenClock),
        );
        let mut fb = CaseFiber::from_slim(
            back,
            graph.clone(),
            case.clone(),
            config.clone(),
            TraceHandle::from(log_b.clone()),
        );
        // The restore is silent: recovery must not re-emit history, and
        // re-derives the transition baseline the traced fiber kept.
        assert!(log_b.is_empty());
        assert_eq!(fb.label(), fa.label());
        assert!(!fa.flow_base.is_empty());
        assert_eq!(fb.flow_base, fa.flow_base);

        // Both fibers run to completion; reports and the remaining
        // trace suffixes agree exactly.
        let suffix_from = log_a.len() as u64;
        for _ in 0..64 {
            if fa.done {
                break;
            }
            fa.step(&mut wa);
        }
        for _ in 0..64 {
            if fb.done {
                break;
            }
            fb.step(&mut wb);
        }
        assert!(fa.done && fb.done);
        assert_eq!(fa.report(), fb.report());
        assert!(fa.report().success);
        let mut suffix = Vec::new();
        log_a.with_records_from(suffix_from, |run| suffix.extend_from_slice(run));
        assert_eq!(suffix, log_b.records());
    }

    /// Two fibers contend for the one live `prep` slot over a shared
    /// world with reservations on; a test-made hold keeps the loser
    /// blocked for as long as the script wants.  With `rederive` set,
    /// every step starts from `pending = None`, i.e. runs the matchmake
    /// the cached contention check claims it can skip.
    /// Returns the merged JSONL, both final reports, and the loser's
    /// status per tick.
    fn contended_run(
        graph: &ProcessGraph,
        rederive: bool,
    ) -> (String, [EnactmentReport; 2], Vec<FiberStatus>) {
        use gridflow_telemetry::{TraceHandle, TraceLog};
        let log = TraceLog::new();
        let mut w = world(9);
        w.enable_reservations(true);
        w.set_container_up("ac-h1", false).unwrap();
        let fiber = |label: &str| {
            CaseFiber::new(
                EnactmentConfig::default(),
                TraceHandle::from(log.clone()),
                graph,
                case(),
                label,
            )
        };
        let (mut winner, mut loser) = (fiber("winner"), fiber("loser"));
        let mut statuses = Vec::new();
        for tick in 0..16 {
            // Ticks 1–3: someone else holds the slot the loser wants.
            // Tick 2 also moves the matchmaking generation, so the
            // cached ranking is stale and only the dispatch is reused.
            // Tick 4 is the tick the slot frees.
            if (1..=3).contains(&tick) {
                assert!(w.try_reserve(&"squatter".into(), "ac-h0"));
            }
            if tick == 2 {
                w.bump_generation();
            }
            if rederive {
                winner.pending = None;
                loser.pending = None;
            }
            winner.step(&mut w);
            if !rederive && (1..=4).contains(&tick) {
                let cached = loser.pending.as_ref().map(|p| &*p.service);
                assert_eq!(cached, Some("prep"), "tick {tick}: nothing cached");
            }
            statuses.push(loser.step(&mut w));
            w.drain_reservations();
            if winner.done && loser.done {
                break;
            }
        }
        assert!(winner.done && loser.done);
        (
            log.to_jsonl(),
            [winner.into_report(), loser.into_report()],
            statuses,
        )
    }

    #[test]
    fn cached_blocked_resteps_equal_the_full_rederivation() {
        // The second graph blocks with two activities ready (`prep` and
        // `nuke`), so the re-step has a choice to get wrong.
        let forked = parse_process("BEGIN FORK { { prep; }, { nuke; } } JOIN; plate; END").unwrap();
        for graph in [graph(), lower("forked", &forked).unwrap()] {
            let (cached_jsonl, cached_reports, cached) = contended_run(&graph, false);
            let (full_jsonl, full_reports, full) = contended_run(&graph, true);
            // The script did what it says: blocked on ticks 0–3, through
            // a generation bump, and dispatched the activity the cache
            // named on the tick the slot freed.
            let blocked = FiberStatus::Blocked {
                service: "prep".into(),
            };
            assert!(cached[..4].iter().all(|status| *status == blocked));
            assert_eq!(cached[4], FiberStatus::Progressed);
            assert_eq!(cached_jsonl.matches(r#"{"CaseBlocked":"#).count(), 4);
            assert!(cached_reports.iter().all(|r| r.success));
            assert_eq!(cached_reports[1].executions[0].activity, "prep");

            assert_eq!(cached, full);
            assert_eq!(cached_reports, full_reports);
            assert_eq!(cached_jsonl, full_jsonl);
        }
    }

    #[test]
    fn happy_path_enacts_all_activities() {
        let mut w = world(1);
        let report = Enactor::default().enact(&mut w, &graph(), &case());
        assert!(report.success, "abort: {:?}", report.abort_reason);
        assert_eq!(report.executions.len(), 3);
        assert_eq!(report.replans, 0);
        assert!(report.total_duration_s > 0.0);
        assert_eq!(
            report.produced,
            vec!["Prepped".to_owned(), "Cooked".into(), "Plated".into()]
        );
    }

    #[test]
    fn retries_alternate_containers_on_failure() {
        let mut w = world(2);
        // Take down the best container for `prep`; the enactor must fall
        // back to another.
        let candidates = matchmake(&w, &MatchRequest::for_service("prep")).unwrap();
        assert!(candidates.len() >= 2, "need at least 2 candidates");
        w.set_container_up(&candidates[0].container, false).unwrap();
        let report = Enactor::default().enact(&mut w, &graph(), &case());
        assert!(report.success, "abort: {:?}", report.abort_reason);
    }

    #[test]
    fn fails_without_replanning_when_service_is_gone() {
        let mut w = world(3);
        for c in w.hosting_containers("cook") {
            w.set_container_up(&c, false).unwrap();
        }
        let report = Enactor::default().enact(&mut w, &graph(), &case());
        assert!(!report.success);
        assert!(report.abort_reason.is_some());
    }

    #[test]
    fn replanning_switches_to_the_alternative_service() {
        let mut w = world(4);
        for c in w.hosting_containers("cook") {
            w.set_container_up(&c, false).unwrap();
        }
        let config = EnactmentConfig {
            max_replans: 3,
            planning_goals: vec![GoalSpec {
                classification: "Plated".into(),
                min_count: 1,
            }],
            gp: GpConfig {
                population_size: 80,
                generations: 25,
                seed: 11,
                ..GpConfig::default()
            },
            ..EnactmentConfig::default()
        };
        let report = Enactor::builder()
            .config(config)
            .build()
            .enact(&mut w, &graph(), &case());
        assert!(report.success, "abort: {:?}", report.abort_reason);
        assert!(report.replans >= 1);
        assert!(
            report.executions.iter().any(|e| e.service == "nuke"),
            "expected the alternative cooker; executions: {:?}",
            report.executions
        );
    }

    #[test]
    fn loop_bound_aborts_runaway_plans() {
        let mut w = world(5);
        // An iterative plan whose condition never falsifies.
        let ast = parse_process(
            "BEGIN prep; ITERATIVE { COND { D1.Classification = \"Raw\" } } { cook; }; END",
        )
        .unwrap();
        let g = lower("runaway", &ast).unwrap();
        let config = EnactmentConfig {
            max_loop_iterations: 5,
            ..EnactmentConfig::default()
        };
        let report = Enactor::builder()
            .config(config)
            .build()
            .enact(&mut w, &g, &case());
        assert!(!report.success);
        assert!(report
            .abort_reason
            .as_deref()
            .unwrap_or("")
            .contains("iterations"));
    }

    #[test]
    fn finished_but_goal_unmet_is_reported() {
        let mut w = world(6);
        let ast = parse_process("BEGIN prep; END").unwrap();
        let g = lower("short", &ast).unwrap();
        let report = Enactor::default().enact(&mut w, &g, &case());
        assert!(!report.success);
        assert!(report
            .abort_reason
            .as_deref()
            .unwrap_or("")
            .contains("goals unmet"));
    }

    #[test]
    fn initial_classifications_extracts_from_case() {
        let c = case();
        assert_eq!(initial_classifications(&c), vec!["Raw".to_owned()]);
    }

    /// Crash a fiber enacting `graph` once it has `executions` successful
    /// executions and resume it the way the engine's store does: the
    /// [`FiberSlim`] through JSON, the world through its image onto a
    /// freshly built one.  Returns the image and the resumed fiber, run
    /// to completion.
    fn crash_and_resume(
        graph: &ProcessGraph,
        config: EnactmentConfig,
        fresh_world: impl Fn() -> GridWorld,
        executions: usize,
    ) -> (FiberSlim, CaseFiber) {
        let mut w = fresh_world();
        let mut crashed = CaseFiber::new(config, TraceHandle::none(), graph, case(), "crashed");
        while crashed.report().executions.len() < executions {
            assert_ne!(crashed.step(&mut w), FiberStatus::Finished);
        }
        let image = crashed.slim(0);
        let archived = serde_json::to_string(&image).unwrap();
        let restored: FiberSlim = serde_json::from_str(&archived).unwrap();
        assert_eq!(restored, image);
        let mut recovered_world = fresh_world();
        recovered_world.restore_image(&w.image()).unwrap();
        let (graph, case, config) = crashed.blueprint();
        let mut resumed = CaseFiber::from_slim(
            restored,
            graph.clone(),
            case.clone(),
            config.clone(),
            TraceHandle::none(),
        );
        while resumed.step(&mut recovered_world) != FiberStatus::Finished {}
        (image, resumed)
    }

    fn services(report: &EnactmentReport) -> Vec<&str> {
        report
            .executions
            .iter()
            .map(|e| e.service.as_str())
            .collect()
    }

    #[test]
    fn resume_from_checkpoint_completes_the_workflow() {
        // Crash after the first activity of the linear dinner: the
        // resumed run finishes the remaining activities only and seals
        // the uninterrupted run's report.
        let full = Enactor::default().enact(&mut world(8), &graph(), &case());
        assert!(full.success);
        let (image, resumed) =
            crash_and_resume(&graph(), EnactmentConfig::default(), || world(8), 1);
        assert_eq!(services(&image.report), ["prep"]);
        assert_eq!(services(resumed.report()), ["prep", "cook", "plate"]);
        assert_eq!(resumed.report(), &full);
    }

    #[test]
    fn resume_mid_fork_round_trips_without_reexecution() {
        // Image taken *inside* a FORK (one branch done, its sibling
        // pending): the ATN snapshot must carry the fork marking through
        // the storage round trip, and the resumed run must execute only
        // the remaining branch and the join's continuation.
        let ast =
            parse_process("BEGIN prep; FORK { { cook; }, { nuke; } } JOIN; plate; END").unwrap();
        let g = lower("forked", &ast).unwrap();
        let full = Enactor::default().enact(&mut world(10), &g, &case());
        assert!(full.success, "abort: {:?}", full.abort_reason);
        let mut ran = services(&full);
        ran.sort_unstable();
        assert_eq!(ran, ["cook", "nuke", "plate", "prep"]);

        // Two executions in: `prep` plus exactly one fork branch.
        let (image, resumed) = crash_and_resume(&g, EnactmentConfig::default(), || world(10), 2);
        assert_eq!(image.report.executions[..], full.executions[..2]);
        // The prefix is preserved verbatim and every activity ran
        // exactly once across crash and resume.
        assert_eq!(resumed.report(), &full);
    }

    /// A world whose `cook` refines a fixed tracker item `D10` on every
    /// pass (besides producing a fresh `Cooked`): `Value` starts at 12
    /// via `prep` and improves by 3 per `cook`, so a `D10.Value > 6`
    /// loop condition falsifies after exactly two passes.
    fn honing_world() -> GridWorld {
        let mut w = GridWorld::new(dinner_topology());
        w.offer(ServiceOffering::new(
            "prep",
            ["Raw"],
            vec![OutputSpec::refining("Prepped", "D10", 12.0, 3.0)],
        ));
        w.offer(ServiceOffering::new(
            "cook",
            ["Prepped"],
            vec![
                OutputSpec::plain("Cooked"),
                OutputSpec::refining("Prepped", "D10", 12.0, 3.0),
            ],
        ));
        w.offer(ServiceOffering::new(
            "plate",
            ["Cooked"],
            vec![OutputSpec::plain("Plated")],
        ));
        w
    }

    #[test]
    fn resume_mid_iterative_round_trips_without_reexecution() {
        // Image taken *inside* an ITERATIVE loop (one refinement pass
        // done, the condition still true): the resumed run must continue
        // the refinement from the stored `Value`, not restart the loop —
        // completed iterations never re-execute.
        let ast =
            parse_process("BEGIN prep; ITERATIVE { COND { D10.Value > 6 } } { cook; }; plate; END")
                .unwrap();
        let g = lower("honed", &ast).unwrap();
        let full = Enactor::default().enact(&mut honing_world(), &g, &case());
        assert!(full.success, "abort: {:?}", full.abort_reason);
        assert_eq!(services(&full), ["prep", "cook", "cook", "plate"]);

        // After the loop's first pass `D10.Value` is 9 and the loop
        // condition is still true — a genuinely mid-loop state.
        let (image, resumed) = crash_and_resume(&g, EnactmentConfig::default(), honing_world, 2);
        assert_eq!(
            image
                .state
                .property("D10", "Value")
                .and_then(|v| v.as_float()),
            Some(9.0)
        );
        // One further pass only: two `cook`s total, never three.
        assert_eq!(resumed.report(), &full);
        assert_eq!(
            full.final_state
                .property("D10", "Value")
                .and_then(|v| v.as_float()),
            Some(6.0),
            "refinement must continue from the stored value"
        );
    }

    #[test]
    fn resume_mid_choice_round_trips_without_reexecution() {
        // Image taken *inside* a CHOICE branch (its first activity done,
        // its second pending): the snapshot must pin the branch decision
        // through the storage round trip — the resumed run finishes that
        // branch and never consults the guards again.
        let ast = parse_process(
            "BEGIN prep; CHOICE { COND { D1.Classification = \"Raw\" } { cook; nuke; }, \
             COND { true } { nuke; } } MERGE; plate; END",
        )
        .unwrap();
        let g = lower("choosy", &ast).unwrap();
        let full = Enactor::default().enact(&mut world(12), &g, &case());
        assert!(full.success, "abort: {:?}", full.abort_reason);
        assert_eq!(services(&full), ["prep", "cook", "nuke", "plate"]);

        // `prep` and the taken branch's `cook` — genuinely mid-branch.
        let (image, resumed) = crash_and_resume(&g, EnactmentConfig::default(), || world(12), 2);
        assert_eq!(image.report.executions[1].service, "cook");
        // The taken branch is finished — the untaken branch's lone `nuke`
        // never runs a second time and `cook` is not repeated.
        assert_eq!(resumed.report(), &full);
    }

    #[test]
    fn recovery_ladder_survives_a_slow_container_via_lease_and_breaker() {
        use gridflow_telemetry::{TraceLog, TraceQuery};
        // The top-ranked `prep` host (ac-h1, more nodes → faster) goes
        // slow: executions still "succeed" in the world but outlive the
        // 60-tick lease.  The ladder must burn its retries, trip the
        // breaker, fail over to ac-h0 and complete — the scenario a
        // lease-less policy cannot survive, because it trusts the slow
        // success.
        let mut w = world(14);
        w.set_slowdown("ac-h1", 50.0);
        let config = EnactmentConfig {
            recovery: RecoveryPolicy::standard(),
            ..EnactmentConfig::default()
        };
        let log = TraceLog::new();
        let report = Enactor::builder()
            .config(config)
            .trace(Arc::new(log.clone()))
            .build()
            .enact(&mut w, &graph(), &case());
        assert!(report.success, "abort: {:?}", report.abort_reason);
        // `prep` ultimately ran on the healthy host.
        let prep = &report.executions[0];
        assert_eq!(
            (prep.service.as_str(), prep.container.as_str()),
            ("prep", "ac-h0")
        );
        // Three lease-expired attempts on ac-h1 were recorded as failures
        // even though the world executed them.
        assert_eq!(
            report
                .failed_attempts
                .iter()
                .filter(|(_, c)| c == "ac-h1")
                .count(),
            3
        );
        let q = TraceQuery::new(log.records());
        assert_eq!(q.lease_expiry_count("prep"), 3);
        // Retries 2 and 3 each waited a scheduled backoff first.
        assert_eq!(q.retry_schedule_count("prep"), 2);
        assert!(q.count(|e| matches!(e, TraceEvent::LeaseGranted { .. })) >= 3);
        assert_eq!(
            q.count(
                |e| matches!(e, TraceEvent::BreakerOpened { container, .. } if container == "ac-h1")
            ),
            1
        );
        assert_eq!(q.check_all(&BTreeMap::new()), Ok(()));
    }

    #[test]
    fn resume_preserves_recovery_state_across_the_checkpoint() {
        use gridflow_recovery::BreakerState;
        // Trip ac-h1's breaker during `prep` and crash right after it:
        // the restored run must still consider ac-h1 quarantined (its
        // breaker record — state, failure count, times opened — survives
        // the storage round trip verbatim).
        let config = EnactmentConfig {
            recovery: RecoveryPolicy::standard(),
            ..EnactmentConfig::default()
        };
        let slow_world = || {
            let mut w = world(15);
            w.set_slowdown("ac-h1", 50.0);
            w
        };
        let (image, resumed) = crash_and_resume(&graph(), config, slow_world, 1);
        let before = image.recovery.breakers.get("ac-h1").unwrap();
        assert!(matches!(before.state, BreakerState::Open { .. }));
        assert!(image.recovery.now_tick > 0);
        assert!(resumed.report().success);
        // ac-h1's record is still there at the end, untouched by the
        // crash, and the clock kept counting from the stored tick.
        let later = resumed.slim(0).recovery;
        assert_eq!(later.breakers.get("ac-h1").unwrap().times_opened, 1);
        assert!(later.now_tick >= image.recovery.now_tick);
    }

    #[test]
    fn resume_with_an_invalid_graph_reports_cleanly() {
        let mut w = world(9);
        let mut fiber = CaseFiber::new(
            EnactmentConfig::default(),
            TraceHandle::none(),
            &graph(),
            case(),
            "dinner",
        );
        fiber.step(&mut w);
        let (_, case, config) = fiber.blueprint();
        let mut resumed = CaseFiber::from_slim(
            fiber.slim(0),
            gridflow_process::ProcessGraph::new("empty"),
            case.clone(),
            config.clone(),
            TraceHandle::none(),
        );
        assert_eq!(resumed.step(&mut w), FiberStatus::Finished);
        let report = resumed.into_report();
        assert!(!report.success);
        assert!(report
            .abort_reason
            .as_deref()
            .unwrap()
            .contains("restore failed"));
    }
}
