//! The scenario runner: unfolds a [`FaultPlan`] against a [`Workload`]
//! through crash, recovery and resume, deterministically.
//!
//! A run proceeds in **phases**.  Phase 0 enacts the workload from the
//! start; if the plan scripts a coordinator crash, everything past the
//! chosen checkpoint is discarded — exactly what a crash loses — and the
//! surviving checkpoint seeds phase 1 via [`Enactor::resume`] on a
//! recovered world.  Phases repeat while the workflow keeps failing and
//! resumable checkpoints remain, up to a resume budget.  Every phase is
//! a pure function of `(plan, workload, phase index)`, so the whole
//! outcome replays byte-identically.

use crate::clock::VirtualClock;
use crate::plan::FaultPlan;
use crate::workload::Workload;
use gridflow_recovery::RecoveryPolicy;
use gridflow_services::coordination::{EnactmentCheckpoint, EnactmentReport, Enactor};
use gridflow_services::world::GridWorld;
use gridflow_telemetry::{TraceEvent, TraceHandle, TraceLog};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The record of one scenario run: one report per phase.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Phase reports, in order (phase 0 first).
    pub reports: Vec<EnactmentReport>,
    /// How many resumes were performed (`reports.len() - 1`).
    pub resumes: usize,
    /// Did the final phase succeed?
    pub completed: bool,
    /// The latest resumable checkpoint across *all* phases (a resumed
    /// phase that makes no progress captures none of its own, but the
    /// one it resumed from is still good).
    pub last_checkpoint: Option<EnactmentCheckpoint>,
    /// The run's event log, when the scenario asked for one with
    /// [`Scenario::traced`].  `None` for untraced runs and for runs
    /// recording into an external handle the caller already holds.
    pub trace: Option<TraceLog>,
}

// The trace is a recording *of* the outcome, not part of it: two runs
// are equal when their phase accounting agrees, whether or not either
// kept a log.  (This is also what keeps `traced()` a pure observer.)
impl PartialEq for ScenarioOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.reports == other.reports
            && self.resumes == other.resumes
            && self.completed == other.completed
            && self.last_checkpoint == other.last_checkpoint
    }
}

impl ScenarioOutcome {
    /// The last phase's report — the state of the task when the run
    /// ended.
    pub fn final_report(&self) -> &EnactmentReport {
        self.reports.last().expect("a run has at least one phase")
    }

    /// The core conformance invariant: the task completed, **or** it
    /// left a resumable checkpoint, **or** it performed no successful
    /// activity at all (trivially restartable from scratch — nothing to
    /// lose).
    pub fn is_recoverable(&self) -> bool {
        self.completed
            || self.last_checkpoint.is_some()
            || self.final_report().executions.is_empty()
    }
}

/// Apply every scripted node loss whose threshold has been reached.
fn apply_node_losses(
    world: &mut GridWorld,
    plan: &FaultPlan,
    executions_so_far: usize,
    trace: &TraceHandle,
) {
    for loss in &plan.node_loss {
        if loss.after_executions <= executions_so_far {
            // Unknown containers are a plan/workload mismatch; ignore
            // rather than abort — the scenario still runs, just without
            // that loss.  Trace only transitions actually applied to an
            // up container, so each phase records its own effective
            // losses exactly once.
            let was_up = world
                .topology
                .container(&loss.container)
                .map(|c| c.up)
                .unwrap_or(false);
            let _ = world.set_container_up(&loss.container, false);
            if was_up {
                trace.emit(
                    "runner",
                    TraceEvent::NodeLost {
                        container: loss.container.clone(),
                        after_executions: loss.after_executions,
                    },
                );
            }
        }
    }
}

/// What a crashed coordinator can still know: the accounting captured in
/// the checkpoint, nothing after it.
fn crashed_report(cp: &EnactmentCheckpoint) -> EnactmentReport {
    EnactmentReport {
        success: false,
        executions: cp.executions.clone(),
        failed_attempts: cp.failed_attempts.clone(),
        replans: cp.replans,
        final_state: cp.state.clone(),
        total_duration_s: cp.total_duration_s,
        total_cost: cp.total_cost,
        produced: cp.produced.clone(),
        abort_reason: Some("coordinator crashed after checkpoint".into()),
        checkpoints: vec![cp.clone()],
    }
}

/// How a [`Scenario`] records its run.
#[derive(Debug, Clone)]
enum TraceChoice {
    /// No recording (the default).
    Off,
    /// Record into a fresh [`TraceLog`] returned in
    /// [`ScenarioOutcome::trace`].
    Fresh,
    /// Record into a handle the caller already holds.
    External(TraceHandle),
}

/// One fault-injection scenario, options and all — the single front
/// door that used to be four `run_scenario*` free functions.
///
/// ```no_run
/// # use gridflow_harness::{FaultPlan, Scenario, dinner_workload};
/// let plan = FaultPlan::seeded(11).crashing_after(0);
/// let outcome = Scenario::new(&plan, &dinner_workload())
///     .budget(2)
///     .traced()
///     .run();
/// assert!(outcome.completed);
/// let log = outcome.trace.as_ref().unwrap();
/// # let _ = log;
/// ```
#[derive(Debug, Clone)]
pub struct Scenario<'a> {
    plan: &'a FaultPlan,
    workload: &'a Workload,
    max_resumes: usize,
    trace: TraceChoice,
    recovery: Option<RecoveryPolicy>,
}

impl<'a> Scenario<'a> {
    /// A scenario with the default resume budget (4) and no tracing.
    pub fn new(plan: &'a FaultPlan, workload: &'a Workload) -> Self {
        Scenario {
            plan,
            workload,
            max_resumes: 4,
            trace: TraceChoice::Off,
            recovery: None,
        }
    }

    /// Resume failed phases from their latest checkpoint up to
    /// `max_resumes` times.
    pub fn budget(mut self, max_resumes: usize) -> Self {
        self.max_resumes = max_resumes;
        self
    }

    /// Record the run into a fresh [`TraceLog`] stamped by a
    /// [`VirtualClock`] (so `at_s` accumulates simulated execution
    /// seconds), returned in [`ScenarioOutcome::trace`].
    ///
    /// The scenario path is single-threaded and every input is seeded,
    /// so two runs of the same `(plan, workload)` return logs whose
    /// [`TraceLog::to_jsonl`] dumps are byte-identical.
    pub fn traced(mut self) -> Self {
        self.trace = TraceChoice::Fresh;
        self
    }

    /// Record the run into a handle the caller already holds (e.g. a
    /// [`TraceLog`] shared with other instrumentation).  The outcome's
    /// `trace` field stays `None` — the caller has the log.
    pub fn trace_handle(mut self, trace: TraceHandle) -> Self {
        self.trace = TraceChoice::External(trace);
        self
    }

    /// Override the workload's recovery policy for this run.
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Unfold the scenario: phases, faults, crashes and resumes, all
    /// mirrored into the trace alongside the events the [`Enactor`]
    /// emits itself.
    pub fn run(self) -> ScenarioOutcome {
        let (handle, log) = match self.trace {
            TraceChoice::Off => (TraceHandle::none(), None),
            TraceChoice::Fresh => {
                let log = TraceLog::with_clock(Arc::new(VirtualClock::new()));
                (TraceHandle::from(log.clone()), Some(log))
            }
            TraceChoice::External(handle) => (handle, None),
        };
        let workload = match self.recovery {
            Some(policy) => self.workload.clone().with_recovery(policy),
            None => self.workload.clone(),
        };
        let mut outcome = run_impl(self.plan, &workload, self.max_resumes, handle);
        outcome.trace = log;
        outcome
    }
}

/// Run a scenario with the default resume budget (4).
///
/// Shorthand for `Scenario::new(plan, workload).run()`; reach for
/// [`Scenario`] when you need options.
pub fn run_scenario(plan: &FaultPlan, workload: &Workload) -> ScenarioOutcome {
    Scenario::new(plan, workload).run()
}

/// Every execution, so a scripted crash has something to resume from.
const CHECKPOINT_EVERY: usize = 1;

fn run_impl(
    plan: &FaultPlan,
    workload: &Workload,
    max_resumes: usize,
    trace: TraceHandle,
) -> ScenarioOutcome {
    let enactor = Enactor::builder()
        .config(workload.config.clone())
        .checkpoint_every(CHECKPOINT_EVERY)
        .trace_handle(trace.clone())
        .build();
    let mut phase = 0usize;
    let mut world = workload.fresh_world(plan, phase);
    trace.emit("runner", TraceEvent::PhaseStarted { phase });
    apply_node_losses(&mut world, plan, 0, &trace);
    let mut current = enactor.enact(&mut world, &workload.graph, &workload.case);

    // Scripted coordinator crash: the run past checkpoint `k` never
    // happened.  Serialize→deserialize the checkpoint to model the trip
    // through persistent storage a real restart would take.
    if let Some(k) = plan.crash_after_checkpoints {
        if let Some(cp) = current.checkpoints.get(k) {
            let archived = serde_json::to_string(cp).expect("checkpoints serialize");
            let restored: EnactmentCheckpoint =
                serde_json::from_str(&archived).expect("checkpoints deserialize");
            trace.emit(
                "runner",
                TraceEvent::CoordinatorCrashed {
                    after_checkpoints: k,
                },
            );
            current = crashed_report(&restored);
        }
    }

    let mut resume_cp = current.checkpoints.last().cloned();
    let mut reports = vec![current];
    let mut resumes = 0usize;

    while !reports.last().expect("nonempty").success && resumes < max_resumes {
        let Some(cp) = resume_cp.clone() else { break };
        phase += 1;
        resumes += 1;
        let mut world = workload.fresh_world(plan, phase);
        trace.emit("runner", TraceEvent::PhaseStarted { phase });
        trace.emit(
            "runner",
            TraceEvent::ResumeStarted {
                phase,
                completed_executions: cp.executions.len(),
            },
        );
        apply_node_losses(&mut world, plan, cp.executions.len(), &trace);
        let resumed = enactor.resume(&mut world, cp, &workload.case);
        if let Some(newer) = resumed.checkpoints.last() {
            resume_cp = Some(newer.clone());
        }
        reports.push(resumed);
    }

    ScenarioOutcome {
        completed: reports.last().expect("nonempty").success,
        resumes,
        reports,
        last_checkpoint: resume_cp,
        trace: None,
    }
}

/// Canonical byte representation of a report, for replay comparison.
pub fn report_fingerprint(report: &EnactmentReport) -> String {
    serde_json::to_string(report).expect("reports serialize")
}

/// Canonical byte representation of a whole outcome.
pub fn outcome_fingerprint(outcome: &ScenarioOutcome) -> String {
    let phases: Vec<String> = outcome.reports.iter().map(report_fingerprint).collect();
    phases.join("\n")
}

/// How many times each activity id executed (a resumed report carries
/// its checkpoint's execution prefix, so the *final* report counts the
/// task's entire history).
pub fn execution_counts(report: &EnactmentReport) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for e in &report.executions {
        *counts.entry(e.activity.clone()).or_insert(0) += 1;
    }
    counts
}

/// Is `prefix`'s execution list a prefix of `full`'s?  (What "resume
/// never re-executes completed work" looks like in the accounting.)
pub fn is_execution_prefix(prefix: &EnactmentReport, full: &EnactmentReport) -> bool {
    prefix.executions.len() <= full.executions.len()
        && full.executions[..prefix.executions.len()] == prefix.executions[..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::dinner_workload;

    #[test]
    fn null_plan_completes_in_one_phase() {
        let outcome = run_scenario(&FaultPlan::default(), &dinner_workload());
        assert!(outcome.completed);
        assert_eq!(outcome.resumes, 0);
        assert_eq!(outcome.reports.len(), 1);
        assert!(outcome.is_recoverable());
        let counts = execution_counts(outcome.final_report());
        assert!(counts.values().all(|&c| c == 1), "counts: {counts:?}");
    }

    #[test]
    fn scripted_crash_resumes_and_completes() {
        let plan = FaultPlan::seeded(11).crashing_after(0); // crash after `prep`
        let outcome = run_scenario(&plan, &dinner_workload());
        assert!(
            outcome.completed,
            "final: {:?}",
            outcome.final_report().abort_reason
        );
        assert_eq!(outcome.resumes, 1);
        // Phase 0 is the crash stub: one execution, aborted.
        assert_eq!(outcome.reports[0].executions.len(), 1);
        assert!(!outcome.reports[0].success);
        // The resumed phase extends — never repeats — the crashed prefix.
        assert!(is_execution_prefix(
            &outcome.reports[0],
            &outcome.reports[1]
        ));
        let counts = execution_counts(outcome.final_report());
        assert!(counts.values().all(|&c| c == 1), "counts: {counts:?}");
    }

    #[test]
    fn total_node_loss_is_unrecoverable_but_reported() {
        // Both `cook` hosts lost before the run, no replanning: the run
        // must fail after `prep` yet stay resumable (checkpoint exists).
        let plan = FaultPlan::seeded(3)
            .losing_node("ac-h2", 0)
            .losing_node("ac-h3", 0);
        let outcome = Scenario::new(&plan, &dinner_workload()).budget(1).run();
        assert!(!outcome.completed);
        assert!(outcome.is_recoverable());
        assert!(outcome
            .final_report()
            .abort_reason
            .as_deref()
            .unwrap_or("")
            .contains("cook"));
    }

    #[test]
    fn identical_plans_replay_byte_identically() {
        let plan = FaultPlan::seeded(21)
            .failing_activities(0.3)
            .crashing_after(1);
        let wl = dinner_workload();
        let a = run_scenario(&plan, &wl);
        let b = run_scenario(&plan, &wl);
        assert_eq!(outcome_fingerprint(&a), outcome_fingerprint(&b));
    }
}
