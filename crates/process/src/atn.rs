//! The abstract ATN machine.
//!
//! "The coordination service implements an abstract ATN machine" (§2): it
//! receives a case description and "controls the enactment of the
//! workflow".  [`AtnMachine`] is that machine, decoupled from any agent
//! runtime: it holds tokens on a [`ProcessGraph`], exposes the set of
//! end-user activities that are ready to execute, and — when the caller
//! reports an activity complete — propagates tokens through the
//! flow-control activities (Fork triggers all successors, Join waits for
//! all predecessors, Choice selects one successor by evaluating its
//! condition set against the current [`DataState`], Merge fires on any
//! predecessor).
//!
//! The token game itself runs on [`AtnSnapshot`] — the machine's whole
//! mutable state, which is also what a checkpoint serializes — against
//! a graph passed to each step; [`AtnMachine`] binds one to the graph
//! it borrows.  A driver that owns its graph (a coordination fiber)
//! steps the state itself instead.
//!
//! The driver loop (the coordination service, the plan simulator, or a
//! test) is:
//!
//! ```
//! use gridflow_process::{parser::parse_process, lower::lower, AtnMachine, DataState};
//!
//! let ast = parse_process("BEGIN A; B; END").unwrap();
//! let graph = lower("demo", &ast).unwrap();
//! let mut machine = AtnMachine::new(&graph).unwrap();
//! let state = DataState::new();
//! machine.start(&state).unwrap();
//! while let Some(id) = machine.ready().first().cloned() {
//!     machine.begin_activity(&id).unwrap();
//!     // … run the service, update the data state …
//!     machine.complete_activity(&id, &state).unwrap();
//! }
//! assert!(machine.is_finished());
//! ```

use crate::data::DataState;
use crate::error::{ProcessError, Result};
use crate::graph::{ActivityKind, ProcessGraph, Transition};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Overall status of an enactment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AtnStatus {
    /// Not yet started.
    NotStarted,
    /// Started; activities are ready or running.
    Active,
    /// The End activity fired; enactment is complete.
    Finished,
    /// No activities are ready or running but End has not fired — the
    /// workflow is stuck (e.g. a Join waiting on a branch that can no
    /// longer deliver).  A well-formed graph never reaches this.
    Stuck,
}

/// One event of the enactment trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EnactmentEvent {
    /// Enactment started (Begin fired).
    Started,
    /// An end-user activity became ready.
    Enabled(String),
    /// The caller started a ready activity.
    ActivityStarted(String),
    /// The caller completed a running activity.
    ActivityCompleted(String),
    /// A Fork triggered all of its successors.
    ForkTriggered(String),
    /// A Join received its final missing predecessor and fired.
    JoinFired(String),
    /// A Merge fired on an arriving predecessor.
    MergeFired(String),
    /// A Choice selected a transition (by transition id).
    ChoiceTaken {
        /// The Choice activity.
        choice: String,
        /// The selected transition.
        transition: String,
    },
    /// The End activity fired.
    Finished,
}

/// The token game's whole mutable state: which Joins hold which
/// tokens, what is ready and running, and the trace so far.  It is
/// also the serialized form — the checkpointing §1 of the paper calls
/// for on long-lasting tasks persists exactly this between activity
/// completions.
///
/// The state does not hold its graph: every stepping method takes the
/// [`ProcessGraph`] it plays on.  The caller pairs a state with the
/// graph it was started on and checks [`ProcessGraph::validate`] once
/// ([`AtnMachine`] does both); a mismatched graph surfaces as
/// enactment errors on the next step.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AtnSnapshot {
    /// Join id → ids of incoming *transitions* whose tokens have
    /// arrived.  Tracking transitions (not predecessor activities) keeps
    /// the count right when several parallel edges share endpoints —
    /// e.g. a Fork with two empty branches has two distinct FORK→JOIN
    /// transitions.
    join_arrivals: BTreeMap<String, BTreeSet<String>>,
    /// End-user activities ready to run (duplicates possible across loop
    /// iterations, though never simultaneously for well-formed graphs).
    ready: Vec<String>,
    /// End-user activities currently running.
    running: BTreeSet<String>,
    started: bool,
    finished: bool,
    /// Number of times each activity has executed (for loop statistics).
    executions: BTreeMap<String, usize>,
    trace: Vec<EnactmentEvent>,
}

/// The unique outgoing transition of a single-successor activity.
fn sole_outgoing<'g>(graph: &'g ProcessGraph, id: &str) -> Result<&'g Transition> {
    let out = graph.outgoing(id);
    match out.as_slice() {
        [t] => Ok(t),
        _ => Err(ProcessError::Enactment(format!(
            "activity `{id}` has {} outgoing transitions, expected exactly 1",
            out.len()
        ))),
    }
}

impl AtnSnapshot {
    /// Fire the Begin activity and propagate.
    pub fn start(&mut self, graph: &ProcessGraph, state: &DataState) -> Result<()> {
        if self.started {
            return Err(ProcessError::Enactment("machine already started".into()));
        }
        let begin = graph
            .begin()
            .ok_or_else(|| ProcessError::Enactment("graph has no Begin activity".into()))?;
        self.started = true;
        self.trace.push(EnactmentEvent::Started);
        self.record_execution(&begin.id);
        self.fire(graph, sole_outgoing(graph, &begin.id)?, state)
    }

    /// End-user activities currently ready to run.
    pub fn ready(&self) -> &[String] {
        &self.ready
    }

    /// Has the End activity fired?
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Number of times `id` has executed (flow-control activities
    /// included).
    pub fn executions(&self, id: &str) -> usize {
        self.executions.get(id).copied().unwrap_or(0)
    }

    fn begin_activity(&mut self, id: &str) -> Result<()> {
        let Some(pos) = self.ready.iter().position(|r| r == id) else {
            return Err(ProcessError::Enactment(format!(
                "activity `{id}` is not ready"
            )));
        };
        self.ready.remove(pos);
        self.running.insert(id.to_owned());
        self.trace
            .push(EnactmentEvent::ActivityStarted(id.to_owned()));
        Ok(())
    }

    fn complete_activity(
        &mut self,
        graph: &ProcessGraph,
        id: &str,
        state: &DataState,
    ) -> Result<()> {
        if !self.running.remove(id) {
            return Err(ProcessError::Enactment(format!(
                "activity `{id}` is not running"
            )));
        }
        self.trace
            .push(EnactmentEvent::ActivityCompleted(id.to_owned()));
        self.record_execution(id);
        self.fire(graph, sole_outgoing(graph, id)?, state)
    }

    /// Start a ready activity and complete it in one call, propagating
    /// its token.  `state` is the data state *after* the activity's
    /// outputs have been applied; Choice conditions downstream observe
    /// it.
    pub fn run_activity(
        &mut self,
        graph: &ProcessGraph,
        id: &str,
        state: &DataState,
    ) -> Result<()> {
        self.begin_activity(id)?;
        self.complete_activity(graph, id, state)
    }

    fn record_execution(&mut self, id: &str) {
        *self.executions.entry(id.to_owned()).or_insert(0) += 1;
    }

    /// A token travels along transition `via` and arrives at its
    /// destination.
    fn fire(&mut self, graph: &ProcessGraph, via: &Transition, state: &DataState) -> Result<()> {
        let node = via.dest.as_str();
        let decl = graph
            .activity(node)
            .ok_or_else(|| ProcessError::Enactment(format!("missing activity `{node}`")))?;
        match decl.kind {
            ActivityKind::Begin => Err(ProcessError::Enactment("token arrived at Begin".into())),
            ActivityKind::End => {
                self.record_execution(node);
                self.finished = true;
                self.trace.push(EnactmentEvent::Finished);
                Ok(())
            }
            ActivityKind::EndUser => {
                self.ready.push(node.to_owned());
                self.trace.push(EnactmentEvent::Enabled(node.to_owned()));
                Ok(())
            }
            ActivityKind::Fork => {
                self.record_execution(node);
                self.trace
                    .push(EnactmentEvent::ForkTriggered(node.to_owned()));
                for out in graph.outgoing(node) {
                    self.fire(graph, out, state)?;
                }
                Ok(())
            }
            ActivityKind::Join => {
                let arrivals = self.join_arrivals.entry(node.to_owned()).or_default();
                arrivals.insert(via.id.clone());
                let expected: BTreeSet<String> = graph
                    .incoming(node)
                    .into_iter()
                    .map(|t| t.id.clone())
                    .collect();
                if *arrivals == expected {
                    self.join_arrivals.remove(node);
                    self.record_execution(node);
                    self.trace.push(EnactmentEvent::JoinFired(node.to_owned()));
                    self.fire(graph, sole_outgoing(graph, node)?, state)
                } else {
                    Ok(())
                }
            }
            ActivityKind::Merge => {
                self.record_execution(node);
                self.trace.push(EnactmentEvent::MergeFired(node.to_owned()));
                self.fire(graph, sole_outgoing(graph, node)?, state)
            }
            ActivityKind::Choice => {
                self.record_execution(node);
                let chosen = graph
                    .outgoing(node)
                    .into_iter()
                    .find(|t| t.condition.as_ref().map(|c| c.eval(state)).unwrap_or(true));
                match chosen {
                    Some(t) => {
                        self.trace.push(EnactmentEvent::ChoiceTaken {
                            choice: node.to_owned(),
                            transition: t.id.clone(),
                        });
                        self.fire(graph, t, state)
                    }
                    None => Err(ProcessError::Enactment(format!(
                        "no viable branch at Choice `{node}`"
                    ))),
                }
            }
        }
    }
}

/// Token-game interpreter over a process graph: an [`AtnSnapshot`]
/// bound to the validated graph it plays on.
#[derive(Debug, Clone)]
pub struct AtnMachine<'g> {
    graph: &'g ProcessGraph,
    state: AtnSnapshot,
}

impl<'g> AtnMachine<'g> {
    /// Build a machine over a validated graph.
    pub fn new(graph: &'g ProcessGraph) -> Result<Self> {
        Self::restore(graph, AtnSnapshot::default())
    }

    /// Rebuild a machine from a snapshot against the same (validated)
    /// graph.  The caller is responsible for pairing snapshots with the
    /// graph they were taken from; a mismatched graph surfaces as
    /// enactment errors on the next step.
    pub fn restore(graph: &'g ProcessGraph, snapshot: AtnSnapshot) -> Result<Self> {
        graph.validate()?;
        Ok(AtnMachine {
            graph,
            state: snapshot,
        })
    }

    /// Capture the machine's mutable state for checkpointing.
    pub fn snapshot(&self) -> AtnSnapshot {
        self.state.clone()
    }

    /// Fire the Begin activity and propagate.
    pub fn start(&mut self, state: &DataState) -> Result<()> {
        self.state.start(self.graph, state)
    }

    /// End-user activities currently ready to run.
    pub fn ready(&self) -> &[String] {
        self.state.ready()
    }

    /// End-user activities currently running.
    pub fn running(&self) -> impl Iterator<Item = &str> {
        self.state.running.iter().map(String::as_str)
    }

    /// Has the End activity fired?
    pub fn is_finished(&self) -> bool {
        self.state.is_finished()
    }

    /// Overall status.
    pub fn status(&self) -> AtnStatus {
        let s = &self.state;
        if !s.started {
            AtnStatus::NotStarted
        } else if s.finished {
            AtnStatus::Finished
        } else if s.ready.is_empty() && s.running.is_empty() {
            AtnStatus::Stuck
        } else {
            AtnStatus::Active
        }
    }

    /// The enactment trace so far.
    pub fn trace(&self) -> &[EnactmentEvent] {
        &self.state.trace
    }

    /// Number of times `id` has executed (flow-control activities
    /// included).
    pub fn executions(&self, id: &str) -> usize {
        self.state.executions(id)
    }

    /// Move a ready activity into the running set.
    pub fn begin_activity(&mut self, id: &str) -> Result<()> {
        self.state.begin_activity(id)
    }

    /// Report a running activity complete and propagate its token.  The
    /// `state` parameter is the data state *after* the activity's outputs
    /// have been applied; Choice conditions downstream observe it.
    pub fn complete_activity(&mut self, id: &str, state: &DataState) -> Result<()> {
        self.state.complete_activity(self.graph, id, state)
    }

    /// Convenience: start + complete in one call (for drivers that do not
    /// model activity duration).
    pub fn run_activity(&mut self, id: &str, state: &DataState) -> Result<()> {
        self.state.run_activity(self.graph, id, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DataItem;
    use crate::lower::lower;
    use crate::parser::parse_process;
    use gridflow_ontology::Value;

    fn machine_for(src: &str) -> (ProcessGraph, DataState) {
        let ast = parse_process(src).unwrap();
        (lower("t", &ast).unwrap(), DataState::new())
    }

    /// Drive an enactment to completion, running ready activities FIFO and
    /// applying `update` after each.
    fn drive(
        graph: &ProcessGraph,
        mut state: DataState,
        mut update: impl FnMut(&str, &mut DataState),
    ) -> Vec<String> {
        let mut m = AtnMachine::new(graph).unwrap();
        m.start(&state).unwrap();
        let mut order = Vec::new();
        while let Some(id) = m.ready().first().cloned() {
            m.begin_activity(&id).unwrap();
            update(&id, &mut state);
            m.complete_activity(&id, &state).unwrap();
            order.push(id);
        }
        assert!(
            m.is_finished(),
            "machine did not finish; status {:?}",
            m.status()
        );
        order
    }

    #[test]
    fn sequence_executes_in_order() {
        let (g, s) = machine_for("BEGIN A; B; C; END");
        let order = drive(&g, s, |_, _| {});
        assert_eq!(order, vec!["A", "B", "C"]);
    }

    #[test]
    fn fork_enables_all_branches_join_waits_for_all() {
        let (g, s) = machine_for("BEGIN FORK { { A; }, { B; } } JOIN; C; END");
        let mut m = AtnMachine::new(&g).unwrap();
        m.start(&s).unwrap();
        // Both branches enabled simultaneously.
        assert_eq!(m.ready().len(), 2);
        m.run_activity("A", &s).unwrap();
        // Join must not have fired yet: C not enabled.
        assert_eq!(m.ready(), &["B".to_owned()]);
        m.run_activity("B", &s).unwrap();
        assert_eq!(m.ready(), &["C".to_owned()]);
        m.run_activity("C", &s).unwrap();
        assert!(m.is_finished());
    }

    #[test]
    fn choice_takes_first_true_branch() {
        let (g, mut s) = machine_for(
            "BEGIN CHOICE { COND { D.X = 1 } { A; }, COND { true } { B; } } MERGE; END",
        );
        s.insert("D", DataItem::new().with("X", Value::Int(1)));
        let order = drive(&g, s.clone(), |_, _| {});
        assert_eq!(order, vec!["A"]);

        s.set_property("D", "X", Value::Int(2));
        let order = drive(&g, s, |_, _| {});
        assert_eq!(order, vec!["B"]);
    }

    #[test]
    fn choice_with_no_viable_branch_errors() {
        let (g, s) = machine_for(
            "BEGIN CHOICE { COND { D.X = 1 } { A; }, COND { D.X = 2 } { B; } } MERGE; END",
        );
        let mut m = AtnMachine::new(&g).unwrap();
        let err = m.start(&s).unwrap_err();
        assert!(err.to_string().contains("no viable branch"));
    }

    #[test]
    fn iterative_loops_until_condition_false() {
        // Loop body increments D.N; continue while D.N < 3.
        let (g, mut s) = machine_for("BEGIN ITERATIVE { COND { D.N < 3 } } { A; }; END");
        s.insert("D", DataItem::new().with("N", Value::Int(0)));
        let order = drive(&g, s, |id, state| {
            if id == "A" {
                let n = state.property("D", "N").unwrap().as_int().unwrap();
                state.set_property("D", "N", Value::Int(n + 1));
            }
        });
        // Executes at N=0,1,2 and exits when N=3.
        assert_eq!(order, vec!["A", "A", "A"]);
    }

    #[test]
    fn execution_counts_track_loop_iterations() {
        let (g, mut s) = machine_for("BEGIN ITERATIVE { COND { D.N < 2 } } { A; }; END");
        s.insert("D", DataItem::new().with("N", Value::Int(0)));
        let mut m = AtnMachine::new(&g).unwrap();
        m.start(&s).unwrap();
        let mut state = s;
        while let Some(id) = m.ready().first().cloned() {
            m.begin_activity(&id).unwrap();
            let n = state.property("D", "N").unwrap().as_int().unwrap();
            state.set_property("D", "N", Value::Int(n + 1));
            m.complete_activity(&id, &state).unwrap();
        }
        assert!(m.is_finished());
        assert_eq!(m.executions("A"), 2);
        let total: usize = g.activities().iter().map(|a| m.executions(&a.id)).sum();
        assert!(total >= 2 + 2); // + flow control + begin/end
    }

    #[test]
    fn protocol_violations_are_rejected() {
        let (g, s) = machine_for("BEGIN A; END");
        let mut m = AtnMachine::new(&g).unwrap();
        assert!(m.begin_activity("A").is_err()); // not started yet
        m.start(&s).unwrap();
        assert!(m.start(&s).is_err()); // double start
        assert!(m.complete_activity("A", &s).is_err()); // not running
        m.begin_activity("A").unwrap();
        assert!(m.begin_activity("A").is_err()); // already running
        m.complete_activity("A", &s).unwrap();
        assert!(m.is_finished());
    }

    #[test]
    fn trace_records_flow_events() {
        let (g, s) = machine_for("BEGIN FORK { { A; }, { B; } } JOIN; END");
        let mut m = AtnMachine::new(&g).unwrap();
        m.start(&s).unwrap();
        m.run_activity("A", &s).unwrap();
        m.run_activity("B", &s).unwrap();
        let trace = m.trace();
        assert!(trace
            .iter()
            .any(|e| matches!(e, EnactmentEvent::ForkTriggered(_))));
        assert!(trace
            .iter()
            .any(|e| matches!(e, EnactmentEvent::JoinFired(_))));
        assert!(matches!(trace.last(), Some(EnactmentEvent::Finished)));
    }

    #[test]
    fn status_transitions() {
        let (g, s) = machine_for("BEGIN A; END");
        let mut m = AtnMachine::new(&g).unwrap();
        assert_eq!(m.status(), AtnStatus::NotStarted);
        m.start(&s).unwrap();
        assert_eq!(m.status(), AtnStatus::Active);
        m.run_activity("A", &s).unwrap();
        assert_eq!(m.status(), AtnStatus::Finished);
    }

    #[test]
    fn snapshot_restore_resumes_mid_workflow() {
        let (g, s) = machine_for("BEGIN FORK { { A; }, { B; } } JOIN; C; END");
        let mut m = AtnMachine::new(&g).unwrap();
        m.start(&s).unwrap();
        m.run_activity("A", &s).unwrap();
        // Checkpoint with B still pending and the Join half-armed.
        let snapshot = m.snapshot();
        let json = serde_json::to_string(&snapshot).unwrap();
        drop(m);
        let restored: AtnSnapshot = serde_json::from_str(&json).unwrap();
        let mut m2 = AtnMachine::restore(&g, restored).unwrap();
        assert_eq!(m2.ready(), &["B".to_owned()]);
        assert_eq!(m2.executions("A"), 1);
        m2.run_activity("B", &s).unwrap();
        m2.run_activity("C", &s).unwrap();
        assert!(m2.is_finished());
        // The Join fired exactly once across the checkpoint boundary.
        let joins = m2
            .trace()
            .iter()
            .filter(|e| matches!(e, EnactmentEvent::JoinFired(_)))
            .count();
        assert_eq!(joins, 1);
    }

    #[test]
    fn restore_validates_the_graph() {
        let (g, s) = machine_for("BEGIN A; END");
        let mut m = AtnMachine::new(&g).unwrap();
        m.start(&s).unwrap();
        let snapshot = m.snapshot();
        let bad = ProcessGraph::new("empty");
        assert!(AtnMachine::restore(&bad, snapshot).is_err());
    }

    #[test]
    fn figure_10_workflow_enacts_with_two_refinement_iterations() {
        let src = "BEGIN POD; P3DR1; \
             ITERATIVE { COND { D10.Value > 8 } } { \
                POR; FORK { { P3DR2; }, { P3DR3; }, { P3DR4; } } JOIN; PSF; \
             }; END";
        let (g, mut s) = machine_for(src);
        // Resolution starts coarse (12 Å) and refines by 3 Å per PSF pass;
        // the loop continues while resolution > 8.
        s.insert("D10", DataItem::new().with("Value", Value::Float(12.0)));
        let order = drive(&g, s, |id, state| {
            if id == "PSF" {
                let v = state.property("D10", "Value").unwrap().as_float().unwrap();
                state.set_property("D10", "Value", Value::Float(v - 3.0));
            }
        });
        // POD, P3DR1, then 2 loop iterations (12→9 loops since 9>8; 9→6 exits).
        let psf_count = order.iter().filter(|a| *a == "PSF").count();
        assert_eq!(psf_count, 2);
        assert_eq!(order[0], "POD");
        assert_eq!(order[1], "P3DR1");
    }
}
