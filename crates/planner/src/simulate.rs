//! Plan simulation (§3.4.4): "to evaluate the plan validity fitness, we
//! need to simulate the execution of a plan".
//!
//! The simulator walks a plan tree over a `PlanningState`, one
//! multiset of data classifications per enumerated flow:
//!
//! * a **terminal** checks its preconditions against the current state;
//!   if they hold it is a *valid* execution and its outputs are applied,
//!   otherwise it is an *invalid* execution and the state is unchanged
//!   ("If the activity is not valid, we don't update the system state");
//! * a **sequential** node runs its children left to right;
//! * a **concurrent** node's children "can be executed either sequentially
//!   or concurrently … in any order"; the simulator runs them left to
//!   right (one admissible order);
//! * a **selective** node forks the simulation: "we need to enumerate each
//!   possible flow of execution and simulate the execution of a plan
//!   multiple times" — each child spawns a separate *flow*;
//! * an **iterative** node's stopping condition is opaque at planning
//!   time; the simulator unrolls the body once (the do-while lower bound:
//!   every admissible enactment runs the body at least once).
//!
//! Flows multiply exponentially in the number of selective nodes, so the
//! simulator caps them at [`DEFAULT_FLOW_CAP`] (configurable); beyond the
//! cap, the earliest-enumerated flows are kept.  "If a single activity is
//! simulated multiple times, each execution is counted in the validity
//! check" — counts aggregate across flows.
//!
//! Names are resolved once, not once per execution: a [`Simulator`] is a
//! problem lowered to dense classification ids — the initial counts, each
//! activity's required-input and output ids, each goal's id — built once
//! per planner (or per call of the public [`simulate`] / [`evaluate`]
//! wrappers), and a terminal looks its activity up once however many
//! flows execute it.
//!
//! [`evaluate`]: crate::fitness::evaluate

use crate::problem::{ActivitySpec, PlanningProblem};
use crate::state::{PlanningState, Signature};
use gridflow_plan::PlanNode;

/// Default cap on the number of enumerated flows.
pub const DEFAULT_FLOW_CAP: usize = 64;

/// Aggregated simulation outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    /// Enumerated flows of execution (at most the configured cap).
    pub flows: usize,
    /// Sum of valid executions across flows.
    pub total_valid: usize,
    /// Sum of executions across flows.
    pub total_executed: usize,
    /// True when the flow cap truncated enumeration.
    pub truncated: bool,
    goal: f64,
}

impl SimOutcome {
    /// Validity fitness `f_v` (Eq. 1).  A plan that executes no activities
    /// is vacuously valid.
    pub fn validity_fitness(&self) -> f64 {
        if self.total_executed == 0 {
            1.0
        } else {
            self.total_valid as f64 / self.total_executed as f64
        }
    }

    /// Goal fitness `f_g` (Eq. 2), averaged over flows ("if a plan is
    /// simulated multiple times … the goal fitness is given as the average
    /// goal fitness of each execution").  With no goals, trivially 1.
    pub fn goal_fitness(&self) -> f64 {
        self.goal
    }
}

/// Simulate `tree` against `problem` with the default flow cap.
pub fn simulate(tree: &PlanNode, problem: &PlanningProblem) -> SimOutcome {
    simulate_capped(tree, problem, DEFAULT_FLOW_CAP)
}

/// Simulate with an explicit flow cap.
pub fn simulate_capped(tree: &PlanNode, problem: &PlanningProblem, flow_cap: usize) -> SimOutcome {
    Simulator::new(problem).run(tree, flow_cap, &mut PlanningState::default())
}

/// A planning problem lowered to classification ids.
#[derive(Debug, Clone)]
pub(crate) struct Simulator {
    /// `S_init` as a count per classification id.
    initial: Vec<u32>,
    /// `G` as `(classification id, min_count)`.
    goals: Vec<(usize, usize)>,
    /// `T` in problem order: service names, and their signatures.
    names: Vec<String>,
    signatures: Vec<Signature>,
}

impl Simulator {
    /// Lower `problem`.  Every classification it mentions gets an id, so
    /// a goal nothing produces is an id whose count stays 0.
    pub fn new(problem: &PlanningProblem) -> Self {
        let specs = &problem.activities;
        let mut classes: Vec<&String> = (problem.initial.iter())
            .chain(specs.iter().flat_map(|a| a.inputs.iter().chain(&a.outputs)))
            .chain(problem.goals.iter().map(|g| &g.classification))
            .collect();
        classes.sort_unstable();
        classes.dedup();
        let id = |name: &String| classes.binary_search(&name).expect("interned above");
        let multiset = |names: &[String]| {
            let mut counts = vec![0u32; classes.len()];
            names.iter().for_each(|name| counts[id(name)] += 1);
            counts
        };
        let signature = |spec: &ActivitySpec| Signature {
            required: (multiset(&spec.inputs).into_iter().enumerate())
                .filter(|&(_, needed)| needed > 0)
                .collect(),
            outputs: spec.outputs.iter().map(id).collect(),
        };
        Simulator {
            initial: multiset(&problem.initial),
            goals: (problem.goals.iter())
                .map(|g| (id(&g.classification), g.min_count))
                .collect(),
            names: specs.iter().map(|a| a.name.clone()).collect(),
            signatures: specs.iter().map(signature).collect(),
        }
    }

    /// The service name of every activity in `T`, in problem order.
    pub fn activity_names(&self) -> &[String] {
        &self.names
    }

    /// Simulate `tree` from `S_init`, using `state` as scratch.
    pub fn run(&self, tree: &PlanNode, flow_cap: usize, state: &mut PlanningState) -> SimOutcome {
        state.reset(&self.initial);
        let mut truncated = false;
        self.sim_node(tree, state, 0, flow_cap.max(1), &mut truncated);
        let flows = state.flows();
        let met = |flow: usize| {
            let held = (self.goals.iter())
                .filter(|&&(c, min_count)| state.count(flow, c) as usize >= min_count);
            held.count() as f64 / self.goals.len() as f64
        };
        SimOutcome {
            flows: flows.len(),
            total_valid: flows.iter().map(|f| f.valid).sum(),
            total_executed: flows.iter().map(|f| f.executed).sum(),
            truncated,
            goal: match self.goals.len() {
                0 => 1.0,
                _ => (0..flows.len()).map(met).sum::<f64>() / flows.len().max(1) as f64,
            },
        }
    }

    /// Run `node` in every flow from `from` on; a selective node replaces
    /// those flows by their forks.
    fn sim_node(
        &self,
        node: &PlanNode,
        state: &mut PlanningState,
        from: usize,
        flow_cap: usize,
        truncated: &mut bool,
    ) {
        match node {
            PlanNode::Terminal(name) => {
                // The first spec of a duplicated name wins; an unknown
                // service is an invalid execution.
                let known = self.names.iter().position(|n| n == name);
                state.execute(from, known.map(|i| &self.signatures[i]));
            }
            PlanNode::Sequential(children)
            | PlanNode::Concurrent(children)
            | PlanNode::Iterative { body: children, .. } => {
                for child in children {
                    self.sim_node(child, state, from, flow_cap, truncated);
                }
            }
            PlanNode::Selective(children) => {
                if children.is_empty() {
                    return;
                }
                // Forks accumulate behind the flows they came from.
                let end = state.flows().len();
                'outer: for flow in from..end {
                    for (_, child) in children {
                        let fork = state.flows().len();
                        if fork - end >= flow_cap {
                            *truncated = true;
                            break 'outer;
                        }
                        state.fork(flow);
                        self.sim_node(child, state, fork, flow_cap, truncated);
                    }
                }
                state.retire(from..end, flow_cap);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ActivitySpec, PlanningProblem};
    use gridflow_process::Condition;

    fn chain_problem() -> PlanningProblem {
        PlanningProblem::builder()
            .initial(["Raw"])
            .goal("Final", 1)
            .activity(ActivitySpec::new("step1", ["Raw"], ["Mid"]))
            .activity(ActivitySpec::new("step2", ["Mid"], ["Final"]))
            .build()
    }

    #[test]
    fn valid_chain_scores_perfect_validity_and_goal() {
        let tree = PlanNode::Sequential(vec![
            PlanNode::terminal("step1"),
            PlanNode::terminal("step2"),
        ]);
        let out = simulate(&tree, &chain_problem());
        assert_eq!(out.total_executed, 2);
        assert_eq!(out.total_valid, 2);
        assert_eq!(out.validity_fitness(), 1.0);
        assert_eq!(out.goal_fitness(), 1.0);
    }

    #[test]
    fn wrong_order_is_partially_valid() {
        let tree = PlanNode::Sequential(vec![
            PlanNode::terminal("step2"), // Mid not yet available
            PlanNode::terminal("step1"),
        ]);
        let out = simulate(&tree, &chain_problem());
        assert_eq!(out.total_executed, 2);
        assert_eq!(out.total_valid, 1);
        assert_eq!(out.validity_fitness(), 0.5);
        assert_eq!(out.goal_fitness(), 0.0);
    }

    #[test]
    fn unknown_activity_is_invalid_execution() {
        let tree = PlanNode::terminal("bogus");
        let out = simulate(&tree, &chain_problem());
        assert_eq!(out.total_executed, 1);
        assert_eq!(out.total_valid, 0);
    }

    #[test]
    fn empty_plan_is_vacuously_valid_but_misses_goals() {
        let tree = PlanNode::Sequential(vec![]);
        let out = simulate(&tree, &chain_problem());
        assert_eq!(out.validity_fitness(), 1.0);
        assert_eq!(out.goal_fitness(), 0.0);
    }

    #[test]
    fn selective_enumerates_both_flows() {
        // One branch completes the chain, the other does not; goal fitness
        // averages to 0.5 and each flow counts its own executions.
        let tree = PlanNode::Sequential(vec![
            PlanNode::terminal("step1"),
            PlanNode::Selective(vec![
                (Condition::True, PlanNode::terminal("step2")),
                (Condition::True, PlanNode::terminal("step1")),
            ]),
        ]);
        let problem = chain_problem();
        let out = simulate(&tree, &problem);
        assert_eq!(out.flows, 2);
        assert_eq!(out.goal_fitness(), 0.5);
        // Flow 1: step1 (valid) + step2 (valid); flow 2: step1 + step1
        // (second still valid: Raw persists).
        assert_eq!(out.total_executed, 4);
        assert_eq!(out.total_valid, 4);
    }

    #[test]
    fn nested_selectives_multiply_worlds() {
        let sel = |a: &str, b: &str| {
            PlanNode::Selective(vec![
                (Condition::True, PlanNode::terminal(a)),
                (Condition::True, PlanNode::terminal(b)),
            ])
        };
        let tree = PlanNode::Sequential(vec![sel("step1", "step1"), sel("step2", "step2")]);
        let out = simulate(&tree, &chain_problem());
        assert_eq!(out.flows, 4);
        assert!(!out.truncated);
    }

    #[test]
    fn flow_cap_truncates() {
        let sel = PlanNode::Selective(vec![
            (Condition::True, PlanNode::terminal("step1")),
            (Condition::True, PlanNode::terminal("step1")),
        ]);
        // 2^6 = 64 flows, cap at 8.
        let tree = PlanNode::Sequential(vec![sel.clone(); 6]);
        let out = simulate_capped(&tree, &chain_problem(), 8);
        assert_eq!(out.flows, 8);
        assert!(out.truncated);
    }

    #[test]
    fn iterative_unrolls_once() {
        let tree = PlanNode::Iterative {
            cond: Condition::True,
            body: vec![PlanNode::terminal("step1"), PlanNode::terminal("step2")],
        };
        let out = simulate(&tree, &chain_problem());
        assert_eq!(out.total_executed, 2);
        assert_eq!(out.validity_fitness(), 1.0);
    }

    #[test]
    fn multiplicity_matters_for_psf_style_inputs() {
        let problem = PlanningProblem::builder()
            .initial(["Param"])
            .goal("Resolution File", 1)
            .activity(ActivitySpec::new("P3DR", ["Param"], ["3D Model"]))
            .activity(ActivitySpec::new(
                "PSF",
                ["3D Model", "3D Model"],
                ["Resolution File"],
            ))
            .build();
        let once =
            PlanNode::Sequential(vec![PlanNode::terminal("P3DR"), PlanNode::terminal("PSF")]);
        let out = simulate(&once, &problem);
        assert_eq!(out.total_valid, 1, "PSF must fail with one model");
        let twice = PlanNode::Sequential(vec![
            PlanNode::terminal("P3DR"),
            PlanNode::terminal("P3DR"),
            PlanNode::terminal("PSF"),
        ]);
        let out = simulate(&twice, &problem);
        assert_eq!(out.total_valid, 3);
        assert_eq!(out.goal_fitness(), 1.0);
    }
}
