//! The three-part fitness of §3.4.4 (Equations 1–4).

use crate::problem::PlanningProblem;
use crate::simulate::{simulate_capped, SimOutcome};
use gridflow_plan::PlanNode;
use serde::{Deserialize, Serialize};

/// Weights `(w_v, w_g, w_r)` of Eq. 4; they must sum to 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitnessWeights {
    /// Weight of validity fitness (Table 1: 0.2).
    pub validity: f64,
    /// Weight of goal fitness (Table 1: 0.5).
    pub goal: f64,
    /// Weight of representation efficiency (Table 1 implies 0.3).
    pub representation: f64,
}

impl Default for FitnessWeights {
    /// The weights of Table 1: `w_v = 0.2`, `w_g = 0.5`, and therefore
    /// `w_r = 0.3` (the weights sum to 1, Eq. 5).
    fn default() -> Self {
        FitnessWeights {
            validity: 0.2,
            goal: 0.5,
            representation: 0.3,
        }
    }
}

impl FitnessWeights {
    /// Construct and check that the weights sum to 1 (within 1e-9).
    pub fn new(validity: f64, goal: f64, representation: f64) -> Result<Self, String> {
        let sum = validity + goal + representation;
        if (sum - 1.0).abs() > 1e-9 {
            return Err(format!("fitness weights must sum to 1, got {sum}"));
        }
        if validity < 0.0 || goal < 0.0 || representation < 0.0 {
            return Err("fitness weights must be non-negative".into());
        }
        Ok(FitnessWeights {
            validity,
            goal,
            representation,
        })
    }
}

/// The evaluated fitness of one plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fitness {
    /// `f_v` (Eq. 1).
    pub validity: f64,
    /// `f_g` (Eq. 2).
    pub goal: f64,
    /// `f_r` (Eq. 3).
    pub representation: f64,
    /// `f` (Eq. 4).
    pub overall: f64,
    /// Plan-tree size used for `f_r`.
    pub size: usize,
}

impl Fitness {
    /// Is this a perfect plan (valid everywhere and meeting every goal)?
    pub fn is_perfect(&self) -> bool {
        self.validity >= 1.0 && self.goal >= 1.0
    }
}

impl Fitness {
    /// Combine a simulation outcome with the size of the simulated tree
    /// (Eqs. 3–4).  `f_r = 1 − size/S_max`; trees at or above `S_max`
    /// clamp to 0 (the GP operators never produce them, but ad-hoc
    /// callers can).
    pub(crate) fn of(outcome: SimOutcome, size: usize, smax: usize, w: FitnessWeights) -> Self {
        let validity = outcome.validity_fitness();
        let goal = outcome.goal_fitness();
        let representation = (1.0 - size as f64 / smax as f64).max(0.0);
        Fitness {
            validity,
            goal,
            representation,
            overall: w.validity * validity + w.goal * goal + w.representation * representation,
            size,
        }
    }
}

/// Evaluate a plan tree (Eqs. 1–4).  Lowers `problem` on every call;
/// the GP engine lowers it once per run.
pub fn evaluate(
    tree: &PlanNode,
    problem: &PlanningProblem,
    smax: usize,
    weights: FitnessWeights,
    flow_cap: usize,
) -> Fitness {
    let outcome = simulate_capped(tree, problem, flow_cap);
    Fitness::of(outcome, tree.size(), smax, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ActivitySpec;
    use crate::simulate::DEFAULT_FLOW_CAP;

    fn problem() -> PlanningProblem {
        PlanningProblem::builder()
            .initial(["Raw"])
            .goal("Final", 1)
            .activity(ActivitySpec::new("step1", ["Raw"], ["Mid"]))
            .activity(ActivitySpec::new("step2", ["Mid"], ["Final"]))
            .build()
    }

    #[test]
    fn default_weights_are_table_1() {
        let w = FitnessWeights::default();
        assert_eq!((w.validity, w.goal, w.representation), (0.2, 0.5, 0.3));
    }

    #[test]
    fn weights_must_sum_to_one() {
        assert!(FitnessWeights::new(0.2, 0.5, 0.3).is_ok());
        assert!(FitnessWeights::new(0.5, 0.5, 0.5).is_err());
        assert!(FitnessWeights::new(1.2, -0.5, 0.3).is_err());
    }

    #[test]
    fn perfect_plan_fitness_matches_formula() {
        let tree = PlanNode::Sequential(vec![
            PlanNode::terminal("step1"),
            PlanNode::terminal("step2"),
        ]);
        let f = evaluate(
            &tree,
            &problem(),
            40,
            FitnessWeights::default(),
            DEFAULT_FLOW_CAP,
        );
        assert_eq!(f.validity, 1.0);
        assert_eq!(f.goal, 1.0);
        assert_eq!(f.size, 3);
        let expected_fr = 1.0 - 3.0 / 40.0;
        assert!((f.representation - expected_fr).abs() < 1e-12);
        let expected = 0.2 + 0.5 + 0.3 * expected_fr;
        assert!((f.overall - expected).abs() < 1e-12);
        assert!(f.is_perfect());
    }

    #[test]
    fn oversize_tree_clamps_representation_to_zero() {
        let tree = PlanNode::Sequential(vec![PlanNode::terminal("step1"); 50]);
        let f = evaluate(
            &tree,
            &problem(),
            40,
            FitnessWeights::default(),
            DEFAULT_FLOW_CAP,
        );
        assert_eq!(f.representation, 0.0);
        assert!(f.overall <= 0.7 + 1e-12);
    }

    #[test]
    fn fitness_is_bounded_zero_one() {
        let trees = [
            PlanNode::terminal("bogus"),
            PlanNode::Sequential(vec![]),
            PlanNode::Sequential(vec![
                PlanNode::terminal("step2"),
                PlanNode::terminal("step1"),
            ]),
        ];
        for tree in &trees {
            let f = evaluate(
                tree,
                &problem(),
                40,
                FitnessWeights::default(),
                DEFAULT_FLOW_CAP,
            );
            assert!(f.overall >= 0.0 && f.overall <= 1.0, "{f:?}");
            assert!(f.validity >= 0.0 && f.validity <= 1.0);
            assert!(f.goal >= 0.0 && f.goal <= 1.0);
            assert!(f.representation >= 0.0 && f.representation < 1.0 || tree.size() == 0);
        }
    }

    #[test]
    fn smaller_valid_plan_scores_higher() {
        let small = PlanNode::Sequential(vec![
            PlanNode::terminal("step1"),
            PlanNode::terminal("step2"),
        ]);
        let padded = PlanNode::Sequential(vec![
            PlanNode::terminal("step1"),
            PlanNode::terminal("step1"),
            PlanNode::terminal("step1"),
            PlanNode::terminal("step2"),
        ]);
        let w = FitnessWeights::default();
        let fs = evaluate(&small, &problem(), 40, w, DEFAULT_FLOW_CAP);
        let fp = evaluate(&padded, &problem(), 40, w, DEFAULT_FLOW_CAP);
        assert!(fs.overall > fp.overall);
    }
}
