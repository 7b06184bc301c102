//! GP configuration — the knobs of Table 1.

use crate::fitness::FitnessWeights;
use crate::simulate::DEFAULT_FLOW_CAP;
use serde::{Deserialize, Serialize};

/// Configuration of the GP planner.  [`GpConfig::default`] reproduces the
/// parameter settings of Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpConfig {
    /// Population size (Table 1: 200).
    pub population_size: usize,
    /// Number of generations (Table 1: 20).
    pub generations: usize,
    /// Crossover rate `p_c` (Table 1: 0.7) — the probability a selected
    /// pair is crossed over.
    pub crossover_rate: f64,
    /// Mutation rate `p_m` (Table 1: 0.001) — the probability each node
    /// of an individual is selected for subtree-replacement mutation.
    pub mutation_rate: f64,
    /// Size cap `S_max` on plan trees (Table 1: 40).
    pub smax: usize,
    /// Fitness weights (Table 1: `w_v = 0.2`, `w_g = 0.5`, `w_r = 0.3`).
    pub weights: FitnessWeights,
    /// Tournament size (§3.4.5 describes binary tournaments).
    pub tournament_size: usize,
    /// Cap on enumerated flows during plan simulation.
    pub flow_cap: usize,
    /// Maximum size of randomly initialized trees (and of subtrees
    /// generated during mutation).  Must be ≤ `smax`.
    pub init_max_size: usize,
    /// RNG seed; same seed + same problem ⇒ same result.
    pub seed: u64,
    /// Accepted and ignored: a run is single-threaded (the engine's module
    /// docs give the measurement).  Kept because the frozen
    /// `benchmark/src/workloads.rs` names it; the next `benchmark`-archetype
    /// PR can drop the field.
    pub threads: usize,
    /// Stop as soon as a generation's best plan reaches `f_v = f_g = 1`.
    /// The paper runs the full generation budget; ablation benches enable
    /// this to measure time-to-solution.
    pub early_stop_on_perfect: bool,
    /// Copy the top-k individuals unchanged into each next generation.
    /// The paper's procedure has no elitism (0, the default); with pure
    /// tournament selection the best plan can drift away between
    /// generations, which is why the paper reads its answer off the
    /// *final* generation.
    pub elitism: usize,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            population_size: 200,
            generations: 20,
            crossover_rate: 0.7,
            mutation_rate: 0.001,
            smax: 40,
            weights: FitnessWeights::default(),
            tournament_size: 2,
            flow_cap: DEFAULT_FLOW_CAP,
            init_max_size: 20,
            seed: 42,
            threads: 0,
            early_stop_on_perfect: false,
            elitism: 0,
        }
    }
}

impl GpConfig {
    /// Validate parameter sanity; returns a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if self.population_size == 0 {
            return Err("population_size must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.crossover_rate) {
            return Err("crossover_rate must be in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.mutation_rate) {
            return Err("mutation_rate must be in [0, 1]".into());
        }
        if self.smax < 2 {
            return Err("smax must be at least 2".into());
        }
        if self.init_max_size == 0 || self.init_max_size > self.smax {
            return Err("init_max_size must be in [1, smax]".into());
        }
        if self.tournament_size == 0 {
            return Err("tournament_size must be positive".into());
        }
        if self.elitism >= self.population_size {
            return Err("elitism must be smaller than the population".into());
        }
        FitnessWeights::new(
            self.weights.validity,
            self.weights.goal,
            self.weights.representation,
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_1() {
        let c = GpConfig::default();
        assert_eq!(c.population_size, 200);
        assert_eq!(c.generations, 20);
        assert_eq!(c.crossover_rate, 0.7);
        assert_eq!(c.mutation_rate, 0.001);
        assert_eq!(c.smax, 40);
        assert_eq!(c.weights.validity, 0.2);
        assert_eq!(c.weights.goal, 0.5);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        let base = GpConfig::default();
        assert!(GpConfig {
            population_size: 0,
            ..base
        }
        .validate()
        .is_err());
        assert!(GpConfig {
            crossover_rate: 1.5,
            ..base
        }
        .validate()
        .is_err());
        assert!(GpConfig {
            mutation_rate: -0.1,
            ..base
        }
        .validate()
        .is_err());
        assert!(GpConfig { smax: 1, ..base }.validate().is_err());
        assert!(GpConfig {
            init_max_size: 41,
            ..base
        }
        .validate()
        .is_err());
        assert!(GpConfig {
            tournament_size: 0,
            ..base
        }
        .validate()
        .is_err());
        assert!(GpConfig {
            elitism: 200,
            ..base
        }
        .validate()
        .is_err());
        assert!(GpConfig { elitism: 5, ..base }.validate().is_ok());
    }
}
