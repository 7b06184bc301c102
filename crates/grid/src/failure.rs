//! Failure model: seeded stochastic failures.
//!
//! "The ability to recover from errors caused by the failure of
//! individual nodes is a critical aspect for the execution of complex
//! tasks" (§1).  The re-planning benches drive the coordination stack
//! under a Bernoulli per-execution failure model; failures scripted at
//! chosen points are the harness's `FaultPlan`.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Seeded Bernoulli per-execution failure model, optionally modulated by
/// resource reliability.
#[derive(Debug, Clone)]
pub struct FailureModel {
    rng: ChaCha8Rng,
    /// Base probability that any single execution fails.
    pub base_failure_prob: f64,
    /// When false, no execution ever fails (reliability is not consulted
    /// either) — the state [`FailureModel::none`] constructs.
    pub enabled: bool,
    draws: u64,
}

impl FailureModel {
    /// A model with the given per-execution failure probability.
    pub fn new(seed: u64, base_failure_prob: f64) -> Self {
        FailureModel {
            rng: ChaCha8Rng::seed_from_u64(seed),
            base_failure_prob: base_failure_prob.clamp(0.0, 1.0),
            enabled: true,
            draws: 0,
        }
    }

    /// A disabled model: no execution ever fails, regardless of resource
    /// reliability.
    pub fn none() -> Self {
        let mut model = Self::new(0, 0.0);
        model.enabled = false;
        model
    }

    /// Draw one execution outcome on a resource with the given
    /// reliability: the effective failure probability is
    /// `1 − reliability·(1 − base)`.
    ///
    /// The draw counter and the generator advance even when the model
    /// is disabled, so toggling `enabled` mid-run never shifts the
    /// outcome stream of later draws — a disabled stretch consumes
    /// exactly the randomness it would have when enabled.
    pub fn execution_fails(&mut self, resource_reliability: f64) -> bool {
        self.draws += 1;
        let survive = resource_reliability.clamp(0.0, 1.0) * (1.0 - self.base_failure_prob);
        let fails = self.rng.gen_range(0.0..1.0) >= survive;
        self.enabled && fails
    }

    /// Number of outcomes drawn so far.
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// Burn `n` draws to reposition the generator.  Because every
    /// [`FailureModel::execution_fails`] call consumes exactly one draw
    /// regardless of its arguments, a model restored from a checkpoint
    /// only needs the original seed and the draw count to resume the
    /// outcome stream exactly where the crashed run left it.
    pub fn advance_draws(&mut self, n: u64) {
        for _ in 0..n {
            self.draws += 1;
            let _ = self.rng.gen_range(0.0..1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_probability_never_fails_on_reliable_resources() {
        let mut m = FailureModel::new(1, 0.0);
        assert!((0..1000).all(|_| !m.execution_fails(1.0)));
        // …but an *active* zero-base model still respects reliability.
        let mut m = FailureModel::new(1, 0.0);
        let failures = (0..2000).filter(|_| m.execution_fails(0.5)).count();
        assert!(failures > 500, "reliability must matter when enabled");
    }

    #[test]
    fn disabled_model_never_fails_even_on_flaky_resources() {
        let mut m = FailureModel::none();
        assert!((0..1000).all(|_| !m.execution_fails(0.01)));
        // Draws are counted even while disabled, keeping the stream
        // position consistent with an enabled model.
        assert_eq!(m.draws(), 1000);
    }

    #[test]
    fn disabled_stretch_does_not_shift_the_stream() {
        // Model A stays enabled; model B is disabled for the first 100
        // draws.  Once B re-enables, both must produce identical
        // outcomes draw-for-draw: the disabled stretch consumed the
        // same randomness.
        let mut a = FailureModel::new(21, 0.3);
        let mut b = FailureModel::new(21, 0.3);
        b.enabled = false;
        for _ in 0..100 {
            a.execution_fails(0.9);
            assert!(!b.execution_fails(0.9));
        }
        b.enabled = true;
        let oa: Vec<bool> = (0..500).map(|_| a.execution_fails(0.9)).collect();
        let ob: Vec<bool> = (0..500).map(|_| b.execution_fails(0.9)).collect();
        assert_eq!(oa, ob);
        assert_eq!(a.draws(), b.draws());
    }

    #[test]
    fn one_probability_always_fails() {
        let mut m = FailureModel::new(1, 1.0);
        assert!((0..100).all(|_| m.execution_fails(1.0)));
    }

    #[test]
    fn failure_rate_tracks_probability() {
        let mut m = FailureModel::new(7, 0.2);
        let failures = (0..10_000).filter(|_| m.execution_fails(1.0)).count();
        let rate = failures as f64 / 10_000.0;
        assert!((rate - 0.2).abs() < 0.02, "rate {rate}");
        assert_eq!(m.draws(), 10_000);
    }

    #[test]
    fn unreliable_resources_fail_more() {
        let mut m1 = FailureModel::new(3, 0.1);
        let mut m2 = FailureModel::new(3, 0.1);
        let reliable = (0..5_000).filter(|_| m1.execution_fails(0.99)).count();
        let flaky = (0..5_000).filter(|_| m2.execution_fails(0.5)).count();
        assert!(flaky > reliable);
    }

    #[test]
    fn same_seed_same_outcomes() {
        let mut a = FailureModel::new(9, 0.3);
        let mut b = FailureModel::new(9, 0.3);
        let oa: Vec<bool> = (0..100).map(|_| a.execution_fails(0.9)).collect();
        let ob: Vec<bool> = (0..100).map(|_| b.execution_fails(0.9)).collect();
        assert_eq!(oa, ob);
    }

    #[test]
    fn advance_draws_repositions_the_outcome_stream() {
        let mut a = FailureModel::new(42, 0.3);
        let outcomes: Vec<bool> = (0..10).map(|_| a.execution_fails(0.9)).collect();
        let mut b = FailureModel::new(42, 0.3);
        b.advance_draws(4);
        assert_eq!(b.draws(), 4);
        let resumed: Vec<bool> = (0..6).map(|_| b.execution_fails(0.9)).collect();
        assert_eq!(resumed, outcomes[4..]);
    }
}
