//! Content-addressed plan identity.
//!
//! A GP run is a *pure function* of its inputs: the planner seeds a
//! `ChaCha8Rng` from `GpConfig::seed`, and selection, crossover and
//! mutation all draw from that single stream while fitness evaluation is
//! side-effect free — so `(GpConfig, PlanningProblem)` fully determines
//! the resulting plan, byte for byte, at any thread count.  That purity
//! is what makes plan caching sound: two planning requests with equal
//! [`PlanKey`]s would run the identical search and produce the identical
//! tree, so the second run can be skipped entirely.
//!
//! The key is a stable 128-bit FNV-1a hash over a canonical rendering of
//! the inputs.  The one performance-only knob (`threads`) is
//! normalized out before hashing — it cannot change the result, and
//! folding it in would only split otherwise-identical requests across
//! distinct cache entries.

use crate::genetic::GpConfig;
use crate::problem::PlanningProblem;
use std::fmt;

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A stable 128-bit FNV-1a hasher.
///
/// Unlike `std::hash::Hasher` implementations, the digest depends only
/// on the bytes fed in — never on process randomness, pointer values, or
/// platform word size — so digests are reproducible across runs and
/// machines and are safe to persist or put in trace events.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u128,
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Feed raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ u128::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// The current 128-bit digest.
    pub fn finish(&self) -> u128 {
        self.state
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl fmt::Write for StableHasher {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// Content-addressed identity of a planning request.
///
/// Two requests with equal keys are guaranteed (by GP determinism — see
/// the module docs) to produce byte-identical plans, so a plan cache may
/// serve one request's result to the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlanKey(u128);

impl PlanKey {
    /// Compute the key for a planning request.
    ///
    /// `problem` must be the *post-exclusion* problem actually handed to
    /// the GP (it embeds the goal condition, the initial/produced data
    /// multiset, and the world's offering catalog — the world fingerprint
    /// as far as planning can observe it).  `excluded` is folded in
    /// explicitly as well so the exclusion set is part of the identity
    /// even for services the current catalog no longer offers.
    pub fn compute(config: &GpConfig, problem: &PlanningProblem, excluded: &[String]) -> PlanKey {
        use fmt::Write as _;
        // Normalize the performance-only knob: it does not affect the plan.
        let mut canonical = *config;
        canonical.threads = 0;
        let mut hasher = StableHasher::new();
        write!(
            hasher,
            "gp-config:{canonical:?};problem:{problem:?};excluded:{excluded:?}"
        )
        .expect("StableHasher never fails");
        PlanKey(hasher.finish())
    }

    /// Lowercase 32-hex-digit rendering (the form used in trace events).
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for PlanKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ActivitySpec;

    fn problem() -> PlanningProblem {
        PlanningProblem::builder()
            .initial(["Raw"])
            .goal("Final", 1)
            .activity(ActivitySpec::new("step1", ["Raw"], ["Mid"]))
            .activity(ActivitySpec::new("step2", ["Mid"], ["Final"]))
            .build()
    }

    #[test]
    fn fnv_vector_matches_reference() {
        // FNV-1a 128 of the empty input is the offset basis.
        assert_eq!(StableHasher::new().finish(), FNV_OFFSET);
        // And of "a" (reference vector from the FNV specification).
        let mut h = StableHasher::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964);
    }

    #[test]
    fn equal_inputs_equal_keys() {
        let cfg = GpConfig::default();
        let k1 = PlanKey::compute(&cfg, &problem(), &[]);
        let k2 = PlanKey::compute(&cfg, &problem(), &[]);
        assert_eq!(k1, k2);
        assert_eq!(k1.hex(), k2.hex());
        assert_eq!(k1.hex().len(), 32);
    }

    #[test]
    fn semantic_changes_change_the_key() {
        let cfg = GpConfig::default();
        let base = PlanKey::compute(&cfg, &problem(), &[]);
        let other_seed = GpConfig {
            seed: 43,
            ..GpConfig::default()
        };
        assert_ne!(PlanKey::compute(&other_seed, &problem(), &[]), base);
        let excluded = ["step2".to_string()];
        assert_ne!(
            PlanKey::compute(&cfg, &problem().without_activities(["step2"]), &excluded),
            base
        );
        let mut richer = problem();
        richer.initial.push("Raw".into());
        assert_ne!(PlanKey::compute(&cfg, &richer, &[]), base);
    }

    #[test]
    fn performance_knobs_are_normalized_out() {
        let base = PlanKey::compute(&GpConfig::default(), &problem(), &[]);
        for threads in [1usize, 2, 8] {
            let cfg = GpConfig {
                threads,
                ..GpConfig::default()
            };
            assert_eq!(PlanKey::compute(&cfg, &problem(), &[]), base);
        }
    }
}
