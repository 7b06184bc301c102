//! Retry policy: bounded attempts, exponential backoff, seeded jitter.

use serde::{Deserialize, Serialize};

/// How often, and how patiently, to retry a failing execution on the
/// *same* candidate before failing over to the next one.
///
/// All durations are virtual-clock ticks.  Jitter is derived from a
/// seed plus the activity id and attempt index — deterministic, so two
/// replays of the same scenario back off identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Attempts per candidate (1 = no retries).
    pub max_attempts: usize,
    /// Backoff before the first retry, in ticks.
    pub base_backoff_ticks: u64,
    /// Ceiling the exponential curve is clamped to, in ticks.
    pub max_backoff_ticks: u64,
    /// Maximum extra ticks of deterministic jitter added per backoff.
    pub jitter_ticks: u64,
    /// Seed feeding the jitter hash.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ticks: 2,
            max_backoff_ticks: 64,
            jitter_ticks: 3,
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The degenerate policy: one attempt, no backoff.
    pub fn disabled() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ticks: 0,
            max_backoff_ticks: 0,
            jitter_ticks: 0,
            seed: 0,
        }
    }

    /// Backoff before retry number `retry` (1-based: the wait between
    /// attempt 0 and attempt 1 is `backoff_ticks(activity, 1)`).
    ///
    /// Exponential in the retry index, clamped to
    /// [`RetryPolicy::max_backoff_ticks`], plus a hash-derived jitter in
    /// `0..=jitter_ticks`.  Pure function of `(policy, activity, retry)`.
    pub fn backoff_ticks(&self, activity: &str, retry: usize) -> u64 {
        if retry == 0 {
            return 0;
        }
        let shift = (retry - 1).min(63) as u32;
        let exp = self
            .base_backoff_ticks
            .saturating_mul(1u64 << shift)
            .min(self.max_backoff_ticks);
        let jitter = if self.jitter_ticks == 0 {
            0
        } else {
            let h = mix64(
                self.seed
                    ^ fnv1a(activity).rotate_left(17)
                    ^ (retry as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            h % (self.jitter_ticks + 1)
        };
        exp.saturating_add(jitter)
    }
}

/// FNV-1a over the UTF-8 bytes: a stable, dependency-free string hash.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: scrambles the combined key into jitter bits.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_clamped() {
        let p = RetryPolicy {
            jitter_ticks: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_ticks("A1", 0), 0);
        assert_eq!(p.backoff_ticks("A1", 1), 2);
        assert_eq!(p.backoff_ticks("A1", 2), 4);
        assert_eq!(p.backoff_ticks("A1", 3), 8);
        // Deep retries hit the ceiling instead of overflowing.
        assert_eq!(p.backoff_ticks("A1", 20), 64);
        assert_eq!(p.backoff_ticks("A1", 200), 64);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for retry in 1..6 {
            let a = p.backoff_ticks("A7", retry);
            let b = p.backoff_ticks("A7", retry);
            assert_eq!(a, b, "same inputs must give same backoff");
            let bare = RetryPolicy {
                jitter_ticks: 0,
                ..p.clone()
            }
            .backoff_ticks("A7", retry);
            assert!(a >= bare && a <= bare + p.jitter_ticks);
        }
        // Different activities decorrelate.
        let spread: std::collections::BTreeSet<u64> = (0..16)
            .map(|i| p.backoff_ticks(&format!("A{i}"), 1))
            .collect();
        assert!(spread.len() > 1, "jitter should vary across activities");
    }

    #[test]
    fn disabled_policy_is_single_shot_and_free() {
        let p = RetryPolicy::disabled();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.backoff_ticks("A1", 1), 0);
    }

    #[test]
    fn policy_round_trips_through_json() {
        let p = RetryPolicy::default();
        let json = serde_json::to_string(&p).unwrap();
        let back: RetryPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
