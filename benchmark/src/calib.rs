//! The host-calibration kernel.
//!
//! A frozen, `std`-only piece of work that is timed immediately before
//! every timed rep.  `host_factor = calib_seconds / REFERENCE_S`, and a
//! rep's normalised time is `wall / host_factor`: "seconds on a box
//! where this kernel takes 25 ms".  It calls nothing from the repo or
//! its vendored crates, so no PR can speed up the denominator, and its
//! instruction mix (formatting, hashing, ordered-map inserts, string
//! building, allocation) is the engine's own, so host drift moves both
//! the same way.
//!
//! Frozen: changing anything here rebases every normalised number.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

/// What the kernel takes on the reference box, in seconds.
pub const REFERENCE_S: f64 = 0.025;

const STRINGS: u64 = 60_000;
const RENDERED: usize = 30_000;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One pass of the kernel; returns a checksum of everything it built.
pub fn kernel() -> u64 {
    let mut map: BTreeMap<u64, String> = BTreeMap::new();
    for i in 0..STRINGS {
        let s = format!(
            "case:dinner-{}/activity.{}",
            i % 4096,
            i.wrapping_mul(2_654_435_761) % 97
        );
        map.insert(fnv1a64(s.as_bytes()) ^ i, s);
    }
    let mut out = String::new();
    for (k, v) in map.iter().take(RENDERED) {
        let _ = writeln!(out, "{{\"k\":{k},\"v\":\"{v}\"}}");
    }
    fnv1a64(out.as_bytes()) ^ map.len() as u64
}

/// Time one pass; returns `(seconds, checksum)`.
pub fn measure() -> (f64, u64) {
    let start = Instant::now();
    let checksum = std::hint::black_box(kernel());
    (start.elapsed().as_secs_f64(), checksum)
}

/// A timed piece of work with the calibrations on either side of it.
/// One calibration before the work misses drift during it: on the
/// builder's box bracketing halved the run-to-run spread of the
/// normalised medians.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub wall_s: f64,
    pub calib_pre_s: f64,
    pub calib_post_s: f64,
}

impl Sample {
    /// Mean of the two calibrations over [`REFERENCE_S`].
    pub fn host_factor(&self) -> f64 {
        (self.calib_pre_s + self.calib_post_s) / 2.0 / REFERENCE_S
    }

    /// Seconds on a box where the kernel takes [`REFERENCE_S`].
    pub fn norm_s(&self) -> f64 {
        self.wall_s / self.host_factor()
    }
}

/// Run `f`, which reports the seconds of its own timed region, between
/// two calibration passes.
pub fn bracketed<T>(f: impl FnOnce() -> (f64, T)) -> (Sample, T) {
    let (calib_pre_s, _) = measure();
    let (wall_s, value) = f();
    let (calib_post_s, _) = measure();
    let sample = Sample {
        wall_s,
        calib_pre_s,
        calib_post_s,
    };
    (sample, value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_checksum_is_the_same_every_call() {
        let first = kernel();
        for _ in 0..3 {
            assert_eq!(kernel(), first);
        }
    }

    #[test]
    fn a_sample_is_normalised_by_the_mean_of_its_two_calibrations() {
        let sample = Sample {
            wall_s: 0.3,
            calib_pre_s: REFERENCE_S,
            calib_post_s: 3.0 * REFERENCE_S,
        };
        assert!((sample.host_factor() - 2.0).abs() < 1e-12);
        assert!((sample.norm_s() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn bracketed_takes_the_wall_time_from_the_closure() {
        let (sample, value) = bracketed(|| (1.5, "done"));
        assert_eq!((sample.wall_s, value), (1.5, "done"));
        assert!(sample.calib_pre_s > 0.0 && sample.calib_post_s > 0.0);
    }
}
