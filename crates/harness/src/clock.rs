//! A shared virtual clock for deterministic simulation.
//!
//! Fault decisions must never depend on wall time: two runs of the same
//! `(seed, workload)` pair would otherwise diverge on scheduling noise.
//! The harness measures time in **ticks** — one tick per intercepted
//! message — plus the virtual seconds the [`GridWorld`] clock already
//! accumulates per service execution.  Both advance only in response to
//! simulated events, so replays are exact.
//!
//! [`GridWorld`]: gridflow_services::world::GridWorld

use parking_lot::Mutex;
use std::sync::Arc;

#[derive(Debug, Default)]
struct ClockState {
    ticks: u64,
    seconds: f64,
}

/// A cloneable handle on the simulation's logical time.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    inner: Arc<Mutex<ClockState>>,
}

impl VirtualClock {
    /// A clock at tick 0, second 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock resumed at a stored reading — what crash recovery hands
    /// a reseeded trace log so regenerated events carry the same
    /// virtual timestamps the original run stamped.
    pub fn starting_at(ticks: u64, seconds: f64) -> Self {
        VirtualClock {
            inner: Arc::new(Mutex::new(ClockState { ticks, seconds })),
        }
    }

    /// Advance by one tick and return the tick just consumed (so the
    /// first call returns 0 — ticks number events, not boundaries).
    pub fn tick(&self) -> u64 {
        let mut s = self.inner.lock();
        let t = s.ticks;
        s.ticks += 1;
        t
    }

    /// Ticks consumed so far.
    pub fn ticks(&self) -> u64 {
        self.inner.lock().ticks
    }

    /// Advance the virtual-seconds component (mirrors world clock time
    /// the runner accounts to the simulation).
    pub fn advance_s(&self, dt: f64) {
        self.inner.lock().seconds += dt.max(0.0);
    }

    /// Both components, read atomically.
    pub fn now(&self) -> (u64, f64) {
        let s = self.inner.lock();
        (s.ticks, s.seconds)
    }
}

impl gridflow_telemetry::TraceClock for VirtualClock {
    fn now(&self) -> (u64, f64) {
        VirtualClock::now(self)
    }

    fn advance_s(&self, dt: f64) {
        VirtualClock::advance_s(self, dt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_number_events_from_zero() {
        let c = VirtualClock::new();
        assert_eq!(c.tick(), 0);
        assert_eq!(c.tick(), 1);
        assert_eq!(c.ticks(), 2);
    }

    #[test]
    fn clones_share_state() {
        let c = VirtualClock::new();
        let d = c.clone();
        c.tick();
        d.advance_s(2.5);
        assert_eq!(d.ticks(), 1);
        assert!((c.now().1 - 2.5).abs() < 1e-12);
    }

    #[test]
    fn negative_advances_are_clamped() {
        let c = VirtualClock::new();
        c.advance_s(-1.0);
        assert_eq!(c.now().1, 0.0);
    }

    #[test]
    fn resumed_clocks_continue_from_the_stored_reading() {
        let c = VirtualClock::starting_at(5, 12.25);
        assert_eq!(c.now(), (5, 12.25));
        assert_eq!(c.tick(), 5);
        c.advance_s(0.75);
        assert_eq!(c.now(), (6, 13.0));
    }

    #[test]
    fn serves_as_a_trace_clock() {
        use gridflow_telemetry::TraceClock;
        let c = VirtualClock::new();
        c.tick();
        TraceClock::advance_s(&c, 1.5);
        assert_eq!(TraceClock::now(&c), (1, 1.5));
    }
}
