//! The [`RecoveryManager`]: one stateful façade the enactor drives.
//!
//! The manager owns a private virtual *recovery clock* (ticks, advanced
//! by execution durations and backoff waits — never wall time) and the
//! per-container breaker records.  Both are captured in
//! [`RecoveryState`], which serializes into engine snapshots so a
//! crash/recover round-trip picks up quarantines exactly where they
//! stood.

use std::collections::BTreeMap;

use gridflow_telemetry::{TraceEvent, TraceHandle};
use serde::{Deserialize, Serialize};

use crate::breaker::{Admission, BreakerConfig, BreakerRecord, BreakerSignal, BreakerState};
use crate::policy::RetryPolicy;

/// Trace source tag for everything the recovery layer emits.
const SOURCE: &str = "recovery";

/// Lease tuning: how long a dispatched execution may run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaseConfig {
    /// Ticks an execution may take before its lease expires (one tick
    /// per virtual second of execution).
    pub lease_ticks: u64,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig { lease_ticks: 60 }
    }
}

/// The complete failure policy the enactor runs under.  Each part
/// switches on its own rung of the dispatch ladder; there is no master
/// switch.
///
/// [`RecoveryPolicy::default`] is the *disabled* policy: one attempt
/// per candidate, no leases, no breakers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Per-candidate retry/backoff policy.
    pub retry: RetryPolicy,
    /// Lease deadlines for dispatched executions (`None` = unlimited).
    pub lease: Option<LeaseConfig>,
    /// Per-container circuit breakers (`None` = never quarantine).
    pub breaker: Option<BreakerConfig>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy::disabled()
    }
}

impl RecoveryPolicy {
    /// Every rung off: one try per candidate, nothing else.
    pub fn disabled() -> Self {
        RecoveryPolicy {
            retry: RetryPolicy::disabled(),
            lease: None,
            breaker: None,
        }
    }

    /// The standard ladder: default retries, a 60-tick lease, default
    /// breakers.
    pub fn standard() -> Self {
        RecoveryPolicy {
            retry: RetryPolicy::default(),
            lease: Some(LeaseConfig::default()),
            breaker: Some(BreakerConfig::default()),
        }
    }
}

/// Everything the recovery layer must remember across a crash.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RecoveryState {
    /// The recovery clock: ticks of virtual time consumed by
    /// executions and backoff waits.
    pub now_tick: u64,
    /// Per-container breaker records (only containers that have ever
    /// taken a failure appear here).
    pub breakers: BTreeMap<String, BreakerRecord>,
}

/// Drives retries, leases, and breakers for one enactment.
///
/// Everything the manager remembers is its serializable
/// [`RecoveryState`]; the policy and the trace handle are configuration.
#[derive(Debug, Clone)]
pub struct RecoveryManager {
    policy: RecoveryPolicy,
    state: RecoveryState,
    trace: TraceHandle,
}

impl RecoveryManager {
    /// A fresh manager (no trace sink).
    pub fn new(policy: RecoveryPolicy) -> Self {
        Self::with_trace_handle(policy, TraceHandle::none())
    }

    /// A fresh manager announcing its decisions on `trace`.
    pub fn with_trace_handle(policy: RecoveryPolicy, trace: TraceHandle) -> Self {
        Self::restore(policy, RecoveryState::default(), trace)
    }

    /// Rebuild a manager from snapshotted state (crash/recover path).
    pub fn restore(policy: RecoveryPolicy, state: RecoveryState, trace: TraceHandle) -> Self {
        RecoveryManager {
            policy,
            state,
            trace,
        }
    }

    /// The policy this manager runs under.
    pub fn policy(&self) -> &RecoveryPolicy {
        &self.policy
    }

    /// Clone the serializable state (checkpoint capture).
    pub fn snapshot(&self) -> RecoveryState {
        self.state.clone()
    }

    /// Convert virtual execution seconds to recovery ticks (1 tick per
    /// started virtual second).
    pub fn ticks_of(seconds: f64) -> u64 {
        seconds.max(0.0).ceil() as u64
    }

    /// Advance the recovery clock by an execution's virtual duration.
    /// Returns the ticks consumed.
    pub fn note_execution_seconds(&mut self, seconds: f64) -> u64 {
        let ticks = Self::ticks_of(seconds);
        self.state.now_tick = self.state.now_tick.saturating_add(ticks);
        ticks
    }

    /// Advance the recovery clock by a flat tick count (dispatch
    /// overhead, failed-execution accounting).
    pub fn tick(&mut self, ticks: u64) {
        self.state.now_tick = self.state.now_tick.saturating_add(ticks);
    }

    // ------------------------------------------------------ admission

    /// May `container` take an execution right now?  Open breakers
    /// whose cooldown elapsed transition to half-open here (announced
    /// as `breaker.half_open`).
    pub fn admit(&mut self, container: &str) -> Admission {
        if self.policy.breaker.is_none() {
            return Admission::Allow;
        }
        let now = self.state.now_tick;
        let Some(record) = self.state.breakers.get_mut(container) else {
            return Admission::Allow;
        };
        let (admission, signal) = record.admit(now);
        self.emit_signal(container, signal);
        admission
    }

    /// `admit` as a plain predicate (used by matchmaking filters).
    pub fn is_admitted(&mut self, container: &str) -> bool {
        self.admit(container) != Admission::Reject
    }

    /// Containers currently under a non-closed breaker.
    pub fn quarantined(&self) -> Vec<String> {
        self.state
            .breakers
            .iter()
            .filter(|(_, r)| r.state != BreakerState::Closed)
            .map(|(c, _)| c.clone())
            .collect()
    }

    // ---------------------------------------------------------- leases

    /// Grant a lease for a dispatch, if leases are configured.
    /// Announces `lease.granted` and returns the allowance in ticks.
    pub fn grant_lease(&mut self, activity: &str, container: &str) -> Option<u64> {
        let lease_ticks = self.policy.lease.as_ref()?.lease_ticks;
        let deadline_tick = self.state.now_tick.saturating_add(lease_ticks);
        self.trace.emit(
            SOURCE,
            TraceEvent::LeaseGranted {
                activity: activity.to_string(),
                container: container.to_string(),
                lease_ticks,
                deadline_tick,
            },
        );
        Some(lease_ticks)
    }

    /// Did an execution that took `took_ticks` overrun its lease?  If
    /// so, announces `lease.expired` and returns `true` (the caller
    /// must treat the attempt as failed and discard its outputs).
    ///
    /// The verdict is an *overrun check against the granted allowance*
    /// (`took_ticks > lease_ticks`), deliberately independent of the
    /// absolute `deadline_tick` the grant announced: the caller settles
    /// an execution whose duration it already knows, whether or not the
    /// recovery clock has been advanced past the grant.
    pub fn lease_expired(&mut self, activity: &str, container: &str, took_ticks: u64) -> bool {
        let Some(lease) = self.policy.lease.as_ref() else {
            return false;
        };
        if took_ticks <= lease.lease_ticks {
            return false;
        }
        let lease_ticks = lease.lease_ticks;
        self.trace.emit(
            SOURCE,
            TraceEvent::LeaseExpired {
                activity: activity.to_string(),
                container: container.to_string(),
                lease_ticks,
                took_ticks,
            },
        );
        true
    }

    // -------------------------------------------------------- outcomes

    /// Feed a successful execution outcome into the breaker.
    pub fn record_success(&mut self, container: &str) {
        if self.policy.breaker.is_none() {
            return;
        }
        if let Some(record) = self.state.breakers.get_mut(container) {
            let signal = record.on_success();
            self.emit_signal(container, signal);
        }
    }

    /// Feed a failed execution outcome (or expired lease) into the
    /// breaker; may trip it open (`breaker.opened`).
    pub fn record_failure(&mut self, container: &str) {
        let Some(cfg) = self.policy.breaker.clone() else {
            return;
        };
        let now = self.state.now_tick;
        let record = self
            .state
            .breakers
            .entry(container.to_string())
            .or_default();
        let signal = record.on_failure(&cfg, now);
        self.emit_signal(container, signal);
    }

    /// Feed a monitoring probe.  Probes cannot *reset* a closed
    /// breaker's failure count (only real successes do), but a probe of
    /// a down container counts as a failure, and probes are what move
    /// open breakers through half-open back to closed.
    pub fn note_probe(&mut self, container: &str, up: bool) {
        if self.policy.breaker.is_none() {
            return;
        }
        // Serve any elapsed cooldown first: open → half-open.
        let now = self.state.now_tick;
        let transitioned = match self.state.breakers.get_mut(container) {
            Some(record) => {
                let (_, signal) = record.admit(now);
                signal
            }
            None if !up => {
                // First signal we ever see for this container is a down
                // probe: start tracking it.
                self.state
                    .breakers
                    .insert(container.to_string(), BreakerRecord::default());
                None
            }
            None => return,
        };
        self.emit_signal(container, transitioned);
        let state = self
            .state
            .breakers
            .get(container)
            .map(|r| r.state.clone())
            .expect("record exists");
        match (state, up) {
            (BreakerState::HalfOpen, true) => self.record_success(container),
            (BreakerState::HalfOpen, false) | (BreakerState::Closed, false) => {
                self.record_failure(container)
            }
            _ => {}
        }
    }

    // --------------------------------------------------------- backoff

    /// Wait out the backoff before retry number `retry` of `activity`
    /// on `container`: announces `retry.scheduled` and advances the
    /// recovery clock to the resume tick.  `attempt` is the index the
    /// retry's dispatch will carry.
    pub fn schedule_retry(
        &mut self,
        activity: &str,
        service: &str,
        container: &str,
        attempt: usize,
        retry: usize,
    ) {
        let backoff_ticks = self.policy.retry.backoff_ticks(activity, retry);
        let resume_tick = self.state.now_tick.saturating_add(backoff_ticks);
        self.trace.emit(
            SOURCE,
            TraceEvent::RetryScheduled {
                activity: activity.to_string(),
                service: service.to_string(),
                container: container.to_string(),
                attempt,
                backoff_ticks,
                resume_tick,
            },
        );
        self.state.now_tick = resume_tick;
    }

    fn emit_signal(&mut self, container: &str, signal: Option<BreakerSignal>) {
        let Some(signal) = signal else { return };
        let event = match signal {
            BreakerSignal::Opened {
                consecutive_failures,
                until_tick,
            } => TraceEvent::BreakerOpened {
                container: container.to_string(),
                consecutive_failures,
                until_tick,
            },
            BreakerSignal::HalfOpened => TraceEvent::BreakerHalfOpen {
                container: container.to_string(),
            },
            BreakerSignal::Closed => TraceEvent::BreakerClosed {
                container: container.to_string(),
            },
        };
        self.trace.emit(SOURCE, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RecoveryPolicy {
        RecoveryPolicy {
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff_ticks: 2,
                max_backoff_ticks: 16,
                jitter_ticks: 0,
                seed: 1,
            },
            lease: Some(LeaseConfig { lease_ticks: 5 }),
            breaker: Some(BreakerConfig {
                failure_threshold: 2,
                open_ticks: 10,
            }),
        }
    }

    #[test]
    fn default_policy_is_disabled_and_legacy_shaped() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.retry.max_attempts, 1);
        assert!(p.lease.is_none() && p.breaker.is_none());
    }

    #[test]
    fn failures_trip_breaker_and_cooldown_readmits_via_probe() {
        let mut m = RecoveryManager::new(policy());
        assert_eq!(m.admit("c1"), Admission::Allow);
        m.record_failure("c1");
        m.record_failure("c1");
        assert_eq!(m.admit("c1"), Admission::Reject);
        assert_eq!(m.quarantined(), vec!["c1".to_string()]);
        // Serve the cooldown on the recovery clock, then probe.
        m.tick(10);
        m.note_probe("c1", true);
        assert_eq!(m.admit("c1"), Admission::Allow);
        assert!(m.quarantined().is_empty());
    }

    #[test]
    fn down_probe_counts_as_failure_and_reopens_half_open() {
        let mut m = RecoveryManager::new(policy());
        // Unknown healthy container: probes are a no-op.
        m.note_probe("c2", true);
        assert!(m.snapshot().breakers.is_empty());
        // Down probes accrue failures until the breaker trips.
        m.note_probe("c2", false);
        m.note_probe("c2", false);
        assert_eq!(m.admit("c2"), Admission::Reject);
        // Cooldown elapses, but the container is still down: the
        // half-open probe fails and the breaker reopens.
        m.tick(10);
        m.note_probe("c2", false);
        assert_eq!(m.admit("c2"), Admission::Reject);
    }

    #[test]
    fn lease_expiry_is_an_overrun_check() {
        let mut m = RecoveryManager::new(policy());
        assert_eq!(m.grant_lease("A1", "c1"), Some(5));
        assert!(!m.lease_expired("A1", "c1", 5));
        assert!(m.lease_expired("A1", "c1", 6));
        // No lease config → nothing ever expires.
        let mut off = RecoveryManager::new(RecoveryPolicy::disabled());
        assert_eq!(off.grant_lease("A1", "c1"), None);
        assert!(!off.lease_expired("A1", "c1", 10_000));
    }

    #[test]
    fn schedule_retry_drives_the_recovery_clock() {
        let mut m = RecoveryManager::new(policy());
        m.note_execution_seconds(3.2); // → 4 ticks
        assert_eq!(m.snapshot().now_tick, 4);
        // base 2 << 0 = 2 ticks, then 2 << 1 = 4 more.
        m.schedule_retry("A1", "cook", "c1", 1, 1);
        assert_eq!(m.snapshot().now_tick, 6);
        m.schedule_retry("A1", "cook", "c1", 2, 2);
        assert_eq!(m.snapshot().now_tick, 10);
    }

    #[test]
    fn state_round_trips_through_json() {
        let mut m = RecoveryManager::new(policy());
        m.record_failure("c1");
        m.record_failure("c1");
        m.schedule_retry("A1", "cook", "c1", 2, 1);
        let state = m.snapshot();
        let json = serde_json::to_string(&state).unwrap();
        let back: RecoveryState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);
        // Restoring picks up quarantines and the clock exactly.
        let mut restored = RecoveryManager::restore(policy(), back, TraceHandle::none());
        assert_eq!(restored.admit("c1"), Admission::Reject);
        assert_eq!(restored.snapshot().now_tick, 2);
    }
}
