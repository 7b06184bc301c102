//! Deterministic failure-policy layer for GridFlow enactment.
//!
//! The paper's §3.3 escalation story — try alternate containers,
//! monitor execution, re-plan when a case cannot proceed — needs a
//! notion of *when to give up on whom*.  This crate supplies that
//! notion as three composable, fully deterministic mechanisms:
//!
//! * [`RetryPolicy`] — bounded attempts with exponential backoff and
//!   *seeded* jitter, measured in virtual-clock ticks (never wall
//!   time), so replays are byte-identical;
//! * activity **leases** ([`LeaseConfig`]) — every dispatched
//!   execution gets a tick deadline; an execution that outlives its
//!   lease counts as a failure and triggers failover;
//! * per-container **circuit breakers** ([`BreakerConfig`],
//!   [`BreakerRecord`]) — closed → open → half-open, fed by execution
//!   outcomes and monitoring probes, quarantining flaky containers
//!   from matchmaking until a half-open probe readmits them.
//!
//! [`RecoveryManager`] binds the three together behind one stateful
//! façade the enactor's dispatch loop drives; each mechanism is a rung
//! that does nothing when its part of the [`RecoveryPolicy`] is absent
//! (`retry.max_attempts: 1`, `lease: None`, `breaker: None`), so one
//! loop serves every policy.  Every decision is announced on the
//! telemetry trace (`retry.scheduled`, `lease.granted`/`lease.expired`,
//! `breaker.opened`/`half_open`/`closed`), making the whole ladder
//! assertable per seed.
//!
//! [`RecoveryState`] — the recovery clock and the breaker records — is
//! the only copy of what the ladder remembers, and serializes into
//! engine snapshots so a crash/recover round-trip preserves quarantines:
//! a lease is an allowance checked when its execution settles, a breaker
//! cooldown is the `until_tick` of its [`BreakerState`], and a backoff
//! wait is over, the clock advanced past it, before the step that
//! scheduled it returns.

#![warn(missing_docs)]

mod breaker;
mod manager;
mod policy;

pub use breaker::{Admission, BreakerConfig, BreakerRecord, BreakerSignal, BreakerState};
pub use manager::{LeaseConfig, RecoveryManager, RecoveryPolicy, RecoveryState};
pub use policy::RetryPolicy;
