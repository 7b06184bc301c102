//! # gridflow-harness
//!
//! A deterministic simulation-testing (DST) harness for the GridFlow
//! core-service stack.
//!
//! §1 of the paper puts recovery front and centre: "the ability to
//! recover from errors caused by the failure of individual nodes is a
//! critical aspect for the execution of complex tasks."  This crate
//! makes those failures *reproducible*: a seeded [`FaultPlan`] scripts
//! everything that goes wrong in a run —
//!
//! * **message faults** — a [`FaultyTransport`] installed on the agent
//!   runtime's directory drops, duplicates, delays and reorders ACL
//!   messages under a [`VirtualClock`] (one tick per message, never wall
//!   time);
//! * **activity failures** — Bernoulli per-execution failures through
//!   [`gridflow_grid::failure::FailureModel`], transient or persistent;
//! * **node loss and partitions** — scripted container downs at chosen
//!   execution counts, and node-pair cuts over tick windows;
//! * **process death** — [`MultiCaseScenario::kill_at`] stops the run
//!   dead at a tick boundary and [`MultiCaseScenario::recover`] resumes
//!   it from the durable store, the one definition of what survives a
//!   crash.
//!
//! A scenario is a [`MultiCaseScenario`]: N concurrent copies of a
//! workload's case (one included) driven by the `gridflow-engine`
//! scheduler over one shared world.  The run is a pure function of
//! `(plan, workload, case count)`, so two runs produce byte-identical
//! [`EnactmentReport`]s and a byte-identical merged [`TraceLog`], while
//! different seeds produce different fault schedules
//! ([`FaultyTransport::schedule`]).  [`TraceQuery::check_all`] turns the
//! log into conformance checks (no double dispatch, breaker discipline,
//! drops resolved, no double booking).
//!
//! ```
//! use gridflow_harness::workload::dinner_workload;
//! use gridflow_harness::{FaultPlan, MultiCaseScenario};
//!
//! let plan = FaultPlan::seeded(42).failing_activities(0.2);
//! let wl = dinner_workload();
//! let first = MultiCaseScenario::new(&plan, &wl, 1).traced().run();
//! let again = MultiCaseScenario::new(&plan, &wl, 1).traced().run();
//! assert_eq!(first.engine, again.engine);
//! assert_eq!(
//!     first.trace.unwrap().to_jsonl(),
//!     again.trace.unwrap().to_jsonl()
//! );
//! ```
//!
//! [`EnactmentReport`]: gridflow_services::coordination::EnactmentReport

#![warn(missing_docs)]

pub mod clock;
pub mod multi;
pub mod plan;
pub mod transport;
pub mod workload;

pub use clock::VirtualClock;
pub use multi::MultiCaseScenario;
pub use plan::{
    FaultAction, FaultEvent, FaultPlan, FaultSchedule, NodeLoss, PartitionSpec, Slowdown,
};
pub use transport::FaultyTransport;
pub use workload::{dinner_workload, Workload};

// The telemetry surface tests lean on, re-exported so harness consumers
// need only one crate in scope.
pub use gridflow_telemetry::{
    MetricsRegistry, TraceEvent, TraceHandle, TraceLog, TraceQuery, TraceRecord, TraceSink,
    TraceViolation,
};

// The recovery surface the fault scenarios configure, re-exported for
// the same reason.
pub use gridflow_recovery::{
    BreakerConfig, BreakerState, LeaseConfig, RecoveryPolicy, RetryPolicy,
};
