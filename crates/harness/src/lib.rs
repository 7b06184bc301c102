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
//! * **node loss** — scripted container downs at chosen execution
//!   counts;
//! * **coordinator crashes** — the run is cut at a chosen
//!   [`EnactmentCheckpoint`] (round-tripped through its serialized form,
//!   as a real restart would read it from persistent storage) and
//!   resumed via [`Enactor::resume`].
//!
//! The [`runner`] unfolds a `(FaultPlan, Workload)` pair through crash
//! and resume phases; every phase is a pure function of the pair plus
//! the phase index, so two runs of the same pair produce byte-identical
//! [`EnactmentReport`]s ([`report_fingerprint`]) while different seeds
//! produce different fault schedules ([`FaultyTransport::schedule`]).
//!
//! Every layer also mirrors what it does into the telemetry crate:
//! [`Scenario::traced`] returns a [`TraceLog`] whose JSONL dump is
//! itself byte-identical across replays, and [`TraceQuery`] turns that
//! log into conformance assertions (no double dispatch, drops resolved,
//! happens-before).  [`multi::MultiCaseScenario`] lifts the same
//! machinery to N concurrent cases driven by the
//! `gridflow-engine` scheduler over one shared world.
//!
//! ```
//! use gridflow_harness::{run_scenario, outcome_fingerprint, FaultPlan};
//! use gridflow_harness::workload::dinner_workload;
//!
//! let plan = FaultPlan::seeded(42).failing_activities(0.2).crashing_after(0);
//! let first = run_scenario(&plan, &dinner_workload());
//! let again = run_scenario(&plan, &dinner_workload());
//! assert_eq!(outcome_fingerprint(&first), outcome_fingerprint(&again));
//! assert!(first.is_recoverable());
//! ```
//!
//! [`EnactmentCheckpoint`]: gridflow_services::coordination::EnactmentCheckpoint
//! [`EnactmentReport`]: gridflow_services::coordination::EnactmentReport
//! [`Enactor::resume`]: gridflow_services::coordination::Enactor::resume

#![warn(missing_docs)]

pub mod clock;
pub mod multi;
pub mod plan;
pub mod runner;
pub mod transport;
pub mod workload;

pub use clock::VirtualClock;
pub use multi::MultiCaseScenario;
pub use plan::{
    FaultAction, FaultEvent, FaultPlan, FaultSchedule, NodeLoss, PartitionSpec, Slowdown,
};
pub use runner::{
    execution_counts, is_execution_prefix, outcome_fingerprint, report_fingerprint, run_scenario,
    Scenario, ScenarioOutcome,
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
