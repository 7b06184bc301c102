//! Deterministic telemetry for the GridFlow stack.
//!
//! The paper's architecture pairs a *monitoring service* ("to monitor
//! the status of the system") with an *information service* that
//! archives execution records.  This crate is the recording half of
//! that pair, built for testability first: every layer of the stack —
//! the agent substrate, the coordination enactor, the GP planner, the
//! fault-injection harness — reports typed [`TraceEvent`]s into a
//! shared [`TraceSink`], producing one ordered log of *what actually
//! happened* during an enactment.
//!
//! Three properties make the log useful for deterministic-simulation
//! testing rather than just debugging:
//!
//! - **Virtual time only.**  Records are stamped from a [`TraceClock`]
//!   (the harness's virtual clock) — a `(tick, seconds)` pair advanced
//!   by simulated message traffic and simulated execution durations.
//!   Wall-clock never appears, so a seeded scenario run twice yields
//!   byte-identical [`TraceLog::to_jsonl`] dumps.
//! - **Typed events, ordered log.**  Each [`TraceRecord`] carries a
//!   per-log sequence number; causality assertions reduce to integer
//!   comparisons over one stream.
//! - **Trace-then-assert.**  [`TraceQuery`] turns the log into
//!   execution invariants (no double dispatch, across a crash and
//!   recovery included; every drop resolved by timeout-or-retry;
//!   happens-before edges; retry counts — [`TraceQuery::check_all`]
//!   checks every whole-trace one in a single walk over the log), and
//!   [`MetricsRegistry`] folds it into counters and virtual-time
//!   latency histograms for the monitoring service.
//!
//! Determinism scope: byte-identical replay holds on the
//! single-threaded engine path.  The live agent stack is
//! multi-threaded and draws message ids from a process-global counter,
//! so its traces support invariant assertions but not byte equality.

#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod query;
pub mod sink;

pub use event::{Label, TraceEvent, TraceRecord};
pub use metrics::{Histogram, MetricsRegistry, LATENCY_BUCKETS_S};
pub use query::{AdmissionRecord, TraceQuery, TraceViolation};
pub use sink::{FrozenClock, ScopedSink, TraceClock, TraceHandle, TraceLog, TraceSink, TraceSlot};
