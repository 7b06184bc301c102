//! # gridflow-grid
//!
//! A simulated computational grid — the substrate substituting for the
//! physical testbed of the paper (§1 motivates it: a "resource-rich …
//! highly heterogeneous" environment where "a PC cluster with a switch
//! with high latency and low bandwidth will be a poor choice" for fine-
//! grain parallel computations, nodes fail, and resources trade on spot
//! markets with hot-spot contention).
//!
//! The crate provides:
//!
//! * [`hardware`] — hardware characteristics (CPU speed, memory,
//!   interconnect bandwidth/latency) with heterogeneous presets;
//! * [`resource`] — resources (clusters, workstations, supercomputers,
//!   storage sites) with administrative domains, reliability, cost, and
//!   the *equivalence classes* brokers group them into;
//! * [`container`] — application containers hosting end-user services,
//!   with failure/recovery state;
//! * [`workload`] — the execution-cost model mapping a task's
//!   computational demand onto a resource (compute + communication +
//!   data-staging time);
//! * [`failure`] — seeded stochastic failure models and deterministic
//!   failure injection;
//! * [`transform`] — the migration transformations of §1 (compression,
//!   encryption, byte swapping) with their cost model;
//! * [`market`] — the spot market: offers, load-dependent pricing,
//!   advance reservations (optionally at prohibitive cost, as §1 warns);
//! * [`sim`] — a small discrete-event engine driving all of the above;
//! * [`topology`] — seeded generators for heterogeneous grid topologies.

#![warn(missing_docs)]

pub mod container;
pub mod error;
pub mod failure;
pub mod hardware;
pub mod market;
pub mod resource;
pub mod sim;
pub mod topology;
pub mod transform;
pub mod workload;

pub use container::ApplicationContainer;
pub use error::{GridError, Result};
pub use failure::FailureModel;
pub use hardware::HardwareSpec;
pub use market::{Offer, SpotMarket};
pub use resource::{Resource, ResourceKind};
pub use sim::{Event, SimEngine, SimTime};
pub use topology::GridTopology;
pub use transform::{Transform, TransformPlan};
pub use workload::{ExecutionEstimate, TaskDemand};
