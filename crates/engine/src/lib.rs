//! Concurrent multi-case enactment for the GridFlow stack.
//!
//! The paper's coordination services "act as proxies for the end-user"
//! — plural: a grid hosts many end-users at once, so many cases enact
//! concurrently over the *same* containers, competing for the same
//! capacity.  The seed repo's [`gridflow_services::Enactor`] drives one
//! case to completion; this crate adds the missing layer above it.
//!
//! [`CaseScheduler`] interleaves N resumable
//! [`gridflow_services::CaseFiber`]s over one shared
//! [`gridflow_services::GridWorld`] in discrete *virtual ticks*.  Each
//! tick every live case advances by at most one activity; tick-scoped
//! container reservations arbitrate contention (a case that finds every
//! candidate reserved is *blocked*, not failed, and retries next tick);
//! admission control re-uses the matchmaking service to refuse cases no
//! live container can serve.
//!
//! Determinism is the design constraint, not an afterthought: there is
//! one tick loop, stepping is single-threaded, and world state always
//! commits in a canonical rotated order that is a pure function of the
//! tick.  Every live fiber is stepped every tick; a blocked fiber keeps
//! its own cache of the dispatch it is waiting on, so its re-step is a
//! contention re-check rather than a re-derivation.  A given seed
//! produces a byte-identical merged JSONL trace on every run — the
//! invariant the engine conformance suite pins, and `trace_golden`
//! pins across commits.

#![warn(missing_docs)]

mod durable;
pub mod policy;
pub mod scheduler;
pub mod snapshot;

pub use policy::{CaseHints, PolicySpec};
pub use scheduler::{
    CaseOutcome, CaseScheduler, CaseSpec, EngineConfig, EngineOutcome, StoreBinding,
};
pub use snapshot::{
    CaseBlueprint, EngineSnapshot, FinishedImage, SlotImage, WaitingImage, ENGINE_SNAPSHOT_VERSION,
};
