//! # gridflow-agents
//!
//! A lightweight multi-agent substrate, substituting for the Jade
//! framework the paper builds on ("Various services are performed by
//! agents built upon the Jade multi-agent framework", §2).
//!
//! What the GridFlow core services actually need from their agent
//! platform is small and well defined:
//!
//! * **ACL messages** ([`AclMessage`]): typed performatives
//!   (request/inform/agree/refuse/failure/…), a sender, a receiver, a
//!   conversation id for reply correlation, and a JSON payload;
//! * **mailboxes**: each agent consumes messages one at a time from a
//!   private queue (crossbeam channel);
//! * **a platform registry** ([`Directory`]): name → mailbox routing plus
//!   service-type lookup (the equivalent of Jade's AMS/DF; note that the
//!   *paper's* information service is a core service implemented on top
//!   of this substrate, not the substrate registry itself);
//! * **a threaded runtime** ([`AgentRuntime`]): one OS thread per agent,
//!   graceful shutdown, and a synchronous [`RuntimeHandle::request`]
//!   helper for request/reply conversations with timeouts.

#![warn(missing_docs)]

pub mod directory;
pub mod error;
pub mod message;
pub mod net;
pub mod runtime;
pub mod transport;
pub mod wire;

pub use directory::{AgentInfo, Directory};
pub use error::{AgentError, Result};
pub use message::{AclMessage, Performative};
pub use net::{NodeServer, RetryCfg, TcpChannel};
pub use runtime::{Agent, AgentContext, AgentRuntime, RuntimeHandle};
pub use transport::Transport;
pub use wire::Frame;
