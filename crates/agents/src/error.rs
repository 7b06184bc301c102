//! Error type for the agent substrate.

use std::fmt;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, AgentError>;

/// Errors raised by the agent runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AgentError {
    /// No agent with the given name is registered.
    UnknownAgent(String),
    /// An agent with the given name is already registered.
    DuplicateAgent(String),
    /// The target agent's mailbox is closed (agent stopped).
    MailboxClosed(String),
    /// A synchronous request timed out.
    Timeout {
        /// The agent the request was addressed to.
        agent: String,
        /// The timeout that elapsed.
        after_ms: u64,
    },
    /// The peer answered with a `Refuse` or `Failure` performative.
    Refused {
        /// The answering agent.
        agent: String,
        /// The reason carried in the reply content.
        reason: String,
    },
    /// The runtime is already shut down.
    ShutDown,
}

impl fmt::Display for AgentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownAgent(a) => write!(f, "unknown agent `{a}`"),
            Self::DuplicateAgent(a) => write!(f, "agent `{a}` is already registered"),
            Self::MailboxClosed(a) => write!(f, "mailbox of agent `{a}` is closed"),
            Self::Timeout { agent, after_ms } => {
                write!(f, "request to `{agent}` timed out after {after_ms} ms")
            }
            Self::Refused { agent, reason } => {
                write!(f, "agent `{agent}` refused: {reason}")
            }
            Self::ShutDown => write!(f, "agent runtime is shut down"),
        }
    }
}

impl std::error::Error for AgentError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(
            AgentError::UnknownAgent("ps".into()).to_string(),
            "unknown agent `ps`"
        );
        assert!(AgentError::Timeout {
            agent: "bs".into(),
            after_ms: 100
        }
        .to_string()
        .contains("100 ms"));
    }
}
