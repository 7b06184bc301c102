//! ACL messages exchanged between agents (FIPA-ACL-style, as Jade uses).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The communicative act of a message (the useful subset of FIPA-ACL).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Performative {
    /// Ask the receiver to perform an action.
    Request,
    /// Provide information (also used for replies carrying results).
    Inform,
    /// Ask for the value matching a query.
    QueryRef,
    /// Accept a request.
    Agree,
    /// Decline a request.
    Refuse,
    /// Report that an accepted action failed.
    Failure,
    /// Register interest in future events.
    Subscribe,
    /// Acknowledge without content.
    Confirm,
}

impl fmt::Display for Performative {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Performative::Request => "request",
            Performative::Inform => "inform",
            Performative::QueryRef => "query-ref",
            Performative::Agree => "agree",
            Performative::Refuse => "refuse",
            Performative::Failure => "failure",
            Performative::Subscribe => "subscribe",
            Performative::Confirm => "confirm",
        };
        f.write_str(s)
    }
}

static NEXT_MESSAGE_ID: AtomicU64 = AtomicU64::new(1);

/// One message.  `content` is a JSON document; the `ontology` field names
/// the vocabulary it uses (e.g. `"planning"`, `"brokerage"`), mirroring
/// the paper's emphasis that agents interoperate through shared
/// ontologies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AclMessage {
    /// Globally unique message id.
    pub id: u64,
    /// The communicative act.
    pub performative: Performative,
    /// Sending agent name.
    pub sender: String,
    /// Receiving agent name.
    pub receiver: String,
    /// For replies: the id of the message being answered.
    pub in_reply_to: Option<u64>,
    /// Vocabulary of the content.
    pub ontology: String,
    /// JSON payload.
    pub content: serde_json::Value,
}

impl AclMessage {
    /// Build a new message with a fresh id.
    pub fn new(
        performative: Performative,
        sender: impl Into<String>,
        receiver: impl Into<String>,
        ontology: impl Into<String>,
        content: serde_json::Value,
    ) -> Self {
        AclMessage {
            id: NEXT_MESSAGE_ID.fetch_add(1, Ordering::Relaxed),
            performative,
            sender: sender.into(),
            receiver: receiver.into(),
            in_reply_to: None,
            ontology: ontology.into(),
            content,
        }
    }

    /// Build a reply to this message (receiver ← sender swapped, reply
    /// correlation set, same ontology).
    pub fn reply(&self, performative: Performative, content: serde_json::Value) -> AclMessage {
        AclMessage {
            id: NEXT_MESSAGE_ID.fetch_add(1, Ordering::Relaxed),
            performative,
            sender: self.receiver.clone(),
            receiver: self.sender.clone(),
            in_reply_to: Some(self.id),
            ontology: self.ontology.clone(),
            content,
        }
    }

    /// Is this a terminal negative answer (refuse/failure)?
    pub fn is_negative(&self) -> bool {
        matches!(
            self.performative,
            Performative::Refuse | Performative::Failure
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn ids_are_unique_and_increasing() {
        let a = AclMessage::new(Performative::Request, "a", "b", "t", json!({}));
        let b = AclMessage::new(Performative::Request, "a", "b", "t", json!({}));
        assert!(b.id > a.id);
    }

    #[test]
    fn reply_swaps_endpoints_and_correlates() {
        let req = AclMessage::new(
            Performative::Request,
            "coordination",
            "planning",
            "planning",
            json!({"goal": "Resolution File"}),
        );
        let rep = req.reply(Performative::Inform, json!({"plan": "…"}));
        assert_eq!(rep.sender, "planning");
        assert_eq!(rep.receiver, "coordination");
        assert_eq!(rep.in_reply_to, Some(req.id));
        assert_eq!(rep.ontology, "planning");
    }

    #[test]
    fn negative_performatives() {
        let m = AclMessage::new(Performative::Refuse, "a", "b", "t", json!({}));
        assert!(m.is_negative());
        let m = AclMessage::new(Performative::Inform, "a", "b", "t", json!({}));
        assert!(!m.is_negative());
    }

    #[test]
    fn display_performative() {
        assert_eq!(Performative::QueryRef.to_string(), "query-ref");
    }
}
