//! The platform registry: name → mailbox routing and service-type lookup.
//!
//! This is the substrate-level equivalent of Jade's AMS/DF.  The paper's
//! *information service* — where core and end-user services register
//! their offerings — is a core service implemented *on top of* this
//! registry in `gridflow-services`; the directory here only provides
//! transport-level routing.

use crate::error::{AgentError, Result};
use crate::message::AclMessage;
use crate::transport::{Transport, TransportSlot};
use crossbeam_channel::Sender;
use gridflow_telemetry::{TraceEvent, TraceSink, TraceSlot};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Control messages delivered to an agent thread.
#[derive(Debug, Clone)]
pub enum Control {
    /// Deliver an ACL message.
    Deliver(AclMessage),
    /// Stop the agent thread.
    Stop,
}

/// Registration record of one agent.
#[derive(Clone)]
pub struct AgentInfo {
    /// Unique agent name.
    pub name: String,
    /// Service type exposed by the agent (e.g. `"planning"`).
    pub service_type: String,
    /// Mailbox sender.
    pub mailbox: Sender<Control>,
}

impl std::fmt::Debug for AgentInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AgentInfo")
            .field("name", &self.name)
            .field("service_type", &self.service_type)
            .finish()
    }
}

/// Thread-safe agent registry.
#[derive(Debug, Default, Clone)]
pub struct Directory {
    inner: Arc<RwLock<BTreeMap<String, AgentInfo>>>,
    transport: TransportSlot,
    trace: TraceSlot,
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an agent; names must be unique.
    pub fn register(&self, info: AgentInfo) -> Result<()> {
        let mut map = self.inner.write();
        if map.contains_key(&info.name) {
            return Err(AgentError::DuplicateAgent(info.name));
        }
        map.insert(info.name.clone(), info);
        Ok(())
    }

    /// Remove an agent's registration.
    pub fn deregister(&self, name: &str) -> Result<AgentInfo> {
        self.inner
            .write()
            .remove(name)
            .ok_or_else(|| AgentError::UnknownAgent(name.to_owned()))
    }

    /// Look up an agent by name.
    pub fn lookup(&self, name: &str) -> Result<AgentInfo> {
        self.inner
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| AgentError::UnknownAgent(name.to_owned()))
    }

    /// All agents exposing the given service type, in name order.
    pub fn find_by_type(&self, service_type: &str) -> Vec<AgentInfo> {
        self.inner
            .read()
            .values()
            .filter(|a| a.service_type == service_type)
            .cloned()
            .collect()
    }

    /// Names of all registered agents, in order.
    pub fn names(&self) -> Vec<String> {
        self.inner.read().keys().cloned().collect()
    }

    /// Number of registered agents.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Is the directory empty?
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Install a [`Transport`] that intercepts every delivered message.
    /// Replaces any previous transport.  Clones of this directory share
    /// the installation.
    pub fn set_transport(&self, transport: Arc<dyn Transport>) {
        self.transport.set(transport);
    }

    /// Remove the installed transport; routing becomes direct again.
    pub fn clear_transport(&self) {
        self.transport.clear();
    }

    /// Install a [`TraceSink`] that observes every delivery: a
    /// `MessageSent` event as a message enters [`Directory::deliver`]
    /// and a `MessageDelivered` event per message that reaches a
    /// mailbox.  Clones of this directory share the installation.
    pub fn set_trace_sink(&self, sink: Arc<dyn TraceSink>) {
        self.trace.set(sink);
    }

    /// Route a message to its receiver's mailbox, passing it through the
    /// installed [`Transport`] first (if any).  A transport may expand
    /// one message into zero (drop — still `Ok`: a lost datagram, not an
    /// addressing error) or several (duplicates, or the release of
    /// previously delayed traffic); each surviving message is routed to
    /// its own receiver.
    pub fn deliver(&self, msg: AclMessage) -> Result<()> {
        self.trace.emit(
            "directory",
            TraceEvent::MessageSent {
                id: msg.id,
                performative: msg.performative.to_string(),
                sender: msg.sender.clone(),
                receiver: msg.receiver.clone(),
                in_reply_to: msg.in_reply_to,
            },
        );
        match self.transport.get() {
            None => self.route(msg),
            Some(t) => {
                for out in t.intercept(msg) {
                    self.route(out)?;
                }
                Ok(())
            }
        }
    }

    /// Direct mailbox routing, bypassing any installed transport.
    pub fn route(&self, msg: AclMessage) -> Result<()> {
        let info = self.lookup(&msg.receiver)?;
        let (id, receiver) = (msg.id, msg.receiver.clone());
        info.mailbox
            .send(Control::Deliver(msg))
            .map_err(|_| AgentError::MailboxClosed(info.name.clone()))?;
        self.trace
            .emit("directory", TraceEvent::MessageDelivered { id, receiver });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Performative;
    use crossbeam_channel::unbounded;
    use serde_json::json;

    fn info(name: &str, service_type: &str) -> (AgentInfo, crossbeam_channel::Receiver<Control>) {
        let (tx, rx) = unbounded();
        (
            AgentInfo {
                name: name.into(),
                service_type: service_type.into(),
                mailbox: tx,
            },
            rx,
        )
    }

    #[test]
    fn register_lookup_deregister() {
        let dir = Directory::new();
        let (a, _rx) = info("planner-1", "planning");
        dir.register(a).unwrap();
        assert_eq!(dir.len(), 1);
        assert_eq!(dir.lookup("planner-1").unwrap().service_type, "planning");
        dir.deregister("planner-1").unwrap();
        assert!(dir.is_empty());
        assert!(matches!(
            dir.lookup("planner-1"),
            Err(AgentError::UnknownAgent(_))
        ));
    }

    #[test]
    fn duplicate_names_rejected() {
        let dir = Directory::new();
        let (a, _rxa) = info("x", "t");
        let (b, _rxb) = info("x", "t");
        dir.register(a).unwrap();
        assert!(matches!(
            dir.register(b),
            Err(AgentError::DuplicateAgent(_))
        ));
    }

    #[test]
    fn find_by_type_filters() {
        let dir = Directory::new();
        let (a, _r1) = info("broker-1", "brokerage");
        let (b, _r2) = info("broker-2", "brokerage");
        let (c, _r3) = info("planner-1", "planning");
        dir.register(a).unwrap();
        dir.register(b).unwrap();
        dir.register(c).unwrap();
        let brokers = dir.find_by_type("brokerage");
        assert_eq!(brokers.len(), 2);
        assert_eq!(brokers[0].name, "broker-1");
        assert!(dir.find_by_type("nothing").is_empty());
    }

    #[test]
    fn deliver_routes_to_mailbox() {
        let dir = Directory::new();
        let (a, rx) = info("target", "t");
        dir.register(a).unwrap();
        let msg = AclMessage::new(Performative::Inform, "src", "target", "t", json!(1));
        dir.deliver(msg.clone()).unwrap();
        match rx.try_recv().unwrap() {
            Control::Deliver(got) => assert_eq!(got, msg),
            other => panic!("expected Deliver, got {other:?}"),
        }
    }

    #[test]
    fn deliver_to_unknown_fails() {
        let dir = Directory::new();
        let msg = AclMessage::new(Performative::Inform, "src", "ghost", "t", json!(1));
        assert!(matches!(dir.deliver(msg), Err(AgentError::UnknownAgent(_))));
    }

    /// Drops every message whose content is the number 13, duplicates
    /// messages whose content is 2, passes everything else through.
    struct SuperstitiousTransport;

    impl crate::transport::Transport for SuperstitiousTransport {
        fn intercept(&self, msg: AclMessage) -> Vec<AclMessage> {
            if msg.content == json!(13) {
                vec![]
            } else if msg.content == json!(2) {
                vec![msg.clone(), msg]
            } else {
                vec![msg]
            }
        }
    }

    #[test]
    fn transport_can_drop_and_duplicate() {
        let dir = Directory::new();
        let (a, rx) = info("target", "t");
        dir.register(a).unwrap();
        dir.set_transport(Arc::new(SuperstitiousTransport));
        let send = |n: i64| {
            dir.deliver(AclMessage::new(
                Performative::Inform,
                "src",
                "target",
                "t",
                json!(n),
            ))
        };
        // Dropped message: delivery still reports Ok.
        send(13).unwrap();
        assert!(rx.try_recv().is_err(), "dropped message must not arrive");
        // Duplicated message arrives twice.
        send(2).unwrap();
        assert!(matches!(rx.try_recv().unwrap(), Control::Deliver(m) if m.content == json!(2)));
        assert!(matches!(rx.try_recv().unwrap(), Control::Deliver(m) if m.content == json!(2)));
        assert!(rx.try_recv().is_err());
        // Clearing the transport restores direct delivery.
        dir.clear_transport();
        send(13).unwrap();
        assert!(matches!(rx.try_recv().unwrap(), Control::Deliver(m) if m.content == json!(13)));
    }

    #[test]
    fn transport_is_shared_across_directory_clones() {
        let dir = Directory::new();
        let clone = dir.clone();
        let (a, rx) = info("target", "t");
        dir.register(a).unwrap();
        clone.set_transport(Arc::new(SuperstitiousTransport));
        // Installed via the clone, observed via the original.
        dir.deliver(AclMessage::new(
            Performative::Inform,
            "src",
            "target",
            "t",
            json!(13),
        ))
        .unwrap();
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn route_bypasses_the_transport() {
        let dir = Directory::new();
        let (a, rx) = info("target", "t");
        dir.register(a).unwrap();
        dir.set_transport(Arc::new(SuperstitiousTransport));
        dir.route(AclMessage::new(
            Performative::Inform,
            "src",
            "target",
            "t",
            json!(13),
        ))
        .unwrap();
        assert!(matches!(rx.try_recv().unwrap(), Control::Deliver(m) if m.content == json!(13)));
    }

    #[test]
    fn trace_sink_sees_sent_and_delivered_with_correlation() {
        use gridflow_telemetry::{TraceEvent, TraceLog};
        let dir = Directory::new();
        let (a, rx) = info("target", "t");
        let (b, _src_rx) = info("src", "t");
        dir.register(a).unwrap();
        dir.register(b).unwrap();
        let log = TraceLog::new();
        dir.set_trace_sink(Arc::new(log.clone()));

        let req = AclMessage::new(Performative::Request, "src", "target", "t", json!(1));
        let reply = req.reply(Performative::Inform, json!(2));
        dir.deliver(req.clone()).unwrap();
        dir.deliver(reply.clone()).unwrap();
        let _ = rx.try_recv();
        let _ = rx.try_recv();

        let recs = log.records();
        assert_eq!(recs.len(), 4, "sent+delivered per message");
        match &recs[0].event {
            TraceEvent::MessageSent {
                id, in_reply_to, ..
            } => {
                assert_eq!(*id, req.id);
                assert_eq!(*in_reply_to, None);
            }
            other => panic!("expected MessageSent, got {other:?}"),
        }
        match &recs[2].event {
            TraceEvent::MessageSent { in_reply_to, .. } => {
                assert_eq!(*in_reply_to, Some(req.id), "reply correlates to request");
            }
            other => panic!("expected MessageSent, got {other:?}"),
        }
        assert!(matches!(
            &recs[1].event,
            TraceEvent::MessageDelivered { id, .. } if *id == req.id
        ));
    }

    #[test]
    fn dropped_messages_are_sent_but_not_delivered_in_the_trace() {
        use gridflow_telemetry::{TraceEvent, TraceLog};
        let dir = Directory::new();
        let (a, _rx) = info("target", "t");
        dir.register(a).unwrap();
        dir.set_transport(Arc::new(SuperstitiousTransport));
        let log = TraceLog::new();
        dir.set_trace_sink(Arc::new(log.clone()));

        dir.deliver(AclMessage::new(
            Performative::Inform,
            "src",
            "target",
            "t",
            json!(13), // dropped by the transport
        ))
        .unwrap();
        let recs = log.records();
        assert_eq!(recs.len(), 1);
        assert!(matches!(recs[0].event, TraceEvent::MessageSent { .. }));
    }

    #[test]
    fn deliver_to_closed_mailbox_fails() {
        let dir = Directory::new();
        let (a, rx) = info("gone", "t");
        dir.register(a).unwrap();
        drop(rx);
        let msg = AclMessage::new(Performative::Inform, "src", "gone", "t", json!(1));
        assert!(matches!(
            dir.deliver(msg),
            Err(AgentError::MailboxClosed(_))
        ));
    }
}
