//! The threaded agent runtime: one OS thread per agent, a shared
//! directory for routing, and a synchronous request/reply helper for
//! external drivers.

use crate::directory::{AgentInfo, Control, Directory};
use crate::error::{AgentError, Result};
use crate::message::{AclMessage, Performative};
use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Behaviour of one agent.  Implementations consume messages one at a
/// time; replies and outbound messages go through the [`AgentContext`].
pub trait Agent: Send + 'static {
    /// Unique agent name (e.g. `"coordination-1"`).
    fn name(&self) -> String;
    /// Service type for directory lookup (e.g. `"coordination"`).
    fn service_type(&self) -> String;
    /// Handle one incoming message.
    fn handle(&mut self, msg: AclMessage, ctx: &AgentContext);
    /// Called once after registration, before any message.
    fn on_start(&mut self, _ctx: &AgentContext) {}
}

/// The capabilities an agent sees while handling a message.
pub struct AgentContext {
    directory: Directory,
    agent_name: String,
    /// A clone of the agent's own mailbox receiver (crossbeam channels
    /// are MPMC), used by [`AgentContext::request_and_wait`].
    own_rx: Receiver<Control>,
    /// Messages consumed while waiting for a correlated reply; the agent
    /// loop drains these before blocking on the mailbox again.
    pending: std::cell::RefCell<std::collections::VecDeque<AclMessage>>,
    /// Set when a `Stop` control was consumed during a synchronous wait;
    /// the agent loop honours it on return.
    stopped: std::cell::Cell<bool>,
}

impl AgentContext {
    /// The shared directory (lookup by name or service type).
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Send a message (sender is forced to the running agent).
    pub fn send(&self, mut msg: AclMessage) -> Result<()> {
        msg.sender = self.agent_name.clone();
        self.directory.deliver(msg)
    }

    /// Reply to `original` with the given performative and content.
    pub fn reply(
        &self,
        original: &AclMessage,
        performative: Performative,
        content: serde_json::Value,
    ) -> Result<()> {
        let mut rep = original.reply(performative, content);
        rep.sender = self.agent_name.clone();
        self.directory.deliver(rep)
    }

    /// Build and send a fresh request to `receiver`.
    pub fn request(
        &self,
        receiver: impl Into<String>,
        ontology: impl Into<String>,
        content: serde_json::Value,
    ) -> Result<u64> {
        let msg = AclMessage::new(
            Performative::Request,
            self.agent_name.clone(),
            receiver,
            ontology,
            content,
        );
        let id = msg.id;
        self.directory.deliver(msg)?;
        Ok(id)
    }

    /// Send a `Request` and block *inside the handler* until the
    /// correlated reply arrives (or `timeout` elapses).  Unrelated
    /// messages received while waiting are buffered and handled by the
    /// agent loop afterwards, in arrival order.
    ///
    /// Deadlock note: two agents synchronously requesting each other wait
    /// out their timeouts; keep synchronous conversations acyclic (the
    /// Fig. 2/3 flows are).
    pub fn request_and_wait(
        &self,
        receiver: impl Into<String>,
        ontology: impl Into<String>,
        content: serde_json::Value,
        timeout: std::time::Duration,
    ) -> Result<AclMessage> {
        let receiver = receiver.into();
        let id = self.request(&receiver, ontology, content)?;
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Err(AgentError::Timeout {
                    agent: receiver,
                    after_ms: timeout.as_millis() as u64,
                });
            }
            match self.own_rx.recv_timeout(remaining) {
                Ok(Control::Deliver(msg)) => {
                    if msg.in_reply_to == Some(id) {
                        if msg.is_negative() {
                            let reason = msg
                                .content
                                .get("reason")
                                .and_then(|v| v.as_str())
                                .unwrap_or("unspecified")
                                .to_owned();
                            return Err(AgentError::Refused {
                                agent: receiver,
                                reason,
                            });
                        }
                        return Ok(msg);
                    }
                    self.pending.borrow_mut().push_back(msg);
                }
                Ok(Control::Stop) => {
                    self.stopped.set(true);
                    return Err(AgentError::ShutDown);
                }
                Err(_) => {
                    return Err(AgentError::Timeout {
                        agent: receiver,
                        after_ms: timeout.as_millis() as u64,
                    })
                }
            }
        }
    }

    /// Pop a message buffered during a synchronous wait (used by the
    /// agent loop).
    fn next_pending(&self) -> Option<AclMessage> {
        self.pending.borrow_mut().pop_front()
    }
}

/// The runtime: owns agent threads and the shared directory.
pub struct AgentRuntime {
    directory: Directory,
    threads: Vec<(String, JoinHandle<()>)>,
    client_counter: u64,
}

impl AgentRuntime {
    /// A fresh runtime with an empty directory.
    pub fn new() -> Self {
        AgentRuntime {
            directory: Directory::new(),
            threads: Vec::new(),
            client_counter: 0,
        }
    }

    /// The shared directory.
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Install a [`crate::Transport`] on the shared directory: every
    /// message any agent sends through this runtime is intercepted.
    /// Used by fault-injection harnesses; production stacks install
    /// none.
    pub fn set_transport(&self, transport: Arc<dyn crate::Transport>) {
        self.directory.set_transport(transport);
    }

    /// Install a trace sink on the shared directory: every message any
    /// agent sends through this runtime is recorded (sent + delivered
    /// events with correlation ids).
    pub fn set_trace_sink(&self, sink: Arc<dyn gridflow_telemetry::TraceSink>) {
        self.directory.set_trace_sink(sink);
    }

    /// Spawn an agent on its own thread and register it.  Returns once
    /// the agent's [`Agent::on_start`] has run, so nothing the caller
    /// does next can race it.
    pub fn spawn<A: Agent>(&mut self, mut agent: A) -> Result<()> {
        let name = agent.name();
        let service_type = agent.service_type();
        let (tx, rx): (Sender<Control>, Receiver<Control>) = unbounded();
        self.directory.register(AgentInfo {
            name: name.clone(),
            service_type,
            mailbox: tx,
        })?;
        let ctx = AgentContext {
            directory: self.directory.clone(),
            agent_name: name.clone(),
            own_rx: rx.clone(),
            pending: std::cell::RefCell::new(std::collections::VecDeque::new()),
            stopped: std::cell::Cell::new(false),
        };
        let thread_name = name.clone();
        let (started, on_started) = crossbeam_channel::bounded::<()>(0);
        let handle = std::thread::Builder::new()
            .name(thread_name.clone())
            .spawn(move || {
                agent.on_start(&ctx);
                drop(started);
                loop {
                    // Drain messages buffered by request_and_wait first.
                    while let Some(msg) = ctx.next_pending() {
                        agent.handle(msg, &ctx);
                    }
                    if ctx.stopped.get() {
                        break;
                    }
                    match rx.recv() {
                        Ok(Control::Deliver(msg)) => agent.handle(msg, &ctx),
                        Ok(Control::Stop) | Err(_) => break,
                    }
                }
            })
            .expect("failed to spawn agent thread");
        // Nothing is ever sent: the receive ends when the thread drops
        // its end, after `on_start` returns (or unwinds — that panic
        // surfaces when the thread is joined).
        let _ = on_started.recv();
        self.threads.push((name, handle));
        Ok(())
    }

    /// Create a synchronous client handle: a pseudo-agent that can send
    /// requests and block on the correlated replies.  Used by the user
    /// interface and by tests.
    pub fn client(&mut self, label: &str) -> Result<RuntimeHandle> {
        self.client_counter += 1;
        let name = format!("client-{label}-{}", self.client_counter);
        let (tx, rx) = unbounded();
        self.directory.register(AgentInfo {
            name: name.clone(),
            service_type: "client".into(),
            mailbox: tx,
        })?;
        Ok(RuntimeHandle {
            name,
            directory: self.directory.clone(),
            inbox: rx,
            pending: Arc::new(Mutex::new(BTreeMap::new())),
        })
    }

    /// Stop one agent by name: deliver `Stop`, join its thread, and
    /// remove it from the directory.  Used to exercise replica failover
    /// (core services "are replicated to ensure an adequate level of
    /// performance and reliability").
    pub fn stop_agent(&mut self, name: &str) -> Result<()> {
        let info = self.directory.lookup(name)?;
        let _ = info.mailbox.send(Control::Stop);
        if let Some(pos) = self.threads.iter().position(|(n, _)| n == name) {
            let (_, handle) = self.threads.remove(pos);
            let _ = handle.join();
        }
        let _ = self.directory.deregister(name);
        Ok(())
    }

    /// Stop all agents and join their threads.
    pub fn shutdown(&mut self) {
        for (name, _) in &self.threads {
            if let Ok(info) = self.directory.lookup(name) {
                let _ = info.mailbox.send(Control::Stop);
            }
        }
        for (name, handle) in self.threads.drain(..) {
            let _ = handle.join();
            let _ = self.directory.deregister(&name);
        }
    }
}

impl Default for AgentRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for AgentRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A synchronous client endpoint registered in the directory.
pub struct RuntimeHandle {
    name: String,
    directory: Directory,
    inbox: Receiver<Control>,
    /// Replies that arrived while waiting for a different conversation.
    pending: Arc<Mutex<BTreeMap<u64, AclMessage>>>,
}

impl RuntimeHandle {
    /// The client's directory name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared directory.
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Fire-and-forget send.
    pub fn send(
        &self,
        receiver: impl Into<String>,
        performative: Performative,
        ontology: impl Into<String>,
        content: serde_json::Value,
    ) -> Result<u64> {
        let msg = AclMessage::new(performative, self.name.clone(), receiver, ontology, content);
        let id = msg.id;
        self.directory.deliver(msg)?;
        Ok(id)
    }

    /// Send a `Request` and block until the correlated reply arrives (or
    /// the timeout elapses).  `Refuse`/`Failure` replies surface as
    /// [`AgentError::Refused`].
    pub fn request(
        &self,
        receiver: impl Into<String>,
        ontology: impl Into<String>,
        content: serde_json::Value,
        timeout: Duration,
    ) -> Result<AclMessage> {
        let receiver = receiver.into();
        let id = self.send(&receiver, Performative::Request, ontology, content)?;
        self.wait_reply(id, &receiver, timeout)
    }

    /// Wait for the reply correlated to message `id`.
    pub fn wait_reply(&self, id: u64, receiver: &str, timeout: Duration) -> Result<AclMessage> {
        if let Some(msg) = self.pending.lock().remove(&id) {
            return finish_reply(receiver, msg);
        }
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Err(AgentError::Timeout {
                    agent: receiver.to_owned(),
                    after_ms: timeout.as_millis() as u64,
                });
            }
            match self.inbox.recv_timeout(remaining) {
                Ok(Control::Deliver(msg)) => {
                    if msg.in_reply_to == Some(id) {
                        return finish_reply(receiver, msg);
                    }
                    if let Some(reply_to) = msg.in_reply_to {
                        self.pending.lock().insert(reply_to, msg);
                    }
                    // Unsolicited messages without correlation are dropped;
                    // clients only consume replies.
                }
                Ok(Control::Stop) | Err(_) => {
                    return Err(AgentError::Timeout {
                        agent: receiver.to_owned(),
                        after_ms: timeout.as_millis() as u64,
                    })
                }
            }
        }
    }

    /// Receive the next message addressed to this client (any
    /// correlation), waiting up to `timeout`.
    pub fn recv(&self, timeout: Duration) -> Result<AclMessage> {
        match self.inbox.recv_timeout(timeout) {
            Ok(Control::Deliver(msg)) => Ok(msg),
            _ => Err(AgentError::Timeout {
                agent: "<inbox>".into(),
                after_ms: timeout.as_millis() as u64,
            }),
        }
    }
}

fn finish_reply(receiver: &str, msg: AclMessage) -> Result<AclMessage> {
    if msg.is_negative() {
        let reason = msg
            .content
            .get("reason")
            .and_then(|v| v.as_str())
            .unwrap_or("unspecified")
            .to_owned();
        return Err(AgentError::Refused {
            agent: receiver.to_owned(),
            reason,
        });
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    /// Echoes every request back as an Inform with the same content.
    struct EchoAgent {
        name: String,
    }

    impl Agent for EchoAgent {
        fn name(&self) -> String {
            self.name.clone()
        }
        fn service_type(&self) -> String {
            "echo".into()
        }
        fn handle(&mut self, msg: AclMessage, ctx: &AgentContext) {
            if msg.performative == Performative::Request {
                ctx.reply(&msg, Performative::Inform, msg.content.clone())
                    .expect("reply");
            }
        }
    }

    /// Refuses everything.
    struct GrumpyAgent;

    impl Agent for GrumpyAgent {
        fn name(&self) -> String {
            "grumpy".into()
        }
        fn service_type(&self) -> String {
            "grumpy".into()
        }
        fn handle(&mut self, msg: AclMessage, ctx: &AgentContext) {
            ctx.reply(&msg, Performative::Refuse, json!({"reason": "busy"}))
                .expect("reply");
        }
    }

    /// Forwards requests to the echo agent, then relays the answer to the
    /// original requester (tests agent→agent messaging).
    struct RelayAgent {
        outstanding: Vec<(u64, AclMessage)>,
    }

    impl Agent for RelayAgent {
        fn name(&self) -> String {
            "relay".into()
        }
        fn service_type(&self) -> String {
            "relay".into()
        }
        fn handle(&mut self, msg: AclMessage, ctx: &AgentContext) {
            match msg.performative {
                Performative::Request => {
                    let fwd_id = ctx
                        .request("echo-1", msg.ontology.clone(), msg.content.clone())
                        .expect("forward");
                    self.outstanding.push((fwd_id, msg));
                }
                Performative::Inform => {
                    if let Some(pos) = self
                        .outstanding
                        .iter()
                        .position(|(id, _)| Some(*id) == msg.in_reply_to)
                    {
                        let (_, original) = self.outstanding.remove(pos);
                        ctx.reply(&original, Performative::Inform, msg.content.clone())
                            .expect("relay reply");
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn request_reply_round_trip() {
        let mut rt = AgentRuntime::new();
        rt.spawn(EchoAgent {
            name: "echo-1".into(),
        })
        .unwrap();
        let client = rt.client("test").unwrap();
        let reply = client
            .request("echo-1", "test", json!({"x": 42}), Duration::from_secs(2))
            .unwrap();
        assert_eq!(reply.performative, Performative::Inform);
        assert_eq!(reply.content, json!({"x": 42}));
        rt.shutdown();
    }

    #[test]
    fn refuse_surfaces_as_error() {
        let mut rt = AgentRuntime::new();
        rt.spawn(GrumpyAgent).unwrap();
        let client = rt.client("test").unwrap();
        let err = client
            .request("grumpy", "test", json!({}), Duration::from_secs(2))
            .unwrap_err();
        match err {
            AgentError::Refused { agent, reason } => {
                assert_eq!(agent, "grumpy");
                assert_eq!(reason, "busy");
            }
            other => panic!("expected Refused, got {other:?}"),
        }
        rt.shutdown();
    }

    #[test]
    fn unknown_receiver_is_an_error() {
        let mut rt = AgentRuntime::new();
        let client = rt.client("test").unwrap();
        assert!(matches!(
            client.request("ghost", "t", json!({}), Duration::from_millis(100)),
            Err(AgentError::UnknownAgent(_))
        ));
    }

    #[test]
    fn timeout_when_agent_stays_silent() {
        struct SilentAgent;
        impl Agent for SilentAgent {
            fn name(&self) -> String {
                "silent".into()
            }
            fn service_type(&self) -> String {
                "silent".into()
            }
            fn handle(&mut self, _msg: AclMessage, _ctx: &AgentContext) {}
        }
        let mut rt = AgentRuntime::new();
        rt.spawn(SilentAgent).unwrap();
        let client = rt.client("test").unwrap();
        let err = client
            .request("silent", "t", json!({}), Duration::from_millis(80))
            .unwrap_err();
        assert!(matches!(err, AgentError::Timeout { .. }));
        rt.shutdown();
    }

    #[test]
    fn spawn_returns_after_on_start_has_run() {
        use std::sync::atomic::{AtomicBool, Ordering};
        struct SlowStarter(Arc<AtomicBool>);
        impl Agent for SlowStarter {
            fn name(&self) -> String {
                "slow".into()
            }
            fn service_type(&self) -> String {
                "slow".into()
            }
            fn handle(&mut self, _msg: AclMessage, _ctx: &AgentContext) {}
            fn on_start(&mut self, _ctx: &AgentContext) {
                std::thread::sleep(Duration::from_millis(50));
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let started = Arc::new(AtomicBool::new(false));
        let mut rt = AgentRuntime::new();
        rt.spawn(SlowStarter(started.clone())).unwrap();
        assert!(started.load(Ordering::SeqCst));
        rt.shutdown();
    }

    #[test]
    fn agent_to_agent_forwarding() {
        let mut rt = AgentRuntime::new();
        rt.spawn(EchoAgent {
            name: "echo-1".into(),
        })
        .unwrap();
        rt.spawn(RelayAgent {
            outstanding: Vec::new(),
        })
        .unwrap();
        let client = rt.client("test").unwrap();
        let reply = client
            .request(
                "relay",
                "t",
                json!({"via": "relay"}),
                Duration::from_secs(2),
            )
            .unwrap();
        assert_eq!(reply.content, json!({"via": "relay"}));
        rt.shutdown();
    }

    #[test]
    fn interleaved_replies_are_correlated() {
        let mut rt = AgentRuntime::new();
        rt.spawn(EchoAgent {
            name: "echo-1".into(),
        })
        .unwrap();
        let client = rt.client("test").unwrap();
        // Fire two requests, then collect replies in reverse order.
        let id1 = client
            .send("echo-1", Performative::Request, "t", json!({"n": 1}))
            .unwrap();
        let id2 = client
            .send("echo-1", Performative::Request, "t", json!({"n": 2}))
            .unwrap();
        let r2 = client
            .wait_reply(id2, "echo-1", Duration::from_secs(2))
            .unwrap();
        let r1 = client
            .wait_reply(id1, "echo-1", Duration::from_secs(2))
            .unwrap();
        assert_eq!(r1.content, json!({"n": 1}));
        assert_eq!(r2.content, json!({"n": 2}));
        rt.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let mut rt = AgentRuntime::new();
        rt.spawn(EchoAgent {
            name: "echo-1".into(),
        })
        .unwrap();
        rt.shutdown();
        rt.shutdown();
        drop(rt); // Drop must not panic.
    }

    #[test]
    fn stop_agent_removes_one_replica_only() {
        let mut rt = AgentRuntime::new();
        rt.spawn(EchoAgent {
            name: "echo-1".into(),
        })
        .unwrap();
        rt.spawn(EchoAgent {
            name: "echo-2".into(),
        })
        .unwrap();
        rt.stop_agent("echo-1").unwrap();
        assert_eq!(rt.directory().find_by_type("echo").len(), 1);
        // The survivor still answers.
        let client = rt.client("t").unwrap();
        let reply = client
            .request("echo-2", "t", json!({"x": 1}), Duration::from_secs(2))
            .unwrap();
        assert_eq!(reply.content, json!({"x": 1}));
        // Stopping an unknown agent errors.
        assert!(rt.stop_agent("echo-1").is_err());
        rt.shutdown();
    }

    #[test]
    fn duplicate_agent_names_rejected_at_spawn() {
        let mut rt = AgentRuntime::new();
        rt.spawn(EchoAgent {
            name: "echo-1".into(),
        })
        .unwrap();
        let err = rt
            .spawn(EchoAgent {
                name: "echo-1".into(),
            })
            .unwrap_err();
        assert!(matches!(err, AgentError::DuplicateAgent(_)));
        rt.shutdown();
    }

    #[test]
    fn directory_sees_spawned_agents_by_type() {
        let mut rt = AgentRuntime::new();
        rt.spawn(EchoAgent {
            name: "echo-1".into(),
        })
        .unwrap();
        rt.spawn(EchoAgent {
            name: "echo-2".into(),
        })
        .unwrap();
        assert_eq!(rt.directory().find_by_type("echo").len(), 2);
        rt.shutdown();
        assert_eq!(rt.directory().find_by_type("echo").len(), 0);
    }
}
