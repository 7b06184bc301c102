//! Real-socket node server and client channel (std::net, no async).
//!
//! [`NodeServer`] hosts a [`Directory`] behind a TCP listener speaking
//! the [`wire`](crate::wire) protocol; [`TcpChannel`] is the client
//! side: a small connection pool, a per-RPC deadline enforced through
//! socket timeouts, and seeded exponential-backoff retry so failure
//! handling is reproducible run-to-run.
//!
//! This layer deliberately uses *wall-clock* time and nothing in the
//! workspace routes a message through it: its only reader is the
//! `agents.tcp_ping_us_p50` probe in `benchmark/src/probes.rs`, which
//! this repo may not edit outside a `benchmark`-archetype PR.  It stays
//! until multi-node placement is unparked or such a PR drops the probe.

use crate::directory::Directory;
use crate::wire::{read_frame, write_frame, Frame};
use parking_lot::Mutex;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long a connection-handler thread parked between frames waits
/// for the next one before re-checking the server's stop flag.
const HANDLER_POLL: Duration = Duration::from_millis(50);

/// How long a handler waits on a read once a frame has begun; a peer
/// silent for longer mid-frame is treated as gone.
const FRAME_DEADLINE: Duration = Duration::from_secs(1);

/// A TCP endpoint hosting a [`Directory`]: every [`Frame::Deliver`]
/// received is handed to `Directory::deliver` (so installed transports
/// and trace sinks apply) and answered with an ack or nack; pings are
/// answered with pongs.
pub struct NodeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    delivered: Arc<AtomicU64>,
}

impl std::fmt::Debug for NodeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeServer")
            .field("addr", &self.addr)
            .field("delivered", &self.delivered.load(Ordering::Relaxed))
            .finish()
    }
}

impl NodeServer {
    /// Bind `bind_addr` (use `127.0.0.1:0` for an ephemeral port) and
    /// start serving the directory on a background accept loop.
    pub fn serve(bind_addr: &str, directory: Directory) -> io::Result<NodeServer> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let delivered = Arc::new(AtomicU64::new(0));

        let accept_stop = Arc::clone(&stop);
        let accept_handlers = Arc::clone(&handlers);
        let accept_delivered = Arc::clone(&delivered);
        let accept_thread = thread::Builder::new()
            .name(format!("node-server-{addr}"))
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let dir = directory.clone();
                    let conn_stop = Arc::clone(&accept_stop);
                    let conn_delivered = Arc::clone(&accept_delivered);
                    let handle = thread::spawn(move || {
                        handle_connection(stream, dir, conn_stop, conn_delivered);
                    });
                    accept_handlers.lock().push(handle);
                }
            })
            .expect("spawn accept thread");

        Ok(NodeServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            handlers,
            delivered,
        })
    }

    /// The bound socket address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of messages this server has successfully delivered into
    /// local mailboxes.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Stop the accept loop and join all connection handlers.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let handles: Vec<_> = self.handlers.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for NodeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(
    stream: TcpStream,
    directory: Directory,
    stop: Arc<AtomicBool>,
    delivered: Arc<AtomicU64>,
) {
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Poll for shutdown only at a frame boundary: `peek` consumes
        // nothing, so timing out here cannot split a frame.
        let _ = reader.set_read_timeout(Some(HANDLER_POLL));
        match reader.peek(&mut [0u8; 1]) {
            Ok(0) => return, // peer closed
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
        let _ = reader.set_read_timeout(Some(FRAME_DEADLINE));
        let Ok(frame) = read_frame(&mut reader) else {
            return; // peer closed, stalled mid-frame, or protocol error
        };
        let reply = match frame {
            Frame::Deliver(msg) => {
                let id = msg.id;
                match directory.deliver(msg) {
                    Ok(()) => {
                        delivered.fetch_add(1, Ordering::Relaxed);
                        Frame::Ack { id }
                    }
                    Err(e) => Frame::Nack {
                        id,
                        reason: e.to_string(),
                    },
                }
            }
            Frame::Ping { nonce } => Frame::Pong { nonce },
            // Clients never send these; answer nothing.
            Frame::Ack { .. } | Frame::Nack { .. } | Frame::Pong { .. } => continue,
        };
        if write_frame(&mut writer, &reply).is_err() {
            return;
        }
    }
}

/// Retry schedule for [`TcpChannel`]: exponential backoff with seeded
/// jitter, so two runs with the same seed sleep the same intervals.
#[derive(Debug, Clone)]
pub struct RetryCfg {
    /// Total attempts per RPC (1 = no retry).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_delay: Duration,
    /// Ceiling on a single backoff sleep.
    pub max_delay: Duration,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryCfg {
    fn default() -> Self {
        RetryCfg {
            attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            seed: 0,
        }
    }
}

/// Client channel to one remote node: pooled connections, per-RPC
/// deadline, seeded exponential-backoff retry.
pub struct TcpChannel {
    endpoint: String,
    deadline: Duration,
    retry: RetryCfg,
    pool: Mutex<Vec<TcpStream>>,
    rng: Mutex<ChaCha8Rng>,
    reconnects: AtomicU64,
    retries: AtomicU64,
}

impl std::fmt::Debug for TcpChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpChannel")
            .field("endpoint", &self.endpoint)
            .field("deadline", &self.deadline)
            .field("pooled", &self.pool.lock().len())
            .finish()
    }
}

/// Idle connections kept per channel; excess sockets are closed.
const POOL_CAP: usize = 4;

impl TcpChannel {
    /// Build a channel to `endpoint` (a `host:port` string) with the
    /// given per-RPC deadline and retry schedule.
    pub fn new(endpoint: impl Into<String>, deadline: Duration, retry: RetryCfg) -> Self {
        let seed = retry.seed;
        TcpChannel {
            endpoint: endpoint.into(),
            deadline,
            retry,
            pool: Mutex::new(Vec::new()),
            rng: Mutex::new(ChaCha8Rng::seed_from_u64(seed)),
            reconnects: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    /// The remote endpoint this channel talks to.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Fresh connections opened so far (first connect included).
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// RPC attempts that were retried after a failure.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    fn checkout(&self) -> io::Result<TcpStream> {
        if let Some(s) = self.pool.lock().pop() {
            return Ok(s);
        }
        let addr = self.endpoint.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "endpoint resolved to nothing")
        })?;
        let stream = TcpStream::connect_timeout(&addr, self.deadline)?;
        stream.set_nodelay(true)?;
        self.reconnects.fetch_add(1, Ordering::Relaxed);
        Ok(stream)
    }

    fn checkin(&self, stream: TcpStream) {
        let mut pool = self.pool.lock();
        if pool.len() < POOL_CAP {
            pool.push(stream);
        }
    }

    fn attempt(&self, frame: &Frame) -> io::Result<Frame> {
        let start = Instant::now();
        let mut stream = self.checkout()?;
        let remaining = |start: Instant, deadline: Duration| -> io::Result<Duration> {
            deadline.checked_sub(start.elapsed()).ok_or_else(|| {
                io::Error::new(io::ErrorKind::TimedOut, "per-RPC deadline exhausted")
            })
        };
        stream.set_write_timeout(Some(remaining(start, self.deadline)?))?;
        write_frame(&mut stream, frame)?;
        stream.set_read_timeout(Some(remaining(start, self.deadline)?))?;
        let reply = read_frame(&mut stream)?;
        self.checkin(stream);
        Ok(reply)
    }

    /// Send a frame and wait for the reply frame, retrying per the
    /// configured schedule.  Each attempt runs under the per-RPC
    /// deadline; failed attempts discard their connection.
    pub fn call(&self, frame: &Frame) -> io::Result<Frame> {
        let mut last_err = None;
        for attempt in 0..self.retry.attempts.max(1) {
            if attempt > 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
                thread::sleep(self.backoff(attempt));
            }
            match self.attempt(frame) {
                Ok(reply) => return Ok(reply),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("no attempts configured")))
    }

    /// The backoff before retry `attempt` (1-based): doubling from
    /// `base_delay`, capped at `max_delay`, jittered into [50%, 100%]
    /// by the seeded stream.
    fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .retry
            .base_delay
            .saturating_mul(1u32 << (attempt - 1).min(16));
        let capped = exp.min(self.retry.max_delay);
        let frac: f64 = self.rng.lock().gen_range(0.5..1.0);
        capped.mul_f64(frac)
    }

    /// Deliver an ACL message: a `Deliver` RPC that must come back as
    /// a matching `Ack`.
    pub fn send(&self, msg: crate::message::AclMessage) -> io::Result<()> {
        let id = msg.id;
        match self.call(&Frame::Deliver(msg))? {
            Frame::Ack { id: acked } if acked == id => Ok(()),
            Frame::Nack { reason, .. } => Err(io::Error::other(format!("remote nack: {reason}"))),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected reply {other:?}"),
            )),
        }
    }

    /// Liveness probe: a `Ping` RPC that must come back as the matching
    /// `Pong`.  Returns the round-trip time.
    pub fn ping(&self) -> io::Result<Duration> {
        let nonce = self.rng.lock().next_u64();
        let start = Instant::now();
        match self.call(&Frame::Ping { nonce })? {
            Frame::Pong { nonce: echoed } if echoed == nonce => Ok(start.elapsed()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected ping reply {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::{AgentInfo, Control};
    use crate::message::{AclMessage, Performative};
    use crossbeam_channel::unbounded;
    use serde_json::json;

    fn hosted_directory(name: &str) -> (Directory, crossbeam_channel::Receiver<Control>) {
        let dir = Directory::new();
        let (tx, rx) = unbounded();
        dir.register(AgentInfo {
            name: name.into(),
            service_type: "t".into(),
            mailbox: tx,
        })
        .unwrap();
        (dir, rx)
    }

    #[test]
    fn loopback_deliver_acks_and_routes() {
        let (dir, rx) = hosted_directory("target");
        let mut server = NodeServer::serve("127.0.0.1:0", dir).unwrap();
        let chan = TcpChannel::new(
            server.local_addr().to_string(),
            Duration::from_secs(2),
            RetryCfg::default(),
        );
        let msg = AclMessage::new(Performative::Inform, "src", "target", "t", json!(1));
        chan.send(msg.clone()).unwrap();
        match rx.recv_timeout(Duration::from_secs(2)).unwrap() {
            Control::Deliver(got) => assert_eq!(got, msg),
            other => panic!("expected Deliver, got {other:?}"),
        }
        assert_eq!(server.delivered(), 1);
        server.shutdown();
    }

    #[test]
    fn unknown_receiver_nacks() {
        let (dir, _rx) = hosted_directory("target");
        let mut server = NodeServer::serve("127.0.0.1:0", dir).unwrap();
        let chan = TcpChannel::new(
            server.local_addr().to_string(),
            Duration::from_secs(2),
            RetryCfg {
                attempts: 1,
                ..RetryCfg::default()
            },
        );
        let msg = AclMessage::new(Performative::Inform, "src", "ghost", "t", json!(1));
        let err = chan.send(msg).unwrap_err();
        assert!(err.to_string().contains("unknown agent"), "{err}");
        server.shutdown();
    }

    #[test]
    fn ping_pong_round_trip() {
        let (dir, _rx) = hosted_directory("target");
        let mut server = NodeServer::serve("127.0.0.1:0", dir).unwrap();
        let chan = TcpChannel::new(
            server.local_addr().to_string(),
            Duration::from_secs(2),
            RetryCfg::default(),
        );
        assert!(chan.ping().is_ok());
        server.shutdown();
    }

    #[test]
    fn a_peer_pausing_mid_frame_stays_in_sync() {
        use std::io::Write;
        let (dir, _rx) = hosted_directory("target");
        let mut server = NodeServer::serve("127.0.0.1:0", dir).unwrap();
        let mut peer = TcpStream::connect(server.local_addr()).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let bytes = crate::wire::encode_frame(&Frame::Ping { nonce: 7 }).unwrap();
        // Length prefix, a pause longer than HANDLER_POLL, then the body.
        peer.write_all(&bytes[..4]).unwrap();
        thread::sleep(Duration::from_millis(120));
        peer.write_all(&bytes[4..]).unwrap();
        assert_eq!(read_frame(&mut peer).unwrap(), Frame::Pong { nonce: 7 });
        server.shutdown();
    }

    #[test]
    fn connections_are_pooled() {
        let (dir, _rx) = hosted_directory("target");
        let mut server = NodeServer::serve("127.0.0.1:0", dir).unwrap();
        let chan = TcpChannel::new(
            server.local_addr().to_string(),
            Duration::from_secs(2),
            RetryCfg::default(),
        );
        for _ in 0..5 {
            chan.ping().unwrap();
        }
        assert_eq!(chan.reconnects(), 1, "sequential RPCs reuse one socket");
        server.shutdown();
    }

    #[test]
    fn retry_survives_server_restart() {
        let (dir, _rx) = hosted_directory("target");
        let mut server = NodeServer::serve("127.0.0.1:0", dir.clone()).unwrap();
        let addr = server.local_addr();
        let chan = TcpChannel::new(
            addr.to_string(),
            Duration::from_secs(2),
            RetryCfg {
                attempts: 20,
                base_delay: Duration::from_millis(5),
                max_delay: Duration::from_millis(50),
                seed: 7,
            },
        );
        chan.ping().unwrap();
        server.shutdown();
        // Restart on the same port while the client retries.
        let rebind = thread::spawn(move || {
            thread::sleep(Duration::from_millis(100));
            NodeServer::serve(&addr.to_string(), dir).unwrap()
        });
        let rtt = chan.ping();
        let mut server2 = rebind.join().unwrap();
        assert!(rtt.is_ok(), "ping should succeed after restart: {rtt:?}");
        assert!(chan.retries() > 0, "the restart must have forced retries");
        server2.shutdown();
    }

    #[test]
    fn backoff_is_seeded_and_bounded() {
        let mk = || {
            TcpChannel::new(
                "127.0.0.1:1",
                Duration::from_millis(10),
                RetryCfg {
                    attempts: 5,
                    base_delay: Duration::from_millis(8),
                    max_delay: Duration::from_millis(40),
                    seed: 99,
                },
            )
        };
        let a = mk();
        let b = mk();
        for attempt in 1..5 {
            let da = a.backoff(attempt);
            let db = b.backoff(attempt);
            assert_eq!(da, db, "same seed, same schedule");
            assert!(da <= Duration::from_millis(40));
            assert!(da >= Duration::from_millis(4), "at least half the base");
        }
    }

    #[test]
    fn deadline_bounds_a_dead_endpoint() {
        // A blackholed endpoint: nothing listens on this port.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let chan = TcpChannel::new(
            addr.to_string(),
            Duration::from_millis(200),
            RetryCfg {
                attempts: 2,
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_millis(20),
                seed: 1,
            },
        );
        let start = Instant::now();
        assert!(chan.ping().is_err());
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "failure must be bounded by deadline+backoff, took {:?}",
            start.elapsed()
        );
    }
}
