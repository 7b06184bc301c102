//! Sinks: where trace events go.
//!
//! [`TraceSink`] is the surface instrumented components talk to: one
//! `emit` per event.  The canonical implementation is [`TraceLog`] — an
//! ordered in-memory log stamped from a [`TraceClock`] (virtual time
//! only), with JSONL serialization and a byte-stable fingerprint for
//! replay equality checks.  [`TraceHandle`] is the
//! `Option<Arc<dyn TraceSink>>` newtype components embed so their
//! `Debug`/`Clone`/`Default` derives survive.

use crate::event::{Label, TraceEvent, TraceRecord};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A source of deterministic timestamps: a virtual-clock reading
/// `(tick, seconds)`.  Implemented by the harness's `VirtualClock`;
/// [`FrozenClock`] (always zero) is the default for logs that only care
/// about ordering.
pub trait TraceClock: Send + Sync {
    /// Current virtual reading: `(tick, seconds)`.  Must not consult
    /// wall time.
    fn now(&self) -> (u64, f64);
    /// Advance virtual seconds by `dt` (clamped at zero).  Default:
    /// no-op, for clocks that are read-only from the log's side.
    fn advance_s(&self, dt: f64) {
        let _ = dt;
    }
}

/// A clock pinned at `(0, 0.0)` — every record stamps tick 0, second 0,
/// and ordering comes solely from `seq`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrozenClock;

impl TraceClock for FrozenClock {
    fn now(&self) -> (u64, f64) {
        (0, 0.0)
    }
}

/// Where instrumented components report events.
///
/// Implementations must be cheap and infallible: emitting telemetry can
/// never perturb the run being observed.
pub trait TraceSink: Send + Sync {
    /// Record that `event` happened inside `source`.
    fn emit(&self, source: &str, event: TraceEvent);
    /// [`emit`](TraceSink::emit) from a source already resolved to a
    /// [`Label`], which a sink that stores labels may share instead of
    /// looking it up.  Default: `emit(source.as_str(), event)`.
    fn emit_label(&self, source: &Label, event: TraceEvent) {
        self.emit(source.as_str(), event);
    }
    /// Advance the sink's notion of virtual seconds (forwarded to the
    /// underlying clock, if any).  Default: no-op.
    fn advance_s(&self, dt: f64) {
        let _ = dt;
    }
}

/// Records per chunk of a [`TraceLog`]: 512 of 144 bytes, under glibc's
/// default 128 KiB mmap threshold.  A full chunk is never reallocated:
/// where a growing buffer's multi-megabyte copies land is up to the
/// allocator, and moved a fleet's peak RSS by up to 12 MB (DESIGN §11).
const CHUNK: usize = 512;

#[derive(Default)]
struct LogState {
    next_seq: u64,
    /// Records in emission order, in chunks of [`CHUNK`]; only the last
    /// may be short.
    chunks: Vec<Vec<TraceRecord>>,
    /// Source-label intern table for [`TraceSink::emit`]: each distinct
    /// source string is allocated once; every further emission from it
    /// stamps its record with a reference-counted clone.  Sources that
    /// arrive as labels ([`TraceSink::emit_label`]) bypass it.
    sources: BTreeMap<Label, ()>,
}

impl LogState {
    fn intern(&mut self, source: &str) -> Label {
        if let Some((label, ())) = self.sources.get_key_value(source) {
            return label.clone();
        }
        let label = Label::new(source);
        self.sources.insert(label.clone(), ());
        label
    }
}

/// The canonical sink: an ordered, append-only, in-memory event log.
///
/// Records are stamped with a per-log sequence number and the current
/// [`TraceClock`] reading at emission.  Clone shares the log (it is an
/// `Arc` inside), so one `TraceLog` can be handed to the enactor, the
/// transport, and the runner and all three append to the same ordered
/// stream.
#[derive(Clone)]
pub struct TraceLog {
    state: Arc<Mutex<LogState>>,
    clock: Arc<dyn TraceClock>,
}

impl Default for TraceLog {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceLog")
            .field("len", &self.len())
            .finish()
    }
}

impl TraceLog {
    /// An empty log stamped from a [`FrozenClock`] (ordering only).
    pub fn new() -> Self {
        Self::with_clock(Arc::new(FrozenClock))
    }

    /// An empty log stamped from `clock` — pass the scenario's
    /// `VirtualClock` so records carry meaningful virtual timestamps.
    pub fn with_clock(clock: Arc<dyn TraceClock>) -> Self {
        TraceLog {
            state: Arc::new(Mutex::new(LogState::default())),
            clock,
        }
    }

    /// An empty log whose sequence counter starts at `next_seq`,
    /// stamped from `clock` — the journal shape a recovering engine
    /// needs: events regenerated while replaying from a snapshot carry
    /// the same sequence numbers the original run gave them, so a
    /// durable store can verify the overlap byte-for-byte.
    pub fn resuming(next_seq: u64, clock: Arc<dyn TraceClock>) -> Self {
        let log = Self::with_clock(clock);
        log.state.lock().next_seq = next_seq;
        log
    }

    /// The sequence number the next emission will be stamped with.
    pub fn next_seq(&self) -> u64 {
        self.state.lock().next_seq
    }

    /// The clock's current `(tick, seconds)` reading — what a snapshot
    /// must persist so a resumed log stamps time exactly where the
    /// original left off.
    pub fn clock_now(&self) -> (u64, f64) {
        self.clock.now()
    }

    /// Lend `read` all records with `seq >= seq`, in emission order and
    /// one chunk's run at a time — the incremental read used to flush a
    /// tick's worth of journal into a durable store without cloning it.
    ///
    /// The log stays locked while `read` runs, so `read` must not emit
    /// into this log: the engine's lock order is journal, then store,
    /// and a store never emits.
    pub fn with_records_from(&self, seq: u64, mut read: impl FnMut(&[TraceRecord])) {
        let st = self.state.lock();
        // Sequence numbers are dense from the first record's (0, or a
        // resumed log's base), and every chunk but the last is full, so
        // `seq` locates its chunk and offset directly.
        let base = st.chunks.first().map_or(0, |c| c[0].seq);
        let start = usize::try_from(seq.saturating_sub(base)).unwrap_or(usize::MAX);
        for (i, chunk) in st.chunks.iter().skip(start / CHUNK).enumerate() {
            let from = if i == 0 { start % CHUNK } else { 0 };
            if from < chunk.len() {
                read(&chunk[from..]);
            }
        }
    }

    /// Number of records so far.
    pub fn len(&self) -> usize {
        self.state.lock().chunks.iter().map(Vec::len).sum()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of all records in emission order.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.state.lock().chunks.concat()
    }

    /// Drop all records and reset the sequence counter (the clock and
    /// the source intern table are left untouched).
    pub fn clear(&self) {
        let mut st = self.state.lock();
        st.chunks.clear();
        st.next_seq = 0;
    }

    /// Serialize the log as JSON Lines — one record per line, in
    /// emission order.  Two runs with identical seeds produce
    /// byte-identical output (all timestamps are virtual).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.state.lock().chunks.iter().flatten() {
            serde::Serialize::write_json(r, &mut out);
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL dump back into records (inverse of
    /// [`TraceLog::to_jsonl`]).
    pub fn from_jsonl(jsonl: &str) -> Result<Vec<TraceRecord>, serde_json::Error> {
        jsonl
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(serde_json::from_str)
            .collect()
    }

    /// A byte-stable fingerprint of the whole log (currently the JSONL
    /// dump itself) — compare fingerprints of two seeded runs to assert
    /// replay determinism.
    pub fn fingerprint(&self) -> String {
        self.to_jsonl()
    }

    /// Append `event`, stamped with the source `label` yields.
    fn append(&self, label: impl FnOnce(&mut LogState) -> Label, event: TraceEvent) {
        let (tick, at_s) = self.clock.now();
        let mut st = self.state.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        let source = label(&mut st);
        if st.chunks.last().is_none_or(|c| c.len() == CHUNK) {
            // The first chunk grows as a short log needs; the rest are
            // allocated whole.
            let cap = if st.chunks.is_empty() { 0 } else { CHUNK };
            st.chunks.push(Vec::with_capacity(cap));
        }
        if let Some(chunk) = st.chunks.last_mut() {
            chunk.push(TraceRecord {
                seq,
                tick,
                at_s,
                source,
                event,
            });
        }
    }
}

impl TraceSink for TraceLog {
    fn emit(&self, source: &str, event: TraceEvent) {
        self.append(|st| st.intern(source), event);
    }

    fn emit_label(&self, source: &Label, event: TraceEvent) {
        self.append(|_| source.clone(), event);
    }

    fn advance_s(&self, dt: f64) {
        self.clock.advance_s(dt);
    }
}

/// An optional, shareable sink slot.
///
/// Components embed a `TraceHandle` instead of an
/// `Option<Arc<dyn TraceSink>>` so their `Debug`, `Clone`, and
/// `Default` derives keep working; emission through an empty handle is
/// a no-op.
#[derive(Clone, Default)]
pub struct TraceHandle {
    sink: Option<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("installed", &self.sink.is_some())
            .finish()
    }
}

impl TraceHandle {
    /// An empty handle (emissions are no-ops).
    pub fn none() -> Self {
        TraceHandle::default()
    }

    /// A handle wrapping `sink`.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        TraceHandle { sink: Some(sink) }
    }

    /// Is a sink installed?
    pub fn is_installed(&self) -> bool {
        self.sink.is_some()
    }

    /// A handle onto the same sink through a [`ScopedSink`] prefixing
    /// every source with `scope/`.  An empty handle stays empty and
    /// never renders `scope`.
    pub fn scoped(&self, scope: impl std::fmt::Display) -> TraceHandle {
        TraceHandle {
            sink: self.sink.as_ref().map(|sink| {
                Arc::new(ScopedSink::new(scope.to_string(), sink.clone())) as Arc<dyn TraceSink>
            }),
        }
    }

    /// Emit `event` from `source` if a sink is installed.
    pub fn emit(&self, source: &str, event: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.emit(source, event);
        }
    }

    /// Forward a virtual-seconds advance to the sink, if installed.
    pub fn advance_s(&self, dt: f64) {
        if let Some(sink) = &self.sink {
            sink.advance_s(dt);
        }
    }
}

impl From<Arc<dyn TraceSink>> for TraceHandle {
    fn from(sink: Arc<dyn TraceSink>) -> Self {
        TraceHandle::new(sink)
    }
}

impl From<TraceLog> for TraceHandle {
    fn from(log: TraceLog) -> Self {
        TraceHandle::new(Arc::new(log))
    }
}

/// A sink adapter that prefixes every emission's `source` with a fixed
/// scope — `"case:dinner-3"` plus an inner source `"enactor"` records as
/// `"case:dinner-3/enactor"`.  The multi-case engine wraps one scoped
/// sink per case around the shared log, so a merged trace stays
/// attributable per case without threading case ids through every
/// instrumented component.
///
/// Each composed `"{scope}/{source}"` is built once, as a [`Label`], and
/// handed to the inner sink through [`TraceSink::emit_label`] from then
/// on: a case has a handful of inner sources, so they sit in a short
/// `Vec` searched by suffix, and a log shares the one label among all
/// the records it stamps.
pub struct ScopedSink {
    scope: String,
    inner: Arc<dyn TraceSink>,
    /// One composed `"{scope}/{source}"` label per inner source seen.
    composed: Mutex<Vec<Label>>,
}

impl ScopedSink {
    /// Wrap `inner` so every emission's source is prefixed with
    /// `"{scope}/"`.
    pub fn new(scope: impl Into<String>, inner: Arc<dyn TraceSink>) -> Self {
        ScopedSink {
            scope: scope.into(),
            inner,
            composed: Mutex::new(Vec::new()),
        }
    }

    /// The scope prefix this sink applies.
    pub fn scope(&self) -> &str {
        &self.scope
    }
}

impl std::fmt::Debug for ScopedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopedSink")
            .field("scope", &self.scope)
            .finish()
    }
}

impl TraceSink for ScopedSink {
    fn emit(&self, source: &str, event: TraceEvent) {
        let mut composed = self.composed.lock();
        let n = self.scope.len() + 1;
        let at = match composed.iter().position(|label| &label[n..] == source) {
            Some(at) => at,
            None => {
                composed.push(Label::from(format!("{}/{source}", self.scope)));
                composed.len() - 1
            }
        };
        self.inner.emit_label(&composed[at], event);
    }

    fn advance_s(&self, dt: f64) {
        self.inner.advance_s(dt);
    }
}

/// A shared, swappable sink slot: install or clear a sink *after*
/// construction, with the installation visible to every clone (the
/// directory's transport-slot pattern applied to tracing).
#[derive(Clone, Default)]
pub struct TraceSlot {
    inner: Arc<parking_lot::RwLock<Option<Arc<dyn TraceSink>>>>,
}

impl TraceSlot {
    /// An empty slot (no sink installed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a sink, replacing any previous one.
    pub fn set(&self, sink: Arc<dyn TraceSink>) {
        *self.inner.write() = Some(sink);
    }

    /// The currently installed sink, if any.
    pub fn get(&self) -> Option<Arc<dyn TraceSink>> {
        self.inner.read().clone()
    }

    /// Is a sink installed?
    pub fn is_installed(&self) -> bool {
        self.inner.read().is_some()
    }

    /// Emit `event` from `source` if a sink is installed.
    pub fn emit(&self, source: &str, event: TraceEvent) {
        if let Some(sink) = self.get() {
            sink.emit(source, event);
        }
    }
}

impl std::fmt::Debug for TraceSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSlot")
            .field("installed", &self.is_installed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(id: u64) -> TraceEvent {
        TraceEvent::MessageSent {
            id,
            performative: "request".into(),
            sender: "a".into(),
            receiver: "b".into(),
            in_reply_to: None,
        }
    }

    #[test]
    fn log_orders_and_sequences_records() {
        let log = TraceLog::new();
        log.emit("x", msg(1));
        log.emit("y", msg(2));
        let recs = log.records();
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[0].seq, recs[1].seq), (0, 1));
        assert_eq!(recs[0].source, "x");
        assert_eq!(recs[0].event.message_id(), Some(1));
    }

    #[test]
    fn jsonl_round_trips_and_fingerprints_match() {
        let log = TraceLog::new();
        log.emit("t", msg(7));
        log.emit(
            "t",
            TraceEvent::Custom {
                label: "note".into(),
                detail: "hello".into(),
            },
        );
        let dump = log.to_jsonl();
        assert_eq!(dump.lines().count(), 2);
        let back = TraceLog::from_jsonl(&dump).unwrap();
        assert_eq!(back, log.records());
        assert_eq!(log.fingerprint(), dump);
    }

    #[test]
    fn clones_share_the_log() {
        let log = TraceLog::new();
        let other = log.clone();
        other.emit("t", msg(1));
        assert_eq!(log.len(), 1);
        log.clear();
        assert!(other.is_empty());
    }

    #[test]
    fn empty_handle_is_a_noop_and_debug_shows_installed() {
        let h = TraceHandle::none();
        h.emit("t", msg(1));
        h.advance_s(5.0);
        assert!(!h.is_installed());
        assert_eq!(format!("{h:?}"), "TraceHandle { installed: false }");
        let h = TraceHandle::from(TraceLog::new());
        assert!(h.is_installed());
    }

    #[test]
    fn scoped_sink_prefixes_sources_and_forwards_advances() {
        let log = TraceLog::new();
        let scoped = ScopedSink::new("case:dinner-3", Arc::new(log.clone()));
        assert_eq!(scoped.scope(), "case:dinner-3");
        scoped.emit("enactor", msg(1));
        let recs = log.records();
        assert_eq!(recs[0].source, "case:dinner-3/enactor");
        assert_eq!(
            format!("{scoped:?}"),
            r#"ScopedSink { scope: "case:dinner-3" }"#
        );
    }

    #[test]
    fn sources_are_interned_and_labels_stay_string_shaped() {
        let log = TraceLog::new();
        log.emit("enactor", msg(1));
        log.emit("enactor", msg(2));
        log.emit("engine", msg(3));
        let recs = log.records();
        // Repeated sources share one interned allocation.
        assert!(std::ptr::eq(
            recs[0].source.as_str().as_ptr(),
            recs[1].source.as_str().as_ptr()
        ));
        assert_eq!(recs[0].source, recs[1].source);
        // The label compares and derefs like a string…
        assert_eq!(recs[0].source, "enactor");
        assert!(recs[2].source.starts_with("eng"));
        assert_eq!(recs[2].source.as_str(), "engine");
        // …and serializes as a plain JSON string, byte-identical to the
        // old `String` representation.
        let json = serde_json::to_string(&recs[0]).unwrap();
        assert!(json.contains(r#""source":"enactor""#), "{json}");
        let back: TraceRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, recs[0]);
    }

    #[test]
    fn scoped_sink_caches_composed_labels() {
        let log = TraceLog::new();
        let scoped = ScopedSink::new("case:x", Arc::new(log.clone()));
        scoped.emit("enactor", msg(1));
        scoped.emit("enactor", msg(2));
        scoped.emit("recovery", msg(3));
        let recs = log.records();
        assert_eq!(recs[0].source, "case:x/enactor");
        assert_eq!(recs[1].source, "case:x/enactor");
        assert_eq!(recs[2].source, "case:x/recovery");
        // Records from one scoped source share one label allocation.
        let text = |i: usize| recs[i].source.as_ptr();
        assert!(std::ptr::eq(text(0), text(1)));
        assert!(!std::ptr::eq(text(0), text(2)));
    }

    #[test]
    fn scoped_sources_reach_a_sink_that_implements_only_emit() {
        // Like the benchmark's timing wrapper: `emit_label` is defaulted.
        struct Forward(TraceLog);
        impl TraceSink for Forward {
            fn emit(&self, source: &str, event: TraceEvent) {
                self.0.emit(source, event);
            }
        }
        let log = TraceLog::new();
        let scoped = ScopedSink::new("case:x", Arc::new(Forward(log.clone())));
        scoped.emit("src", msg(1));
        scoped.emit("src", msg(2));
        let sources: Vec<_> = log.records().into_iter().map(|r| r.source).collect();
        assert_eq!(sources, ["case:x/src", "case:x/src"]);
    }

    #[test]
    fn scoped_emission_leaves_the_intern_table_alone() {
        let log = TraceLog::new();
        for case in ["case:a", "case:b"] {
            let scoped = ScopedSink::new(case, Arc::new(log.clone()));
            scoped.emit("enactor", msg(1));
            scoped.emit("recovery", msg(2));
        }
        assert_eq!(log.state.lock().sources.len(), 0);
        log.emit("engine", msg(3));
        assert_eq!(log.state.lock().sources.len(), 1);
        assert_eq!(log.len(), 5);
    }

    #[test]
    fn resumed_logs_continue_the_sequence() {
        let log = TraceLog::resuming(7, Arc::new(FrozenClock));
        assert_eq!(log.next_seq(), 7);
        assert_eq!(log.clock_now(), (0, 0.0));
        log.emit("t", msg(1));
        log.emit("t", msg(2));
        let recs = log.records();
        assert_eq!((recs[0].seq, recs[1].seq), (7, 8));
        // with_records_from slices by stamped seq, not vector index.
        let records_from = |seq| {
            let mut out = Vec::new();
            log.with_records_from(seq, |run| out.extend_from_slice(run));
            out
        };
        assert_eq!(records_from(8).len(), 1);
        assert_eq!(records_from(8)[0].seq, 8);
        assert!(records_from(9).is_empty());
        assert_eq!(records_from(0).len(), 2);
        // Indexing by `seq - base` returns what a scan of the log would,
        // below the base, inside it and past its end.
        for seq in (0..=10).chain([u64::MAX]) {
            let scanned: Vec<_> = recs.iter().filter(|r| r.seq >= seq).cloned().collect();
            assert_eq!(records_from(seq), scanned, "from {seq}");
        }
    }

    #[test]
    fn chunked_logs_lend_every_run_from_any_seq() {
        let n = 3 * CHUNK + 7;
        let log = TraceLog::resuming(5, Arc::new(FrozenClock));
        for i in 0..n {
            log.emit("t", msg(i as u64));
        }
        assert_eq!(log.len(), n);
        let recs = log.records();
        assert_eq!(recs.len(), n);
        assert!(recs.iter().enumerate().all(|(i, r)| r.seq == 5 + i as u64));
        for seq in [
            0,
            5,
            6,
            4 + CHUNK as u64,
            5 + CHUNK as u64,
            5 + n as u64 - 1,
            5 + n as u64,
        ] {
            let (mut lent, mut runs) = (Vec::new(), 0);
            log.with_records_from(seq, |run| {
                assert!(!run.is_empty() && run.len() <= CHUNK);
                lent.extend_from_slice(run);
                runs += 1;
            });
            let scanned: Vec<_> = recs.iter().filter(|r| r.seq >= seq).cloned().collect();
            assert_eq!(lent, scanned, "from {seq}");
            // One run per chunk holding a lent record.
            let first = n - scanned.len();
            let chunks = if scanned.is_empty() {
                0
            } else {
                (n - 1) / CHUNK - first / CHUNK + 1
            };
            assert_eq!(runs, chunks, "from {seq}");
        }
        assert_eq!(log.to_jsonl().lines().count(), n);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn frozen_clock_stamps_zero() {
        let log = TraceLog::new();
        log.emit("t", msg(1));
        let r = &log.records()[0];
        assert_eq!((r.tick, r.at_s), (0, 0.0));
    }
}
