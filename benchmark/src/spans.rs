//! Wall-clock spans recorded from outside the crates.
//!
//! A traced run wraps the run's `TraceSink` and `Store` in the timing
//! shims below and stamps tick boundaries from the scheduler's
//! `run_with` hook, which gives the tree
//! `run → tick → {emit, store.append, store.snapshot}`.  Spans live in
//! memory until the process writes them out at exit.  `emit` is called
//! once per trace record (10⁵ per rep), so its calls are summed per tick
//! instead of kept one by one; store calls are kept individually.
//!
//! Self time of a span is its duration minus what its children cover.

use gridflow_store::{SnapshotRecord, Store, StoreResult};
use gridflow_telemetry::{TraceEvent, TraceRecord, TraceSink};
use serde_json::{json, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One store call inside a tick.
#[derive(Debug, Clone, Copy)]
pub struct StoreCall {
    /// `true` for `snapshot`, `false` for `append`.
    pub snapshot: bool,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Records appended, or payload bytes of the snapshot.
    pub size: u64,
}

/// One engine tick: from the hook of tick `t` to the hook of `t + 1`
/// (the last tick ends with the run).
#[derive(Debug, Clone, Default)]
pub struct TickSpan {
    pub tick: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub emit_calls: u64,
    pub emit_ns: u64,
    pub store_calls: Vec<StoreCall>,
}

impl TickSpan {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn has_snapshot(&self) -> bool {
        self.store_calls.iter().any(|c| c.snapshot)
    }
}

/// The spans of one run.
#[derive(Debug, Clone, Default)]
pub struct RunSpans {
    pub start_ns: u64,
    pub end_ns: u64,
    pub ticks: Vec<TickSpan>,
    /// Calls made before the first tick hook or after the last tick
    /// closed (scheduler set-up, the final flush).
    pub outside: TickSpan,
}

impl RunSpans {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    fn all(&self) -> impl Iterator<Item = &TickSpan> {
        self.ticks.iter().chain(std::iter::once(&self.outside))
    }

    pub fn emit_calls(&self) -> u64 {
        self.all().map(|t| t.emit_calls).sum()
    }

    pub fn emit_s(&self) -> f64 {
        self.all().map(|t| t.emit_ns).sum::<u64>() as f64 / 1e9
    }

    fn store_calls(&self, snapshot: bool) -> impl Iterator<Item = &StoreCall> {
        self.all()
            .flat_map(|t| t.store_calls.iter())
            .filter(move |c| c.snapshot == snapshot)
    }

    pub fn store_busy_s(&self, snapshot: bool) -> f64 {
        self.store_calls(snapshot)
            .map(|c| c.end_ns - c.start_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    pub fn store_call_count(&self, snapshot: bool) -> u64 {
        self.store_calls(snapshot).count() as u64
    }

    /// Records appended (`snapshot == false`) or snapshot payload bytes.
    pub fn store_size(&self, snapshot: bool) -> u64 {
        self.store_calls(snapshot).map(|c| c.size).sum()
    }

    /// Run time not covered by `emit` or store calls: the engine,
    /// services and process layers themselves.
    pub fn self_s(&self) -> f64 {
        self.duration_s() - self.emit_s() - self.store_busy_s(false) - self.store_busy_s(true)
    }

    /// The span tree as JSON (nanoseconds from the recorder's origin).
    pub fn to_json(&self) -> Value {
        let children = |t: &TickSpan| -> Vec<Value> {
            let mut out = vec![json!({
                "name": "emit", "calls": t.emit_calls, "busy_ns": t.emit_ns,
            })];
            out.extend(t.store_calls.iter().map(|c| {
                json!({
                    "name": if c.snapshot { "store.snapshot" } else { "store.append" },
                    "start_ns": c.start_ns, "end_ns": c.end_ns, "size": c.size,
                })
            }));
            out
        };
        let ticks: Vec<Value> = self
            .ticks
            .iter()
            .map(|t| {
                json!({
                    "name": "tick", "tick": t.tick, "start_ns": t.start_ns,
                    "end_ns": t.end_ns, "children": children(t),
                })
            })
            .collect();
        json!({
            "name": "run", "start_ns": self.start_ns, "end_ns": self.end_ns,
            "self_ns": (self.self_s() * 1e9) as u64,
            "outside_ticks": children(&self.outside),
            "children": ticks,
        })
    }
}

#[derive(Default)]
struct Open {
    run: RunSpans,
    current: Option<TickSpan>,
}

/// Collects the spans of one run at a time.
pub struct Recorder {
    origin: Instant,
    emit_calls: AtomicU64,
    emit_ns: AtomicU64,
    open: Mutex<Open>,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            origin: Instant::now(),
            emit_calls: AtomicU64::new(0),
            emit_ns: AtomicU64::new(0),
            open: Mutex::new(Open::default()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Move the emit counters accumulated since the last boundary into
    /// `into`.
    fn drain_emits(&self, into: &mut TickSpan) {
        // Relaxed: the counters are statistics read by the one thread
        // that also drives the run.
        into.emit_calls += self.emit_calls.swap(0, Ordering::Relaxed);
        into.emit_ns += self.emit_ns.swap(0, Ordering::Relaxed);
    }

    fn close_current(&self, open: &mut Open, now: u64) {
        match open.current.take() {
            Some(mut tick) => {
                tick.end_ns = now;
                self.drain_emits(&mut tick);
                open.run.ticks.push(tick);
            }
            None => self.drain_emits(&mut open.run.outside),
        }
    }

    /// Open the run span.
    pub fn begin_run(&self) {
        let mut open = self.open.lock().expect("recorder mutex poisoned");
        *open = Open::default();
        self.emit_calls.store(0, Ordering::Relaxed);
        self.emit_ns.store(0, Ordering::Relaxed);
        open.run.start_ns = self.now_ns();
    }

    /// Tick boundary, called from the scheduler's per-tick hook.
    pub fn tick(&self, tick: u64) {
        let now = self.now_ns();
        let mut open = self.open.lock().expect("recorder mutex poisoned");
        self.close_current(&mut open, now);
        open.current = Some(TickSpan {
            tick,
            start_ns: now,
            ..TickSpan::default()
        });
    }

    /// Close the run span and hand the tree over.
    pub fn end_run(&self) -> RunSpans {
        let now = self.now_ns();
        let mut open = self.open.lock().expect("recorder mutex poisoned");
        self.close_current(&mut open, now);
        // Whatever follows the last tick (there is none after `end_run`)
        // would land in `outside`.
        open.run.end_ns = now;
        std::mem::take(&mut open.run)
    }

    fn store_call(&self, snapshot: bool, start_ns: u64, size: u64) {
        let call = StoreCall {
            snapshot,
            start_ns,
            end_ns: self.now_ns(),
            size,
        };
        let mut open = self.open.lock().expect("recorder mutex poisoned");
        match open.current.as_mut() {
            Some(tick) => tick.store_calls.push(call),
            None => open.run.outside.store_calls.push(call),
        }
    }
}

/// A `TraceSink` that times every `emit` of the sink it wraps.
pub struct TimedSink {
    inner: Arc<dyn TraceSink>,
    recorder: Arc<Recorder>,
}

impl TimedSink {
    pub fn new(inner: Arc<dyn TraceSink>, recorder: Arc<Recorder>) -> Self {
        TimedSink { inner, recorder }
    }
}

impl TraceSink for TimedSink {
    fn emit(&self, source: &str, event: TraceEvent) {
        let start = Instant::now();
        self.inner.emit(source, event);
        let ns = start.elapsed().as_nanos() as u64;
        self.recorder.emit_calls.fetch_add(1, Ordering::Relaxed);
        self.recorder.emit_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn advance_s(&self, dt: f64) {
        self.inner.advance_s(dt);
    }
}

/// A `Store` that times every `append` and `snapshot` of the store it
/// wraps; reads pass straight through.
pub struct TimedStore<S: Store> {
    inner: S,
    recorder: Arc<Recorder>,
}

impl<S: Store> TimedStore<S> {
    pub fn new(inner: S, recorder: Arc<Recorder>) -> Self {
        TimedStore { inner, recorder }
    }
}

impl<S: Store> Store for TimedStore<S> {
    fn append(&mut self, events: &[TraceRecord]) -> StoreResult<()> {
        let start = self.recorder.now_ns();
        let result = self.inner.append(events);
        self.recorder.store_call(false, start, events.len() as u64);
        result
    }

    fn snapshot(&mut self, snap: SnapshotRecord) -> StoreResult<()> {
        let size = snap.state.len() as u64;
        let start = self.recorder.now_ns();
        let result = self.inner.snapshot(snap);
        self.recorder.store_call(true, start, size);
        result
    }

    fn replay_from(&self, seq: u64) -> StoreResult<Vec<TraceRecord>> {
        self.inner.replay_from(seq)
    }

    fn latest_snapshot(&self) -> StoreResult<Option<SnapshotRecord>> {
        self.inner.latest_snapshot()
    }

    fn next_seq(&self) -> u64 {
        self.inner.next_seq()
    }

    fn snapshot_count(&self) -> usize {
        self.inner.snapshot_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridflow_store::MemStore;
    use gridflow_telemetry::TraceLog;

    #[test]
    fn spans_nest_under_ticks_and_self_time_excludes_children() {
        let rec = Recorder::new();
        let log = TraceLog::new();
        let sink = TimedSink::new(Arc::new(log.clone()), rec.clone());
        let mut store = TimedStore::new(MemStore::new(), rec.clone());

        rec.begin_run();
        sink.emit("engine", TraceEvent::TickStarted { tick: 0 });
        rec.tick(0);
        sink.emit("engine", TraceEvent::TickStarted { tick: 1 });
        store.append(&log.records()).unwrap();
        rec.tick(1);
        store
            .snapshot(SnapshotRecord::new(2, 2, 0, 0.0, vec![1, 2, 3]))
            .unwrap();
        let run = rec.end_run();

        assert_eq!(run.ticks.len(), 2);
        assert_eq!(run.outside.emit_calls, 1, "the emit before the first hook");
        assert_eq!(run.ticks[0].emit_calls, 1);
        assert_eq!(run.emit_calls(), 2);
        assert_eq!(run.store_call_count(false), 1);
        assert_eq!(run.store_size(false), 2);
        assert!(run.ticks[1].has_snapshot() && !run.ticks[0].has_snapshot());
        assert_eq!(run.store_size(true), 3);
        assert!(run.ticks[0].end_ns == run.ticks[1].start_ns);
        let children = run.emit_s() + run.store_busy_s(false) + run.store_busy_s(true);
        assert!((run.self_s() + children - run.duration_s()).abs() < 1e-9);
        assert_eq!(store.next_seq(), 2);

        let json = run.to_json();
        assert_eq!(json["children"].as_array().unwrap().len(), 2);
        assert_eq!(json["children"][1]["children"][1]["name"], "store.snapshot");
    }
}
