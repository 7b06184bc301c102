//! `gridflow-store`: the durable half of the determinism bargain.
//!
//! The engine's merged trace is already a pure function of `(seed,
//! workload, case count)` — this crate makes that stream *survive the
//! process*.  A [`Store`] is an append-only log of the exact
//! [`TraceRecord`]s the engine journal emits, interleaved with periodic
//! [`SnapshotRecord`]s wrapping serialized scheduler + fiber + recovery
//! state.  Recovery loads the latest valid snapshot and deterministically
//! re-executes the suffix; because re-execution regenerates the same
//! events, the store can *verify* the overlap byte-for-byte instead of
//! trusting it ([`Store::append`] on an already-stored sequence number
//! checks equality and reports divergence).
//!
//! Two backends ship:
//!
//! * [`MemStore`] — the in-memory reference; byte-identical semantics,
//!   no I/O, every event resident.
//! * [`FileStore`] — segmented, length-prefixed, CRC-checked files (see
//!   [`record`]).  Open checks every frame and truncates a torn tail, but
//!   parses only the events a recovery re-appends, from the latest
//!   snapshot on; only those stay resident, and other reads go to disk.

#![warn(missing_docs)]

mod file;
mod hash;
mod mem;
pub mod record;

pub use file::{FileStore, OpenReport};
pub use hash::{crc32, fnv1a64};
pub use mem::MemStore;

use gridflow_telemetry::TraceRecord;

/// Schema version this build writes into event records.
pub const EVENT_SCHEMA_VERSION: u8 = 1;
/// Newest snapshot schema version this build can recover from.
pub const SNAPSHOT_SCHEMA_VERSION: u8 = 1;

/// Everything that can go wrong inside a store.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(String),
    /// Stored bytes are internally inconsistent (bad hash, non-monotone
    /// snapshot, events before the log's base).
    Corrupt(String),
    /// A replayed record differs from the stored record at the same
    /// sequence number — the recovery re-execution diverged from the
    /// original run, which means determinism itself is broken.
    ReplayDivergence {
        /// Sequence number at which the replay and the store disagree.
        seq: u64,
    },
    /// Events were appended out of order, leaving a hole in the log.
    SequenceGap {
        /// The sequence number the log expected next.
        expected: u64,
        /// The sequence number actually offered.
        found: u64,
    },
    /// A snapshot was written by a newer build than this reader
    /// supports.
    UnsupportedSchema {
        /// Schema version found in the record.
        found: u8,
        /// Newest schema version this build supports.
        supported: u8,
    },
    /// A recovery was asked of a run that has no store bound to it.
    NotBound,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Corrupt(why) => write!(f, "store corrupt: {why}"),
            StoreError::ReplayDivergence { seq } => {
                write!(f, "replay diverged from stored record at seq {seq}")
            }
            StoreError::SequenceGap { expected, found } => {
                write!(f, "event sequence gap: expected {expected}, found {found}")
            }
            StoreError::UnsupportedSchema { found, supported } => write!(
                f,
                "snapshot schema {found} is newer than supported {supported}"
            ),
            StoreError::NotBound => write!(f, "no durable store is bound to this run"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Result alias for store operations.
pub type StoreResult<T> = Result<T, StoreError>;

/// A snapshot of engine state at a tick boundary, as stored in the log.
///
/// The `state` payload is opaque to the store (the engine serializes
/// its own `EngineSnapshot` into it); the surrounding fields are what
/// recovery needs *before* deserializing: where to reseed the journal
/// (`journal_seq`), the virtual clock reading, and a content hash
/// guarding the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotRecord {
    /// Snapshot schema version (see [`SNAPSHOT_SCHEMA_VERSION`]).
    pub schema: u8,
    /// First tick the restored engine will execute.
    pub next_tick: u64,
    /// Journal sequence number the restored trace log resumes at; all
    /// stored events with `seq >= journal_seq` are the replay suffix.
    pub journal_seq: u64,
    /// Virtual clock ticks at capture time.
    pub clock_ticks: u64,
    /// Virtual clock seconds at capture time.
    pub clock_s: f64,
    /// FNV-1a/64 content hash over `state`.
    pub state_hash: u64,
    /// Opaque serialized engine state.
    pub state: Vec<u8>,
}

impl SnapshotRecord {
    /// A current-schema snapshot wrapping `state`, with its content
    /// hash computed.
    pub fn new(
        next_tick: u64,
        journal_seq: u64,
        clock_ticks: u64,
        clock_s: f64,
        state: Vec<u8>,
    ) -> Self {
        let state_hash = fnv1a64(&state);
        SnapshotRecord {
            schema: SNAPSHOT_SCHEMA_VERSION,
            next_tick,
            journal_seq,
            clock_ticks,
            clock_s,
            state_hash,
            state,
        }
    }

    /// Integrity check: does the stored content hash match the payload?
    pub fn verify_hash(&self) -> StoreResult<()> {
        if fnv1a64(&self.state) != self.state_hash {
            return Err(StoreError::Corrupt(format!(
                "snapshot at tick {} fails its content hash",
                self.next_tick
            )));
        }
        Ok(())
    }

    /// Recovery-time validation: refuse snapshots from a newer schema,
    /// and refuse payloads that fail their content hash.
    pub fn validate(&self) -> StoreResult<()> {
        if self.schema > SNAPSHOT_SCHEMA_VERSION {
            return Err(StoreError::UnsupportedSchema {
                found: self.schema,
                supported: SNAPSHOT_SCHEMA_VERSION,
            });
        }
        self.verify_hash()
    }
}

/// The storage surface the engine writes through and recovery reads
/// from.
///
/// Appends are *verified*: re-appending a sequence number the store
/// already holds checks byte equality against the stored record (and
/// errors with [`StoreError::ReplayDivergence`] on mismatch) instead of
/// duplicating it.  That property is what lets a recovering engine
/// simply re-run with a reseeded journal — the overlap window between
/// the restored snapshot and the crash point is re-proven, not skipped.
pub trait Store: Send {
    /// Append `events` in order.  Sequence numbers must continue the
    /// log (no gaps); already-stored numbers are verified, not
    /// re-stored.
    fn append(&mut self, events: &[TraceRecord]) -> StoreResult<()>;

    /// Append a snapshot record.  Re-appending a snapshot the store
    /// already holds (same `journal_seq` and `next_tick`) verifies
    /// payload equality instead of duplicating it.
    fn snapshot(&mut self, snap: SnapshotRecord) -> StoreResult<()>;

    /// All stored events with `seq >= seq`, in order.
    fn replay_from(&self, seq: u64) -> StoreResult<Vec<TraceRecord>>;

    /// The most recent stored snapshot, validated (schema + content
    /// hash), or `None` for a snapshot-free log.
    fn latest_snapshot(&self) -> StoreResult<Option<SnapshotRecord>>;

    /// The sequence number the log expects next (0 for an empty log).
    fn next_seq(&self) -> u64;

    /// Number of stored snapshots.
    fn snapshot_count(&self) -> usize;
}

/// Serialize stored events as JSON Lines, byte-identical to
/// `TraceLog::to_jsonl` over the same records — the comparison form for
/// crash/replay equality proofs.
pub fn merged_jsonl(events: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in events {
        serde::Serialize::write_json(r, &mut out);
        out.push('\n');
    }
    out
}

/// The log state both backends delegate to, and the verified-append
/// rules: the base and next seq (both 0 when empty), the resident events
/// from seq `window` on, and the snapshots.  The core keeps no appended
/// event: [`MemStore`] adds each to `resident`, [`FileStore`] writes it.
#[derive(Debug, Default)]
pub(crate) struct JournalCore {
    base: u64,
    next: u64,
    resident: Vec<TraceRecord>,
    window: u64,
    snapshots: Vec<SnapshotRecord>,
}

/// What a verified append decided about one record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Accepted {
    /// New record — backends must persist it.
    Stored,
    /// Already stored and byte-identical — nothing to persist.
    Duplicate,
    /// Stored, not resident (never in a `MemStore`): read back, retry.
    NotResident,
}

impl JournalCore {
    /// The stored events with seq `>= seq`, or `None` when some are not
    /// resident.  Sequence numbers are dense, so `seq` locates its record.
    pub(crate) fn events_from(&self, seq: u64) -> Option<Vec<TraceRecord>> {
        let start = seq.clamp(self.base, self.next).checked_sub(self.window)?;
        let whole = self.window + self.resident.len() as u64 == self.next;
        whole.then(|| self.resident[start as usize..].to_vec())
    }

    pub(crate) fn latest_snapshot(&self) -> StoreResult<Option<SnapshotRecord>> {
        let latest = self.snapshots.last();
        latest.map(|s| s.validate().map(|()| s.clone())).transpose()
    }

    /// Verified event append (see [`Store::append`]); the first sets the base.
    pub(crate) fn accept_event(&mut self, record: &TraceRecord) -> StoreResult<Accepted> {
        let seq = record.seq;
        if self.next == 0 {
            (self.base, self.next, self.window) = (seq, seq, seq);
        }
        if seq < self.base {
            return Err(StoreError::Corrupt(format!(
                "event seq {seq} precedes the log base {}",
                self.base
            )));
        }
        if seq > self.next {
            return Err(StoreError::SequenceGap {
                expected: self.next,
                found: seq,
            });
        }
        if seq == self.next {
            self.next += 1;
            return Ok(Accepted::Stored);
        }
        let at = usize::try_from(seq.wrapping_sub(self.window)).ok();
        let Some(stored) = at.and_then(|at| self.resident.get(at)) else {
            return Ok(Accepted::NotResident);
        };
        // Equal records encode identically, so only records that differ
        // as values need their bytes compared.  (The one `==`-equal pair
        // JSON tells apart is 0.0 and -0.0; virtual clocks, durations
        // and costs never produce a negative zero.)
        let json = |r| merged_jsonl(std::slice::from_ref(r));
        if stored != record && json(stored) != json(record) {
            return Err(StoreError::ReplayDivergence { seq });
        }
        Ok(Accepted::Duplicate)
    }

    /// Verified snapshot append (see [`Store::snapshot`]): the snapshot
    /// as stored when it is new, `None` for a verified duplicate.
    pub(crate) fn accept_snapshot(
        &mut self,
        snap: SnapshotRecord,
    ) -> StoreResult<Option<&SnapshotRecord>> {
        snap.verify_hash()?;
        if let Some(existing) = self
            .snapshots
            .iter()
            .find(|s| s.journal_seq == snap.journal_seq && s.next_tick == snap.next_tick)
        {
            if existing.state == snap.state && existing.schema == snap.schema {
                return Ok(None);
            }
            return Err(StoreError::ReplayDivergence {
                seq: snap.journal_seq,
            });
        }
        if let Some(last) = self.snapshots.last() {
            if snap.journal_seq < last.journal_seq {
                return Err(StoreError::Corrupt(format!(
                    "snapshot journal_seq went backwards: {} after {}",
                    snap.journal_seq, last.journal_seq
                )));
            }
        }
        self.snapshots.push(snap);
        Ok(self.snapshots.last())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridflow_telemetry::TraceEvent;

    pub(crate) fn event(seq: u64, tick: u64) -> TraceRecord {
        TraceRecord {
            seq,
            tick,
            at_s: tick as f64,
            source: "engine".into(),
            event: TraceEvent::TickStarted { tick },
        }
    }

    /// Accept `record` and keep it resident, as `MemStore` does.
    fn keep(core: &mut JournalCore, record: &TraceRecord) -> StoreResult<Accepted> {
        let verdict = core.accept_event(record)?;
        if verdict == Accepted::Stored {
            core.resident.push(record.clone());
        }
        Ok(verdict)
    }

    #[test]
    fn verified_append_accepts_identical_overlap_and_rejects_divergence() {
        let mut core = JournalCore::default();
        assert_eq!(keep(&mut core, &event(0, 0)).unwrap(), Accepted::Stored);
        assert_eq!(core.accept_event(&event(1, 1)).unwrap(), Accepted::Stored);
        // A stored record the core does not hold is for the backend to
        // read back.
        assert_eq!(
            core.accept_event(&event(1, 1)).unwrap(),
            Accepted::NotResident
        );
        core.resident.push(event(1, 1));
        // Identical replay of seq 1 is a verified duplicate.
        assert_eq!(
            core.accept_event(&event(1, 1)).unwrap(),
            Accepted::Duplicate
        );
        // A different record at seq 1 is divergence.
        assert_eq!(
            core.accept_event(&event(1, 7)),
            Err(StoreError::ReplayDivergence { seq: 1 })
        );
        // Skipping seq 2 is a gap.
        assert_eq!(
            core.accept_event(&event(3, 3)),
            Err(StoreError::SequenceGap {
                expected: 2,
                found: 3
            })
        );
        assert_eq!(core.next, 2);
    }

    #[test]
    fn events_from_indexes_a_log_whose_base_is_not_zero() {
        // A store that first saw a resumed journal: its log starts at 7.
        let mut core = JournalCore::default();
        for seq in 7..=9 {
            keep(&mut core, &event(seq, seq)).unwrap();
        }
        assert_eq!(core.next, 10);
        // Below the base, inside the log and past its end, indexing by
        // `seq - base` returns what a scan of the log would.
        for seq in (0..=12).chain([u64::MAX]) {
            let scanned: Vec<_> = core
                .resident
                .iter()
                .filter(|r| r.seq >= seq)
                .cloned()
                .collect();
            assert_eq!(core.events_from(seq), Some(scanned), "from {seq}");
        }
        assert_eq!(core.events_from(8).unwrap().first().map(|r| r.seq), Some(8));
        assert_eq!(JournalCore::default().events_from(0), Some(Vec::new()));
    }

    #[test]
    fn snapshots_verify_hash_and_schema() {
        let mut core = JournalCore::default();
        let snap = SnapshotRecord::new(4, 10, 4, 1.5, b"abc".to_vec());
        assert_eq!(core.accept_snapshot(snap.clone()).unwrap(), Some(&snap));
        assert_eq!(core.accept_snapshot(snap.clone()).unwrap(), None);
        // Same position, different payload: divergence.
        let mut other = SnapshotRecord::new(4, 10, 4, 1.5, b"xyz".to_vec());
        assert_eq!(
            core.accept_snapshot(other.clone()),
            Err(StoreError::ReplayDivergence { seq: 10 })
        );
        // Tampered payload fails its hash.
        other.state_hash = snap.state_hash;
        assert!(matches!(
            core.accept_snapshot(other),
            Err(StoreError::Corrupt(_))
        ));
        // A future-schema snapshot is readable but refuses recovery.
        let future = SnapshotRecord {
            schema: SNAPSHOT_SCHEMA_VERSION + 1,
            journal_seq: 11,
            ..SnapshotRecord::new(5, 11, 5, 2.0, b"v2".to_vec())
        };
        core.accept_snapshot(future).unwrap();
        assert_eq!(
            core.latest_snapshot(),
            Err(StoreError::UnsupportedSchema {
                found: SNAPSHOT_SCHEMA_VERSION + 1,
                supported: SNAPSHOT_SCHEMA_VERSION
            })
        );
    }

    #[test]
    fn merged_jsonl_matches_trace_log_serialization() {
        let log = gridflow_telemetry::TraceLog::new();
        use gridflow_telemetry::TraceSink;
        log.emit("engine", TraceEvent::TickStarted { tick: 0 });
        log.emit(
            "engine",
            TraceEvent::CaseCompleted {
                case: "c-0".into(),
                success: true,
            },
        );
        assert_eq!(merged_jsonl(&log.records()), log.to_jsonl());
    }
}
