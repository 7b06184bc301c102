//! The in-memory backend: verified-append semantics with no I/O, every
//! event resident.  `MemStore` is the reference the file backend must
//! agree with, and the cheapest durable journal when the "process"
//! killed is a simulated one (the store outlives the engine object).

use crate::{Accepted, JournalCore, SnapshotRecord, Store, StoreResult};
use gridflow_telemetry::TraceRecord;

/// An in-memory [`Store`].
#[derive(Debug, Default)]
pub struct MemStore {
    core: JournalCore,
}

impl MemStore {
    /// An empty in-memory store.
    pub fn new() -> Self {
        MemStore::default()
    }
}

impl Store for MemStore {
    fn append(&mut self, events: &[TraceRecord]) -> StoreResult<()> {
        for record in events {
            if self.core.accept_event(record)? == Accepted::Stored {
                self.core.resident.push(record.clone());
            }
        }
        Ok(())
    }

    fn snapshot(&mut self, snap: SnapshotRecord) -> StoreResult<()> {
        self.core.accept_snapshot(snap).map(|_| ())
    }

    fn replay_from(&self, seq: u64) -> StoreResult<Vec<TraceRecord>> {
        // Every event a `MemStore` accepts is resident.
        Ok(self.core.events_from(seq).unwrap_or_default())
    }

    fn latest_snapshot(&self) -> StoreResult<Option<SnapshotRecord>> {
        self.core.latest_snapshot()
    }

    fn next_seq(&self) -> u64 {
        self.core.next
    }

    fn snapshot_count(&self) -> usize {
        self.core.snapshots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridflow_telemetry::TraceEvent;

    fn event(seq: u64) -> TraceRecord {
        TraceRecord {
            seq,
            tick: seq,
            at_s: 0.0,
            source: "engine".into(),
            event: TraceEvent::TickStarted { tick: seq },
        }
    }

    #[test]
    fn replay_from_slices_the_suffix() {
        let mut store = MemStore::new();
        store.append(&[event(0), event(1), event(2)]).unwrap();
        assert_eq!(store.next_seq(), 3);
        let suffix = store.replay_from(1).unwrap();
        assert_eq!(suffix.len(), 2);
        assert_eq!(suffix[0].seq, 1);
        assert!(store.replay_from(3).unwrap().is_empty());
        assert_eq!(store.replay_from(0).unwrap().len(), 3);
    }

    #[test]
    fn latest_snapshot_returns_the_most_recent() {
        let mut store = MemStore::new();
        store.append(&[event(0), event(1)]).unwrap();
        store
            .snapshot(SnapshotRecord::new(1, 2, 1, 0.0, b"a".to_vec()))
            .unwrap();
        store.append(&[event(2)]).unwrap();
        store
            .snapshot(SnapshotRecord::new(2, 3, 2, 0.0, b"b".to_vec()))
            .unwrap();
        let latest = store.latest_snapshot().unwrap().unwrap();
        assert_eq!((latest.next_tick, latest.journal_seq), (2, 3));
        assert_eq!(store.snapshot_count(), 2);
    }
}
