//! Torn-write and corruption properties for the file backend.
//!
//! The crash model behind `FileStore` is "the process died mid-write":
//! the tail of the last segment may hold a half-written record, or a
//! sector's worth of garbage.  These proptests truncate and bit-flip
//! the last segment at arbitrary byte offsets and require `open` to
//! (a) never panic, (b) recover a sequence-contiguous *prefix* of the
//! original events, (c) report what it discarded, and (d) be idempotent
//! — a second open of the repaired directory finds nothing left to fix.
//! One level down, [`decode_record`] is fed arbitrary bytes and
//! single-bit flips of valid frames directly: it never panics, never
//! hands out more than the buffer holds, and calls a damaged frame
//! [`Decoded::Torn`].

use gridflow_store::record::{decode_record, encode_event, encode_snapshot, Decoded, LogRecord};
use gridflow_store::{FileStore, SnapshotRecord, Store};
use gridflow_telemetry::{TraceEvent, TraceRecord};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("gridflow-torn-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn event(seq: u64) -> TraceRecord {
    TraceRecord {
        seq,
        tick: seq / 2,
        at_s: seq as f64 * 0.25,
        source: "engine".into(),
        event: TraceEvent::TickStarted { tick: seq },
    }
}

const EVENTS: u64 = 40;
const SEG_CAP: usize = 8;
const SNAP_EVERY: u64 = 9;

/// Build a deterministic multi-segment store: 40 events, a snapshot
/// after every 9th, segments of 8 records.
fn build(dir: &Path) -> Vec<TraceRecord> {
    let mut store = FileStore::create(dir, SEG_CAP).expect("create store");
    let originals: Vec<TraceRecord> = (0..EVENTS).map(event).collect();
    for record in &originals {
        store.append(std::slice::from_ref(record)).expect("append");
        if (record.seq + 1) % SNAP_EVERY == 0 {
            store
                .snapshot(SnapshotRecord::new(
                    record.tick + 1,
                    record.seq + 1,
                    record.tick + 1,
                    record.at_s,
                    format!("state-at-{}", record.seq).into_bytes(),
                ))
                .expect("snapshot");
        }
    }
    originals
}

fn last_segment(dir: &Path) -> PathBuf {
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("name"))
        .collect();
    names.sort();
    dir.join(names.last().expect("at least one segment").clone())
}

/// Recovered events must be exactly `originals[..n]` for some `n`.
fn assert_prefix(recovered: &[TraceRecord], originals: &[TraceRecord]) {
    assert!(recovered.len() <= originals.len());
    for (r, o) in recovered.iter().zip(originals) {
        assert_eq!(r, o);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn truncation_at_any_offset_recovers_a_reported_prefix(cut_pick in 0usize..100_000) {
        let tmp = TempDir::new();
        let originals = build(&tmp.0);
        let path = last_segment(&tmp.0);
        let len = fs::metadata(&path).expect("metadata").len() as usize;
        let cut = cut_pick % (len + 1);
        fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open segment")
            .set_len(cut as u64)
            .expect("truncate");

        let (store, report) = FileStore::open(&tmp.0, SEG_CAP).expect("open after tear");
        let recovered = store.replay_from(0).expect("replay");
        assert_prefix(&recovered, &originals);
        // Whatever survives of the snapshot chain is still valid.
        store.latest_snapshot().expect("snapshots stay readable");
        // Anything torn mid-record was reported, not silently dropped.
        if report.truncated {
            prop_assert!(report.discarded_bytes > 0 || report.discarded_segments > 0);
        }
        drop(store);
        // Repair is idempotent: a second open finds a clean log with
        // the same contents.
        let (again, clean) = FileStore::open(&tmp.0, SEG_CAP).expect("reopen");
        prop_assert!(!clean.truncated, "second open still repairing: {clean:?}");
        prop_assert_eq!(again.replay_from(0).expect("replay"), recovered);
    }

    #[test]
    fn bit_flip_at_any_offset_recovers_a_reported_prefix(
        offset_pick in 0usize..100_000,
        bit in 0u8..8,
    ) {
        let tmp = TempDir::new();
        let originals = build(&tmp.0);
        let path = last_segment(&tmp.0);
        let mut bytes = fs::read(&path).expect("read segment");
        let offset = offset_pick % bytes.len();
        bytes[offset] ^= 1 << bit;
        fs::write(&path, &bytes).expect("write corrupted segment");

        let (store, report) = FileStore::open(&tmp.0, SEG_CAP).expect("open after flip");
        let recovered = store.replay_from(0).expect("replay");
        assert_prefix(&recovered, &originals);
        store.latest_snapshot().expect("snapshots stay readable");
        // A flipped bit always damages at least one record (CRC or
        // header), so the open must have discarded something.
        prop_assert!(report.truncated, "flip at {offset} bit {bit} undetected");
        prop_assert!(report.discarded_bytes > 0 || report.discarded_segments > 0);
        drop(store);
        let (again, clean) = FileStore::open(&tmp.0, SEG_CAP).expect("reopen");
        prop_assert!(!clean.truncated, "second open still repairing: {clean:?}");
        prop_assert_eq!(again.replay_from(0).expect("replay"), recovered);
    }

    #[test]
    fn append_after_repair_continues_the_sequence(cut_pick in 0usize..100_000) {
        let tmp = TempDir::new();
        let originals = build(&tmp.0);
        let path = last_segment(&tmp.0);
        let len = fs::metadata(&path).expect("metadata").len() as usize;
        let cut = cut_pick % (len + 1);
        fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open segment")
            .set_len(cut as u64)
            .expect("truncate");

        let (mut store, _report) = FileStore::open(&tmp.0, SEG_CAP).expect("open after tear");
        let next = store.next_seq();
        // Re-append the lost suffix (what a recovering engine does):
        // the store accepts it seamlessly from its repaired tail.
        let suffix: Vec<TraceRecord> = originals.iter().filter(|r| r.seq >= next).cloned().collect();
        store.append(&suffix).expect("re-append suffix");
        prop_assert_eq!(store.next_seq(), EVENTS);
        drop(store);
        let (reread, report) = FileStore::open(&tmp.0, SEG_CAP).expect("reopen");
        prop_assert!(!report.truncated);
        prop_assert_eq!(reread.replay_from(0).expect("replay"), originals);
    }
}

// The record decoder itself, with no file under it: cheap enough for
// many more cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_bytes_decode_without_panicking_or_overrunning_the_buffer(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        offset_pick in 0usize..512,
    ) {
        let offset = offset_pick % (bytes.len() + 1);
        match decode_record(&bytes, offset) {
            Decoded::End => prop_assert_eq!(offset, bytes.len()),
            Decoded::Torn => {}
            // Whatever decodes was wholly inside the buffer: the length
            // prefix is checked against what is there before anything
            // is copied out.
            Decoded::Record { record, next_offset } => {
                prop_assert!(offset < next_offset && next_offset <= bytes.len());
                if let LogRecord::Snapshot(snap) = record {
                    prop_assert!(snap.state.len() < next_offset - offset);
                }
            }
        }
    }

    #[test]
    fn a_length_prefix_past_the_buffer_is_torn_whatever_it_claims(
        claimed in any::<u32>(),
        tail in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // The frame guard: a body cannot be longer than the bytes that
        // follow its prefix, so a claim past them allocates nothing.
        prop_assume!(claimed as usize + 4 > tail.len());
        let mut bytes = claimed.to_le_bytes().to_vec();
        bytes.extend_from_slice(&tail);
        prop_assert!(matches!(decode_record(&bytes, 0), Decoded::Torn));
    }

    #[test]
    fn any_single_bit_flip_of_a_valid_frame_is_torn(
        seq in 0u64..1_000,
        snapshot in any::<bool>(),
        bit_pick in 0usize..100_000,
    ) {
        let mut frame = if snapshot {
            let state = format!("state-at-{seq}").into_bytes();
            encode_snapshot(&SnapshotRecord::new(seq + 1, seq, seq, seq as f64 * 0.5, state))
        } else {
            encode_event(&event(seq))
        };
        let whole = matches!(
            decode_record(&frame, 0),
            Decoded::Record { next_offset, .. } if next_offset == frame.len()
        );
        prop_assert!(whole, "the unflipped frame decodes");
        let bit = bit_pick % (frame.len() * 8);
        frame[bit / 8] ^= 1 << (bit % 8);
        let decoded = decode_record(&frame, 0);
        prop_assert!(matches!(decoded, Decoded::Torn), "bit {bit}: {decoded:?}");
    }
}
