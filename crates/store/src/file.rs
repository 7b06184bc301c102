//! The file-backed backend: segmented, length-prefixed, CRC-checked
//! logs with torn-tail truncation on open.
//!
//! A store directory holds `seg-NNNNNN.log` files (see [`crate::record`]
//! for the byte layout); writes go to the highest-numbered segment until
//! it holds `records_per_segment` records.  Every read checks each
//! record's frame front to back (length, CRC, kind, an event's schema
//! byte, a snapshot's header length).  On open the first that fails ends
//! the valid prefix: its segment is truncated there, later ones removed,
//! and the damage *reported* in an [`OpenReport`].  Open decodes the
//! snapshots, the first event (the log's base) and the events from the
//! latest snapshot's `journal_seq` on (all of them without a snapshot).
//! That window alone stays resident, and an event in it that does not
//! parse is a torn point too.  Other reads scan the segments again, and
//! there damage is [`StoreError::Corrupt`].  Each `append()`/`snapshot()`
//! call hands its bytes to the OS before it returns (one `write_all` per
//! segment it touches): the crash model is process death, not power loss.

use crate::record::{
    check_frame, encode_snapshot, event_into, header_is_valid, parse_event, segment_header,
    Decoded, Frame, SEGMENT_HEADER_LEN,
};
use crate::{Accepted, JournalCore, SnapshotRecord, Store, StoreError, StoreResult};
use gridflow_telemetry::TraceRecord;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// What `FileStore::open` found — and what it had to discard.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpenReport {
    /// Number of segment files scanned (including any removed).
    pub segments: usize,
    /// Valid event records recovered.
    pub events: usize,
    /// Valid snapshot records recovered.
    pub snapshots: usize,
    /// Bytes discarded as torn or corrupt (truncated tails plus any
    /// whole segments dropped after the corruption point).
    pub discarded_bytes: u64,
    /// Whole segment files removed (corrupt header, or stranded after
    /// a truncation in an earlier segment).
    pub discarded_segments: usize,
    /// Did open have to truncate or remove anything?
    pub truncated: bool,
}

fn io_err(e: std::io::Error) -> StoreError {
    StoreError::Io(e.to_string())
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:06}.log"))
}

/// A directory read and frame-checked up to its first damage; records
/// and damage are found by (segment position, offset), 0: a bad header.
#[derive(Default)]
struct Scan {
    indices: Vec<u64>,
    segments: Vec<Vec<u8>>,
    frames: Vec<((usize, usize), Frame)>,
    cut: Option<(usize, usize)>,
}

impl Scan {
    fn read(dir: &Path) -> StoreResult<Scan> {
        let mut indices: Vec<u64> = fs::read_dir(dir)
            .map_err(io_err)?
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                let idx = name.strip_prefix("seg-")?.strip_suffix(".log")?;
                idx.parse().ok()
            })
            .collect();
        indices.sort_unstable();
        let mut scan = Scan::default();
        for (pos, &index) in indices.iter().enumerate() {
            if scan.cut.is_some() {
                break; // past the damage, segments are removed unread
            }
            let bytes = fs::read(segment_path(dir, index)).map_err(io_err)?;
            let mut offset = SEGMENT_HEADER_LEN;
            scan.cut = scan.cut.or((!header_is_valid(&bytes)).then_some((pos, 0)));
            while scan.cut.is_none() {
                match check_frame(&bytes, offset) {
                    Decoded::Record {
                        record,
                        next_offset,
                    } => {
                        scan.frames.push(((pos, offset), record));
                        offset = next_offset;
                    }
                    Decoded::Torn => scan.cut = Some((pos, offset)),
                    Decoded::End => break,
                }
            }
            scan.segments.push(bytes);
        }
        Ok(Scan { indices, ..scan })
    }

    /// Parse the first event and those from seq `from` on, up to one that
    /// fails: the log's base and next seq, the events, the failure.
    fn events(&self, from: u64) -> (u64, u64, Vec<TraceRecord>, Option<usize>) {
        let (mut base, mut count, mut kept, mut failed) = (None, 0, Vec::new(), None);
        for (at, ((segment, _), frame)) in self.frames.iter().enumerate() {
            let Frame::Event(text) = frame else { continue };
            if base.is_none_or(|base| base + count >= from) {
                let Some(record) = parse_event(&self.segments[*segment][text.clone()]) else {
                    failed = Some(at);
                    break;
                };
                if *base.get_or_insert(record.seq) + count >= from {
                    kept.push(record);
                }
            }
            count += 1;
        }
        let base = base.unwrap_or(0);
        (base, base + count, kept, failed)
    }
}

/// A file-backed [`Store`].
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    records_per_segment: usize,
    core: JournalCore,
    current_index: u64,
    current_records: usize,
    /// Append handle on segment `current_index`, opened by its first write.
    current: Option<fs::File>,
    /// An append's batch and JSON scratch, kept for their capacity.
    scratch: (Vec<u8>, String),
}

impl FileStore {
    /// Open (or create) the store in `dir`, truncating any torn tail;
    /// returns it with a report of what was found and discarded.
    pub fn open(
        dir: impl Into<PathBuf>,
        records_per_segment: usize,
    ) -> StoreResult<(FileStore, OpenReport)> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(io_err)?;
        let scan = Scan::read(&dir)?;
        let from = scan.frames.iter().rev().find_map(|f| match &f.1 {
            Frame::Snapshot(snap) => Some(snap.journal_seq),
            Frame::Event(_) => None,
        });
        // A window event that does not parse cuts the log there.
        let (base, next, resident, failed) = scan.events(from.unwrap_or(0));
        let end = failed.unwrap_or(scan.frames.len());
        let cut = scan.frames.get(end).map(|f| f.0).or(scan.cut);
        let last = cut.map_or(scan.indices.len().saturating_sub(1), |(pos, _)| pos);
        let current_records = scan.frames[..end].iter().filter(|f| f.0 .0 == last).count();
        let kept = scan.frames.into_iter().take(end);
        let snapshots: Vec<_> = kept
            .filter_map(|f| match f.1 {
                Frame::Snapshot(snap) => Some(snap),
                Frame::Event(_) => None,
            })
            .collect();
        let mut report = OpenReport {
            segments: scan.indices.len(),
            events: (next - base) as usize,
            snapshots: snapshots.len(),
            truncated: cut.is_some(),
            ..OpenReport::default()
        };
        // Writes resume at the cut; what lies past it would leave a hole.
        for (pos, &index) in scan.indices.iter().enumerate().skip(last) {
            let (Some((_, offset)), path) = (cut, segment_path(&dir, index)) else {
                break;
            };
            let len = fs::metadata(&path).map_or(0, |m| m.len());
            if pos == last && offset > 0 {
                report.discarded_bytes += len - offset as u64;
                let file = fs::OpenOptions::new().write(true).open(&path);
                file.and_then(|f| f.set_len(offset as u64))
                    .map_err(io_err)?;
            } else {
                report.discarded_bytes += len;
                report.discarded_segments += 1;
                fs::remove_file(&path).map_err(io_err)?;
            }
        }
        let store = FileStore {
            dir,
            records_per_segment: records_per_segment.max(1),
            core: JournalCore {
                base,
                next,
                resident,
                window: from.unwrap_or(0).clamp(base, next),
                snapshots,
            },
            current_index: scan.indices.get(last).copied().unwrap_or(0),
            current_records,
            current: None,
            scratch: Default::default(),
        };
        Ok((store, report))
    }

    /// Open the store and discard the report (fresh-directory callers).
    pub fn create(dir: impl Into<PathBuf>, records_per_segment: usize) -> StoreResult<FileStore> {
        Ok(Self::open(dir, records_per_segment)?.0)
    }

    /// The stored events with seq `>= from`, read back from the segments.
    fn read_events(&self, from: u64) -> StoreResult<Vec<TraceRecord>> {
        let scan = Scan::read(&self.dir)?;
        let at = |(pos, offset)| format!("seg-{:06}.log at byte {offset}", scan.indices[pos]);
        let (_, next, events, failed) = scan.events(from);
        let why = match (scan.cut, failed) {
            (Some(cut), _) => format!("a damaged frame in {}", at(cut)),
            (_, Some(i)) => format!("no trace event in {}", at(scan.frames[i].0)),
            _ if next == self.core.next => return Ok(events),
            _ => format!("the segments end at seq {next}, not {}", self.core.next),
        };
        Err(StoreError::Corrupt(why))
    }

    /// Make room in the current segment for one more record, which the
    /// caller frames onto `batch`; a full segment's batch is written out
    /// first and the next segment started.
    fn stage(&mut self, batch: &mut Vec<u8>) -> StoreResult<()> {
        if self.current_records >= self.records_per_segment {
            self.write_batch(batch)?;
            self.current_index += 1;
            self.current_records = 0;
            self.current = None;
        }
        self.current_records += 1;
        Ok(())
    }

    /// Hand `batch` to the OS in one write to the current segment —
    /// behind the segment header when the file is new — and empty it.
    fn write_batch(&mut self, batch: &mut Vec<u8>) -> StoreResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let file = match &mut self.current {
            Some(file) => file,
            None => {
                let file = fs::OpenOptions::new()
                    .append(true)
                    .create(true)
                    .open(segment_path(&self.dir, self.current_index))
                    .map_err(io_err)?;
                if file.metadata().map_err(io_err)?.len() == 0 {
                    batch.splice(0..0, segment_header());
                }
                self.current.insert(file)
            }
        };
        file.write_all(batch).map_err(io_err)?;
        batch.clear();
        Ok(())
    }
}

impl Store for FileStore {
    fn append(&mut self, events: &[TraceRecord]) -> StoreResult<()> {
        let (mut batch, mut json) = std::mem::take(&mut self.scratch);
        let accepted = events.iter().try_for_each(|record| {
            let mut verdict = self.core.accept_event(record)?;
            if verdict == Accepted::NotResident {
                // Read the log from there back into the window, then verify.
                self.write_batch(&mut batch)?;
                self.core.resident = self.read_events(record.seq)?;
                self.core.window = record.seq;
                verdict = self.core.accept_event(record)?;
            }
            if verdict == Accepted::Stored {
                self.stage(&mut batch)?;
                event_into(&mut batch, &mut json, record);
            }
            Ok(())
        });
        // Records accepted before a refused one are already part of the
        // log: they reach the segment whatever `accepted` says.
        let written = self.write_batch(&mut batch);
        batch.clear();
        self.scratch = (batch, json);
        accepted.and(written)
    }

    fn snapshot(&mut self, snap: SnapshotRecord) -> StoreResult<()> {
        if let Some(stored) = self.core.accept_snapshot(snap)? {
            let mut batch = encode_snapshot(stored);
            // Nothing else is staged, so the frame is the batch.
            self.stage(&mut Vec::new())?;
            self.write_batch(&mut batch)?;
        }
        Ok(())
    }

    fn replay_from(&self, seq: u64) -> StoreResult<Vec<TraceRecord>> {
        let resident = self.core.events_from(seq);
        resident.map_or_else(|| self.read_events(seq), Ok)
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
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique scratch directory under the system temp dir, cleaned up
    /// on drop.
    pub(crate) struct TempDir(PathBuf);

    impl TempDir {
        pub(crate) fn new(tag: &str) -> Self {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("gridflow-store-{tag}-{}-{n}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }

        pub(crate) fn path(&self) -> &Path {
            &self.0
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
            tick: seq,
            at_s: seq as f64 * 0.5,
            source: "engine".into(),
            event: TraceEvent::TickStarted { tick: seq },
        }
    }

    fn snap(next_tick: u64, journal_seq: u64) -> SnapshotRecord {
        SnapshotRecord::new(
            next_tick,
            journal_seq,
            next_tick,
            0.0,
            format!("state-{next_tick}").into_bytes(),
        )
    }

    #[test]
    fn reopen_recovers_everything_written() {
        let tmp = TempDir::new("reopen");
        {
            let mut store = FileStore::create(tmp.path(), 3).unwrap();
            store.append(&[event(0), event(1), event(2)]).unwrap();
            store.snapshot(snap(3, 3)).unwrap();
            store.append(&[event(3), event(4)]).unwrap();
        }
        let (store, report) = FileStore::open(tmp.path(), 3).unwrap();
        assert_eq!(report.events, 5);
        assert_eq!(report.snapshots, 1);
        assert!(!report.truncated);
        assert_eq!(store.next_seq(), 5);
        assert_eq!(
            store.replay_from(0).unwrap(),
            vec![event(0), event(1), event(2), event(3), event(4)]
        );
        let latest = store.latest_snapshot().unwrap().unwrap();
        assert_eq!((latest.next_tick, latest.journal_seq), (3, 3));
    }

    #[test]
    fn segments_rotate_by_record_count() {
        let tmp = TempDir::new("rotate");
        {
            let mut store = FileStore::create(tmp.path(), 2).unwrap();
            store
                .append(&[event(0), event(1), event(2), event(3), event(4)])
                .unwrap();
        }
        let mut names: Vec<String> = fs::read_dir(tmp.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            ["seg-000000.log", "seg-000001.log", "seg-000002.log"]
        );
        let (store, report) = FileStore::open(tmp.path(), 2).unwrap();
        assert_eq!(report.segments, 3);
        assert_eq!(store.next_seq(), 5);
        // Writes continue in the half-full last segment, then rotate.
        let mut store = store;
        store.append(&[event(5), event(6)]).unwrap();
        assert!(segment_path(tmp.path(), 3).exists());
    }

    /// Every segment file in `dir`, by name.
    fn segment_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .map(|e| {
                let name = e.file_name().into_string().unwrap();
                (name, fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn batched_appends_write_the_bytes_of_one_append_per_record() {
        // Segments of three: a batch of five crosses one boundary, a
        // batch of eight two; the second store is also reopened mid-log
        // and must go on filling its half-full segment.
        for count in [5u64, 8] {
            let events: Vec<_> = (0..count).map(event).collect();
            let one_by_one = TempDir::new("single");
            {
                let mut store = FileStore::create(one_by_one.path(), 3).unwrap();
                for record in &events {
                    store.append(std::slice::from_ref(record)).unwrap();
                }
                store.snapshot(snap(count, count)).unwrap();
            }
            let batched = TempDir::new("batched");
            {
                let mut store = FileStore::create(batched.path(), 3).unwrap();
                store.append(&events[..1]).unwrap();
                drop(store);
                let (mut store, report) = FileStore::open(batched.path(), 3).unwrap();
                assert_eq!((report.events, report.truncated), (1, false));
                store.append(&events[1..]).unwrap();
                store.snapshot(snap(count, count)).unwrap();
            }
            let files = segment_files(batched.path());
            assert_eq!(files.len(), (count as usize + 1).div_ceil(3));
            assert_eq!(files, segment_files(one_by_one.path()));
        }
    }

    #[test]
    fn a_refused_record_leaves_the_accepted_prefix_on_disk() {
        let tmp = TempDir::new("gap");
        {
            let mut store = FileStore::create(tmp.path(), 2).unwrap();
            let offered = [event(0), event(1), event(2), event(4), event(5)];
            assert_eq!(
                store.append(&offered),
                Err(StoreError::SequenceGap {
                    expected: 3,
                    found: 4
                })
            );
            assert_eq!(store.next_seq(), 3);
        }
        let (store, report) = FileStore::open(tmp.path(), 2).unwrap();
        assert_eq!((report.events, report.truncated), (3, false));
        assert_eq!(
            store.replay_from(0).unwrap(),
            vec![event(0), event(1), event(2)]
        );
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let tmp = TempDir::new("torn");
        {
            let mut store = FileStore::create(tmp.path(), 100).unwrap();
            store.append(&[event(0), event(1), event(2)]).unwrap();
        }
        // Tear the last record in half.
        let path = segment_path(tmp.path(), 0);
        let bytes = fs::read(&path).unwrap();
        let torn_len = bytes.len() - 5;
        fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(torn_len as u64)
            .unwrap();
        let (store, report) = FileStore::open(tmp.path(), 100).unwrap();
        assert!(report.truncated);
        assert_eq!(report.events, 2);
        assert!(report.discarded_bytes > 0);
        assert_eq!(store.next_seq(), 2);
        // The truncated store accepts fresh appends of the lost suffix.
        let mut store = store;
        store.append(&[event(2), event(3)]).unwrap();
        let (reread, report) = FileStore::open(tmp.path(), 100).unwrap();
        assert_eq!(reread.next_seq(), 4);
        assert!(!report.truncated);
    }

    #[test]
    fn corruption_in_an_early_segment_drops_later_segments() {
        let tmp = TempDir::new("cascade");
        {
            let mut store = FileStore::create(tmp.path(), 2).unwrap();
            store
                .append(&[event(0), event(1), event(2), event(3), event(4)])
                .unwrap();
        }
        // Flip a byte inside the first segment's second record body.
        let path = segment_path(tmp.path(), 0);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() - 10;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let (store, report) = FileStore::open(tmp.path(), 2).unwrap();
        assert!(report.truncated);
        assert_eq!(report.discarded_segments, 2);
        assert!(report.events < 2);
        assert!(store.next_seq() < 2);
        assert!(!segment_path(tmp.path(), 1).exists());
        assert!(!segment_path(tmp.path(), 2).exists());
    }

    #[test]
    fn corrupt_header_discards_the_segment_but_not_the_log_prefix() {
        let tmp = TempDir::new("header");
        {
            let mut store = FileStore::create(tmp.path(), 2).unwrap();
            store.append(&[event(0), event(1), event(2)]).unwrap();
        }
        let path = segment_path(tmp.path(), 1);
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let (store, report) = FileStore::open(tmp.path(), 2).unwrap();
        assert!(report.truncated);
        assert_eq!(report.events, 2);
        assert_eq!(report.discarded_segments, 1);
        assert_eq!(store.next_seq(), 2);
    }

    /// Every event `written` holds with seq `>= from`.
    fn suffix(written: &[TraceRecord], from: u64) -> Vec<TraceRecord> {
        written.iter().filter(|r| r.seq >= from).cloned().collect()
    }

    #[test]
    fn a_snapshot_as_the_last_record_leaves_an_empty_window() {
        let tmp = TempDir::new("empty-window");
        let written: Vec<_> = (0..7).map(event).collect();
        {
            let mut store = FileStore::create(tmp.path(), 3).unwrap();
            store.append(&written[..5]).unwrap();
            store.snapshot(snap(5, 5)).unwrap();
        }
        let (mut store, report) = FileStore::open(tmp.path(), 3).unwrap();
        assert_eq!((report.events, report.snapshots), (5, 1));
        assert!(store.core.resident.is_empty());
        assert_eq!(store.next_seq(), 5);
        assert_eq!(store.replay_from(5).unwrap(), vec![]);
        store.append(&written[5..]).unwrap();
        assert_eq!(store.next_seq(), 7);
        assert!(store.core.resident.is_empty(), "appends are not kept");
        assert_eq!(store.replay_from(0).unwrap(), written);
        drop(store);
        let (store, report) = FileStore::open(tmp.path(), 3).unwrap();
        assert_eq!(report.events, 7);
        assert_eq!(store.replay_from(0).unwrap(), written);
        assert_eq!(store.core.resident, written[5..]);
    }

    #[test]
    fn replay_from_every_seq_of_a_resumed_log_across_segments() {
        // A store that first saw a journal resumed at 7, in segments of
        // three records, with a snapshot in the middle.
        let tmp = TempDir::new("resumed");
        let written: Vec<_> = (7..21).map(event).collect();
        let mut store = FileStore::create(tmp.path(), 3).unwrap();
        store.append(&written[..5]).unwrap();
        store.snapshot(snap(12, 12)).unwrap();
        store.append(&written[5..]).unwrap();
        let check = |store: &FileStore| {
            for from in (0..=23).chain([u64::MAX]) {
                let stored = store.replay_from(from).unwrap();
                assert_eq!(stored, suffix(&written, from), "from {from}");
            }
        };
        check(&store);
        drop(store);
        let (store, report) = FileStore::open(tmp.path(), 3).unwrap();
        assert_eq!((report.segments, report.events), (5, 14));
        assert_eq!(store.core.resident, written[5..]);
        assert_eq!(store.next_seq(), 21);
        check(&store);
    }

    #[test]
    fn a_re_append_below_the_window_is_verified_against_the_disk() {
        let tmp = TempDir::new("below");
        let written: Vec<_> = (0..10).map(event).collect();
        {
            let mut store = FileStore::create(tmp.path(), 4).unwrap();
            store.append(&written[..6]).unwrap();
            store.snapshot(snap(6, 6)).unwrap();
            store.append(&written[6..]).unwrap();
        }
        let (mut store, _) = FileStore::open(tmp.path(), 4).unwrap();
        assert_eq!(store.core.resident, written[6..]);
        let bytes = segment_files(tmp.path());
        store.append(&written[2..4]).unwrap();
        store.append(&written[7..]).unwrap();
        assert_eq!(segment_files(tmp.path()), bytes, "nothing re-written");
        let mut other = event(3);
        other.tick = 99;
        assert_eq!(
            store.append(&[other]),
            Err(StoreError::ReplayDivergence { seq: 3 })
        );
        assert_eq!(segment_files(tmp.path()), bytes);
        // The log goes on where it ended.
        store.append(&[event(10)]).unwrap();
        assert_eq!(
            store.replay_from(0).unwrap(),
            (0..11).map(event).collect::<Vec<_>>()
        );
    }

    use crate::record::encode_event;

    /// A CRC-valid event frame whose text is not a trace record.
    fn unparsable_event() -> Vec<u8> {
        let mut body = vec![crate::record::KIND_EVENT, crate::EVENT_SCHEMA_VERSION];
        body.extend_from_slice(br#"{"seq":"not a trace record"}"#);
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        frame.extend_from_slice(&crate::crc32(&body).to_le_bytes());
        frame
    }

    /// One segment of events `0..n` and a snapshot resuming at
    /// `journal_seq` after event `journal_seq - 1`, with event `bad`'s
    /// frame replaced by [`unparsable_event`].
    fn segment_with_bad_event(dir: &Path, n: u64, journal_seq: u64, bad: u64) {
        let mut bytes = segment_header().to_vec();
        for seq in 0..n {
            if seq == journal_seq {
                bytes.extend(crate::record::encode_snapshot(&snap(seq, seq)));
            }
            let frame = match seq == bad {
                true => unparsable_event(),
                false => encode_event(&event(seq)),
            };
            bytes.extend(frame);
        }
        fs::write(segment_path(dir, 0), bytes).unwrap();
    }

    #[test]
    fn an_unparsable_event_before_the_latest_snapshot_is_corrupt_on_read() {
        let tmp = TempDir::new("bad-before");
        segment_with_bad_event(tmp.path(), 8, 5, 2);
        let (mut store, report) = FileStore::open(tmp.path(), 100).unwrap();
        // Open checks the frame, not the text: nothing is cut, and the
        // report counts every event frame.
        assert!(!report.truncated);
        assert_eq!((report.events, report.snapshots), (8, 1));
        assert_eq!(store.next_seq(), 8);
        assert_eq!(
            store.replay_from(5).unwrap(),
            suffix(&(0..8).map(event).collect::<Vec<_>>(), 5)
        );
        // Every read that parses it says where it is.
        let at: usize = SEGMENT_HEADER_LEN
            + (0..2)
                .map(|seq| encode_event(&event(seq)).len())
                .sum::<usize>();
        let corrupt = StoreError::Corrupt(format!("no trace event in seg-000000.log at byte {at}"));
        assert_eq!(store.replay_from(0), Err(corrupt.clone()));
        assert_eq!(store.append(&[event(2)]), Err(corrupt));
        // Events past it read back and re-append as ever.
        store.append(&[event(3), event(8)]).unwrap();
        assert_eq!(store.replay_from(3).unwrap().len(), 6);
    }

    #[test]
    fn an_unparsable_event_after_the_latest_snapshot_is_a_torn_point() {
        let tmp = TempDir::new("bad-after");
        segment_with_bad_event(tmp.path(), 8, 3, 5);
        let (store, report) = FileStore::open(tmp.path(), 100).unwrap();
        assert!(report.truncated);
        assert_eq!((report.events, report.snapshots), (5, 1));
        assert!(report.discarded_bytes > 0);
        assert_eq!(store.next_seq(), 5);
        assert_eq!(
            store.replay_from(0).unwrap(),
            (0..5).map(event).collect::<Vec<_>>()
        );
        let (_, report) = FileStore::open(tmp.path(), 100).unwrap();
        assert!(!report.truncated, "the cut is on disk");
    }
}
