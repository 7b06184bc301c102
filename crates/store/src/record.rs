//! The on-disk record format shared by every file-backed segment.
//!
//! A segment is an 8-byte header followed by length-prefixed,
//! CRC-checked records:
//!
//! ```text
//! segment  := header record*
//! header   := magic("GFS1") version:u16le reserved:u16le
//! record   := len:u32le body crc32(body):u32le
//! body     := kind:u8 schema:u8 payload
//! ```
//!
//! Record kinds:
//!
//! * `kind = 1` (event): `payload` is the JSONL form of one
//!   [`TraceRecord`] — byte-identical to a `TraceLog::to_jsonl` line.
//! * `kind = 2` (snapshot): `payload` is a fixed binary snapshot header
//!   (`next_tick:u64le journal_seq:u64le clock_ticks:u64le
//!   clock_s:f64le state_hash:u64le`) followed by the opaque serialized
//!   engine state.
//!
//! The `schema` byte versions each kind independently; readers refuse
//! snapshot schemas newer than they support instead of guessing at the
//! payload.
//! Anything that fails the length or CRC check is a torn tail: decoding
//! reports where the valid prefix ends so the store can truncate and
//! carry on.

use crate::hash::crc32;
use crate::{SnapshotRecord, EVENT_SCHEMA_VERSION};
use gridflow_telemetry::TraceRecord;
use std::ops::Range;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"GFS1";
/// Version of the segment container format (header + framing).
pub const SEGMENT_FORMAT_VERSION: u16 = 1;
/// Byte length of the segment header.
pub const SEGMENT_HEADER_LEN: usize = 8;
/// Record kind byte for trace events.
pub const KIND_EVENT: u8 = 1;
/// Record kind byte for snapshots.
pub const KIND_SNAPSHOT: u8 = 2;
/// Byte length of the fixed snapshot header inside a snapshot body
/// (five little-endian 64-bit fields after the kind and schema bytes).
const SNAPSHOT_HEADER_LEN: usize = 40;

/// One decoded record: a trace event or a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A deterministic trace event, exactly as the journal emitted it.
    Event(TraceRecord),
    /// A snapshot of engine state at a tick boundary.
    Snapshot(SnapshotRecord),
}

/// The segment header bytes for a fresh segment.
pub fn segment_header() -> [u8; SEGMENT_HEADER_LEN] {
    let mut header = [0u8; SEGMENT_HEADER_LEN];
    header[..4].copy_from_slice(&SEGMENT_MAGIC);
    header[4..6].copy_from_slice(&SEGMENT_FORMAT_VERSION.to_le_bytes());
    header
}

/// Is `bytes` a valid segment header?
pub fn header_is_valid(bytes: &[u8]) -> bool {
    bytes.len() >= SEGMENT_HEADER_LEN
        && bytes[..4] == SEGMENT_MAGIC
        && u16::from_le_bytes([bytes[4], bytes[5]]) == SEGMENT_FORMAT_VERSION
}

/// Frame one record onto the end of `batch`: reserve the length prefix,
/// let `body` write the record body in place, then fill the prefix in
/// and append the CRC of the bytes where they lie.
fn frame_into(batch: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let prefix = batch.len();
    batch.extend_from_slice(&[0; 4]);
    body(batch);
    let len = (batch.len() - prefix - 4) as u32;
    batch[prefix..prefix + 4].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&batch[prefix + 4..]);
    batch.extend_from_slice(&crc.to_le_bytes());
}

/// Frame one trace event onto the end of `batch`.  `json` is scratch
/// the caller reuses from record to record: the streamed text is the
/// only intermediate, copied once into the frame.
pub(crate) fn event_into(batch: &mut Vec<u8>, json: &mut String, record: &TraceRecord) {
    json.clear();
    serde::Serialize::write_json(record, json);
    frame_into(batch, |body| {
        body.extend_from_slice(&[KIND_EVENT, EVENT_SCHEMA_VERSION]);
        body.extend_from_slice(json.as_bytes());
    });
}

/// Encode one trace event as a framed record.
pub fn encode_event(record: &TraceRecord) -> Vec<u8> {
    let mut frame = Vec::new();
    event_into(&mut frame, &mut String::new(), record);
    frame
}

/// Encode one snapshot as a framed record, its payload copied once.
/// The record's `schema` byte is taken from the snapshot itself so
/// version handling round-trips through the log.
pub fn encode_snapshot(snap: &SnapshotRecord) -> Vec<u8> {
    let mut frame = Vec::with_capacity(SNAPSHOT_HEADER_LEN + snap.state.len() + 10);
    frame_into(&mut frame, |body| {
        body.extend_from_slice(&[KIND_SNAPSHOT, snap.schema]);
        body.extend_from_slice(&snap.next_tick.to_le_bytes());
        body.extend_from_slice(&snap.journal_seq.to_le_bytes());
        body.extend_from_slice(&snap.clock_ticks.to_le_bytes());
        body.extend_from_slice(&snap.clock_s.to_bits().to_le_bytes());
        body.extend_from_slice(&snap.state_hash.to_le_bytes());
        body.extend_from_slice(&snap.state);
    });
    frame
}

/// The result of decoding one record at an offset (or checking its frame).
#[derive(Debug)]
pub enum Decoded<R = LogRecord> {
    /// A valid record; the next record starts at `next_offset`.
    Record {
        /// The decoded record.
        record: R,
        /// Byte offset of the next record in the segment.
        next_offset: usize,
    },
    /// The bytes at this offset are truncated, corrupt, or otherwise
    /// unreadable — the valid prefix of the segment ends here.
    Torn,
    /// Clean end of segment: the offset is exactly the end of the
    /// buffer.
    End,
}

/// A record that passed the frame checks: a snapshot, decoded, or where
/// an event's JSON text lies, not yet parsed.
#[derive(Debug)]
pub(crate) enum Frame {
    Event(Range<usize>),
    Snapshot(SnapshotRecord),
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(buf)
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// Check the frame at `offset` without parsing its body: length prefix,
/// CRC, kind, an event's schema byte and a snapshot's header length.
pub(crate) fn check_frame(bytes: &[u8], offset: usize) -> Decoded<Frame> {
    if offset == bytes.len() {
        return Decoded::End;
    }
    if offset + 4 > bytes.len() {
        return Decoded::Torn;
    }
    let body_start = offset + 4;
    let Some(crc_start) = body_start.checked_add(u32_at(bytes, offset) as usize) else {
        return Decoded::Torn;
    };
    if crc_start + 4 > bytes.len() {
        return Decoded::Torn;
    }
    let body = &bytes[body_start..crc_start];
    if crc32(body) != u32_at(bytes, crc_start) || body.len() < 2 {
        return Decoded::Torn;
    }
    let (kind, schema, payload) = (body[0], body[1], &body[2..]);
    let frame = match kind {
        KIND_EVENT if schema <= EVENT_SCHEMA_VERSION => Frame::Event(body_start + 2..crc_start),
        KIND_SNAPSHOT if payload.len() >= SNAPSHOT_HEADER_LEN => Frame::Snapshot(SnapshotRecord {
            schema,
            next_tick: u64_at(payload, 0),
            journal_seq: u64_at(payload, 8),
            clock_ticks: u64_at(payload, 16),
            clock_s: f64::from_bits(u64_at(payload, 24)),
            state_hash: u64_at(payload, 32),
            state: payload[SNAPSHOT_HEADER_LEN..].to_vec(),
        }),
        _ => return Decoded::Torn,
    };
    Decoded::Record {
        record: frame,
        next_offset: crc_start + 4,
    }
}

/// Parse an event frame's text; `None` when it is not a [`TraceRecord`].
pub(crate) fn parse_event(text: &[u8]) -> Option<TraceRecord> {
    serde_json::from_str(std::str::from_utf8(text).ok()?).ok()
}

/// Decode the record at `offset` in a segment's bytes (its header
/// skipped): a frame that fails its checks, or event text that is not a
/// [`TraceRecord`], is [`Decoded::Torn`].  Future snapshot *schemas*
/// decode fine; recovery refuses them, in [`SnapshotRecord::validate`].
pub fn decode_record(bytes: &[u8], offset: usize) -> Decoded {
    let (frame, next_offset) = match check_frame(bytes, offset) {
        Decoded::Record {
            record,
            next_offset,
        } => (record, next_offset),
        Decoded::Torn => return Decoded::Torn,
        Decoded::End => return Decoded::End,
    };
    let record = match frame {
        Frame::Event(text) => match parse_event(&bytes[text]) {
            Some(record) => LogRecord::Event(record),
            None => return Decoded::Torn,
        },
        Frame::Snapshot(snap) => LogRecord::Snapshot(snap),
    };
    Decoded::Record {
        record,
        next_offset,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridflow_telemetry::TraceEvent;

    fn tick_record() -> TraceRecord {
        TraceRecord {
            seq: 0,
            tick: 0,
            at_s: 0.0,
            source: "engine".into(),
            event: TraceEvent::TickStarted { tick: 0 },
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn event_records_round_trip() {
        let record = tick_record();
        let bytes = encode_event(&record);
        match decode_record(&bytes, 0) {
            Decoded::Record {
                record: LogRecord::Event(back),
                next_offset,
            } => {
                assert_eq!(back, record);
                assert_eq!(next_offset, bytes.len());
            }
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn snapshot_records_round_trip_with_their_schema_byte() {
        let snap = SnapshotRecord::new(17, 42, 17, 3.5, b"state-bytes".to_vec());
        let bytes = encode_snapshot(&snap);
        match decode_record(&bytes, 0) {
            Decoded::Record {
                record: LogRecord::Snapshot(back),
                ..
            } => assert_eq!(back, snap),
            other => panic!("unexpected decode: {other:?}"),
        }
        // A future schema byte survives the round trip untouched —
        // refusal is the reader's job, not the codec's.
        let future = SnapshotRecord {
            schema: 9,
            ..snap.clone()
        };
        let bytes = encode_snapshot(&future);
        match decode_record(&bytes, 0) {
            Decoded::Record {
                record: LogRecord::Snapshot(back),
                ..
            } => assert_eq!(back.schema, 9),
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn truncation_and_corruption_decode_as_torn() {
        let bytes = encode_event(&tick_record());
        for cut in 1..bytes.len() {
            assert!(
                matches!(decode_record(&bytes[..cut], 0), Decoded::Torn),
                "cut at {cut}"
            );
        }
        for i in 4..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x01;
            assert!(
                matches!(decode_record(&flipped, 0), Decoded::Torn | Decoded::End),
                "flip at {i}"
            );
        }
    }

    // Golden fixture: the exact bytes of one event record and one
    // snapshot record.  If this test fails, the on-disk format drifted —
    // bump the schema version and add a migration path instead of
    // editing the fixture.
    #[test]
    fn record_layout_is_pinned() {
        let event_hex = hex(&encode_event(&tick_record()));
        // Note the vendored serde derive emits object keys in
        // alphabetical order; that ordering is part of the pinned
        // format.
        let expected_json =
            r#"{"at_s":0.0,"event":{"TickStarted":{"tick":0}},"seq":0,"source":"engine","tick":0}"#;
        let mut body = vec![KIND_EVENT, EVENT_SCHEMA_VERSION];
        body.extend_from_slice(expected_json.as_bytes());
        let mut expected = (body.len() as u32).to_le_bytes().to_vec();
        let crc = crc32(&body);
        expected.extend_from_slice(&body);
        expected.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(event_hex, hex(&expected));

        let snap = SnapshotRecord::new(1, 2, 1, 0.5, b"{}".to_vec());
        assert_eq!(
            hex(&encode_snapshot(&snap)),
            concat!(
                "2c000000",         // body length = 44
                "02",               // kind = snapshot
                "01",               // schema version
                "0100000000000000", // next_tick = 1
                "0200000000000000", // journal_seq = 2
                "0100000000000000", // clock_ticks = 1
                "000000000000e03f", // clock_s = 0.5 (f64 bits)
                "251a90b5074bf408", // fnv1a64("{}")
                "7b7d",             // state = "{}"
                "9d2c5976",         // crc32 of body
            )
        );
    }

    #[test]
    fn segment_header_is_pinned_and_validates() {
        let header = segment_header();
        assert_eq!(hex(&header), "4746533101000000");
        assert!(header_is_valid(&header));
        let mut bad = header;
        bad[0] ^= 0xFF;
        assert!(!header_is_valid(&bad));
        assert!(!header_is_valid(&header[..7]));
    }
}
