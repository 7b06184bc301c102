//! Length-prefixed wire protocol for remote ACL delivery.
//!
//! Frames are JSON documents preceded by a big-endian `u32` length, the
//! same shape the durable store uses for its on-disk records: trivially
//! parseable, self-describing, and safe to truncate-detect.  The frame
//! vocabulary is deliberately tiny — deliver, ack/nack, and a ping/pong
//! pair for health probing — because everything interesting rides
//! inside the [`AclMessage`] payload.
//!
//! Like [`net`](crate::net), this module carries no workspace traffic:
//! its only reader outside `net` is `benchmark/src/probes.rs`
//! (`agents.frame_encode_ns`, `agents.frame_decode_ns`), frozen outside
//! `benchmark`-archetype PRs.  It stays until multi-node placement is
//! unparked or such a PR drops those probes.

use crate::message::AclMessage;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// Upper bound on an encoded frame body, to bound allocation on reads
/// from untrusted peers (16 MiB is far beyond any ACL payload here).
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// One frame on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Frame {
    /// Deliver an ACL message to an agent on the receiving node.
    Deliver(AclMessage),
    /// The message with this id reached a mailbox.
    Ack {
        /// Id of the acknowledged message.
        id: u64,
    },
    /// The message with this id could not be delivered.
    Nack {
        /// Id of the rejected message.
        id: u64,
        /// Why delivery failed (e.g. unknown agent).
        reason: String,
    },
    /// Liveness probe.
    Ping {
        /// Echoed back in the matching [`Frame::Pong`].
        nonce: u64,
    },
    /// Reply to a [`Frame::Ping`].
    Pong {
        /// The nonce of the ping being answered.
        nonce: u64,
    },
}

/// Encode a frame to its wire bytes (length prefix + JSON body).
pub fn encode_frame(frame: &Frame) -> io::Result<Vec<u8>> {
    let body = serde_json::to_string(frame)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let body = body.into_bytes();
    if body.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame body of {} bytes exceeds MAX_FRAME_LEN", body.len()),
        ));
    }
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(&body);
    Ok(out)
}

/// Write one frame to a stream.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let bytes = encode_frame(frame)?;
    w.write_all(&bytes)?;
    w.flush()
}

/// Read one frame from a stream.  Errors on EOF mid-frame, an
/// oversized length prefix, or a malformed body.
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_LEN"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let text = String::from_utf8(body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    serde_json::from_str(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Performative;
    use serde_json::json;

    #[test]
    fn frames_round_trip() {
        let frames = vec![
            Frame::Deliver(AclMessage::new(
                Performative::Request,
                "coordination",
                "planning",
                "planning",
                json!({"goal": "Resolution File"}),
            )),
            Frame::Ack { id: 7 },
            Frame::Nack {
                id: 9,
                reason: "unknown agent `x`".into(),
            },
            Frame::Ping { nonce: 42 },
            Frame::Pong { nonce: 42 },
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for f in &frames {
            assert_eq!(&read_frame(&mut cursor).unwrap(), f);
        }
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        let err = read_frame(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_body_errors() {
        let bytes = encode_frame(&Frame::Ping { nonce: 1 }).unwrap();
        let cut = &bytes[..bytes.len() - 2];
        assert!(read_frame(&mut std::io::Cursor::new(cut.to_vec())).is_err());
    }

    #[test]
    fn garbage_body_errors() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_be_bytes());
        buf.extend_from_slice(b"}{x");
        assert!(read_frame(&mut std::io::Cursor::new(buf)).is_err());
    }
}
