//! Length-prefixed, MAC-authenticated frames and their stream parser.
//!
//! ```text
//! frame     = len: u32 LE              (byte length of body, ≤ max_frame)
//!             body
//! body      = version: u8
//!             from:    u32 LE          (claimed sender id)
//!             tag:     [u8; 16]        (MAC over version ‖ from ‖ payload)
//!             payload: [u8]            (codec bytes, opaque here)
//! ```
//!
//! The receive path enforces **reject-before-parse**: a frame's claimed
//! sender must match the link's authenticated peer and the MAC must
//! verify over the raw bytes before the payload reaches the codec.
//! Header checks are O(1), the MAC is one pass over the frame — a
//! Byzantine byte-spammer buys exactly that much work and nothing
//! downstream (no decode, no interning, no engine dispatch).

use ssbyz_types::NodeId;

use crate::codec::WIRE_VERSION;
use crate::mac::{self, MacKey, TAG_LEN};

/// Byte length of the `len` prefix.
pub const LEN_PREFIX: usize = 4;

/// Byte length of the body header (version + sender + tag).
pub const HEADER_LEN: usize = 1 + 4 + TAG_LEN;

/// Default cap on a frame body; anything larger is rejected at the
/// length prefix, before buffering the body.
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

/// Why an inbound frame (or stream) was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameReject {
    /// Body shorter than the fixed header.
    TooShort,
    /// Body length over the configured cap — the stream is beyond
    /// recovery (framing desync), the connection must be dropped.
    Oversize,
    /// Unknown codec version.
    BadVersion(u8),
    /// Claimed sender differs from the link's authenticated peer.
    WrongSender(u32),
    /// MAC verification failed.
    BadMac,
}

/// Appends one authenticated frame carrying `payload` from `from`,
/// MAC'd with the directed link key.
pub fn write_frame(out: &mut Vec<u8>, key: &MacKey, from: NodeId, payload: &[u8]) {
    let body_len = HEADER_LEN + payload.len();
    let body_len32 = u32::try_from(body_len).expect("frame body fits u32");
    out.reserve(LEN_PREFIX + body_len);
    out.extend_from_slice(&body_len32.to_le_bytes());
    out.push(WIRE_VERSION);
    let from_bytes = from.as_u32().to_le_bytes();
    out.extend_from_slice(&from_bytes);
    let tag = mac::mac(key, &[&[WIRE_VERSION], &from_bytes, payload]);
    out.extend_from_slice(&tag);
    out.extend_from_slice(payload);
}

/// Verifies one complete frame body against the link peer and key and,
/// only on success, exposes the payload bytes for decoding.
///
/// # Errors
///
/// The [`FrameReject`] reason, checked cheapest-first; the payload is
/// untouched unless every check passes.
pub fn verify_frame<'a>(
    body: &'a [u8],
    peer: NodeId,
    key: &MacKey,
) -> Result<&'a [u8], FrameReject> {
    if body.len() < HEADER_LEN {
        return Err(FrameReject::TooShort);
    }
    let version = body[0];
    if version != WIRE_VERSION {
        return Err(FrameReject::BadVersion(version));
    }
    let mut from_bytes = [0u8; 4];
    from_bytes.copy_from_slice(&body[1..5]);
    let from = u32::from_le_bytes(from_bytes);
    if from != peer.as_u32() {
        return Err(FrameReject::WrongSender(from));
    }
    let tag = &body[5..5 + TAG_LEN];
    let payload = &body[HEADER_LEN..];
    if !mac::verify(key, &[&[version], &from_bytes, payload], tag) {
        return Err(FrameReject::BadMac);
    }
    Ok(payload)
}

/// One step of stream framing over an accumulation buffer.
pub enum Framing {
    /// No complete frame buffered yet.
    Incomplete,
    /// A complete body occupies `buf[LEN_PREFIX .. LEN_PREFIX + len]`.
    Complete {
        /// Body length parsed from the prefix.
        len: usize,
    },
    /// The length prefix claims a body the receiver will not buffer;
    /// the stream cannot be re-synchronized and the connection must be
    /// dropped.
    ///
    /// Note a *short* length prefix is deliberately NOT poison: the
    /// prefix still says exactly how many bytes to skip, so framing
    /// stays in sync and the runt body is rejected per-frame
    /// ([`FrameReject::TooShort`]) — the link survives. Dropping the
    /// connection on any recoverable condition would let a single
    /// tampered frame take out the whole link.
    Poisoned,
}

/// Inspects the front of a stream buffer for one frame.
#[must_use]
pub fn next_frame(buf: &[u8], max_frame: u32) -> Framing {
    if buf.len() < LEN_PREFIX {
        return Framing::Incomplete;
    }
    let mut len_bytes = [0u8; 4];
    len_bytes.copy_from_slice(&buf[..LEN_PREFIX]);
    let len = u32::from_le_bytes(len_bytes);
    if len > max_frame {
        return Framing::Poisoned;
    }
    let len = len as usize;
    if buf.len() < LEN_PREFIX + len {
        return Framing::Incomplete;
    }
    Framing::Complete { len }
}

/// Handshake payload: `magic ‖ version ‖ from ‖ to`, sent as the first
/// frame on a fresh connection, MAC'd with `k(from → to)`. Fixed-size
/// and structurally parsed *before* MAC verification — the acceptor
/// cannot know which link key applies until it reads the claimed pair —
/// then verified; data frames afterwards are strictly verify-first.
pub const HELLO_MAGIC: [u8; 4] = *b"SSBW";

/// Byte length of a hello payload.
pub const HELLO_LEN: usize = 4 + 1 + 4 + 4;

/// Builds the hello payload for the directed link `from → to`.
#[must_use]
pub fn hello_payload(from: NodeId, to: NodeId) -> [u8; HELLO_LEN] {
    let mut p = [0u8; HELLO_LEN];
    p[..4].copy_from_slice(&HELLO_MAGIC);
    p[4] = WIRE_VERSION;
    p[5..9].copy_from_slice(&from.as_u32().to_le_bytes());
    p[9..13].copy_from_slice(&to.as_u32().to_le_bytes());
    p
}

/// Structurally parses a hello payload into its claimed `(from, to)`
/// pair. The caller must still verify the frame MAC with
/// `k(from → to)` before trusting the claim.
#[must_use]
pub fn parse_hello(payload: &[u8]) -> Option<(NodeId, NodeId)> {
    if payload.len() != HELLO_LEN || payload[..4] != HELLO_MAGIC || payload[4] != WIRE_VERSION {
        return None;
    }
    let mut id = [0u8; 4];
    id.copy_from_slice(&payload[5..9]);
    let from = NodeId::new(u32::from_le_bytes(id));
    id.copy_from_slice(&payload[9..13]);
    let to = NodeId::new(u32::from_le_bytes(id));
    Some((from, to))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> MacKey {
        MacKey::from_bytes([3u8; 16])
    }

    #[test]
    fn frame_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &key(), NodeId::new(2), b"payload");
        match next_frame(&wire, DEFAULT_MAX_FRAME) {
            Framing::Complete { len } => {
                let body = &wire[LEN_PREFIX..LEN_PREFIX + len];
                let payload = verify_frame(body, NodeId::new(2), &key()).unwrap();
                assert_eq!(payload, b"payload");
            }
            _ => panic!("expected a complete frame"),
        }
    }

    #[test]
    fn bad_mac_rejects_before_payload() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &key(), NodeId::new(2), b"payload");
        let last = wire.len() - 1;
        wire[last] ^= 0x01; // flip a payload bit
        let body = &wire[LEN_PREFIX..];
        assert_eq!(
            verify_frame(body, NodeId::new(2), &key()),
            Err(FrameReject::BadMac)
        );
    }

    #[test]
    fn wrong_sender_rejects_before_mac() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &key(), NodeId::new(2), b"payload");
        let body = &wire[LEN_PREFIX..];
        assert_eq!(
            verify_frame(body, NodeId::new(5), &key()),
            Err(FrameReject::WrongSender(2))
        );
    }

    #[test]
    fn truncated_frame_fails_mac() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &key(), NodeId::new(1), b"long enough payload");
        // Truncate the payload but fix up the length prefix — the MAC
        // no longer covers what arrived.
        let cut = wire.len() - 5;
        wire.truncate(cut);
        let body_len = (cut - LEN_PREFIX) as u32;
        wire[..4].copy_from_slice(&body_len.to_le_bytes());
        let body = &wire[LEN_PREFIX..];
        assert_eq!(
            verify_frame(body, NodeId::new(1), &key()),
            Err(FrameReject::BadMac)
        );
    }

    #[test]
    fn oversize_poisons_stream() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&[0u8; 64]);
        assert!(matches!(next_frame(&wire, 1 << 20), Framing::Poisoned));
    }

    #[test]
    fn runt_frame_rejects_but_keeps_the_stream_in_sync() {
        // A length-consistent runt (body shorter than the header) must
        // reject per-frame, not poison the link: the following healthy
        // frame still parses.
        let mut wire = Vec::new();
        wire.extend_from_slice(&3u32.to_le_bytes());
        wire.extend_from_slice(&[0xaa, 0xbb, 0xcc]);
        let healthy_at = wire.len();
        write_frame(&mut wire, &key(), NodeId::new(1), b"after the runt");

        let Framing::Complete { len } = next_frame(&wire, 1 << 20) else {
            panic!("runt should frame");
        };
        assert_eq!(len, 3);
        let body = &wire[LEN_PREFIX..LEN_PREFIX + len];
        assert_eq!(
            verify_frame(body, NodeId::new(1), &key()),
            Err(FrameReject::TooShort)
        );

        let Framing::Complete { len } = next_frame(&wire[healthy_at..], 1 << 20) else {
            panic!("healthy frame should follow");
        };
        let body = &wire[healthy_at + LEN_PREFIX..healthy_at + LEN_PREFIX + len];
        assert_eq!(
            verify_frame(body, NodeId::new(1), &key()),
            Ok(&b"after the runt"[..])
        );
    }

    #[test]
    fn hello_round_trip() {
        let p = hello_payload(NodeId::new(4), NodeId::new(9));
        assert_eq!(parse_hello(&p), Some((NodeId::new(4), NodeId::new(9))));
        assert_eq!(parse_hello(&p[..HELLO_LEN - 1]), None);
        let mut bad = p;
        bad[0] = b'X';
        assert_eq!(parse_hello(&bad), None);
    }
}
