//! # `ssbyz-wire` — authenticated wire transport for the slot pipeline
//!
//! Everything between a node's sans-io pipeline and a real network:
//!
//! * [`codec`] — compact, versioned binary encoding of [`Msg`] /
//!   [`SlotMsg`] (varint ids, length-prefixed blobs, a [`WireValue`]
//!   payload trait) whose decoder never panics on garbage;
//! * [`mac`] — per-link keyed MACs (hand-rolled HMAC-style
//!   construction; this build has no registry access);
//! * [`frame`] — length-prefixed frames enforcing reject-before-parse:
//!   a frame's MAC is verified over the raw bytes before the payload
//!   reaches the codec, so Byzantine byte-spam costs one MAC pass and
//!   no protocol work;
//! * [`reactor`] — a hand-rolled poll-style readiness loop over
//!   non-blocking `std::net` TCP: one I/O thread for the whole cluster
//!   mesh instead of threads per link, with an optional byte-level
//!   corruption adversary for the acceptance battery;
//! * [`transport`] — the payload-generic [`Transport`] seam both of
//!   `ssbyz-runtime`'s clusters plug into, keeping its in-process
//!   channel router as the golden model next to [`TcpTransport`].
//!
//! See `docs/WIRE.md` for the frame layout, the MAC construction, and
//! the reactor design rationale.
//!
//! [`Msg`]: ssbyz_core::Msg
//! [`SlotMsg`]: ssbyz_core::SlotMsg
//! [`WireValue`]: codec::WireValue
//! [`Transport`]: transport::Transport
//! [`TcpTransport`]: reactor::TcpTransport

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod frame;
pub mod mac;
pub mod reactor;
pub mod transport;

pub use codec::{
    decode_msg, decode_slot_msg, encode_msg, encode_slot_msg, DecodeError, WireValue, WIRE_VERSION,
};
pub use frame::{FrameReject, DEFAULT_MAX_FRAME};
pub use mac::MacKey;
pub use reactor::{CorruptConfig, CorruptMode, TcpTransport, TcpTx, WireConfig, WireStats};
pub use transport::{Transport, TransportTx};
