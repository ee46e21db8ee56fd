//! # `ssbyz-core` — Self-stabilizing Byzantine Agreement
//!
//! A from-scratch implementation of the protocol stack of
//! *"Self-stabilizing Byzantine Agreement"* (Ariel Daliot & Danny Dolev,
//! PODC 2006): a Byzantine-agreement protocol that converges from an
//! **arbitrary state** — corrupted variables, bogus in-flight messages, no
//! synchrony among correct nodes — once the system is coherent (`n > 3f`
//! correct nodes, bounded message delay), while tolerating the permanent
//! presence of Byzantine faults.
//!
//! ## Layers
//!
//! * [`InitiatorAccept`] — assigns all correct nodes a consistent relative
//!   local-time anchor `τ_G` for a General's initiation and converges on a
//!   single candidate value (paper Fig. 2, properties [IA-1]–[IA-4]).
//! * [`MsgdBroadcast`] — a *message-driven* reliable broadcast whose
//!   rounds are anchored at `τ_G` and progress at actual network speed
//!   (paper Fig. 3, properties [TPS-1]–[TPS-4]).
//! * [`Agreement`] — the `ss-Byz-Agree` body: blocks R/S/T/U, `O(f′)`
//!   early stopping, Agreement/Validity/Termination + Timeliness (Fig. 1).
//! * [`Engine`] — one node's multiplexer over per-General instances, with
//!   the General-side Sending Validity Criteria ``[IG1]``–``[IG3]`` and the
//!   periodic state decay that makes everything self-stabilizing. It owns
//!   the [`ValueInterner`]: the primitives speak dense [`ValueId`]s, and
//!   values reappear only in the engine's [`Output`]s.
//! * [`SlotPipeline`] — many one-shot executions over numbered slots,
//!   committed in order to a replicated [`DecisionLog`].
//!
//! Everything is **sans-io**: no clocks, no sockets, no RNG. Feed local
//! times and messages in, get [`Output`]s back. [`SansIo`] is the one
//! seam both machines present to a host: the deterministic simulator
//! adapter in `ssbyz-harness` and the threaded wall-clock runtime in
//! `ssbyz-runtime` each drive it with one loop.
//!
//! ## Quickstart
//!
//! ```
//! use ssbyz_core::{Engine, Event, Msg, Outbox, Output, Params};
//! use ssbyz_types::{Duration, LocalTime, NodeId};
//!
//! // n = 4 nodes tolerating f = 1 Byzantine, d = 10ms.
//! let params = Params::from_d(4, 1, Duration::from_millis(10), 0)?;
//! let mut general: Engine<&'static str> = Engine::new(NodeId::new(0), params);
//! // The caller owns a pooled outbox; every engine call refills it and
//! // the no-output common case allocates nothing.
//! let mut outbox: Outbox<&'static str> = Outbox::new();
//! let now = LocalTime::from_nanos(1_000_000_000);
//! general.initiate(now, "attack at dawn", &mut outbox)?;
//! // The harness broadcasts these to all nodes (including the General).
//! assert!(matches!(outbox.outputs()[0], Output::Broadcast(Msg::Initiator { .. })));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agreement;
pub mod corrupt;
pub mod engine;
pub mod host;
pub mod initiator_accept;
pub mod intern;
pub mod message;
pub mod msgd_broadcast;
pub mod outbox;
pub mod params;
pub mod pipeline;
pub mod store;

pub use agreement::{AgrAction, Agreement};
pub use corrupt::{Entropy, ScrambleConfig};
pub use engine::{DispatchStats, Engine, Event, InitiateError, Output};
pub use host::{Effect, SansIo};
pub use initiator_accept::{IaAction, InitiatorAccept, OwnProgress};
pub use intern::{ValueId, ValueIdMap, ValueInterner};
pub use message::{BcastKind, IaKind, Msg};
pub use msgd_broadcast::{MsgdAction, MsgdBroadcast};
pub use outbox::Outbox;
pub use params::Params;
pub use pipeline::{
    DecisionLog, PipeEvent, PipeOutput, PipelineConfig, SlotMsg, SlotPipeline, CATCHUP_BATCH,
};

// Re-export the substrate types for one-import ergonomics.
pub use ssbyz_types::{ConfigError, Duration, LocalTime, NodeId, RealTime, Value};
