//! Wire messages of the three protocol layers.
//!
//! Every message embeds its value as an `Arc<V>`: the engine resolves the
//! payload straight out of the interner's shared slot at emission, so
//! broadcasting — the protocol's dominant operation — never deep-copies
//! `V`, no matter how heavy the payload. A 1 KiB blob travels the whole
//! emission → network fan-out → delivery → interning loop as reference
//! bumps; the only deep copy in an execution is the proposer's original
//! allocation.

use core::fmt;
use std::sync::Arc;

use ssbyz_types::{NodeId, Value};

/// Message kinds of the `Initiator-Accept` primitive (paper Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IaKind {
    /// `(support, G, m)` — first response to the General's initiation.
    Support,
    /// `(approve, G, m)` — sent once `n − f` supports cluster in time.
    Approve,
    /// `(ready, G, m)` — the untimed final stage before an I-accept.
    Ready,
}

impl IaKind {
    /// All kinds, in protocol order.
    pub const ALL: [IaKind; 3] = [IaKind::Support, IaKind::Approve, IaKind::Ready];
}

impl fmt::Display for IaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IaKind::Support => "support",
            IaKind::Approve => "approve",
            IaKind::Ready => "ready",
        };
        f.write_str(s)
    }
}

/// Message kinds of the `msgd-broadcast` primitive (paper Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BcastKind {
    /// `(init, p, m, k)` — sent by the broadcaster itself (block V).
    Init,
    /// `(echo, p, m, k)` — block W response to a direct `init`.
    Echo,
    /// `(init′, p, m, k)` — block X response to a weak quorum of echoes.
    InitPrime,
    /// `(echo′, p, m, k)` — blocks Y/Z amplification; untimed in block Z.
    EchoPrime,
}

impl BcastKind {
    /// All kinds, in protocol order.
    pub const ALL: [BcastKind; 4] = [
        BcastKind::Init,
        BcastKind::Echo,
        BcastKind::InitPrime,
        BcastKind::EchoPrime,
    ];
}

impl fmt::Display for BcastKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BcastKind::Init => "init",
            BcastKind::Echo => "echo",
            BcastKind::InitPrime => "init'",
            BcastKind::EchoPrime => "echo'",
        };
        f.write_str(s)
    }
}

/// A protocol message as it travels on the wire.
///
/// The transport layer authenticates the *sender*; the fields here are
/// claims made by that sender. A Byzantine sender may fabricate any
/// [`Msg`], but can never forge the transport-level sender identity
/// (paper §2, authenticated channels).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Msg<V> {
    /// `(Initiator, G, m)` — the General `G` initiates agreement on `m`.
    /// Only honored when the transport sender *is* `G`.
    Initiator {
        /// The initiating General.
        general: NodeId,
        /// The proposed value `m` (shared, never deep-copied in transit).
        value: Arc<V>,
    },
    /// An `Initiator-Accept` stage message for the instance of `general`.
    Ia {
        /// Stage of the primitive.
        kind: IaKind,
        /// The General whose initiation this message supports.
        general: NodeId,
        /// The value `m` being supported/approved/readied.
        value: Arc<V>,
    },
    /// A `msgd-broadcast` message inside the agreement instance of
    /// `general`. The broadcast payload is the pair `⟨G, m⟩ = (general,
    /// value)`; `broadcaster` is the node `p` whose round-`round` broadcast
    /// this message echoes.
    Bcast {
        /// Stage of the broadcast primitive.
        kind: BcastKind,
        /// The General whose agreement instance this belongs to.
        general: NodeId,
        /// The node `p` that invoked `msgd-broadcast(p, m, k)`.
        broadcaster: NodeId,
        /// The value `m` in the pair `⟨G, m⟩`.
        value: Arc<V>,
        /// The round number `k ≥ 1`.
        round: u32,
    },
}

impl<V: Value> Msg<V> {
    /// The General whose protocol instance this message belongs to.
    #[must_use]
    pub fn general(&self) -> NodeId {
        match self {
            Msg::Initiator { general, .. }
            | Msg::Ia { general, .. }
            | Msg::Bcast { general, .. } => *general,
        }
    }

    /// The value carried by the message.
    #[must_use]
    pub fn value(&self) -> &V {
        self.value_shared()
    }

    /// The shared handle of the carried value — cloning it is a reference
    /// bump, never a deep copy.
    #[must_use]
    pub fn value_shared(&self) -> &Arc<V> {
        match self {
            Msg::Initiator { value, .. } | Msg::Ia { value, .. } | Msg::Bcast { value, .. } => {
                value
            }
        }
    }

    /// A short human-readable tag, used by traces and metrics.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Msg::Initiator { .. } => "initiator",
            Msg::Ia {
                kind: IaKind::Support,
                ..
            } => "support",
            Msg::Ia {
                kind: IaKind::Approve,
                ..
            } => "approve",
            Msg::Ia {
                kind: IaKind::Ready,
                ..
            } => "ready",
            Msg::Bcast {
                kind: BcastKind::Init,
                ..
            } => "init",
            Msg::Bcast {
                kind: BcastKind::Echo,
                ..
            } => "echo",
            Msg::Bcast {
                kind: BcastKind::InitPrime,
                ..
            } => "init'",
            Msg::Bcast {
                kind: BcastKind::EchoPrime,
                ..
            } => "echo'",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let g = NodeId::new(3);
        let m: Msg<u64> = Msg::Initiator {
            general: g,
            value: Arc::new(42),
        };
        assert_eq!(m.general(), g);
        assert_eq!(*m.value(), 42);
        assert_eq!(m.tag(), "initiator");
    }

    #[test]
    fn tags_are_distinct() {
        let g = NodeId::new(0);
        let mut tags = std::collections::BTreeSet::new();
        tags.insert(
            Msg::Initiator {
                general: g,
                value: Arc::new(1u64),
            }
            .tag(),
        );
        for kind in IaKind::ALL {
            tags.insert(
                Msg::Ia {
                    kind,
                    general: g,
                    value: Arc::new(1u64),
                }
                .tag(),
            );
        }
        for kind in BcastKind::ALL {
            tags.insert(
                Msg::Bcast {
                    kind,
                    general: g,
                    broadcaster: g,
                    value: Arc::new(1u64),
                    round: 1,
                }
                .tag(),
            );
        }
        assert_eq!(tags.len(), 8);
    }

    #[test]
    fn display_kinds() {
        assert_eq!(IaKind::Support.to_string(), "support");
        assert_eq!(BcastKind::EchoPrime.to_string(), "echo'");
    }
}
