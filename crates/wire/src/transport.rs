//! The transport seam the cluster runtimes plug into.
//!
//! A [`Transport`] moves one payload type `M` between the `n`
//! co-located nodes of one cluster. The threaded runtime's in-process
//! channel router implements it for any payload — the one-shot cluster
//! routes `Msg<V>`, the pipeline cluster `SlotMsg<V>` — and is the
//! golden model; the TCP reactor in [`crate::reactor`] is the real wire
//! path, for `SlotMsg<V>` only. Both deliver inbound messages into
//! per-node channels supplied at construction, so the node event loop
//! is transport-agnostic.

use ssbyz_types::NodeId;

/// The per-node sending handle of a transport. Cheap to clone; one
/// clone lives in each node thread.
///
/// `from` is passed per call rather than bound into the handle so the
/// adversary-facing `inject` paths can model an *insider* Byzantine
/// node (which owns its link keys and may stamp its own traffic with
/// any content — but, on the wire path, can never forge another node's
/// MAC).
pub trait TransportTx<M>: Clone + Send + 'static {
    /// Queues a broadcast from `from` to every node (own copy
    /// included). Must not block the caller beyond channel handoff.
    fn broadcast(&self, from: NodeId, msg: M);

    /// Queues a unicast from `from` to `to` (catch-up traffic).
    fn unicast(&self, from: NodeId, to: NodeId, msg: M);
}

/// A running transport instance serving one cluster.
pub trait Transport<M> {
    /// The sending-handle type nodes hold.
    type Tx: TransportTx<M>;

    /// A fresh sending handle.
    fn tx(&self) -> Self::Tx;

    /// Stops the transport's I/O machinery and joins its threads.
    /// Queued-but-undelivered traffic may be dropped.
    fn shutdown(self);
}
