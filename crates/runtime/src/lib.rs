//! # `ssbyz-runtime` — threaded wall-clock execution
//!
//! Runs the *same* sans-io [`Engine`] that the deterministic simulator
//! exercises, but on real threads with real clocks: one OS thread per
//! node, crossbeam channels as the authenticated transport, and a router
//! thread that injects configurable link delays. This demonstrates that
//! the protocol library is directly adoptable outside the simulator — the
//! engine code is byte-for-byte identical.
//!
//! ```no_run
//! use ssbyz_core::Params;
//! use ssbyz_runtime::{Cluster, RuntimeConfig};
//! use ssbyz_types::Duration;
//!
//! let params = Params::from_d(4, 1, Duration::from_millis(20), 0)?;
//! let cluster: Cluster<u64> = Cluster::spawn(params, RuntimeConfig::default());
//! cluster.initiate(ssbyz_types::NodeId::new(0), 42)?;
//! cluster.wait_for_decisions(4, std::time::Duration::from_secs(5))?;
//! let decisions = cluster.decisions();
//! cluster.shutdown();
//! assert_eq!(decisions.len(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pipeline;

pub use pipeline::{CommitRecord, InProcessTransport, InProcessTx, PipelineCluster};

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam_channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssbyz_core::{Engine, Event, LocalTime, Msg, Outbox, Output, Params};
use ssbyz_sched::{EventQueue, TimerWheel};
use ssbyz_types::{Duration, NodeId, Value};

/// Wall-clock runtime knobs.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Engine tick period.
    pub tick: Duration,
    /// Injected link delay range.
    pub delay_min: Duration,
    /// Upper end of the injected link delay.
    pub delay_max: Duration,
    /// Seed for delay sampling.
    pub seed: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            tick: Duration::from_millis(5),
            delay_min: Duration::from_micros(200),
            delay_max: Duration::from_millis(2),
            seed: 0,
        }
    }
}

/// Why a cluster operation could not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// A worker thread (node, router, or wire reactor) has exited, so
    /// the cluster can no longer accept or complete work. Callers
    /// should tear the cluster down rather than retry.
    Shutdown,
    /// The wait deadline passed before the requested progress existed.
    Timeout,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Shutdown => write!(f, "cluster worker has shut down"),
            ClusterError::Timeout => write!(f, "timed out waiting for cluster progress"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Commands accepted by a node thread.
enum NodeCmd<V> {
    Deliver { from: NodeId, msg: Arc<Msg<V>> },
    Initiate(V),
    Shutdown,
}

/// A timestamped protocol event observed on the cluster.
#[derive(Debug, Clone)]
pub struct ClusterEvent<V> {
    /// The node that emitted the event.
    pub node: NodeId,
    /// The protocol event.
    pub event: Event<V>,
    /// Wall-clock time since cluster start.
    pub elapsed: std::time::Duration,
}

/// Destination shape of a routed message.
pub(crate) enum RouterDest {
    /// Unicast (the adversary-inject path); `due` includes the sampled
    /// link delay.
    One(NodeId),
    /// Batched fan-out to every node: the whole broadcast is **one**
    /// channel send (it used to be n). `due` is the send instant; the
    /// *router* samples an independent link delay per destination when
    /// it fans the entry out into wheel deliveries, so per-destination
    /// jitter — and the message reorderings it produces — is exactly
    /// what the per-send path had.
    All,
}

/// A routed wire message, generic over the payload: the one-shot
/// cluster routes `Msg<V>`, the pipeline cluster routes `SlotMsg<V>` —
/// same router, same wheel, same delay model.
pub(crate) struct RouterMsg<M> {
    pub(crate) due: Instant,
    pub(crate) from: NodeId,
    pub(crate) dest: RouterDest,
    /// Shared payload: fan-out clones the `Arc`, never the message.
    pub(crate) msg: Arc<M>,
}

/// A delivery waiting on the router's wheel.
struct Pending<M> {
    to: NodeId,
    from: NodeId,
    msg: Arc<M>,
}

/// A live cluster of engine threads.
pub struct Cluster<V: Value> {
    cmd_txs: Vec<Sender<NodeCmd<V>>>,
    router_tx: Sender<RouterMsg<Msg<V>>>,
    events: Arc<Mutex<Vec<ClusterEvent<V>>>>,
    threads: Vec<JoinHandle<()>>,
    start: Instant,
    n: usize,
}

impl<V: Value> Cluster<V> {
    /// Spawns `params.n()` node threads plus the delay router.
    #[must_use]
    pub fn spawn(params: Params, cfg: RuntimeConfig) -> Self {
        let n = params.n();
        let start = Instant::now();
        let events: Arc<Mutex<Vec<ClusterEvent<V>>>> = Arc::new(Mutex::new(Vec::new()));
        let (router_tx, router_rx) = unbounded::<RouterMsg<Msg<V>>>();
        let mut cmd_txs = Vec::with_capacity(n);
        let mut cmd_rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = bounded::<NodeCmd<V>>(4096);
            cmd_txs.push(tx);
            cmd_rxs.push(rx);
        }
        let mut threads = Vec::new();
        {
            let cmd_txs = cmd_txs.clone();
            threads.push(std::thread::spawn(move || {
                router_loop(router_rx, cmd_txs, cfg, |from, msg| NodeCmd::Deliver {
                    from,
                    msg,
                });
            }));
        }
        for (i, rx) in cmd_rxs.into_iter().enumerate() {
            let id = NodeId::new(i as u32);
            let router_tx = router_tx.clone();
            let events = Arc::clone(&events);
            let cfg_i = cfg;
            threads.push(std::thread::spawn(move || {
                node_loop(id, params, cfg_i, rx, router_tx, events, start);
            }));
        }
        Cluster {
            cmd_txs,
            router_tx,
            events,
            threads,
            start,
            n,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Asks `node` to initiate agreement on `value` (as General).
    ///
    /// # Errors
    ///
    /// [`ClusterError::Shutdown`] if the node thread has exited.
    pub fn initiate(&self, node: NodeId, value: V) -> Result<(), ClusterError> {
        self.cmd_txs[node.index()]
            .send(NodeCmd::Initiate(value))
            .map_err(|_| ClusterError::Shutdown)
    }

    /// Injects a raw message with a forged sender (adversary testing).
    ///
    /// # Errors
    ///
    /// [`ClusterError::Shutdown`] if the router thread has exited.
    pub fn inject(&self, from: NodeId, to: NodeId, msg: Msg<V>) -> Result<(), ClusterError> {
        self.router_tx
            .send(RouterMsg {
                due: Instant::now(),
                from,
                dest: RouterDest::One(to),
                msg: Arc::new(msg),
            })
            .map_err(|_| ClusterError::Shutdown)
    }

    /// Snapshot of all events so far.
    #[must_use]
    pub fn events(&self) -> Vec<ClusterEvent<V>> {
        self.events.lock().clone()
    }

    /// Convenience: all `Decided` events so far as `(node, value)`. The
    /// values are the shared wire handles — no deep copy is made here
    /// either.
    #[must_use]
    pub fn decisions(&self) -> Vec<(NodeId, Arc<V>)> {
        self.events()
            .into_iter()
            .filter_map(|e| match e.event {
                Event::Decided { value, .. } => Some((e.node, value)),
                _ => None,
            })
            .collect()
    }

    /// Wall-clock time since the cluster started.
    #[must_use]
    pub fn elapsed(&self) -> std::time::Duration {
        self.start.elapsed()
    }

    /// Waits (up to `timeout`) until `count` decisions exist.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Shutdown`] as soon as any worker thread has
    /// exited (the count can no longer be reached — previously this
    /// blocked for the full timeout and then reported a misleading
    /// plain `false`); [`ClusterError::Timeout`] if the deadline
    /// passes first.
    pub fn wait_for_decisions(
        &self,
        count: usize,
        timeout: std::time::Duration,
    ) -> Result<(), ClusterError> {
        let deadline = Instant::now() + timeout;
        loop {
            let decided = self
                .events
                .lock()
                .iter()
                .filter(|e| matches!(e.event, Event::Decided { .. }))
                .count();
            if decided >= count {
                return Ok(());
            }
            if self.threads.iter().any(JoinHandle::is_finished) {
                return Err(ClusterError::Shutdown);
            }
            if Instant::now() >= deadline {
                return Err(ClusterError::Timeout);
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    /// Stops all threads and joins them.
    pub fn shutdown(self) {
        for tx in &self.cmd_txs {
            let _ = tx.send(NodeCmd::Shutdown);
        }
        drop(self.router_tx);
        drop(self.cmd_txs);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Furthest-future due time the router will schedule, relative to now.
/// Deliveries beyond it (clock skew, arithmetic overflow upstream) are
/// clamped: they arrive late rather than never.
const MAX_DELAY_HORIZON_NS: u64 = 60 * 1_000_000_000;

/// The delay router: deliveries wait on the shared timer wheel until
/// their injected link delay elapses, then are handed to the destination
/// node thread. A broadcast arrives as one channel message and is fanned
/// out here — the router samples an independent delay per destination
/// from its own seeded RNG, so every peer sees its own jitter (and the
/// reorderings that implies) exactly as under the per-send path. Due
/// times are nanoseconds since the router's epoch; wheel seq numbers
/// preserve arrival FIFO order within a due time.
///
/// Generic over the wire payload `M` and the node-command type `C`:
/// `wrap` turns a matured delivery into the destination thread's
/// command, so the one-shot cluster (`Msg<V>` / `NodeCmd`) and the
/// pipeline cluster (`SlotMsg<V>` / its own command enum) share the
/// whole delay model.
pub(crate) fn router_loop<M, C, F>(
    rx: Receiver<RouterMsg<M>>,
    cmd_txs: Vec<Sender<C>>,
    cfg: RuntimeConfig,
    wrap: F,
) where
    M: Send + Sync,
    F: Fn(NodeId, Arc<M>) -> C,
{
    let epoch = Instant::now();
    let now_ns = |epoch: Instant| u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut wheel: TimerWheel<Pending<M>> = TimerWheel::for_span_hint(cfg.delay_max.as_nanos());
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7075_7265_726f_7574);
    loop {
        let timeout = wheel
            .peek_due()
            .map(|due| std::time::Duration::from_nanos(due.saturating_sub(now_ns(epoch))))
            .unwrap_or(std::time::Duration::from_millis(50));
        match rx.recv_timeout(timeout) {
            Ok(m) => {
                // A due timestamp too far past the epoch to fit in u64
                // nanoseconds used to saturate to `u64::MAX`, a due time
                // the wheel never reaches — the message was silently
                // dropped *forever*. Saturate to a bounded horizon past
                // "now" instead: the delivery is late, not lost.
                let horizon_ns = now_ns(epoch).saturating_add(MAX_DELAY_HORIZON_NS);
                let base_ns = u64::try_from(m.due.saturating_duration_since(epoch).as_nanos())
                    .map_or(horizon_ns, |ns| ns.min(horizon_ns));
                match m.dest {
                    RouterDest::One(to) => {
                        wheel.insert(
                            base_ns,
                            Pending {
                                to,
                                from: m.from,
                                msg: m.msg,
                            },
                        );
                    }
                    RouterDest::All => {
                        for dst in 0..cmd_txs.len() {
                            let delay_ns = if cfg.delay_min == cfg.delay_max {
                                cfg.delay_min.as_nanos()
                            } else {
                                rng.gen_range(cfg.delay_min.as_nanos()..=cfg.delay_max.as_nanos())
                            };
                            wheel.insert(
                                base_ns.saturating_add(delay_ns),
                                Pending {
                                    to: NodeId::new(dst as u32),
                                    from: m.from,
                                    msg: Arc::clone(&m.msg),
                                },
                            );
                        }
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        // Single pop per iteration: peeking and popping in two steps
        // invited a panic if the two calls ever disagreed (`expect`
        // on the pop). With `if let` the router degrades to "nothing
        // due" instead of killing the thread — and with it the whole
        // cluster's message plane.
        while wheel.peek_due().is_some_and(|due| due <= now_ns(epoch)) {
            if let Some(entry) = wheel.pop() {
                let p = entry.payload;
                let _ = cmd_txs[p.to.index()].send(wrap(p.from, p.msg));
            } else {
                break;
            }
        }
    }
}

fn node_loop<V: Value>(
    id: NodeId,
    params: Params,
    cfg: RuntimeConfig,
    rx: Receiver<NodeCmd<V>>,
    router_tx: Sender<RouterMsg<Msg<V>>>,
    events: Arc<Mutex<Vec<ClusterEvent<V>>>>,
    start: Instant,
) {
    let mut engine: Engine<V> = Engine::new(id, params);
    // One pooled outbox for the thread's lifetime: dispatch of duplicate
    // and suppressed deliveries allocates nothing.
    let mut outbox: Outbox<V> = Outbox::new();

    let now_local = |start: Instant| {
        LocalTime::from_nanos(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX))
    };
    let tick: std::time::Duration = cfg.tick.into();
    let mut next_tick = Instant::now() + tick;
    loop {
        let timeout = next_tick.saturating_duration_since(Instant::now());
        let cmd = rx.recv_timeout(timeout);
        let now = now_local(start);
        match cmd {
            Ok(NodeCmd::Deliver { from, msg }) => {
                engine.on_message_ref(now, from, &msg, &mut outbox);
            }
            // A refused initiation leaves the outbox empty.
            Ok(NodeCmd::Initiate(value)) => {
                let _ = engine.initiate(now, value, &mut outbox);
            }
            Ok(NodeCmd::Shutdown) => return,
            Err(RecvTimeoutError::Timeout) => {
                next_tick = Instant::now() + tick;
                engine.on_tick(now, &mut outbox);
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        for o in outbox.drain() {
            match o {
                Output::Broadcast(msg) => {
                    // Batched fan-out: the whole broadcast is one channel
                    // send carrying one Arc; the router samples the
                    // per-destination link delays when it fans out.
                    let _ = router_tx.send(RouterMsg {
                        due: Instant::now(),
                        from: id,
                        dest: RouterDest::All,
                        msg: Arc::new(msg),
                    });
                }
                Output::WakeAt(at) => {
                    // Honor the precise wake-up by shortening the tick.
                    let wait = at.since_or_zero(now);
                    let due = Instant::now() + std::time::Duration::from(wait);
                    if due < next_tick {
                        next_tick = due;
                    }
                }
                Output::Event(event) => {
                    events.lock().push(ClusterEvent {
                        node: id,
                        event,
                        elapsed: start.elapsed(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_node_cluster_agrees() {
        let params = Params::from_d(4, 1, Duration::from_millis(20), 0).unwrap();
        let cluster: Cluster<u64> = Cluster::spawn(params, RuntimeConfig::default());
        std::thread::sleep(std::time::Duration::from_millis(30));
        cluster.initiate(NodeId::new(0), 42).unwrap();
        assert_eq!(
            cluster.wait_for_decisions(4, std::time::Duration::from_secs(5)),
            Ok(()),
            "decisions: {:?}",
            cluster.decisions()
        );
        let decisions = cluster.decisions();
        assert!(decisions.iter().all(|(_, v)| **v == 42));
        cluster.shutdown();
    }

    #[test]
    fn shutdown_is_clean_without_traffic() {
        let params = Params::from_d(4, 1, Duration::from_millis(20), 0).unwrap();
        let cluster: Cluster<u64> = Cluster::spawn(params, RuntimeConfig::default());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(cluster.decisions().is_empty());
        cluster.shutdown();
    }

    #[test]
    fn injected_forged_initiator_is_ignored() {
        let params = Params::from_d(4, 1, Duration::from_millis(20), 0).unwrap();
        let cluster: Cluster<u64> = Cluster::spawn(params, RuntimeConfig::default());
        std::thread::sleep(std::time::Duration::from_millis(20));
        cluster
            .inject(
                NodeId::new(2),
                NodeId::new(3),
                Msg::Initiator {
                    general: NodeId::new(1),
                    value: Arc::new(9),
                },
            )
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert!(cluster.decisions().is_empty());
        cluster.shutdown();
    }

    #[test]
    fn recurrent_initiations_in_wall_clock() {
        // d = 20ms ⇒ Δ0 = 260ms. Two initiations spaced ≥ Δ0 both decide.
        let params = Params::from_d(4, 1, Duration::from_millis(20), 0).unwrap();
        let cluster: Cluster<u64> = Cluster::spawn(params, RuntimeConfig::default());
        std::thread::sleep(std::time::Duration::from_millis(30));
        cluster.initiate(NodeId::new(0), 1).unwrap();
        cluster
            .wait_for_decisions(4, std::time::Duration::from_secs(5))
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(400));
        cluster.initiate(NodeId::new(0), 2).unwrap();
        assert_eq!(
            cluster.wait_for_decisions(8, std::time::Duration::from_secs(5)),
            Ok(()),
            "second agreement: {:?}",
            cluster.decisions()
        );
        cluster.shutdown();
    }
}
