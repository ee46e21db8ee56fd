//! # `ssbyz-runtime` — threaded wall-clock execution
//!
//! Runs the *same* sans-io machines the deterministic simulator
//! exercises, on real threads with real clocks: one OS thread per node,
//! each running the one host loop over the [`SansIo`] seam, with a
//! [`Transport`] moving the messages. Two clusters share that host:
//!
//! * [`Cluster`] — one [`Engine`] per node; any node may act as
//!   General, so concurrent agreements run side by side;
//! * [`PipelineCluster`] — one slot pipeline per node serving a value
//!   stream from one proposer (see [`pipeline`]), in process or over
//!   authenticated TCP.
//!
//! Both default to [`InProcessTransport`]: a router thread that holds
//! every message for a seeded link delay per destination before handing
//! it to the node's channel. The machine code is byte-for-byte the code
//! the simulator runs.
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

pub use pipeline::{CommitRecord, PipelineCluster};

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssbyz_core::{Effect, Engine, Event, LocalTime, Msg, Params, SansIo};
use ssbyz_sched::{EventQueue, TimerWheel};
use ssbyz_types::{Duration, NodeId, Value};
use ssbyz_wire::{Transport, TransportTx};

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

/// A timestamped protocol event observed on the cluster.
#[derive(Debug, Clone)]
pub struct ClusterEvent<V> {
    /// The node that emitted the event.
    pub node: NodeId,
    /// The protocol event.
    pub event: Event<V>,
    /// Wall-clock time since cluster start.
    pub elapsed: StdDuration,
}

/// A live cluster of engine threads over the in-process router.
pub struct Cluster<V: Value> {
    host: Host<Engine<V>, InProcessTransport<Msg<V>>>,
}

impl<V: Value> Cluster<V> {
    /// Spawns `params.n()` node threads plus the delay router.
    #[must_use]
    pub fn spawn(params: Params, cfg: RuntimeConfig) -> Self {
        Cluster {
            host: Host::in_process(params.n(), cfg, |id| Engine::new(id, params)),
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.host.cmd_txs.len()
    }

    /// Asks `node` to initiate agreement on `value` (as General).
    ///
    /// # Errors
    ///
    /// [`ClusterError::Shutdown`] if the node thread has exited.
    pub fn initiate(&self, node: NodeId, value: V) -> Result<(), ClusterError> {
        self.host.command(node, value)
    }

    /// Injects a raw message with a forged sender (adversary testing).
    /// It is one unicast through the router and takes a sampled link
    /// delay like any other.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Shutdown`] if the cluster is no longer live.
    pub fn inject(&self, from: NodeId, to: NodeId, msg: Msg<V>) -> Result<(), ClusterError> {
        self.host.inject(from, to, msg)
    }

    /// Snapshot of all events so far.
    #[must_use]
    pub fn events(&self) -> Vec<ClusterEvent<V>> {
        self.host.records.lock().clone()
    }

    /// All `Decided` events so far as `(node, value)`, sharing the wire
    /// handles — no deep copy.
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
    pub fn elapsed(&self) -> StdDuration {
        self.host.start.elapsed()
    }

    /// Waits (up to `timeout`) until `count` decisions exist.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Shutdown`] as soon as any node thread has exited
    /// (the count can no longer be reached); [`ClusterError::Timeout`]
    /// if the deadline passes first.
    pub fn wait_for_decisions(
        &self,
        count: usize,
        timeout: StdDuration,
    ) -> Result<(), ClusterError> {
        self.host.wait_for(timeout, |events| {
            let decided = |e: &&ClusterEvent<V>| matches!(e.event, Event::Decided { .. });
            events.iter().filter(decided).count() >= count
        })
    }

    /// Stops all threads and joins them.
    pub fn shutdown(self) {
        self.host.shutdown();
    }
}

/// What a node thread needs beyond the [`SansIo`] seam: how a client
/// command enters the machine, and which events the cluster records.
pub(crate) trait Hosted: SansIo<Msg: Send + Sync + 'static> + Send + 'static {
    /// A client command: a General's value, or a submitted value.
    type Cmd: Send + 'static;
    /// One entry of the cluster's record log.
    type Record: Clone + Send + 'static;

    fn command(&mut self, now: LocalTime, cmd: Self::Cmd, buf: &mut Self::Buf);

    fn record(node: NodeId, event: Self::Event, elapsed: StdDuration) -> Option<Self::Record>;
}

impl<V: Value> Hosted for Engine<V> {
    type Cmd = V;
    type Record = ClusterEvent<V>;

    fn command(&mut self, now: LocalTime, value: V, buf: &mut Self::Buf) {
        // A refused initiation leaves the outbox empty.
        let _ = self.initiate(now, value, buf);
    }

    fn record(node: NodeId, event: Event<V>, elapsed: StdDuration) -> Option<Self::Record> {
        Some(ClusterEvent {
            node,
            event,
            elapsed,
        })
    }
}

/// Commands accepted by a node thread: a matured delivery from the
/// transport, a client command, or the stop signal.
pub(crate) enum Cmd<M, C> {
    Deliver(NodeId, Arc<M>),
    Client(C),
    Shutdown,
}

/// The threaded host both clusters are: one [`node_loop`] thread per
/// machine, one command channel each, one shared record log.
pub(crate) struct Host<S: Hosted, T> {
    cmd_txs: Vec<Sender<Cmd<S::Msg, S::Cmd>>>,
    records: Arc<Mutex<Vec<S::Record>>>,
    /// Node threads only; transport threads are owned by `transport`.
    threads: Vec<JoinHandle<()>>,
    transport: T,
    start: Instant,
}

impl<S: Hosted> Host<S, InProcessTransport<S::Msg>> {
    fn in_process(n: usize, cfg: RuntimeConfig, machine: impl Fn(NodeId) -> S) -> Self {
        let Ok(host) = Self::spawn::<std::convert::Infallible>(n, cfg.tick, machine, |delivery| {
            Ok(InProcessTransport::start(cfg, delivery, Cmd::Deliver))
        });
        host
    }
}

impl<S: Hosted, T: Transport<S::Msg>> Host<S, T> {
    /// Builds the per-node command channels, starts the transport over
    /// them, then one node thread per machine with the transport's
    /// sending handles.
    fn spawn<E>(
        n: usize,
        tick: Duration,
        machine: impl Fn(NodeId) -> S,
        transport: impl FnOnce(Vec<Sender<Cmd<S::Msg, S::Cmd>>>) -> Result<T, E>,
    ) -> Result<Self, E> {
        let start = Instant::now();
        let records = Arc::new(Mutex::new(Vec::new()));
        // Unbounded on purpose: the router and the TCP reactor each
        // deliver from one thread, so one slow node on a bounded channel
        // would block that thread and freeze every link. Depth is
        // bounded in practice by the engines' timing windows — stale
        // traffic ages out instead of accumulating.
        let (cmd_txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        let transport = transport(cmd_txs.clone())?;
        let threads = rxs
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                let id = NodeId::new(i as u32);
                let (m, tx, records) = (machine(id), transport.tx(), Arc::clone(&records));
                std::thread::spawn(move || node_loop(id, m, tick, &rx, &tx, &records, start))
            })
            .collect();
        Ok(Host {
            cmd_txs,
            records,
            threads,
            transport,
            start,
        })
    }

    fn command(&self, node: NodeId, cmd: S::Cmd) -> Result<(), ClusterError> {
        self.cmd_txs[node.index()]
            .send(Cmd::Client(cmd))
            .map_err(|_| ClusterError::Shutdown)
    }

    fn inject(&self, from: NodeId, to: NodeId, msg: S::Msg) -> Result<(), ClusterError> {
        if self.threads.iter().any(JoinHandle::is_finished) {
            return Err(ClusterError::Shutdown);
        }
        self.transport.tx().unicast(from, to, msg);
        Ok(())
    }

    /// Polls the record log every 2 ms until `done` holds.
    fn wait_for(
        &self,
        timeout: StdDuration,
        done: impl Fn(&[S::Record]) -> bool,
    ) -> Result<(), ClusterError> {
        let deadline = Instant::now() + timeout;
        loop {
            if done(&self.records.lock()) {
                return Ok(());
            }
            if self.threads.iter().any(JoinHandle::is_finished) {
                return Err(ClusterError::Shutdown);
            }
            if Instant::now() >= deadline {
                return Err(ClusterError::Timeout);
            }
            std::thread::sleep(StdDuration::from_millis(2));
        }
    }

    /// Stops the node threads first (their transport handles drop with
    /// them), then the transport's own machinery.
    fn shutdown(self) {
        for tx in &self.cmd_txs {
            let _ = tx.send(Cmd::Shutdown);
        }
        for t in self.threads {
            let _ = t.join();
        }
        self.transport.shutdown();
    }
}

/// The node thread: ticks the machine once at boot, hands it each
/// command, ticks it every `tick` and at each `WakeAt`, and routes its
/// effects.
fn node_loop<S: Hosted, Tx: TransportTx<S::Msg>>(
    id: NodeId,
    mut machine: S,
    tick: Duration,
    rx: &Receiver<Cmd<S::Msg, S::Cmd>>,
    tx: &Tx,
    records: &Mutex<Vec<S::Record>>,
    start: Instant,
) {
    // One pooled output buffer for the thread's lifetime.
    let mut buf = S::Buf::default();
    let tick: StdDuration = tick.into();
    // Due at once: the boot tick runs before any command.
    let mut next_tick = Instant::now();
    loop {
        // A due tick goes before the next command: a timed receive hands
        // out a queued command even past its deadline, so a node whose
        // channel never drained would run no deadline at all.
        let cmd = match next_tick.checked_duration_since(Instant::now()) {
            Some(wait) if !wait.is_zero() => rx.recv_timeout(wait),
            _ => Err(RecvTimeoutError::Timeout),
        };
        let now =
            LocalTime::from_nanos(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        match cmd {
            Ok(Cmd::Deliver(from, msg)) => machine.deliver(now, from, &msg, &mut buf),
            Ok(Cmd::Client(cmd)) => machine.command(now, cmd, &mut buf),
            Err(RecvTimeoutError::Timeout) => {
                next_tick = Instant::now() + tick;
                machine.tick(now, &mut buf);
            }
            Ok(Cmd::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
        }
        for effect in S::drain(&mut buf) {
            match effect {
                Effect::Broadcast(msg) => tx.broadcast(id, msg),
                Effect::Send(to, msg) => tx.unicast(id, to, msg),
                Effect::WakeAt(at) => {
                    // Honour the precise wake-up by pulling the tick in.
                    let due = Instant::now() + StdDuration::from(at.since_or_zero(now));
                    next_tick = next_tick.min(due);
                }
                Effect::Event(event) => {
                    if let Some(r) = S::record(id, event, start.elapsed()) {
                        records.lock().push(r);
                    }
                }
            }
        }
    }
}

/// The in-process message plane for any payload `M`: a router thread
/// holds each message for a seeded link delay per destination, then
/// hands it to that node's channel. The golden model the TCP reactor
/// is pinned against.
pub struct InProcessTransport<M> {
    router_tx: Sender<RouterMsg<M>>,
    thread: JoinHandle<()>,
}

impl<M: Send + Sync + 'static> InProcessTransport<M> {
    /// Spawns the router thread. Each delivery for node `i` is wrapped
    /// by `wrap` and, once its link delay has passed, pushed into
    /// `delivery[i]`.
    #[must_use]
    pub fn start<C, F>(cfg: RuntimeConfig, delivery: Vec<Sender<C>>, wrap: F) -> Self
    where
        C: Send + 'static,
        F: Fn(NodeId, Arc<M>) -> C + Send + 'static,
    {
        let (router_tx, router_rx) = unbounded();
        let thread = std::thread::spawn(move || router_loop(&router_rx, &delivery, cfg, wrap));
        InProcessTransport { router_tx, thread }
    }
}

impl<M: Send + Sync + 'static> Transport<M> for InProcessTransport<M> {
    type Tx = InProcessTx<M>;

    fn tx(&self) -> InProcessTx<M> {
        InProcessTx {
            tx: self.router_tx.clone(),
        }
    }

    fn shutdown(self) {
        // The last sender gone, the router's loop returns (a cluster
        // has joined its node threads, and their `Tx` clones, by now).
        drop(self.router_tx);
        let _ = self.thread.join();
    }
}

/// Sending handle for [`InProcessTransport`]: a send is one channel
/// message carrying one `Arc`; a broadcast fans out at the router.
pub struct InProcessTx<M> {
    tx: Sender<RouterMsg<M>>,
}

impl<M> Clone for InProcessTx<M> {
    fn clone(&self) -> Self {
        InProcessTx {
            tx: self.tx.clone(),
        }
    }
}

impl<M> InProcessTx<M> {
    fn send(&self, from: NodeId, to: Option<NodeId>, msg: M) {
        let _ = self.tx.send(RouterMsg {
            due: Instant::now(),
            from,
            to,
            msg: Arc::new(msg),
        });
    }
}

impl<M: Send + Sync + 'static> TransportTx<M> for InProcessTx<M> {
    fn broadcast(&self, from: NodeId, msg: M) {
        self.send(from, None, msg);
    }

    fn unicast(&self, from: NodeId, to: NodeId, msg: M) {
        self.send(from, Some(to), msg);
    }
}

/// A routed message. `due` is the send instant; the router adds one
/// sampled link delay per destination — the one node of a unicast, or
/// each node of a broadcast — so per-destination jitter and the
/// reorderings it produces do not depend on the send's shape.
struct RouterMsg<M> {
    due: Instant,
    from: NodeId,
    /// `None`: every node.
    to: Option<NodeId>,
    /// Shared payload: fan-out clones the `Arc`, never the message.
    msg: Arc<M>,
}

/// Furthest-future due time the router will schedule, relative to now.
/// Deliveries beyond it (clock skew, arithmetic overflow upstream) are
/// clamped: they arrive late rather than never.
const MAX_DELAY_HORIZON_NS: u64 = 60 * 1_000_000_000;

/// The delay router: each destination of a message, wrapped by `wrap`,
/// waits on the timer wheel for its own link delay, drawn from the
/// router's seeded RNG, then goes to that node's channel. Due times are
/// nanoseconds since the router's epoch; wheel seq numbers keep arrival
/// FIFO order within a due time.
fn router_loop<M, C, F>(
    rx: &Receiver<RouterMsg<M>>,
    delivery: &[Sender<C>],
    cfg: RuntimeConfig,
    wrap: F,
) where
    F: Fn(NodeId, Arc<M>) -> C,
{
    let epoch = Instant::now();
    let now_ns = |epoch: Instant| u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut wheel: TimerWheel<(usize, C)> = TimerWheel::for_span_hint(cfg.delay_max.as_nanos());
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7075_7265_726f_7574);
    loop {
        let timeout = wheel
            .peek_due()
            .map(|due| StdDuration::from_nanos(due.saturating_sub(now_ns(epoch))))
            .unwrap_or(StdDuration::from_millis(50));
        match rx.recv_timeout(timeout) {
            Ok(m) => {
                // Clamped to a horizon, not saturated to `u64::MAX`: a
                // due time the wheel never reaches would be a silent drop.
                let horizon_ns = now_ns(epoch).saturating_add(MAX_DELAY_HORIZON_NS);
                let base_ns = u64::try_from(m.due.saturating_duration_since(epoch).as_nanos())
                    .map_or(horizon_ns, |ns| ns.min(horizon_ns));
                let dests =
                    m.to.map_or(0..delivery.len(), |to| to.index()..to.index() + 1);
                for dst in dests {
                    let delay_ns = if cfg.delay_min == cfg.delay_max {
                        cfg.delay_min.as_nanos()
                    } else {
                        rng.gen_range(cfg.delay_min.as_nanos()..=cfg.delay_max.as_nanos())
                    };
                    let cmd = wrap(m.from, Arc::clone(&m.msg));
                    wheel.insert(base_ns.saturating_add(delay_ns), (dst, cmd));
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        // `else break`, not `expect`: should peek and pop ever
        // disagree, the router sees "nothing due" instead of dying.
        while wheel.peek_due().is_some_and(|due| due <= now_ns(epoch)) {
            let Some(entry) = wheel.pop() else { break };
            let (dst, cmd) = entry.payload;
            let _ = delivery[dst].send(cmd);
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
        std::thread::sleep(StdDuration::from_millis(30));
        cluster.initiate(NodeId::new(0), 42).unwrap();
        assert_eq!(
            cluster.wait_for_decisions(4, StdDuration::from_secs(5)),
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
        std::thread::sleep(StdDuration::from_millis(20));
        assert!(cluster.decisions().is_empty());
        cluster.shutdown();
    }

    #[test]
    fn injected_forged_initiator_is_ignored() {
        let params = Params::from_d(4, 1, Duration::from_millis(20), 0).unwrap();
        let cluster: Cluster<u64> = Cluster::spawn(params, RuntimeConfig::default());
        std::thread::sleep(StdDuration::from_millis(20));
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
        std::thread::sleep(StdDuration::from_millis(100));
        assert!(cluster.decisions().is_empty());
        cluster.shutdown();
    }

    #[test]
    fn recurrent_initiations_in_wall_clock() {
        // d = 20ms ⇒ Δ0 = 260ms. Two initiations spaced ≥ Δ0 both decide.
        let params = Params::from_d(4, 1, Duration::from_millis(20), 0).unwrap();
        let cluster: Cluster<u64> = Cluster::spawn(params, RuntimeConfig::default());
        std::thread::sleep(StdDuration::from_millis(30));
        cluster.initiate(NodeId::new(0), 1).unwrap();
        cluster
            .wait_for_decisions(4, StdDuration::from_secs(5))
            .unwrap();
        std::thread::sleep(StdDuration::from_millis(400));
        cluster.initiate(NodeId::new(0), 2).unwrap();
        assert_eq!(
            cluster.wait_for_decisions(8, StdDuration::from_secs(5)),
            Ok(()),
            "second agreement: {:?}",
            cluster.decisions()
        );
        cluster.shutdown();
    }

    #[test]
    fn in_process_unicast_takes_its_link_delay() {
        let delay = Duration::from_millis(50);
        let cfg = RuntimeConfig {
            delay_min: delay,
            delay_max: delay,
            ..RuntimeConfig::default()
        };
        let (tx, rx) = unbounded();
        let transport = InProcessTransport::start(cfg, vec![tx], |_, msg: Arc<u64>| msg);
        let sent = Instant::now();
        transport.tx().unicast(NodeId::new(0), NodeId::new(0), 7);
        assert_eq!(*rx.recv().unwrap(), 7);
        assert!(
            sent.elapsed() >= delay.into(),
            "arrived after {:?}",
            sent.elapsed()
        );
        transport.shutdown();
    }

    /// Sleeps 1 ms per delivery and logs each call: `d` deliver, `t` tick.
    struct Slow(Arc<Mutex<Vec<char>>>);

    impl SansIo for Slow {
        type Msg = ();
        type Event = ();
        type Buf = ();
        fn deliver(&mut self, _: LocalTime, _: NodeId, (): &(), (): &mut ()) {
            std::thread::sleep(StdDuration::from_millis(1));
            self.0.lock().push('d');
        }
        fn tick(&mut self, _: LocalTime, (): &mut ()) {
            self.0.lock().push('t');
        }
        fn drain((): &mut ()) -> impl Iterator<Item = Effect<(), ()>> + '_ {
            std::iter::empty()
        }
    }

    impl Hosted for Slow {
        type Cmd = ();
        type Record = ();
        fn command(&mut self, _: LocalTime, (): (), (): &mut ()) {}
        fn record(_: NodeId, (): (), _: StdDuration) -> Option<()> {
            None
        }
    }

    #[derive(Clone)]
    struct Mute;

    impl TransportTx<()> for Mute {
        fn broadcast(&self, _: NodeId, (): ()) {}
        fn unicast(&self, _: NodeId, _: NodeId, (): ()) {}
    }

    #[test]
    fn ticks_interleave_with_a_backlog() {
        // 60 deliveries of 1 ms each queued up front: at least 30 tick
        // periods of 2 ms pass before the backlog drains.
        let (tx, rx) = unbounded();
        for _ in 0..60 {
            tx.send(Cmd::Deliver(NodeId::new(0), Arc::new(()))).unwrap();
        }
        tx.send(Cmd::Shutdown).unwrap();
        let calls = Arc::new(Mutex::new(Vec::new()));
        let slow = Slow(Arc::clone(&calls));
        let tick = Duration::from_millis(2);
        node_loop(
            NodeId::new(0),
            slow,
            tick,
            &rx,
            &Mute,
            &Mutex::default(),
            Instant::now(),
        );
        let calls = calls.lock();
        assert_eq!(calls.first(), Some(&'t'), "the boot tick comes first");
        let last = calls
            .iter()
            .rposition(|&c| c == 'd')
            .expect("deliveries ran");
        let ticks = calls[..last].iter().filter(|&&c| c == 't').count();
        assert!(ticks >= 10, "{ticks} ticks inside the backlog: {calls:?}");
    }
}
