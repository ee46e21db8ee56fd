//! The deterministic discrete-event simulation core: one engine.
//!
//! A [`Simulation`] is one timer wheel holding every pending event in
//! `(due, seq)` order, one seeded RNG stream drawn in event-processing
//! order, and one run loop. Every handler invocation goes through one
//! helper that builds the node's [`Ctx`] and applies the effects it
//! queued. Every message copy takes one route: a draw-free
//! [`Ctx::broadcast`] (fixed link delay, no storm) is one wheel entry for
//! all its destinations, and every other send is one entry per copy
//! (`Simulation::route_copy`). Same-instant deliveries on a draw-free
//! instant are handed to each node as one wave ([`WaveMode`], the only
//! simulator option). `crates/harness/tests/recorded_traces.rs` pins the
//! resulting fixed-seed traces.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use ssbyz_sched::{EventQueue, TimerHandle, TimerWheel};
use ssbyz_types::{Duration, LocalTime, NodeBitSet, NodeId, RealTime};

use crate::clock::DriftClock;
use crate::network::{LinkBlock, LinkConfig, Partition, StormConfig};
use crate::process::{Ctx, Effect, Process};

/// A record emitted by a process via [`Ctx::observe`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation<O> {
    /// The emitting node.
    pub node: NodeId,
    /// Real time of emission.
    pub real: RealTime,
    /// The node's local time at emission.
    pub local: LocalTime,
    /// The payload.
    pub event: O,
}

/// Aggregate simulation counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Messages handed to the network (counted per destination).
    pub sent: u64,
    /// Messages delivered to a live process.
    pub delivered: u64,
    /// Messages dropped by the storm.
    pub dropped: u64,
    /// Messages corrupted by the storm.
    pub corrupted: u64,
    /// Messages duplicated by the storm.
    pub duplicated: u64,
    /// Spurious messages injected by the storm.
    pub injected: u64,
    /// Messages suppressed by an explicit link block.
    pub blocked: u64,
    /// Messages swallowed because the destination was down.
    pub swallowed: u64,
    /// Per-tag send counts (when a tagger is installed).
    pub per_tag: BTreeMap<&'static str, u64>,
}

/// Corruptor hook: may rewrite a storm-hit message (or eat it).
pub type Corruptor<M> = Box<dyn FnMut(M, &mut StdRng) -> Option<M> + Send>;

/// Spurious-message generator used during storms: returns
/// `(claimed sender, destination, payload)`. During an incoherent period
/// the network may fabricate traffic with forged identities — exactly what
/// a transient fault can leave in flight.
pub type Injector<M> = Box<dyn FnMut(&mut StdRng, usize) -> (NodeId, NodeId, M) + Send>;

enum EventKind<M> {
    /// Delivery of a (possibly broadcast-shared) payload to one node.
    Deliver {
        to: NodeId,
        from: NodeId,
        msg: Arc<M>,
    },
    /// One draw-free broadcast fan-out: a single wheel entry carrying the
    /// shared payload and a destination bitmap. On expiry the payload is
    /// delivered to every destination in ascending id order — exactly the
    /// order n same-due per-copy entries would have popped in (equal due
    /// ⇒ FIFO by seq ⇒ the broadcast's insertion order, which is
    /// ascending id). An all-broadcast round occupies O(n) wheel entries
    /// instead of O(n²).
    BroadcastDeliver {
        from: NodeId,
        msg: Arc<M>,
        dests: NodeBitSet,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    Injection,
    /// Scheduled end of a crash: if the node is still due to come back at
    /// this instant (it was not re-crashed meanwhile), clear the down
    /// mark and run its recovery hook.
    Recover {
        node: NodeId,
    },
}

/// Pooled buffers for the destination-major dispatch of one coalesced
/// instant.
struct WaveScratch<M> {
    /// The contiguous run of same-due delivery entries popped off the
    /// wheel, in `(due, seq)` order.
    group: Vec<EventKind<M>>,
    /// One `(from, payload)` per group entry: the batch of every node
    /// that is a destination of all of them, built once per instant.
    shared: Vec<(NodeId, Arc<M>)>,
    /// The batch of a node that is a destination of only some entries.
    filtered: Vec<(NodeId, Arc<M>)>,
    /// The nodes that are a destination of every group entry.
    common: NodeBitSet,
}

impl<M> Default for WaveScratch<M> {
    fn default() -> Self {
        WaveScratch {
            group: Vec::new(),
            shared: Vec::new(),
            filtered: Vec::new(),
            common: NodeBitSet::new(),
        }
    }
}

impl<M> WaveScratch<M> {
    /// Hands each of the `n` nodes (ascending id) its `(due, seq)`-ordered
    /// arrivals of the drained group in one `deliver` call. An
    /// all-broadcast instant is one shared batch — one reference bump per
    /// payload, not one per delivery; only a node missing from some
    /// entry's destinations gets a filtered rebuild.
    fn dispatch(&mut self, n: u32, mut deliver: impl FnMut(NodeId, &[(NodeId, Arc<M>)])) {
        debug_assert!(self.shared.is_empty() && self.filtered.is_empty());
        self.common.fill(n as usize);
        for ev in &self.group {
            match ev {
                EventKind::Deliver { to, from, msg } => {
                    self.shared.push((*from, Arc::clone(msg)));
                    self.common.retain(|d| d == *to);
                }
                EventKind::BroadcastDeliver { from, msg, dests } => {
                    self.shared.push((*from, Arc::clone(msg)));
                    self.common.intersect_with(dests);
                }
                _ => unreachable!("only delivery entries are drained into a wave group"),
            }
        }
        for id in 0..n {
            let node = NodeId::new(id);
            if self.common.contains(node) {
                deliver(node, &self.shared);
                continue;
            }
            for ev in &self.group {
                match ev {
                    EventKind::Deliver { to, from, msg } if *to == node => {
                        self.filtered.push((*from, Arc::clone(msg)));
                    }
                    EventKind::BroadcastDeliver { from, msg, dests } if dests.contains(node) => {
                        self.filtered.push((*from, Arc::clone(msg)));
                    }
                    _ => {}
                }
            }
            if !self.filtered.is_empty() {
                deliver(node, &self.filtered);
                self.filtered.clear();
            }
        }
        self.shared.clear();
    }

    /// Empties the dispatched group, recycling its destination bitmaps
    /// exactly as the per-message `BroadcastDeliver` arm recycles them.
    fn recycle(&mut self, pool: &mut Vec<NodeBitSet>) {
        for ev in self.group.drain(..) {
            if let EventKind::BroadcastDeliver { mut dests, .. } = ev {
                dests.clear();
                pool.push(dests);
            }
        }
    }
}

/// How same-instant deliveries are dispatched to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WaveMode {
    /// Receiver-side coalescing (the default): on a **draw-free** instant
    /// (deterministic link delay in force, no storm active) the run loop
    /// drains every same-due delivery entry, then invokes each
    /// destination node once with its whole wave via
    /// [`Process::on_message_batch`]. On any instant where routing would
    /// draw randomness — jittered links, storm windows — the per-message
    /// path is used unchanged, so the seeded RNG stream is identical in
    /// both modes.
    ///
    /// Coalescing transposes dispatch from entry-major to
    /// destination-major *within one instant*: each node still receives
    /// its own arrivals in `(due, seq)` order, every metric counts the
    /// same messages, and non-delivery events (timers, injections,
    /// recoveries) keep their exact position — the drain stops at them.
    #[default]
    Coalesced,
    /// The pre-wave route: every delivery invokes
    /// [`Process::on_message`] separately, in global `(due, seq)` pop
    /// order. Retained as the reference side of the wave A/B parity
    /// tests.
    PerMessage,
}

struct NodeSlot<M, O> {
    process: Box<dyn Process<M, O>>,
    clock: DriftClock,
    /// Down (crashed / storm-disabled) until this real time.
    down_until: Option<RealTime>,
    /// Pending timers keyed by `(token, real-due ns)`, each with its wheel
    /// seq: the handle they make lets a reschedule cancel the wheel entry
    /// outright instead of leaving stale garbage, and the key makes
    /// identical re-requests no-ops. A flat hash map keeps its capacity,
    /// so a node at its working set of timers schedules and fires them
    /// without the allocator.
    timers: HashMap<(u64, u64), u64, BuildHasherDefault<TimerKeyHasher>>,
}

/// A multiply-fold hasher for the `(token, due)` timer keys: the
/// registry only answers membership, so the hash decides nothing a run
/// can observe, and a fixed one keeps each run's costs reproducible.
#[derive(Default)]
struct TimerKeyHasher(u64);

impl Hasher for TimerKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        // The product's high bits are its best mixed; the table indexes
        // by the low ones.
        self.0.rotate_left(26)
    }
}

/// Builder for a [`Simulation`].
pub struct SimBuilder<M, O> {
    seed: u64,
    link: LinkConfig,
    storm: Option<StormConfig>,
    corruptor: Option<Corruptor<M>>,
    injector: Option<Injector<M>>,
    tagger: Option<fn(&M) -> &'static str>,
    wave_mode: WaveMode,
    nodes: Vec<NodeSlot<M, O>>,
}

impl<M, O> SimBuilder<M, O> {
    /// Starts a builder with a deterministic seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SimBuilder {
            seed,
            link: LinkConfig::default(),
            storm: None,
            corruptor: None,
            injector: None,
            tagger: None,
            wave_mode: WaveMode::default(),
            nodes: Vec::new(),
        }
    }

    /// Selects how same-instant deliveries are dispatched (defaults to
    /// [`WaveMode::Coalesced`]).
    #[must_use]
    pub fn wave_mode(mut self, mode: WaveMode) -> Self {
        self.wave_mode = mode;
        self
    }

    /// Sets the steady-state link behaviour.
    #[must_use]
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Installs a transient-failure storm.
    #[must_use]
    pub fn storm(mut self, storm: StormConfig) -> Self {
        self.storm = Some(storm);
        self
    }

    /// Installs the storm corruptor hook.
    #[must_use]
    pub fn corruptor(mut self, c: Corruptor<M>) -> Self {
        self.corruptor = Some(c);
        self
    }

    /// Installs the storm spurious-message generator.
    #[must_use]
    pub fn injector(mut self, i: Injector<M>) -> Self {
        self.injector = Some(i);
        self
    }

    /// Installs a per-message tag function for metrics.
    #[must_use]
    pub fn tagger(mut self, t: fn(&M) -> &'static str) -> Self {
        self.tagger = Some(t);
        self
    }

    /// Adds a node with the given process and clock. Node ids are assigned
    /// in insertion order.
    #[must_use]
    pub fn node(mut self, process: Box<dyn Process<M, O>>, clock: DriftClock) -> Self {
        self.nodes.push(NodeSlot {
            process,
            clock,
            down_until: None,
            timers: HashMap::default(),
        });
        self
    }

    /// Finalizes the simulation.
    pub fn build(self) -> Simulation<M, O> {
        // Scale the wheel's tick to the link's delay bound (the paper's
        // δ/d horizon): most deliveries then land within the first
        // levels, where insert and cancel are single bucket pushes.
        let queue = TimerWheel::for_span_hint(self.link.delay_max.as_nanos());
        let mut sim = Simulation {
            now: RealTime::ZERO,
            queue,
            nodes: self.nodes,
            link: self.link,
            storm: self.storm,
            blocks: Vec::new(),
            partition: None,
            delay_inflation: None,
            rng: StdRng::seed_from_u64(self.seed),
            corruptor: self.corruptor,
            injector: self.injector,
            tagger: self.tagger,
            observations: Vec::new(),
            metrics: Metrics::default(),
            started: false,
            events_processed: 0,
            scratch_outbox: Vec::new(),
            wave_mode: self.wave_mode,
            bitset_pool: Vec::new(),
            wave: WaveScratch::default(),
        };
        if sim.storm.is_some() && sim.injector.is_some() {
            sim.queue
                .insert(RealTime::ZERO.as_nanos(), EventKind::Injection);
        }
        sim
    }
}

/// A deterministic simulation of `n` nodes over a bounded-delay
/// authenticated network with drifting clocks.
///
/// # Example
///
/// ```
/// use ssbyz_simnet::{Ctx, DriftClock, LinkConfig, Process, SimBuilder};
/// use ssbyz_types::{Duration, NodeId, RealTime};
///
/// struct Echo;
/// impl Process<u32, u32> for Echo {
///     fn on_start(&mut self, ctx: &mut Ctx<'_, u32, u32>) {
///         if ctx.me() == NodeId::new(0) {
///             ctx.broadcast(1);
///         }
///     }
///     fn on_message(&mut self, ctx: &mut Ctx<'_, u32, u32>, _from: NodeId, msg: &u32) {
///         ctx.observe(*msg);
///     }
///     // Same-instant arrivals can land as one coalesced wave. The
///     // default implementation loops `on_message` per arrival — bit
///     // -identical behavior for free; override it (as here) only to
///     // consume the whole batch in one pass, the way the engine
///     // adapter feeds a wave into a single triplet-table walk.
///     fn on_message_batch(
///         &mut self,
///         ctx: &mut Ctx<'_, u32, u32>,
///         batch: &[(NodeId, std::sync::Arc<u32>)],
///     ) {
///         for (_from, msg) in batch {
///             ctx.observe(**msg);
///         }
///     }
///     fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32, u32>, _token: u64) {}
/// }
///
/// let mut sim = SimBuilder::new(42)
///     .link(LinkConfig::fixed(Duration::from_millis(1)))
///     .node(Box::new(Echo), DriftClock::ideal())
///     .node(Box::new(Echo), DriftClock::ideal())
///     .build();
/// sim.run_until(RealTime::from_nanos(10_000_000));
/// assert_eq!(sim.observations().len(), 2); // both nodes got the broadcast
/// ```
pub struct Simulation<M, O> {
    now: RealTime,
    /// The hierarchical timer wheel holding every pending event
    /// (deliveries, timers, storm injections) in `(due, seq)` order.
    queue: TimerWheel<EventKind<M>>,
    nodes: Vec<NodeSlot<M, O>>,
    link: LinkConfig,
    storm: Option<StormConfig>,
    /// Directed link blocks; expired ones are dropped when routing.
    blocks: Vec<LinkBlock>,
    /// The partition currently in force, if any (fault injection).
    partition: Option<Partition>,
    /// Link-delay inflation `(num, den, until)`: sampled delays are scaled
    /// by `num/den` while `now < until` (fault injection). Applied after
    /// the RNG draw so the draw sequence — and thus every downstream
    /// random choice — is identical with and without the fault.
    delay_inflation: Option<(u64, u64, RealTime)>,
    /// The one seeded stream every random choice draws from, in
    /// event-processing order.
    rng: StdRng,
    corruptor: Option<Corruptor<M>>,
    injector: Option<Injector<M>>,
    tagger: Option<fn(&M) -> &'static str>,
    observations: Vec<Observation<O>>,
    metrics: Metrics,
    started: bool,
    events_processed: u64,
    /// Reused per-handler effect buffer: every dispatch borrows this Vec
    /// instead of allocating a fresh outbox per event.
    scratch_outbox: Vec<Effect<M, O>>,
    /// Recycled destination bitmaps — steady-state draw-free fan-out
    /// allocates no fresh bitsets.
    bitset_pool: Vec<NodeBitSet>,
    /// How same-instant deliveries are dispatched.
    wave_mode: WaveMode,
    /// Pooled drain and batch buffers of one coalesced instant.
    wave: WaveScratch<M>,
}

impl<M: Clone, O> Simulation<M, O> {
    /// Current real time.
    #[must_use]
    pub fn now(&self) -> RealTime {
        self.now
    }

    /// The clock of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn clock(&self, node: NodeId) -> &DriftClock {
        &self.nodes[node.index()].clock
    }

    /// All observations emitted so far.
    #[must_use]
    pub fn observations(&self) -> &[Observation<O>] {
        &self.observations
    }

    /// Drains the observation log.
    pub fn take_observations(&mut self) -> Vec<Observation<O>> {
        std::mem::take(&mut self.observations)
    }

    /// Aggregate counters.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Number of events processed so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Marks `node` down (unresponsive, losing all deliveries and timers)
    /// until the given real time.
    pub fn set_down_until(&mut self, node: NodeId, until: RealTime) {
        self.nodes[node.index()].down_until = Some(until);
    }

    /// Blocks the directed link `from → to` until the given real time.
    pub fn block_link(&mut self, from: NodeId, to: NodeId, until: RealTime) {
        self.blocks.push(LinkBlock { from, to, until });
    }

    /// Crashes `node` for `down_for`: deliveries are swallowed and timers
    /// dropped at fire time while down, and recovery is scheduled — at
    /// `now + down_for` the node's [`Process::on_recover`] hook runs so it
    /// can re-arm its periodic timers. Unlike the bare
    /// [`Simulation::set_down_until`], this models a full crash/recover
    /// cycle rather than a silent outage.
    pub fn crash_node(&mut self, node: NodeId, down_for: Duration) {
        let until = self.now + down_for;
        self.nodes[node.index()].down_until = Some(until);
        self.push(until, EventKind::Recover { node });
    }

    /// Recovers a crashed node immediately (clears the down mark and runs
    /// its [`Process::on_recover`] hook). A no-op when the node is up.
    pub fn recover_node(&mut self, node: NodeId) {
        if self.nodes[node.index()].down_until.take().is_some() {
            self.run_recover(node);
        }
    }

    /// Installs (or, with `None`, heals) a network [`Partition`]. While a
    /// partition is in force, messages between nodes in different groups
    /// are suppressed at send time (counted as blocked); messages already
    /// in flight still arrive, exactly as a real cut leaves packets on
    /// the wire. Externally injected traffic is not subject to the
    /// partition (it models fault residue, not link traffic).
    pub fn set_partition(&mut self, partition: Option<Partition>) {
        self.partition = partition;
    }

    /// The partition currently in force, if any.
    #[must_use]
    pub fn partition(&self) -> Option<&Partition> {
        self.partition.as_ref()
    }

    /// Fault injection: jumps `node`'s clock forward by `jump` at the
    /// current instant, optionally changing its drift rate. Pending
    /// real-time wheel entries are deliberately left untouched — hardware
    /// timers survive a clock-register glitch — so already-scheduled
    /// wake-ups fire at their original real times and merely read the new
    /// (jumped) local clock.
    pub fn skew_clock(&mut self, node: NodeId, jump: Duration, new_rate_ppm: Option<i32>) {
        let slot = &mut self.nodes[node.index()];
        slot.clock = slot.clock.jumped(self.now, jump, new_rate_ppm);
    }

    /// Fault injection: inflates every sampled link delay by `num/den`
    /// until the given real time (`num > den` models congestion that
    /// violates the paper's δ bound — properties are only promised again
    /// after the window closes). Scaling happens after the RNG draw, so
    /// the random sequence is unchanged.
    pub fn inflate_delays(&mut self, num: u64, den: u64, until: RealTime) {
        assert!(den > 0, "inflation denominator must be positive");
        self.delay_inflation = Some((num, den, until));
    }

    /// Fault injection: cancels every pending timer of `node` carrying
    /// `token` (state scrambling — a transient fault may eat pending
    /// wake-ups). Returns how many were removed.
    pub fn cancel_node_timer(&mut self, node: NodeId, token: u64) -> usize {
        self.cancel_timers(node, token)
    }

    /// Fault injection: plants a timer for `node` at `after` from now
    /// carrying `token` — the complement of
    /// [`Simulation::cancel_node_timer`]: a transient fault may also
    /// fabricate spurious wake-ups.
    pub fn plant_timer(&mut self, node: NodeId, after: Duration, token: u64) {
        let at = self.now + after;
        self.schedule_timer(node, at, token);
    }

    /// Mutable access to a node's process, for harness-level fault
    /// injection (downcast via [`Process::as_any_mut`]).
    pub fn process_mut(&mut self, node: NodeId) -> &mut dyn Process<M, O> {
        &mut *self.nodes[node.index()].process
    }

    /// Externally injects a message with a *forged* sender identity — only
    /// meaningful as transient-fault residue or adversary action.
    pub fn inject_message(&mut self, at: RealTime, from: NodeId, to: NodeId, msg: M) {
        let at = at.max(self.now);
        self.metrics.injected += 1;
        self.push(
            at,
            EventKind::Deliver {
                to,
                from,
                msg: Arc::new(msg),
            },
        );
    }

    /// Runs until real time `t` (inclusive of events at `t`).
    pub fn run_until(&mut self, t: RealTime) {
        self.start_if_needed();
        while let Some(due) = self.queue.peek_due() {
            if due > t.as_nanos() {
                break;
            }
            let ev = self.queue.pop().expect("peeked");
            self.now = RealTime::from_nanos(ev.due);
            self.events_processed += 1;
            self.dispatch_coalescing(self.now, ev.payload);
        }
        self.now = self.now.max(t);
    }

    /// Runs for a real-time span.
    pub fn run_for(&mut self, span: Duration) {
        let target = self.now + span;
        self.run_until(target);
    }

    /// Processes a single event; returns `false` when the queue is empty.
    /// Always per-event: `step` never coalesces, so single-stepping is
    /// exactly the [`WaveMode::PerMessage`] order regardless of mode.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        match self.queue.pop() {
            Some(ev) => {
                self.now = RealTime::from_nanos(ev.due);
                self.events_processed += 1;
                self.dispatch(self.now, ev.payload);
                true
            }
            None => false,
        }
    }

    /// Number of pending (live) events in the scheduler.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Physical scheduler occupancy, including any not-yet-reclaimed
    /// cancelled entries. For the timer wheel this always equals
    /// [`Simulation::queue_len`] — rescheduling cancels in place rather
    /// than leaving stale entries to be filtered at pop — which the
    /// stale-`WakeAt` regression test pins down.
    #[must_use]
    pub fn queue_occupancy(&self) -> usize {
        self.queue.occupancy()
    }

    /// Runs every node's [`Process::on_start`] hook if that has not
    /// happened yet.
    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            self.run_handler(NodeId::new(i as u32), self.now, |p, ctx| p.on_start(ctx));
        }
    }

    /// Runs one handler of `node` at real time `at` and applies the
    /// effects it queued. Every handler invocation goes through here:
    /// the [`Ctx`] reads the node's own clock, draws from the one seeded
    /// stream, and borrows the pooled effect buffer instead of
    /// allocating an outbox per event.
    fn run_handler(
        &mut self,
        node: NodeId,
        at: RealTime,
        handler: impl FnOnce(&mut dyn Process<M, O>, &mut Ctx<'_, M, O>),
    ) {
        let mut outbox = std::mem::take(&mut self.scratch_outbox);
        {
            let n = self.nodes.len();
            let slot = &mut self.nodes[node.index()];
            let rng = &mut self.rng;
            let mut words = move || rng.next_u64();
            let mut ctx = Ctx {
                me: node,
                n,
                now_local: slot.clock.local_at(at),
                outbox: &mut outbox,
                rng_words: &mut words,
            };
            handler(&mut *slot.process, &mut ctx);
        }
        self.apply_effects(node, &mut outbox);
        self.scratch_outbox = outbox;
    }

    fn push(&mut self, at: RealTime, kind: EventKind<M>) {
        self.queue.insert(at.as_nanos(), kind);
    }

    /// Schedules `on_timer(token)` for `node` at real time `at`.
    ///
    /// Timers are identified by `(token, due)`: requesting one identical
    /// to a pending timer is a no-op, so re-emitted deadlines (the
    /// engine's `WakeAt` pattern) occupy a single wheel entry instead of
    /// accumulating stale duplicates.
    fn schedule_timer(&mut self, node: NodeId, at: RealTime, token: u64) {
        let timers = &mut self.nodes[node.index()].timers;
        if let Entry::Vacant(slot) = timers.entry((token, at.as_nanos())) {
            slot.insert(
                self.queue
                    .insert(at.as_nanos(), EventKind::Timer { node, token })
                    .seq(),
            );
        }
    }

    /// Cancels every pending timer of `node` carrying `token`; returns
    /// how many were removed from the wheel. One scan of the node's
    /// registry, which keeps its capacity: only fault injection and
    /// rescheduling processes cancel, rarely.
    fn cancel_timers(&mut self, node: NodeId, token: u64) -> usize {
        let queue = &mut self.queue;
        let mut cancelled = 0;
        self.nodes[node.index()]
            .timers
            .retain(|&(t, due), &mut seq| {
                if t != token {
                    return true;
                }
                cancelled += usize::from(queue.cancel(TimerHandle::new(due, seq)));
                false
            });
        cancelled
    }

    fn is_down(&self, node: NodeId, at: RealTime) -> bool {
        self.nodes[node.index()]
            .down_until
            .is_some_and(|until| at < until)
    }

    /// Delivers one payload to one (live) node: handler plus immediate
    /// effect application, exactly one pre-batch `Deliver` event's worth.
    fn deliver_to(&mut self, at: RealTime, to: NodeId, from: NodeId, msg: &M) {
        if self.is_down(to, at) {
            self.metrics.swallowed += 1;
            return;
        }
        self.metrics.delivered += 1;
        self.run_handler(to, at, |p, ctx| p.on_message(ctx, from, msg));
    }

    /// Delivers one coalesced same-instant wave to one (live) node: a
    /// single [`Process::on_message_batch`] invocation covering what
    /// would have been `batch.len()` separate
    /// [`Simulation::deliver_to`] calls. Metrics count per message, so
    /// both dispatch routes report identical totals.
    fn deliver_batch(&mut self, at: RealTime, to: NodeId, batch: &[(NodeId, Arc<M>)]) {
        if self.is_down(to, at) {
            self.metrics.swallowed += batch.len() as u64;
            return;
        }
        self.metrics.delivered += batch.len() as u64;
        self.run_handler(to, at, |p, ctx| p.on_message_batch(ctx, batch));
    }

    /// Dispatch entry for the run loop: coalesces the contiguous run of
    /// same-due delivery entries starting at `kind` into per-destination
    /// waves when the instant is draw-free, and falls back to plain
    /// [`Simulation::dispatch`] otherwise.
    ///
    /// Order preservation: the drain pops exactly the entries that would
    /// have popped next anyway (same due, ascending seq) and stops at the
    /// first non-delivery event, which is dispatched *after* the wave —
    /// its seq exceeds every drained entry, so that is its original
    /// position. Within the wave, each node receives its arrivals in the
    /// drained entry order, i.e. its own `(due, seq)` subsequence; only
    /// the interleaving *across* nodes becomes destination-major, which
    /// no per-node handler can observe directly.
    fn dispatch_coalescing(&mut self, at: RealTime, kind: EventKind<M>) {
        if self.wave_mode != WaveMode::Coalesced || !self.draw_free_at(at) {
            self.dispatch(at, kind);
            return;
        }
        match kind {
            EventKind::Deliver { .. } | EventKind::BroadcastDeliver { .. } => {}
            other => {
                self.dispatch(at, other);
                return;
            }
        }
        if self.queue.peek_due() != Some(at.as_nanos()) {
            // Nothing else due this instant — a lone entry has no wave to
            // join; the plain path avoids the group scan.
            self.dispatch(at, kind);
            return;
        }
        debug_assert!(self.wave.group.is_empty());
        self.wave.group.push(kind);
        let mut trailing = None;
        while self.queue.peek_due() == Some(at.as_nanos()) {
            let ev = self.queue.pop().expect("peeked");
            self.events_processed += 1;
            match ev.payload {
                k @ (EventKind::Deliver { .. } | EventKind::BroadcastDeliver { .. }) => {
                    self.wave.group.push(k);
                }
                other => {
                    trailing = Some(other);
                    break;
                }
            }
        }
        self.dispatch_wave(at);
        if let Some(ev) = trailing {
            self.dispatch(at, ev);
        }
    }

    /// Whether dispatch order at `at` cannot perturb the seeded RNG
    /// stream: with a deterministic link delay routing draws nothing, and
    /// outside a storm window no drop/corrupt/duplicate draws occur.
    /// Delivery handlers themselves draw no randomness (the
    /// [`Process::on_message_batch`] determinism contract; no shipped
    /// process draws from the simulator's stream), so reordering them
    /// within an instant leaves every downstream draw identical.
    fn draw_free_at(&self, at: RealTime) -> bool {
        self.link.delay_min == self.link.delay_max && !self.storm.is_some_and(|s| s.active_at(at))
    }

    /// Destination-major dispatch of the drained wave group (see
    /// [`WaveScratch::dispatch`]).
    fn dispatch_wave(&mut self, at: RealTime) {
        let mut wave = std::mem::take(&mut self.wave);
        let n = self.nodes.len() as u32;
        wave.dispatch(n, |node, batch| self.deliver_batch(at, node, batch));
        wave.recycle(&mut self.bitset_pool);
        self.wave = wave;
    }

    /// Runs a node's [`Process::on_recover`] hook and applies its effects.
    fn run_recover(&mut self, node: NodeId) {
        self.run_handler(node, self.now, |p, ctx| p.on_recover(ctx));
    }

    fn dispatch(&mut self, at: RealTime, kind: EventKind<M>) {
        match kind {
            EventKind::Deliver { to, from, msg } => {
                self.deliver_to(at, to, from, &msg);
            }
            EventKind::BroadcastDeliver {
                from,
                msg,
                mut dests,
            } => {
                // Ascending-id delivery reproduces the per-destination pop
                // order (equal due ⇒ seq order ⇒ this broadcast's
                // insertion order). Each destination's effects apply
                // before the next destination's handler runs, exactly as
                // they did across n separate pops: any event a handler
                // schedules gets a later seq than this batch, so nothing
                // could have popped in between anyway.
                for to in dests.iter() {
                    self.deliver_to(at, to, from, &msg);
                }
                dests.clear();
                self.bitset_pool.push(dests);
            }
            EventKind::Timer { node, token } => {
                // The wheel entry just fired: forget its handle whether
                // or not the node is up to receive it.
                self.nodes[node.index()]
                    .timers
                    .remove(&(token, at.as_nanos()));
                if self.is_down(node, at) {
                    return;
                }
                self.run_handler(node, at, |p, ctx| p.on_timer(ctx, token));
            }
            EventKind::Injection => {
                let Some(storm) = self.storm else { return };
                if !storm.active_at(at) {
                    return;
                }
                if let (Some(injector), Some(period)) =
                    (self.injector.as_mut(), storm.injection_period)
                {
                    let n = self.nodes.len();
                    let (from, to, msg) = injector(&mut self.rng, n);
                    self.metrics.injected += 1;
                    self.push(
                        at,
                        EventKind::Deliver {
                            to,
                            from,
                            msg: Arc::new(msg),
                        },
                    );
                    // Jittered re-arm (±50%).
                    let base = period.as_nanos().max(1);
                    let jitter = self.rng.gen_range(base / 2..=base + base / 2);
                    self.push(at + Duration::from_nanos(jitter), EventKind::Injection);
                }
            }
            EventKind::Recover { node } => {
                // Stale when the node was re-crashed meanwhile (a later
                // `down_until`) or already recovered by hand (`None`):
                // only the event matching the current down mark acts.
                let due_back = self.nodes[node.index()]
                    .down_until
                    .is_some_and(|until| until <= at);
                if due_back {
                    self.nodes[node.index()].down_until = None;
                    self.run_recover(node);
                }
            }
        }
    }

    fn apply_effects(&mut self, node: NodeId, effects: &mut Vec<Effect<M, O>>) {
        for e in effects.drain(..) {
            match e {
                Effect::Send { to, msg } => self.route(node, to, msg),
                Effect::Broadcast { msg } => self.route_broadcast(node, msg),
                Effect::TimerAtLocal { at, token } => {
                    let clock = self.nodes[node.index()].clock;
                    let real = clock.real_of_local(at).max(self.now);
                    self.schedule_timer(node, real, token);
                }
                Effect::TimerAfter { after, token } => {
                    let clock = self.nodes[node.index()].clock;
                    let real = self.now + clock.scale_to_real(after);
                    self.schedule_timer(node, real, token);
                }
                Effect::CancelTimer { token } => {
                    self.cancel_timers(node, token);
                }
                Effect::Observe(obs) => {
                    let clock = self.nodes[node.index()].clock;
                    self.observations.push(Observation {
                        node,
                        real: self.now,
                        local: clock.local_at(self.now),
                        event: obs,
                    });
                }
            }
        }
    }

    /// Fans one payload out to every node, wrapped in an [`Arc`] exactly
    /// once. `sent` and the payload's `per_tag` entry grow by n once per
    /// broadcast, blocked destinations included — what n unicasts count.
    ///
    /// On a draw-free instant ([`Simulation::draw_free_at`], the wave
    /// gate's own predicate) routing draws nothing and every destination
    /// shares one due, so the broadcast is paid for once, not per
    /// destination: one delay sample, `0..n` filled a word at a time,
    /// blocked and partitioned destinations cleared only while a block or
    /// partition exists, then **one** wheel entry — an
    /// [`EventKind::BroadcastDeliver`] for two or more destinations, a
    /// plain [`EventKind::Deliver`] for one, nothing for none.
    ///
    /// Otherwise (jittered links, storm windows) every copy takes the
    /// unicast path, [`Simulation::route_copy`], in ascending destination
    /// order: the draws, wheel entries and pop order of n unicasts, with
    /// the payload shared by reference. Equal-due copies are not merged:
    /// on jittered links two copies of one broadcast almost never share
    /// a due (`docs/PERF.md` § One route per copy).
    ///
    /// `tests/fanout_equivalence.rs` checks both paths against processes
    /// that fan out with one [`Ctx::send`] per destination.
    fn route_broadcast(&mut self, from: NodeId, msg: M) {
        let shared = Arc::new(msg);
        let n = self.nodes.len();
        self.metrics.sent += n as u64;
        if let Some(tagger) = self.tagger {
            *self.metrics.per_tag.entry(tagger(&shared)).or_insert(0) += n as u64;
        }
        self.prune_blocks();
        if self.draw_free_at(self.now) {
            let due = self.now + self.sample_delay(self.link.delay_min, self.link.delay_max);
            let mut dests = self.bitset_pool.pop().unwrap_or_default();
            dests.fill(n);
            if !self.blocks.is_empty() || self.partition.is_some() {
                dests.retain(|to| self.link_open(from, to));
                self.metrics.blocked += (n - dests.count()) as u64;
            }
            let kind = match dests.count() {
                0 => {
                    self.bitset_pool.push(dests);
                    return;
                }
                1 => {
                    let to = dests.iter().next().expect("one destination");
                    dests.clear();
                    self.bitset_pool.push(dests);
                    EventKind::Deliver {
                        to,
                        from,
                        msg: shared,
                    }
                }
                _ => EventKind::BroadcastDeliver {
                    from,
                    msg: shared,
                    dests,
                },
            };
            self.push(due, kind);
            return;
        }
        for i in 0..n {
            self.route_copy(from, NodeId::new(i as u32), Arc::clone(&shared));
        }
    }

    fn route(&mut self, from: NodeId, to: NodeId, msg: M) {
        if to.index() >= self.nodes.len() {
            self.metrics.blocked += 1;
            return; // destination outside the membership — drop
        }
        self.metrics.sent += 1;
        if let Some(tagger) = self.tagger {
            *self.metrics.per_tag.entry(tagger(&msg)).or_insert(0) += 1;
        }
        self.prune_blocks();
        self.route_copy(from, to, Arc::new(msg));
    }

    /// Routes one already-counted copy to `to`: the link check, then the
    /// storm's drop, corrupt and duplicate rolls, then the delay draw, and
    /// one wheel entry (two for a duplicate). Suppression sits before any
    /// RNG draw, so a block or partition never shifts the draw sequence.
    /// Expects [`Simulation::prune_blocks`] to have run at this instant.
    fn route_copy(&mut self, from: NodeId, to: NodeId, mut msg: Arc<M>) {
        if !self.link_open(from, to) {
            self.metrics.blocked += 1;
            return;
        }
        let storm = self.storm.filter(|s| s.active_at(self.now));
        let delay = match storm {
            None => self.sample_delay(self.link.delay_min, self.link.delay_max),
            Some(storm) => {
                if storm.drop_den > 0 && self.rng.gen_ratio(storm.drop_num, storm.drop_den) {
                    self.metrics.dropped += 1;
                    return;
                }
                if storm.corrupt_den > 0 && self.rng.gen_ratio(storm.corrupt_num, storm.corrupt_den)
                {
                    // A unicast owns its payload and is rewritten in place;
                    // a broadcast copy shares it with the other
                    // destinations, so the corruptor gets a deep clone and
                    // every other copy stays pristine. No corruptor
                    // installed: corruption degenerates to loss.
                    let rewritten = match self.corruptor.as_mut() {
                        Some(corruptor) => {
                            let owned = Arc::try_unwrap(msg).unwrap_or_else(|m| (*m).clone());
                            corruptor(owned, &mut self.rng)
                        }
                        None => None,
                    };
                    let Some(m) = rewritten else {
                        self.metrics.dropped += 1;
                        return;
                    };
                    self.metrics.corrupted += 1;
                    msg = Arc::new(m);
                }
                if storm.dup_den > 0 && self.rng.gen_ratio(storm.dup_num, storm.dup_den) {
                    self.metrics.duplicated += 1;
                    let at = self.now + self.sample_delay(Duration::ZERO, storm.max_delay);
                    self.push(
                        at,
                        EventKind::Deliver {
                            to,
                            from,
                            msg: Arc::clone(&msg),
                        },
                    );
                }
                self.sample_delay(Duration::ZERO, storm.max_delay)
            }
        };
        self.push(self.now + delay, EventKind::Deliver { to, from, msg });
    }

    /// Drops the link blocks that have expired. Time never runs
    /// backwards, so an expired block can never match again; without
    /// this every send would scan every block ever installed.
    fn prune_blocks(&mut self) {
        let now = self.now;
        self.blocks.retain(|b| now < b.until);
    }

    /// Whether `from → to` is neither blocked nor cut by the partition.
    /// Expects [`Simulation::prune_blocks`] to have run at this instant.
    fn link_open(&self, from: NodeId, to: NodeId) -> bool {
        !self.blocks.iter().any(|b| b.from == from && b.to == to)
            && self.partition.as_ref().is_none_or(|p| p.allows(from, to))
    }

    /// Samples a link delay in `[min, max]` (no draw when they are equal).
    fn sample_delay(&mut self, min: Duration, max: Duration) -> Duration {
        let raw = if min == max {
            min
        } else {
            let lo = min.as_nanos();
            let hi = max.as_nanos();
            Duration::from_nanos(self.rng.gen_range(lo..=hi))
        };
        // Delay-inflation fault: scale after the draw so the random
        // sequence is unchanged by the fault being active.
        match self.delay_inflation {
            Some((num, den, until)) if self.now < until => raw.saturating_scale(num, den),
            _ => raw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pings on start; pongs back every message; counts deliveries.
    struct PingPong {
        limit: u32,
        count: u32,
    }

    impl Process<u32, String> for PingPong {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32, String>) {
            if ctx.me() == NodeId::new(0) {
                ctx.send(NodeId::new(1), 0);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32, String>, from: NodeId, msg: &u32) {
            self.count += 1;
            ctx.observe(format!("got {msg}"));
            if *msg < self.limit {
                ctx.send(from, msg + 1);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32, String>, _token: u64) {}
    }

    fn two_pingpong(seed: u64) -> Simulation<u32, String> {
        SimBuilder::new(seed)
            .link(LinkConfig::uniform(
                Duration::from_micros(100),
                Duration::from_millis(2),
            ))
            .node(
                Box::new(PingPong { limit: 9, count: 0 }),
                DriftClock::ideal(),
            )
            .node(
                Box::new(PingPong { limit: 9, count: 0 }),
                DriftClock::new(RealTime::ZERO, LocalTime::from_nanos(999), 50),
            )
            .build()
    }

    #[test]
    fn ping_pong_delivers_in_order_per_pair() {
        let mut sim = two_pingpong(1);
        sim.run_until(RealTime::from_nanos(1_000_000_000));
        // 0 → 1 → 2 → ... → 9: ten messages observed total.
        assert_eq!(sim.observations().len(), 10);
        assert_eq!(sim.metrics().delivered, 10);
        let last = sim.observations().last().unwrap();
        assert_eq!(last.event, "got 9");
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed| {
            let mut sim = two_pingpong(seed);
            sim.run_until(RealTime::from_nanos(1_000_000_000));
            sim.observations()
                .iter()
                .map(|o| (o.node, o.real, o.event.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ in timing");
    }

    #[test]
    fn delays_respect_bounds() {
        let mut sim = two_pingpong(3);
        sim.run_until(RealTime::from_nanos(1_000_000_000));
        let obs = sim.observations();
        for w in obs.windows(2) {
            let gap = w[1].real.since(w[0].real);
            assert!(gap >= Duration::from_micros(100));
            assert!(gap <= Duration::from_millis(2));
        }
    }

    struct TimerBeep;
    impl Process<u32, u64> for TimerBeep {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32, u64>) {
            ctx.set_timer_after(Duration::from_millis(5), 42);
            ctx.set_timer_at(ctx.now() + Duration::from_millis(1), 43);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, u32, u64>, _from: NodeId, _msg: &u32) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32, u64>, token: u64) {
            ctx.observe(token);
        }
    }

    #[test]
    fn timers_fire_in_local_time() {
        let mut sim: Simulation<u32, u64> = SimBuilder::new(5)
            .node(
                Box::new(TimerBeep),
                DriftClock::new(RealTime::ZERO, LocalTime::ZERO, 1000),
            )
            .build();
        sim.run_until(RealTime::from_nanos(100_000_000));
        let tokens: Vec<u64> = sim.observations().iter().map(|o| o.event).collect();
        assert_eq!(tokens, vec![43, 42]);
        // The 5ms local-time timer fires slightly *earlier* in real time on
        // a fast (+1000 ppm) clock.
        let t42 = sim.observations()[1].real;
        assert!(t42 < RealTime::from_nanos(5_000_000));
        assert!(t42 > RealTime::from_nanos(4_900_000));
    }

    #[test]
    fn down_nodes_swallow_messages() {
        let mut sim = two_pingpong(9);
        sim.set_down_until(NodeId::new(1), RealTime::from_nanos(1_000_000_000));
        sim.run_until(RealTime::from_nanos(1_000_000_000));
        assert_eq!(sim.observations().len(), 0);
        assert_eq!(sim.metrics().swallowed, 1);
    }

    #[test]
    fn link_blocks_suppress() {
        let mut sim = two_pingpong(9);
        sim.block_link(
            NodeId::new(0),
            NodeId::new(1),
            RealTime::from_nanos(1_000_000_000),
        );
        sim.run_until(RealTime::from_nanos(1_000_000_000));
        assert_eq!(sim.metrics().blocked, 1);
        assert_eq!(sim.observations().len(), 0);
    }

    #[test]
    fn storm_drops_messages() {
        let storm = StormConfig {
            until: RealTime::from_nanos(10_000_000_000),
            drop_num: 1,
            drop_den: 1, // drop everything
            corrupt_num: 0,
            corrupt_den: 1,
            dup_num: 0,
            dup_den: 1,
            max_delay: Duration::from_millis(10),
            injection_period: None,
        };
        let mut sim: Simulation<u32, String> = SimBuilder::new(2)
            .storm(storm)
            .node(
                Box::new(PingPong { limit: 9, count: 0 }),
                DriftClock::ideal(),
            )
            .node(
                Box::new(PingPong { limit: 9, count: 0 }),
                DriftClock::ideal(),
            )
            .build();
        sim.run_until(RealTime::from_nanos(1_000_000_000));
        assert_eq!(sim.metrics().dropped, 1);
        assert_eq!(sim.observations().len(), 0);
    }

    #[test]
    fn storm_injection_generates_traffic() {
        let storm = StormConfig {
            until: RealTime::from_nanos(50_000_000),
            drop_num: 0,
            drop_den: 1,
            corrupt_num: 0,
            corrupt_den: 1,
            dup_num: 0,
            dup_den: 1,
            max_delay: Duration::from_millis(1),
            injection_period: Some(Duration::from_millis(1)),
        };
        let mut sim: Simulation<u32, String> = SimBuilder::new(2)
            .storm(storm)
            .injector(Box::new(|rng, n| {
                let from = NodeId::new((rng.next_u64() % n as u64) as u32);
                let to = NodeId::new((rng.next_u64() % n as u64) as u32);
                (from, to, 99)
            }))
            .node(
                Box::new(PingPong { limit: 0, count: 0 }),
                DriftClock::ideal(),
            )
            .node(
                Box::new(PingPong { limit: 0, count: 0 }),
                DriftClock::ideal(),
            )
            .build();
        sim.run_until(RealTime::from_nanos(200_000_000));
        assert!(sim.metrics().injected >= 30, "storm must inject steadily");
        // Injection stops when the storm ends.
        let injected_after_storm = sim
            .observations()
            .iter()
            .filter(|o| o.real > RealTime::from_nanos(51_000_000))
            .count();
        assert_eq!(injected_after_storm, 0);
    }

    #[test]
    fn external_injection_delivers() {
        let mut sim = two_pingpong(4);
        sim.inject_message(
            RealTime::from_nanos(500),
            NodeId::new(0), // forged identity
            NodeId::new(1),
            8,
        );
        sim.run_until(RealTime::from_nanos(1_000_000_000));
        assert!(sim
            .observations()
            .iter()
            .any(|o| o.node == NodeId::new(1) && o.event == "got 8"));
    }

    #[test]
    fn run_for_advances_clock() {
        let mut sim = two_pingpong(4);
        sim.run_for(Duration::from_millis(3));
        assert_eq!(sim.now(), RealTime::from_nanos(3_000_000));
    }

    #[test]
    fn step_returns_false_when_drained() {
        let mut sim: Simulation<u32, String> = SimBuilder::new(0)
            .node(
                Box::new(PingPong { limit: 0, count: 0 }),
                DriftClock::ideal(),
            )
            .node(
                Box::new(PingPong { limit: 0, count: 0 }),
                DriftClock::ideal(),
            )
            .build();
        while sim.step() {}
        assert!(!sim.step());
        assert_eq!(sim.observations().len(), 1);
    }

    /// Periodic self-re-arming ticker with a recovery hook (the pattern
    /// the engine adapter uses): crashing it kills the tick chain, and
    /// `on_recover` must rebuild it.
    struct Ticker;
    impl Process<u32, String> for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32, String>) {
            ctx.set_timer_after(Duration::from_millis(1), 7);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, u32, String>, _from: NodeId, _msg: &u32) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32, String>, token: u64) {
            if token == 7 {
                ctx.observe("tick".to_string());
                ctx.set_timer_after(Duration::from_millis(1), 7);
            }
        }
        fn on_recover(&mut self, ctx: &mut Ctx<'_, u32, String>) {
            ctx.observe("recovered".to_string());
            ctx.cancel_timer(7);
            ctx.set_timer_after(Duration::from_millis(1), 7);
        }
    }

    fn one_ticker() -> Simulation<u32, String> {
        SimBuilder::new(11)
            .node(Box::new(Ticker), DriftClock::ideal())
            .build()
    }

    #[test]
    fn crash_kills_ticks_and_recover_rearms() {
        let mut sim = one_ticker();
        sim.run_until(RealTime::from_nanos(5_000_000));
        let before = sim.observations().len();
        assert!(before >= 4);
        sim.crash_node(NodeId::new(0), Duration::from_millis(10));
        sim.run_until(RealTime::from_nanos(30_000_000));
        let recoveries: Vec<_> = sim
            .observations()
            .iter()
            .filter(|o| o.event == "recovered")
            .collect();
        assert_eq!(recoveries.len(), 1);
        assert_eq!(recoveries[0].real, RealTime::from_nanos(15_000_000));
        // No tick lands inside the outage (strictly after the crash
        // instant — the tick *at* 5ms fired before the crash call), and
        // the chain resumes after.
        let crash_at = RealTime::from_nanos(5_000_000);
        let back_at = RealTime::from_nanos(15_000_000);
        assert!(!sim
            .observations()
            .iter()
            .any(|o| o.event == "tick" && o.real > crash_at && o.real < back_at));
        let after = sim
            .observations()
            .iter()
            .filter(|o| o.event == "tick" && o.real > back_at)
            .count();
        assert!(after >= 10, "tick chain must resume after recovery");
    }

    #[test]
    fn recover_event_stale_after_recrash_or_manual_recovery() {
        // Re-crash extends the outage: the first Recover event is stale.
        let mut sim = one_ticker();
        sim.crash_node(NodeId::new(0), Duration::from_millis(5));
        sim.crash_node(NodeId::new(0), Duration::from_millis(20));
        sim.run_until(RealTime::from_nanos(30_000_000));
        let recs: Vec<_> = sim
            .observations()
            .iter()
            .filter(|o| o.event == "recovered")
            .map(|o| o.real)
            .collect();
        assert_eq!(recs, vec![RealTime::from_nanos(20_000_000)]);

        // Manual recovery first: the scheduled Recover event is then stale.
        let mut sim = one_ticker();
        sim.crash_node(NodeId::new(0), Duration::from_millis(5));
        sim.recover_node(NodeId::new(0));
        sim.recover_node(NodeId::new(0)); // idempotent while up
        sim.run_until(RealTime::from_nanos(30_000_000));
        let recs = sim
            .observations()
            .iter()
            .filter(|o| o.event == "recovered")
            .count();
        assert_eq!(recs, 1);
    }

    #[test]
    fn partition_suppresses_then_heals() {
        let mut sim = two_pingpong(6);
        sim.set_partition(Some(Partition::split(2, &[NodeId::new(1)])));
        sim.run_until(RealTime::from_nanos(100_000_000));
        assert_eq!(sim.metrics().blocked, 1);
        assert!(sim.observations().is_empty());
        assert!(sim.partition().is_some());
        // Heal and restart the exchange: traffic flows again.
        sim.set_partition(None);
        sim.inject_message(sim.now(), NodeId::new(0), NodeId::new(1), 0);
        sim.run_until(RealTime::from_nanos(1_000_000_000));
        assert!(sim.observations().len() >= 10);
    }

    #[test]
    fn delay_inflation_scales_post_draw() {
        let mut sim: Simulation<u32, String> = SimBuilder::new(0)
            .link(LinkConfig::fixed(Duration::from_millis(1)))
            .node(
                Box::new(PingPong { limit: 0, count: 0 }),
                DriftClock::ideal(),
            )
            .node(
                Box::new(PingPong { limit: 0, count: 0 }),
                DriftClock::ideal(),
            )
            .build();
        sim.inflate_delays(3, 1, RealTime::from_nanos(500_000_000));
        sim.run_until(RealTime::from_nanos(1_000_000_000));
        // The 1ms fixed delay became 3ms under 3/1 inflation.
        assert_eq!(sim.observations()[0].real, RealTime::from_nanos(3_000_000));
    }

    #[test]
    fn skew_clock_jumps_local_reading() {
        let mut sim = one_ticker();
        sim.run_until(RealTime::from_nanos(2_500_000));
        let before = sim.clock(NodeId::new(0)).local_at(sim.now());
        sim.skew_clock(NodeId::new(0), Duration::from_millis(50), None);
        let after = sim.clock(NodeId::new(0)).local_at(sim.now());
        assert_eq!(after, before + Duration::from_millis(50));
    }

    #[test]
    fn timer_plant_and_cancel_hooks() {
        let mut sim = one_ticker();
        sim.run_until(RealTime::from_nanos(2_500_000));
        // One pending tick timer: cancelling it severs the chain.
        assert_eq!(sim.cancel_node_timer(NodeId::new(0), 7), 1);
        sim.run_until(RealTime::from_nanos(10_000_000));
        assert_eq!(sim.observations().len(), 2);
        // Planting a fresh wake-up restarts it.
        sim.plant_timer(NodeId::new(0), Duration::from_millis(1), 7);
        sim.run_until(RealTime::from_nanos(20_000_000));
        assert!(sim.observations().len() > 10);
    }

    #[test]
    fn out_of_range_destination_dropped() {
        // A single-node system where the process sends to a nonexistent
        // peer: the message is dropped, not a panic.
        let mut sim: Simulation<u32, String> = SimBuilder::new(0)
            .node(
                Box::new(PingPong { limit: 0, count: 0 }),
                DriftClock::ideal(),
            )
            .build();
        sim.run_until(RealTime::from_nanos(1_000_000));
        assert_eq!(sim.metrics().blocked, 1);
    }

    /// Relays each payload below 3 one hop on, and arms a timer one link
    /// delay out that broadcasts a marker — so on fixed links the timer
    /// falls due at the same instant as the relays, between them in
    /// `(due, seq)` order.
    struct RelayWithEcho(Duration);
    impl Process<u32, u32> for RelayWithEcho {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32, u32>) {
            if ctx.me() == NodeId::new(0) {
                ctx.broadcast(0);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32, u32>, _from: NodeId, msg: &u32) {
            ctx.observe(*msg);
            if *msg < 3 {
                ctx.broadcast(msg + 1);
                ctx.set_timer_after(self.0, u64::from(*msg));
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32, u32>, token: u64) {
            ctx.broadcast(100 + token as u32);
        }
    }

    fn relays(n: usize, link: Duration) -> Simulation<u32, u32> {
        let mut b = SimBuilder::new(5)
            .link(LinkConfig::fixed(link))
            .tagger(|_| "relay");
        for _ in 0..n {
            b = b.node(Box::new(RelayWithEcho(link)), DriftClock::ideal());
        }
        b.build()
    }

    /// On fixed links a broadcast is paid for once: one wheel entry, and
    /// `sent`/`per_tag` grow by n with a blocked destination among them.
    #[test]
    fn draw_free_broadcast_is_one_wheel_entry_counted_once() {
        const N: usize = 5;
        let link = Duration::from_millis(1);
        let mut sim = relays(N, link);
        sim.block_link(
            NodeId::new(0),
            NodeId::new(1),
            RealTime::from_nanos(10_000_000),
        );
        // Node 0 broadcasts at start; its delivery is due at +1 ms.
        sim.run_until(RealTime::from_nanos(500_000));
        assert_eq!(sim.queue_len(), 1);
        let m = sim.metrics();
        assert_eq!(m.sent, N as u64);
        assert_eq!(m.blocked, 1);
        assert_eq!(m.per_tag["relay"], N as u64);
        sim.run_until(RealTime::from_nanos(1_000_000));
        assert_eq!(sim.metrics().delivered, N as u64 - 1);
    }

    /// A block that has expired is dropped the next time anything is
    /// routed, so it costs later sends nothing.
    #[test]
    fn expired_link_blocks_are_pruned_when_routing() {
        let link = Duration::from_millis(1);
        let mut sim = relays(3, link);
        sim.block_link(
            NodeId::new(0),
            NodeId::new(1),
            RealTime::from_nanos(1_000_000),
        );
        sim.run_until(RealTime::from_nanos(500_000));
        assert_eq!(sim.blocks.len(), 1, "still in force at the start broadcast");
        assert_eq!(sim.metrics().blocked, 1);
        // At +1 ms the block has expired and the relays broadcast.
        sim.run_until(RealTime::from_nanos(1_000_000));
        assert!(sim.blocks.is_empty());
        assert_eq!(sim.metrics().blocked, 1);
    }

    /// A timer due at the same instant as a run of deliveries keeps its
    /// `(due, seq)` place: the wave drain stops at it, so every node sees
    /// what per-message dispatch shows it.
    #[test]
    fn same_instant_timer_keeps_its_place_inside_a_wave() {
        let link = Duration::from_millis(1);
        let run = |mode| {
            let mut b = SimBuilder::new(5)
                .link(LinkConfig::fixed(link))
                .wave_mode(mode);
            for _ in 0..3 {
                b = b.node(Box::new(RelayWithEcho(link)), DriftClock::ideal());
            }
            let mut sim: Simulation<u32, u32> = b.build();
            sim.run_until(RealTime::from_nanos(20_000_000));
            let per_node: Vec<Vec<(RealTime, u32)>> = (0..3)
                .map(|i| {
                    sim.observations()
                        .iter()
                        .filter(|o| o.node == NodeId::new(i))
                        .map(|o| (o.real, o.event))
                        .collect()
                })
                .collect();
            (per_node, sim.metrics().clone())
        };
        let coalesced = run(WaveMode::Coalesced);
        assert!(coalesced.0[2].iter().any(|(_, m)| *m >= 100));
        assert_eq!(coalesced, run(WaveMode::PerMessage));
    }
}
