//! Sharded conservative-lookahead parallel simulation.
//!
//! [`ShardedSim`] partitions the nodes of a [`Simulation`] across worker
//! threads, each shard running its own timer wheel, and advances the
//! whole system in *lookahead windows*: the conservative link-delay lower
//! bound (`LinkProfile`-style `delay_min`, the paper's `d`) guarantees
//! that no message sent inside a window `[g, g + d)` can be due before
//! the window ends, so shards process their local events for one window
//! with no synchronization at all and exchange cross-shard deliveries at
//! a barrier afterwards — the classic null-message insight, with the
//! null messages replaced by a global window barrier.
//!
//! # Determinism
//!
//! The sharded simulator is deterministic *and thread-count invariant*:
//! a fixed seed produces bit-identical observation logs and metrics for
//! every `threads` value, because nothing in the execution ever depends
//! on cross-shard interleaving:
//!
//! * **Windows are global.** A window starts at the global minimum due
//!   time over every shard (and pending injection), which is a property
//!   of the event population, not of the sharding.
//! * **Deliveries are never inserted live.** Every send routes into the
//!   sending shard's *outbox* as an [`OutRecord`] stamped with
//!   `(due, sender, per-sender seq)`. The barrier sorts all records by
//!   that key — a total order derived from stable ids and each sender's
//!   own event order — and inserts them into the destination wheels in
//!   that canonical order, so each node's arrival sequence is identical
//!   for every thread count.
//! * **RNG streams are per-node** ([`RngMode::PerNode`], forced on by
//!   [`SimBuilder::build_sharded`]): routing draws come from the
//!   sender's stream, handler draws from the handling node's stream —
//!   never from a shared stream whose order would depend on scheduling.
//! * **Global effects are deferred.** A process-emitted crash/recover/
//!   partition change ([`Ctx::crash_node`] and friends) targets nodes in
//!   other shards, so it is recorded as an [`FxRec`] and applied at the
//!   barrier in `(due, emitter, seq)` order — for *every* thread count,
//!   including one, keeping the knob out of the trace.
//! * **Storms run sequentially.** A transient-failure storm breaks the
//!   delay lower bound (arbitrary delays, injected traffic), so the
//!   simulation runs on the plain sequential [`Simulation`] until the
//!   storm ends, then *decomposes* that simulation — nodes, RNG streams,
//!   in-flight wheel entries — into shards and switches to windowed
//!   execution forever. Stabilization measurement starts exactly at the
//!   storm end, which is where the parallel scale matters.
//!
//! Versus the sequential golden model the equivalence standard is
//! two-tier, mirroring the wave-coalescing precedent: per-node arrival
//! *order* and the full observation log are preserved as multisets per
//! `(node, real time)` with identical metrics (the barrier orders
//! equal-due arrivals from different senders by sender id rather than by
//! global send seq, and same-instant waves may split differently across
//! shard boundaries — both invisible to processes honouring the
//! [`Process::on_message_batch`] determinism contract), while
//! `Sharded(k)` vs `Sharded(1)` is bit-identical, full stop. The A/B
//! battery in `tests/shard_equivalence.rs` pins both tiers.
//!
//! [`Ctx::crash_node`]: crate::process::Ctx::crash_node

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration as StdDuration;

use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use ssbyz_sched::{EventQueue, TimerWheel};
use ssbyz_types::{Duration, NodeBitSet, NodeId, RealTime};

use crate::clock::DriftClock;
use crate::network::{LinkBlock, LinkConfig, Partition};
use crate::process::{Ctx, Effect, Process};
use crate::sim::{
    EventKind, Metrics, NodeSlot, Observation, RngMode, RngStreams, SimBuilder, Simulation,
    WaveMode, WaveScratch,
};

/// Which execution engine a simulation runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// The single-threaded event loop ([`Simulation`]) — the golden
    /// model every sharded run is checked against.
    Sequential,
    /// The sharded conservative-lookahead engine ([`ShardedSim`]) with
    /// the given number of worker threads (clamped to at least 1; one
    /// shard per thread).
    Sharded(usize),
}

/// Network state shared read-only by every shard during a window.
///
/// Mutations (partition changes, new link blocks, delay inflation) only
/// happen between windows — at the barrier for process-emitted effects,
/// between `run_until` calls for harness calls — via [`Arc::make_mut`].
struct NetView<M> {
    n: usize,
    link: LinkConfig,
    blocks: Vec<LinkBlock>,
    partition: Option<Partition>,
    delay_inflation: Option<(u64, u64, RealTime)>,
    tagger: Option<fn(&M) -> &'static str>,
    wave_mode: WaveMode,
}

impl<M> Clone for NetView<M> {
    fn clone(&self) -> Self {
        NetView {
            n: self.n,
            link: self.link,
            blocks: self.blocks.clone(),
            partition: self.partition.clone(),
            delay_inflation: self.delay_inflation,
            tagger: self.tagger,
            wave_mode: self.wave_mode,
        }
    }
}

/// Destination of one outbox record.
enum RecDest {
    /// A unicast (or single-destination broadcast batch).
    One(NodeId),
    /// A batched broadcast run sharing one due time.
    Many(NodeBitSet),
}

/// One cross-window delivery, produced during a window and inserted into
/// the destination shard's wheel at the barrier. `(due, from, seq)` is
/// the canonical merge key: `seq` counts the sender's sends, so the key
/// depends only on stable ids and the sender's own event order.
struct OutRecord<M> {
    due: u64,
    from: NodeId,
    seq: u64,
    dest: RecDest,
    msg: Arc<M>,
}

/// A process-emitted global effect, deferred to the barrier.
enum GlobalFx {
    Crash { node: NodeId, down_for: Duration },
    Recover { node: NodeId },
    SetPartition(Option<Partition>),
}

/// One deferred global effect with its canonical `(due, emitter, seq)`
/// ordering key (`seq` counts the emitter's effects).
struct FxRec {
    due: u64,
    emitter: NodeId,
    seq: u64,
    fx: GlobalFx,
}

/// One shard: a contiguous id range of nodes, their RNG streams, and a
/// private timer wheel. During a window a shard is exclusively owned by
/// one thread; everything it emits beyond its own timers goes into
/// `outbox`/`fx` for the barrier.
struct Shard<M, O> {
    /// Global id of this shard's first node.
    first: u32,
    nodes: Vec<NodeSlot<M, O>>,
    rngs: Vec<StdRng>,
    wheel: TimerWheel<EventKind<M>>,
    outbox: Vec<OutRecord<M>>,
    fx: Vec<FxRec>,
    /// Per-local-node send counters (the `seq` of [`OutRecord`]).
    send_seq: Vec<u64>,
    /// Per-local-node effect counters (the `seq` of [`FxRec`]).
    fx_seq: Vec<u64>,
    observations: Vec<Observation<O>>,
    metrics: Metrics,
    events_processed: u64,
    /// Events processed in the current window (critical-path metric).
    window_events: u64,
    scratch_outbox: Vec<Effect<M, O>>,
    wave: WaveScratch<M>,
    bitset_pool: Vec<NodeBitSet>,
    batch_scratch: Vec<(u64, NodeId, Option<NodeBitSet>)>,
}

impl<M: Clone + Send + Sync, O: Send> Shard<M, O> {
    /// Local index of a node owned by this shard.
    fn li(&self, node: NodeId) -> usize {
        node.index() - self.first as usize
    }

    fn next_send_seq(&mut self, from: NodeId) -> u64 {
        let li = self.li(from);
        let s = self.send_seq[li];
        self.send_seq[li] += 1;
        s
    }

    fn push_fx(&mut self, at: RealTime, emitter: NodeId, fx: GlobalFx) {
        let li = self.li(emitter);
        let seq = self.fx_seq[li];
        self.fx_seq[li] += 1;
        self.fx.push(FxRec {
            due: at.as_nanos(),
            emitter,
            seq,
            fx,
        });
    }

    fn is_down(&self, node: NodeId, at: RealTime) -> bool {
        self.nodes[self.li(node)]
            .down_until
            .is_some_and(|until| at < until)
    }

    /// Processes every local event due in `[.., win_end]`.
    fn run_window(&mut self, win_end: u64, net: &NetView<M>) {
        self.window_events = 0;
        // The draw-free gate of the sequential loop, evaluated once per
        // window: post-storm (windowed execution never overlaps a storm)
        // only link jitter can draw during routing.
        let coalesce =
            net.wave_mode == WaveMode::Coalesced && net.link.delay_min == net.link.delay_max;
        while let Some(due) = self.wheel.peek_due() {
            if due > win_end {
                break;
            }
            let ev = self.wheel.pop().expect("peeked");
            let at = RealTime::from_nanos(ev.due);
            self.events_processed += 1;
            self.window_events += 1;
            if coalesce {
                self.dispatch_coalescing(at, ev.payload, net);
            } else {
                self.dispatch(at, ev.payload, net);
            }
        }
    }

    /// Same-instant wave coalescing, shard-local (see
    /// `Simulation::dispatch_coalescing` — identical structure, bounded
    /// to this shard's wheel).
    fn dispatch_coalescing(&mut self, at: RealTime, kind: EventKind<M>, net: &NetView<M>) {
        match kind {
            EventKind::Deliver { .. } | EventKind::BroadcastDeliver { .. } => {}
            other => {
                self.dispatch(at, other, net);
                return;
            }
        }
        if self.wheel.peek_due() != Some(at.as_nanos()) {
            // Lone entry: no wave to join.
            self.dispatch(at, kind, net);
            return;
        }
        debug_assert!(self.wave.group.is_empty());
        self.wave.group.push(kind);
        let mut trailing = None;
        while self.wheel.peek_due() == Some(at.as_nanos()) {
            let ev = self.wheel.pop().expect("peeked");
            self.events_processed += 1;
            self.window_events += 1;
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
        self.dispatch_wave(at, net);
        if let Some(ev) = trailing {
            self.dispatch(at, ev, net);
        }
    }

    /// Destination-major dispatch of the drained wave group over this
    /// shard's nodes (see [`WaveScratch::dispatch`]).
    fn dispatch_wave(&mut self, at: RealTime, net: &NetView<M>) {
        let mut wave = std::mem::take(&mut self.wave);
        let nodes = self.first..self.first + self.nodes.len() as u32;
        wave.dispatch(nodes, |node, batch| {
            self.deliver_batch(at, node, batch, net);
        });
        wave.recycle(&mut self.bitset_pool);
        self.wave = wave;
    }

    fn dispatch(&mut self, at: RealTime, kind: EventKind<M>, net: &NetView<M>) {
        match kind {
            EventKind::Deliver { to, from, msg } => {
                self.deliver_to(at, to, from, &msg, net);
            }
            EventKind::BroadcastDeliver {
                from,
                msg,
                mut dests,
            } => {
                for to in dests.iter() {
                    self.deliver_to(at, to, from, &msg, net);
                }
                dests.clear();
                self.bitset_pool.push(dests);
            }
            EventKind::Timer { node, token } => {
                let li = self.li(node);
                self.nodes[li].timers.remove(&(token, at.as_nanos()));
                if self.is_down(node, at) {
                    return;
                }
                let mut outbox = std::mem::take(&mut self.scratch_outbox);
                {
                    let n = net.n;
                    let local = self.nodes[li].clock.local_at(at);
                    let slot = &mut self.nodes[li];
                    let rng = &mut self.rngs[li];
                    let mut words = move || rng.next_u64();
                    let mut ctx = Ctx {
                        me: node,
                        n,
                        now_local: local,
                        outbox: &mut outbox,
                        rng_words: &mut words,
                    };
                    slot.process.on_timer(&mut ctx, token);
                }
                self.apply_effects(at, node, &mut outbox, net);
                self.scratch_outbox = outbox;
            }
            // Shard wheels never hold injection entries (they stay with
            // the coordinator as post-storm no-ops).
            EventKind::Injection => {}
            EventKind::Recover { node } => {
                let li = self.li(node);
                let due_back = self.nodes[li].down_until.is_some_and(|until| until <= at);
                if due_back {
                    self.nodes[li].down_until = None;
                    self.run_recover(at, node, net);
                }
            }
        }
    }

    fn deliver_to(&mut self, at: RealTime, to: NodeId, from: NodeId, msg: &M, net: &NetView<M>) {
        if self.is_down(to, at) {
            self.metrics.swallowed += 1;
            return;
        }
        let li = self.li(to);
        let mut outbox = std::mem::take(&mut self.scratch_outbox);
        {
            let n = net.n;
            let local = self.nodes[li].clock.local_at(at);
            let slot = &mut self.nodes[li];
            let rng = &mut self.rngs[li];
            let mut words = move || rng.next_u64();
            let mut ctx = Ctx {
                me: to,
                n,
                now_local: local,
                outbox: &mut outbox,
                rng_words: &mut words,
            };
            slot.process.on_message(&mut ctx, from, msg);
        }
        self.metrics.delivered += 1;
        self.apply_effects(at, to, &mut outbox, net);
        self.scratch_outbox = outbox;
    }

    fn deliver_batch(
        &mut self,
        at: RealTime,
        to: NodeId,
        batch: &[(NodeId, Arc<M>)],
        net: &NetView<M>,
    ) {
        if self.is_down(to, at) {
            self.metrics.swallowed += batch.len() as u64;
            return;
        }
        let li = self.li(to);
        let mut outbox = std::mem::take(&mut self.scratch_outbox);
        {
            let n = net.n;
            let local = self.nodes[li].clock.local_at(at);
            let slot = &mut self.nodes[li];
            let rng = &mut self.rngs[li];
            let mut words = move || rng.next_u64();
            let mut ctx = Ctx {
                me: to,
                n,
                now_local: local,
                outbox: &mut outbox,
                rng_words: &mut words,
            };
            slot.process.on_message_batch(&mut ctx, batch);
        }
        self.metrics.delivered += batch.len() as u64;
        self.apply_effects(at, to, &mut outbox, net);
        self.scratch_outbox = outbox;
    }

    fn run_recover(&mut self, at: RealTime, node: NodeId, net: &NetView<M>) {
        let li = self.li(node);
        let mut outbox = std::mem::take(&mut self.scratch_outbox);
        {
            let n = net.n;
            let local = self.nodes[li].clock.local_at(at);
            let slot = &mut self.nodes[li];
            let rng = &mut self.rngs[li];
            let mut words = move || rng.next_u64();
            let mut ctx = Ctx {
                me: node,
                n,
                now_local: local,
                outbox: &mut outbox,
                rng_words: &mut words,
            };
            slot.process.on_recover(&mut ctx);
        }
        self.apply_effects(at, node, &mut outbox, net);
        self.scratch_outbox = outbox;
    }

    fn apply_effects(
        &mut self,
        at: RealTime,
        node: NodeId,
        effects: &mut Vec<Effect<M, O>>,
        net: &NetView<M>,
    ) {
        for e in effects.drain(..) {
            match e {
                Effect::Send { to, msg } => self.route(net, at, node, to, Arc::new(msg)),
                Effect::Broadcast { msg } => self.route_broadcast(net, at, node, msg),
                Effect::TimerAtLocal {
                    at: local_at,
                    token,
                } => {
                    let clock = self.nodes[self.li(node)].clock;
                    let real = clock.real_of_local(local_at).max(at);
                    self.schedule_timer(node, real, token);
                }
                Effect::TimerAfter { after, token } => {
                    let clock = self.nodes[self.li(node)].clock;
                    let real = at + clock.scale_to_real(after);
                    self.schedule_timer(node, real, token);
                }
                Effect::CancelTimer { token } => {
                    self.cancel_timers(node, token);
                }
                Effect::Observe(obs) => {
                    let clock = self.nodes[self.li(node)].clock;
                    self.observations.push(Observation {
                        node,
                        real: at,
                        local: clock.local_at(at),
                        event: obs,
                    });
                }
                Effect::CrashNode {
                    node: target,
                    down_for,
                } => self.push_fx(
                    at,
                    node,
                    GlobalFx::Crash {
                        node: target,
                        down_for,
                    },
                ),
                Effect::RecoverNode { node: target } => {
                    self.push_fx(at, node, GlobalFx::Recover { node: target });
                }
                Effect::SetPartition { partition } => {
                    self.push_fx(at, node, GlobalFx::SetPartition(partition));
                }
            }
        }
    }

    /// Routes one unicast into the outbox (post-storm: no drop/corrupt/
    /// duplicate draws exist; only link jitter can draw, from the
    /// sender's stream).
    fn route(&mut self, net: &NetView<M>, at: RealTime, from: NodeId, to: NodeId, msg: Arc<M>) {
        if to.index() >= net.n {
            self.metrics.blocked += 1;
            return;
        }
        self.metrics.sent += 1;
        if let Some(tagger) = net.tagger {
            *self.metrics.per_tag.entry(tagger(&msg)).or_insert(0) += 1;
        }
        if net
            .blocks
            .iter()
            .any(|b| b.from == from && b.to == to && at < b.until)
        {
            self.metrics.blocked += 1;
            return;
        }
        if net.partition.as_ref().is_some_and(|p| !p.allows(from, to)) {
            self.metrics.blocked += 1;
            return;
        }
        let delay = self.sample_delay(net, at, from, net.link.delay_min, net.link.delay_max);
        let due = (at + delay).as_nanos();
        let seq = self.next_send_seq(from);
        self.outbox.push(OutRecord {
            due,
            from,
            seq,
            dest: RecDest::One(to),
            msg,
        });
    }

    /// Fans one broadcast out into outbox records, batching consecutive
    /// same-due destinations exactly as the sequential batched fan-out
    /// does (under a deterministic delay: one record, full bitmap).
    /// `BroadcastMode` is ignored here — records are always batched; the
    /// per-destination A/B knob lives in the sequential golden model,
    /// and per-node delivery order is identical either way.
    fn route_broadcast(&mut self, net: &NetView<M>, at: RealTime, from: NodeId, msg: M) {
        let shared = Arc::new(msg);
        let mut batches = std::mem::take(&mut self.batch_scratch);
        debug_assert!(batches.is_empty());
        for i in 0..net.n {
            let to = NodeId::new(i as u32);
            self.metrics.sent += 1;
            if let Some(tagger) = net.tagger {
                *self.metrics.per_tag.entry(tagger(&shared)).or_insert(0) += 1;
            }
            if net
                .blocks
                .iter()
                .any(|b| b.from == from && b.to == to && at < b.until)
            {
                self.metrics.blocked += 1;
                continue;
            }
            if net.partition.as_ref().is_some_and(|p| !p.allows(from, to)) {
                self.metrics.blocked += 1;
                continue;
            }
            let due = (at
                + self.sample_delay(net, at, from, net.link.delay_min, net.link.delay_max))
            .as_nanos();
            Self::batch_insert(&mut batches, &mut self.bitset_pool, due, to);
        }
        for (due, first, dests) in batches.drain(..) {
            let seq = self.next_send_seq(from);
            let dest = match dests {
                None => RecDest::One(first),
                Some(d) => RecDest::Many(d),
            };
            self.outbox.push(OutRecord {
                due,
                from,
                seq,
                dest,
                msg: Arc::clone(&shared),
            });
        }
        self.batch_scratch = batches;
    }

    /// Same last-run merge as `Simulation::batch_insert`, on record dues.
    fn batch_insert(
        batches: &mut Vec<(u64, NodeId, Option<NodeBitSet>)>,
        pool: &mut Vec<NodeBitSet>,
        due: u64,
        to: NodeId,
    ) {
        if let Some((d, first, dests)) = batches.last_mut() {
            if *d == due {
                let dests = dests.get_or_insert_with(|| {
                    let mut s = pool.pop().unwrap_or_default();
                    s.insert(*first);
                    s
                });
                dests.insert(to);
                return;
            }
        }
        batches.push((due, to, None));
    }

    fn sample_delay(
        &mut self,
        net: &NetView<M>,
        at: RealTime,
        from: NodeId,
        min: Duration,
        max: Duration,
    ) -> Duration {
        let raw = if min == max {
            min
        } else {
            let lo = min.as_nanos();
            let hi = max.as_nanos();
            let li = self.li(from);
            Duration::from_nanos(self.rngs[li].gen_range(lo..=hi))
        };
        match net.delay_inflation {
            Some((num, den, until)) if at < until => raw.saturating_scale(num, den),
            _ => raw,
        }
    }

    /// Shard-local timer scheduling with the `(token, due)` dedup
    /// registry — identical semantics to `Simulation::schedule_timer`.
    fn schedule_timer(&mut self, node: NodeId, at: RealTime, token: u64) {
        let li = self.li(node);
        let key = (token, at.as_nanos());
        if self.nodes[li].timers.contains_key(&key) {
            return;
        }
        let handle = self
            .wheel
            .insert(at.as_nanos(), EventKind::Timer { node, token });
        self.nodes[li].timers.insert(key, handle);
    }

    fn cancel_timers(&mut self, node: NodeId, token: u64) -> usize {
        let li = self.li(node);
        let mut cancelled = 0;
        loop {
            let slot = &mut self.nodes[li].timers;
            let Some((&key, _)) = slot.range((token, 0)..=(token, u64::MAX)).next() else {
                break;
            };
            let handle = slot.remove(&key).expect("key just observed");
            if self.wheel.cancel(handle) {
                cancelled += 1;
            }
        }
        cancelled
    }
}

/// Cross-thread window control: the coordinator publishes an epoch and a
/// window end; each worker runs its shard's window and reports done.
struct CtlState<M> {
    epoch: u64,
    win_end: u64,
    net: Arc<NetView<M>>,
    done: usize,
    shutdown: bool,
}

struct Ctl<M> {
    state: Mutex<CtlState<M>>,
    work: Condvar,
    done: Condvar,
}

fn worker_loop<M: Clone + Send + Sync, O: Send>(shard: &Mutex<Shard<M, O>>, ctl: &Ctl<M>) {
    let mut my_epoch = 0u64;
    loop {
        let (win_end, net) = {
            let mut st = ctl.state.lock().expect("ctl poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != my_epoch {
                    my_epoch = st.epoch;
                    break (st.win_end, Arc::clone(&st.net));
                }
                st = ctl.work.wait(st).expect("ctl poisoned");
            }
        };
        shard
            .lock()
            .expect("shard poisoned")
            .run_window(win_end, &net);
        let mut st = ctl.state.lock().expect("ctl poisoned");
        st.done += 1;
        drop(st);
        ctl.done.notify_all();
    }
}

/// The conservative lookahead for a window starting at `at_ns`: the
/// minimum link delay, shrunk when a delay-*deflation* fault
/// (`inflate_delays` with `num < den`) is in force, and clamped to at
/// least one nanosecond (a width-1 window degrades gracefully to
/// instant-by-instant stepping; zero-delay deliveries land in the next
/// same-instant window).
fn lookahead_ns<M>(net: &NetView<M>, at_ns: u64) -> u64 {
    let mut l = net.link.delay_min.as_nanos();
    if let Some((num, den, until)) = net.delay_inflation {
        if num < den && at_ns < until.as_nanos() {
            l = Duration::from_nanos(l)
                .saturating_scale(num, den)
                .as_nanos();
        }
    }
    l.max(1)
}

fn shard_of(chunk: usize, node: NodeId) -> usize {
    node.index() / chunk
}

/// Inserts one contiguous same-shard destination group of a broadcast
/// record into that shard's wheel.
fn insert_group<M: Clone + Send + Sync, O: Send>(
    shards: &[Mutex<Shard<M, O>>],
    shard_idx: usize,
    due: u64,
    from: NodeId,
    msg: &Arc<M>,
    ids: &[NodeId],
) {
    let mut sh = shards[shard_idx].lock().expect("shard poisoned");
    if ids.len() == 1 {
        sh.wheel.insert(
            due,
            EventKind::Deliver {
                to: ids[0],
                from,
                msg: Arc::clone(msg),
            },
        );
    } else {
        let mut set = sh.bitset_pool.pop().unwrap_or_default();
        for id in ids {
            set.insert(*id);
        }
        sh.wheel.insert(
            due,
            EventKind::BroadcastDeliver {
                from,
                msg: Arc::clone(msg),
                dests: set,
            },
        );
    }
}

/// The window barrier: drains every shard's outbox and deferred-effect
/// list, merges records in canonical `(due, from, seq)` order into the
/// destination wheels, applies global effects in `(due, emitter, seq)`
/// order, and repeats until a pass produces nothing new (a recovery hook
/// run by an effect may emit further sends and effects).
fn barrier_exchange<M: Clone + Send + Sync, O: Send>(
    shards: &[Mutex<Shard<M, O>>],
    net: &mut Arc<NetView<M>>,
    chunk: usize,
) {
    let mut records: Vec<OutRecord<M>> = Vec::new();
    let mut fxs: Vec<FxRec> = Vec::new();
    let mut group: Vec<NodeId> = Vec::new();
    loop {
        for sh in shards {
            let mut s = sh.lock().expect("shard poisoned");
            records.append(&mut s.outbox);
            fxs.append(&mut s.fx);
        }
        if records.is_empty() && fxs.is_empty() {
            break;
        }
        records.sort_by_key(|r| (r.due, r.from.index(), r.seq));
        for rec in records.drain(..) {
            match rec.dest {
                RecDest::One(to) => {
                    let s = shard_of(chunk, to);
                    shards[s].lock().expect("shard poisoned").wheel.insert(
                        rec.due,
                        EventKind::Deliver {
                            to,
                            from: rec.from,
                            msg: rec.msg,
                        },
                    );
                }
                RecDest::Many(dests) => {
                    // Split the bitmap into contiguous per-shard runs
                    // (ascending id order keeps runs contiguous).
                    let mut run_shard = usize::MAX;
                    for to in dests.iter() {
                        let s = shard_of(chunk, to);
                        if s != run_shard && !group.is_empty() {
                            insert_group(shards, run_shard, rec.due, rec.from, &rec.msg, &group);
                            group.clear();
                        }
                        run_shard = s;
                        group.push(to);
                    }
                    if !group.is_empty() {
                        insert_group(shards, run_shard, rec.due, rec.from, &rec.msg, &group);
                        group.clear();
                    }
                }
            }
        }
        fxs.sort_by_key(|f| (f.due, f.emitter.index(), f.seq));
        for f in fxs.drain(..) {
            let at = RealTime::from_nanos(f.due);
            match f.fx {
                GlobalFx::Crash { node, down_for } => {
                    let s = shard_of(chunk, node);
                    let mut sh = shards[s].lock().expect("shard poisoned");
                    let li = sh.li(node);
                    let until = at + down_for;
                    sh.nodes[li].down_until = Some(until);
                    sh.wheel
                        .insert(until.as_nanos(), EventKind::Recover { node });
                }
                GlobalFx::Recover { node } => {
                    let s = shard_of(chunk, node);
                    let mut sh = shards[s].lock().expect("shard poisoned");
                    let li = sh.li(node);
                    if sh.nodes[li].down_until.take().is_some() {
                        let net_ref = Arc::clone(net);
                        sh.run_recover(at, node, &net_ref);
                    }
                }
                GlobalFx::SetPartition(p) => {
                    Arc::make_mut(net).partition = p;
                }
            }
        }
    }
}

/// Windowed (post-decomposition) execution state.
struct Windowed<M, O> {
    shards: Vec<Mutex<Shard<M, O>>>,
    net: Arc<NetView<M>>,
    now: RealTime,
    /// Nodes-per-shard divisor behind [`shard_of`].
    chunk: usize,
    /// Pending storm-injection dues (descending; post-storm no-ops that
    /// still count as processed events, matching the sequential trace).
    injections: Vec<u64>,
}

/// Aggregated parallelism accounting across all windows run so far.
#[derive(Debug, Clone, Copy, Default)]
struct ParStats {
    windows: u64,
    windowed_events: u64,
    critical_events: u64,
}

enum State<M, O> {
    /// Sequential prefix (storm still possible, or not yet decomposed).
    Warmup(Box<Simulation<M, O>>),
    Windowed(Windowed<M, O>),
    /// Transient placeholder while decomposing.
    Gone,
}

/// The sharded conservative-lookahead parallel simulator.
///
/// Built via [`SimBuilder::build_sharded`] (which forces
/// [`RngMode::PerNode`]); behaviourally a drop-in for [`Simulation`] on
/// the post-storm harness surface. The module docs at the top of
/// `crates/simnet/src/par.rs` give the execution model and the
/// determinism argument.
pub struct ShardedSim<M, O> {
    threads: usize,
    /// Real time until which execution stays on the sequential engine
    /// (the storm end; `ZERO` when no storm is configured).
    warmup_until: RealTime,
    state: State<M, O>,
    observations: Vec<Observation<O>>,
    metrics: Metrics,
    events_processed: u64,
    stats: ParStats,
    obs_scratch: Vec<Observation<O>>,
}

impl<M: Clone + Send + Sync, O: Send> ShardedSim<M, O> {
    fn from_builder(builder: SimBuilder<M, O>, threads: usize) -> Self {
        let base = builder.rng_mode(RngMode::PerNode).build();
        let warmup_until = base.storm.map_or(RealTime::ZERO, |s| s.until);
        ShardedSim {
            threads: threads.max(1),
            warmup_until,
            state: State::Warmup(Box::new(base)),
            observations: Vec::new(),
            metrics: Metrics::default(),
            events_processed: 0,
            stats: ParStats::default(),
            obs_scratch: Vec::new(),
        }
    }

    /// Tears the sequential simulation apart into shards: moves nodes,
    /// RNG streams, logs and every in-flight wheel entry (rebuilding the
    /// timer dedup registry against the shard wheels), and freezes the
    /// network state into the shared [`NetView`].
    fn decompose(&mut self) {
        let State::Warmup(base) = std::mem::replace(&mut self.state, State::Gone) else {
            unreachable!("decompose called twice");
        };
        let mut base = *base;
        base.ensure_started();
        let n = base.nodes.len();
        let chunk = n.div_ceil(self.threads).max(1);
        let num_shards = n.div_ceil(chunk);
        let rngs = std::mem::replace(&mut base.rngs, RngStreams::new(RngMode::Global, 0, 0));
        let RngStreams::PerNode {
            nodes: node_rngs, ..
        } = rngs
        else {
            unreachable!("build_sharded forces RngMode::PerNode");
        };
        let mut slot_iter = std::mem::take(&mut base.nodes).into_iter();
        let mut rng_iter = node_rngs.into_iter();
        let mut shards: Vec<Shard<M, O>> = (0..num_shards)
            .map(|s| {
                let first = s * chunk;
                let count = chunk.min(n - first);
                let mut nodes: Vec<NodeSlot<M, O>> = slot_iter.by_ref().take(count).collect();
                for slot in &mut nodes {
                    // Stale handles point into the old global wheel;
                    // rebuilt below while draining it.
                    slot.timers.clear();
                }
                Shard {
                    first: first as u32,
                    nodes,
                    rngs: rng_iter.by_ref().take(count).collect(),
                    wheel: TimerWheel::for_span_hint(base.link.delay_max.as_nanos()),
                    outbox: Vec::new(),
                    fx: Vec::new(),
                    send_seq: vec![0; count],
                    fx_seq: vec![0; count],
                    observations: Vec::new(),
                    metrics: Metrics::default(),
                    events_processed: 0,
                    window_events: 0,
                    scratch_outbox: Vec::new(),
                    wave: WaveScratch::default(),
                    bitset_pool: Vec::new(),
                    batch_scratch: Vec::new(),
                }
            })
            .collect();
        // Drain the global wheel in (due, seq) order; per-shard relative
        // order is preserved by insertion order.
        let mut injections = Vec::new();
        let mut group: Vec<NodeId> = Vec::new();
        while let Some(exp) = base.queue.pop() {
            match exp.payload {
                EventKind::Deliver { to, from, msg } => {
                    shards[shard_of(chunk, to)]
                        .wheel
                        .insert(exp.due, EventKind::Deliver { to, from, msg });
                }
                EventKind::BroadcastDeliver { from, msg, dests } => {
                    let mut run_shard = usize::MAX;
                    for to in dests.iter() {
                        let s = shard_of(chunk, to);
                        if s != run_shard && !group.is_empty() {
                            Self::decompose_group(
                                &mut shards[run_shard],
                                exp.due,
                                from,
                                &msg,
                                &group,
                            );
                            group.clear();
                        }
                        run_shard = s;
                        group.push(to);
                    }
                    if !group.is_empty() {
                        Self::decompose_group(&mut shards[run_shard], exp.due, from, &msg, &group);
                        group.clear();
                    }
                }
                EventKind::Timer { node, token } => {
                    let sh = &mut shards[shard_of(chunk, node)];
                    let li = sh.li(node);
                    let handle = sh.wheel.insert(exp.due, EventKind::Timer { node, token });
                    sh.nodes[li].timers.insert((token, exp.due), handle);
                }
                EventKind::Injection => injections.push(exp.due),
                EventKind::Recover { node } => {
                    shards[shard_of(chunk, node)]
                        .wheel
                        .insert(exp.due, EventKind::Recover { node });
                }
            }
        }
        injections.reverse();
        let net = Arc::new(NetView {
            n,
            link: base.link,
            blocks: std::mem::take(&mut base.blocks),
            partition: base.partition.take(),
            delay_inflation: base.delay_inflation,
            tagger: base.tagger,
            wave_mode: base.wave_mode,
        });
        self.observations = std::mem::take(&mut base.observations);
        self.metrics = std::mem::take(&mut base.metrics);
        self.events_processed = base.events_processed;
        self.state = State::Windowed(Windowed {
            shards: shards.into_iter().map(Mutex::new).collect(),
            net,
            now: base.now,
            chunk,
            injections,
        });
    }

    fn decompose_group(
        shard: &mut Shard<M, O>,
        due: u64,
        from: NodeId,
        msg: &Arc<M>,
        ids: &[NodeId],
    ) {
        if ids.len() == 1 {
            shard.wheel.insert(
                due,
                EventKind::Deliver {
                    to: ids[0],
                    from,
                    msg: Arc::clone(msg),
                },
            );
        } else {
            let mut set = NodeBitSet::default();
            for id in ids {
                set.insert(*id);
            }
            shard.wheel.insert(
                due,
                EventKind::BroadcastDeliver {
                    from,
                    msg: Arc::clone(msg),
                    dests: set,
                },
            );
        }
    }

    /// Runs until real time `t` (inclusive), windowed. During a
    /// configured storm this runs the sequential engine; the switchover
    /// happens at the storm end.
    pub fn run_until(&mut self, t: RealTime) {
        if let State::Warmup(base) = &mut self.state {
            if base.now() < self.warmup_until {
                base.run_until(self.warmup_until.min(t));
                if t < self.warmup_until {
                    return;
                }
            }
            self.decompose();
        }
        self.run_windows(t);
        self.merge_run_results();
    }

    /// Runs for a real-time span.
    pub fn run_for(&mut self, span: Duration) {
        let target = self.now() + span;
        self.run_until(target);
    }

    fn run_windows(&mut self, t: RealTime) {
        let ShardedSim {
            state,
            stats,
            events_processed,
            ..
        } = self;
        let State::Windowed(w) = state else {
            unreachable!("run_windows before decompose");
        };
        let t_ns = t.as_nanos();
        if w.shards.len() <= 1 {
            Self::run_windows_inline(w, stats, events_processed, t_ns);
        } else {
            Self::run_windows_threaded(w, stats, events_processed, t_ns);
        }
        w.now = w.now.max(t);
    }

    /// Global minimum due over every shard wheel and pending injection
    /// (`None` when fully drained). Callers hold no shard locks.
    fn peek_min(shards: &[Mutex<Shard<M, O>>], injections: &[u64]) -> Option<u64> {
        let mut gmin = injections.last().copied();
        for sh in shards {
            if let Some(due) = sh.lock().expect("shard poisoned").wheel.peek_due() {
                gmin = Some(gmin.map_or(due, |g| g.min(due)));
            }
        }
        gmin
    }

    /// Drains injection no-ops due in the window (each counts as one
    /// processed event, exactly like the sequential post-storm no-op
    /// dispatch of `EventKind::Injection`).
    fn drain_injections(injections: &mut Vec<u64>, win_end: u64, events_processed: &mut u64) {
        while injections.last().is_some_and(|&d| d <= win_end) {
            injections.pop();
            *events_processed += 1;
        }
    }

    /// Reads per-shard window event counts into the parallelism stats.
    fn account_window(shards: &[Mutex<Shard<M, O>>], stats: &mut ParStats) {
        let mut sum = 0u64;
        let mut mx = 0u64;
        for sh in shards {
            let e = sh.lock().expect("shard poisoned").window_events;
            sum += e;
            mx = mx.max(e);
        }
        stats.windows += 1;
        stats.windowed_events += sum;
        stats.critical_events += mx;
    }

    fn run_windows_inline(
        w: &mut Windowed<M, O>,
        stats: &mut ParStats,
        events_processed: &mut u64,
        t_ns: u64,
    ) {
        while let Some(gmin) = Self::peek_min(&w.shards, &w.injections) {
            if gmin > t_ns {
                break;
            }
            let l = lookahead_ns(&w.net, gmin);
            let win_end = gmin.saturating_add(l - 1).min(t_ns);
            Self::drain_injections(&mut w.injections, win_end, events_processed);
            for sh in &w.shards {
                sh.lock()
                    .expect("shard poisoned")
                    .run_window(win_end, &w.net);
            }
            Self::account_window(&w.shards, stats);
            barrier_exchange(&w.shards, &mut w.net, w.chunk);
            w.now = w.now.max(RealTime::from_nanos(win_end));
        }
    }

    fn run_windows_threaded(
        w: &mut Windowed<M, O>,
        stats: &mut ParStats,
        events_processed: &mut u64,
        t_ns: u64,
    ) {
        // Nothing due in range: skip thread spawn entirely.
        match Self::peek_min(&w.shards, &w.injections) {
            Some(g) if g <= t_ns => {}
            _ => return,
        }
        let Windowed {
            shards,
            net,
            now,
            chunk,
            injections,
        } = w;
        let num = shards.len();
        let ctl = Ctl {
            state: Mutex::new(CtlState {
                epoch: 0,
                win_end: 0,
                net: Arc::clone(net),
                done: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        };
        let shards: &[Mutex<Shard<M, O>>] = &*shards;
        std::thread::scope(|scope| {
            let ctl_ref = &ctl;
            for shard in shards.iter().skip(1) {
                scope.spawn(move || worker_loop(shard, ctl_ref));
            }
            while let Some(gmin) = Self::peek_min(shards, injections) {
                if gmin > t_ns {
                    break;
                }
                let l = lookahead_ns(net, gmin);
                let win_end = gmin.saturating_add(l - 1).min(t_ns);
                Self::drain_injections(injections, win_end, events_processed);
                {
                    let mut st = ctl.state.lock().expect("ctl poisoned");
                    st.epoch += 1;
                    st.win_end = win_end;
                    st.done = 0;
                    if !Arc::ptr_eq(&st.net, net) {
                        st.net = Arc::clone(net);
                    }
                }
                ctl.work.notify_all();
                // The coordinator doubles as shard 0's worker.
                shards[0]
                    .lock()
                    .expect("shard poisoned")
                    .run_window(win_end, net);
                {
                    let mut st = ctl.state.lock().expect("ctl poisoned");
                    while st.done < num - 1 {
                        let (guard, timeout) = ctl
                            .done
                            .wait_timeout(st, StdDuration::from_millis(200))
                            .expect("ctl poisoned");
                        st = guard;
                        if timeout.timed_out() {
                            // A worker that panicked inside its window
                            // poisons its shard mutex; surface that
                            // instead of waiting forever.
                            assert!(
                                !shards.iter().any(Mutex::is_poisoned),
                                "sharded simulation worker panicked"
                            );
                        }
                    }
                }
                Self::account_window(shards, stats);
                barrier_exchange(shards, net, *chunk);
                *now = (*now).max(RealTime::from_nanos(win_end));
            }
            let mut st = ctl.state.lock().expect("ctl poisoned");
            st.shutdown = true;
            drop(st);
            ctl.work.notify_all();
        });
    }

    /// Folds each shard's run-local logs into the coordinator's: metrics
    /// and event counts sum; observations concatenate in shard order and
    /// stable-sort by `(real, node)` — per-(node, instant) emission order
    /// is preserved (one node lives in one shard), and appended chunks
    /// keep the log globally sorted because later runs process strictly
    /// later dues.
    fn merge_run_results(&mut self) {
        let State::Windowed(w) = &mut self.state else {
            return;
        };
        let mut scratch = std::mem::take(&mut self.obs_scratch);
        debug_assert!(scratch.is_empty());
        for sh in &mut w.shards {
            let s = sh.get_mut().expect("shard poisoned");
            scratch.append(&mut s.observations);
            merge_metrics(&mut self.metrics, std::mem::take(&mut s.metrics));
            self.events_processed += std::mem::take(&mut s.events_processed);
        }
        scratch.sort_by_key(|o| (o.real.as_nanos(), o.node.index()));
        self.observations.append(&mut scratch);
        self.obs_scratch = scratch;
    }

    /// Mutable shard + local index for a node (between runs only).
    fn node_shard(&mut self, node: NodeId) -> (&mut Shard<M, O>, usize) {
        let State::Windowed(w) = &mut self.state else {
            unreachable!("node_shard in warmup");
        };
        let sh = w.shards[node.index() / w.chunk]
            .get_mut()
            .expect("shard poisoned");
        let li = sh.li(node);
        (sh, li)
    }

    // ------------------------------------------------------------------
    // The harness-facing surface, mirroring `Simulation`.
    // ------------------------------------------------------------------

    /// Current real time.
    #[must_use]
    pub fn now(&self) -> RealTime {
        match &self.state {
            State::Warmup(b) => b.now(),
            State::Windowed(w) => w.now,
            State::Gone => unreachable!(),
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        match &self.state {
            State::Warmup(b) => b.node_count(),
            State::Windowed(w) => w.net.n,
            State::Gone => unreachable!(),
        }
    }

    /// Worker-thread count this simulator was built with.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The clock of `node`, by value (clocks are `Copy`; the slot lives
    /// behind a shard mutex, so no reference can be handed out). Worker
    /// threads only exist inside `run_until`, so the shard lock here is
    /// always uncontended.
    #[must_use]
    pub fn clock_of(&self, node: NodeId) -> DriftClock {
        match &self.state {
            State::Warmup(b) => *b.clock(node),
            State::Windowed(w) => {
                let sh = w.shards[node.index() / w.chunk]
                    .lock()
                    .expect("shard poisoned");
                let li = sh.li(node);
                sh.nodes[li].clock
            }
            State::Gone => unreachable!(),
        }
    }

    /// All observations emitted so far (merged at each `run_until`).
    #[must_use]
    pub fn observations(&self) -> &[Observation<O>] {
        match &self.state {
            State::Warmup(b) => b.observations(),
            State::Windowed(_) => &self.observations,
            State::Gone => unreachable!(),
        }
    }

    /// Drains the observation log.
    pub fn take_observations(&mut self) -> Vec<Observation<O>> {
        match &mut self.state {
            State::Warmup(b) => b.take_observations(),
            State::Windowed(_) => std::mem::take(&mut self.observations),
            State::Gone => unreachable!(),
        }
    }

    /// Aggregate counters (merged at each `run_until`).
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        match &self.state {
            State::Warmup(b) => b.metrics(),
            State::Windowed(_) => &self.metrics,
            State::Gone => unreachable!(),
        }
    }

    /// Number of events processed so far, across all shards.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        match &self.state {
            State::Warmup(b) => b.events_processed(),
            State::Windowed(_) => self.events_processed,
            State::Gone => unreachable!(),
        }
    }

    /// Total events processed inside windows (the numerator of the
    /// critical-path parallelism bound). Zero before decomposition.
    #[must_use]
    pub fn windowed_events(&self) -> u64 {
        self.stats.windowed_events
    }

    /// Sum over windows of the *largest* per-shard event count — the
    /// critical path: wall clock can never beat this many sequential
    /// event dispatches no matter how many threads run. The achievable
    /// speedup bound is `windowed_events / critical_events`.
    #[must_use]
    pub fn critical_events(&self) -> u64 {
        self.stats.critical_events
    }

    /// Number of lookahead windows run so far.
    #[must_use]
    pub fn windows_run(&self) -> u64 {
        self.stats.windows
    }

    /// The critical-path parallelism bound `windowed / critical` (1.0
    /// when nothing windowed ran yet).
    #[must_use]
    pub fn parallelism(&self) -> f64 {
        if self.stats.critical_events == 0 {
            1.0
        } else {
            self.stats.windowed_events as f64 / self.stats.critical_events as f64
        }
    }

    /// Marks `node` down until the given real time.
    pub fn set_down_until(&mut self, node: NodeId, until: RealTime) {
        match &mut self.state {
            State::Warmup(b) => b.set_down_until(node, until),
            State::Windowed(_) => {
                let (sh, li) = self.node_shard(node);
                sh.nodes[li].down_until = Some(until);
            }
            State::Gone => unreachable!(),
        }
    }

    /// Blocks the directed link `from → to` until the given real time.
    pub fn block_link(&mut self, from: NodeId, to: NodeId, until: RealTime) {
        match &mut self.state {
            State::Warmup(b) => b.block_link(from, to, until),
            State::Windowed(w) => {
                Arc::make_mut(&mut w.net)
                    .blocks
                    .push(LinkBlock { from, to, until });
            }
            State::Gone => unreachable!(),
        }
    }

    /// Crashes `node` for `down_for` and schedules its recovery (see
    /// [`Simulation::crash_node`]).
    pub fn crash_node(&mut self, node: NodeId, down_for: Duration) {
        match &mut self.state {
            State::Warmup(b) => b.crash_node(node, down_for),
            State::Windowed(w) => {
                let until = w.now + down_for;
                let sh = w.shards[node.index() / w.chunk]
                    .get_mut()
                    .expect("shard poisoned");
                let li = sh.li(node);
                sh.nodes[li].down_until = Some(until);
                sh.wheel
                    .insert(until.as_nanos(), EventKind::Recover { node });
            }
            State::Gone => unreachable!(),
        }
    }

    /// Recovers a crashed node immediately, running its recovery hook
    /// and flushing whatever it emits into the shard wheels.
    pub fn recover_node(&mut self, node: NodeId) {
        match &mut self.state {
            State::Warmup(b) => b.recover_node(node),
            State::Windowed(w) => {
                let at = w.now;
                let net = Arc::clone(&w.net);
                {
                    let sh = w.shards[node.index() / w.chunk]
                        .get_mut()
                        .expect("shard poisoned");
                    let li = sh.li(node);
                    if sh.nodes[li].down_until.take().is_none() {
                        return;
                    }
                    sh.run_recover(at, node, &net);
                }
                barrier_exchange(&w.shards, &mut w.net, w.chunk);
                self.merge_run_results();
            }
            State::Gone => unreachable!(),
        }
    }

    /// Installs (or heals, with `None`) a network partition.
    pub fn set_partition(&mut self, partition: Option<Partition>) {
        match &mut self.state {
            State::Warmup(b) => b.set_partition(partition),
            State::Windowed(w) => {
                Arc::make_mut(&mut w.net).partition = partition;
            }
            State::Gone => unreachable!(),
        }
    }

    /// The partition currently in force, if any.
    #[must_use]
    pub fn partition(&self) -> Option<&Partition> {
        match &self.state {
            State::Warmup(b) => b.partition(),
            State::Windowed(w) => w.net.partition.as_ref(),
            State::Gone => unreachable!(),
        }
    }

    /// Fault injection: jumps `node`'s clock (see
    /// [`Simulation::skew_clock`]).
    pub fn skew_clock(&mut self, node: NodeId, jump: Duration, new_rate_ppm: Option<i32>) {
        match &mut self.state {
            State::Warmup(b) => b.skew_clock(node, jump, new_rate_ppm),
            State::Windowed(w) => {
                let now = w.now;
                let sh = w.shards[node.index() / w.chunk]
                    .get_mut()
                    .expect("shard poisoned");
                let li = sh.li(node);
                let slot = &mut sh.nodes[li];
                slot.clock = slot.clock.jumped(now, jump, new_rate_ppm);
            }
            State::Gone => unreachable!(),
        }
    }

    /// Fault injection: scales every sampled link delay by `num/den`
    /// until the given real time. A deflation (`num < den`) also shrinks
    /// the lookahead window, preserving the conservative bound.
    pub fn inflate_delays(&mut self, num: u64, den: u64, until: RealTime) {
        assert!(den > 0, "inflation denominator must be positive");
        match &mut self.state {
            State::Warmup(b) => b.inflate_delays(num, den, until),
            State::Windowed(w) => {
                Arc::make_mut(&mut w.net).delay_inflation = Some((num, den, until));
            }
            State::Gone => unreachable!(),
        }
    }

    /// Fault injection: cancels every pending `token` timer of `node`.
    pub fn cancel_node_timer(&mut self, node: NodeId, token: u64) -> usize {
        match &mut self.state {
            State::Warmup(b) => b.cancel_node_timer(node, token),
            State::Windowed(_) => {
                let (sh, _) = self.node_shard(node);
                sh.cancel_timers(node, token)
            }
            State::Gone => unreachable!(),
        }
    }

    /// Fault injection: plants a spurious `token` timer `after` from now.
    pub fn plant_timer(&mut self, node: NodeId, after: Duration, token: u64) {
        match &mut self.state {
            State::Warmup(b) => b.plant_timer(node, after, token),
            State::Windowed(w) => {
                let at = w.now + after;
                let sh = w.shards[node.index() / w.chunk]
                    .get_mut()
                    .expect("shard poisoned");
                sh.schedule_timer(node, at, token);
            }
            State::Gone => unreachable!(),
        }
    }

    /// Mutable access to a node's process (harness fault injection).
    pub fn process_mut(&mut self, node: NodeId) -> &mut dyn Process<M, O> {
        match &mut self.state {
            State::Warmup(b) => b.process_mut(node),
            State::Windowed(w) => {
                let sh = w.shards[node.index() / w.chunk]
                    .get_mut()
                    .expect("shard poisoned");
                let li = sh.li(node);
                &mut *sh.nodes[li].process
            }
            State::Gone => unreachable!(),
        }
    }

    /// Externally injects a message with a forged sender identity.
    pub fn inject_message(&mut self, at: RealTime, from: NodeId, to: NodeId, msg: M) {
        match &mut self.state {
            State::Warmup(b) => b.inject_message(at, from, to, msg),
            State::Windowed(w) => {
                let at = at.max(w.now);
                self.metrics.injected += 1;
                let sh = w.shards[to.index() / w.chunk]
                    .get_mut()
                    .expect("shard poisoned");
                sh.wheel.insert(
                    at.as_nanos(),
                    EventKind::Deliver {
                        to,
                        from,
                        msg: Arc::new(msg),
                    },
                );
            }
            State::Gone => unreachable!(),
        }
    }

    /// Number of pending events across every shard wheel (plus pending
    /// post-storm injection no-ops).
    #[must_use]
    pub fn queue_len(&mut self) -> usize {
        match &mut self.state {
            State::Warmup(b) => b.queue_len(),
            State::Windowed(w) => {
                let mut total = w.injections.len();
                for sh in &mut w.shards {
                    total += sh.get_mut().expect("shard poisoned").wheel.len();
                }
                total
            }
            State::Gone => unreachable!(),
        }
    }
}

fn merge_metrics(into: &mut Metrics, from: Metrics) {
    into.sent += from.sent;
    into.delivered += from.delivered;
    into.dropped += from.dropped;
    into.corrupted += from.corrupted;
    into.duplicated += from.duplicated;
    into.injected += from.injected;
    into.blocked += from.blocked;
    into.swallowed += from.swallowed;
    for (k, v) in from.per_tag {
        *into.per_tag.entry(k).or_insert(0) += v;
    }
}

impl<M: Clone + Send + Sync, O: Send> SimBuilder<M, O> {
    /// Finalizes into the sharded parallel simulator with the given
    /// worker-thread count (forces [`RngMode::PerNode`] — the per-node
    /// stream keying the sharded engine's determinism relies on).
    #[must_use]
    pub fn build_sharded(self, threads: usize) -> ShardedSim<M, O> {
        ShardedSim::from_builder(self, threads)
    }

    /// Finalizes into either engine behind the [`SimMode`] knob.
    #[must_use]
    pub fn build_mode(self, mode: SimMode) -> AnySim<M, O> {
        match mode {
            SimMode::Sequential => AnySim::Sequential(Box::new(self.build())),
            SimMode::Sharded(threads) => AnySim::Sharded(Box::new(self.build_sharded(threads))),
        }
    }
}

/// Either simulation engine behind one harness-facing surface, selected
/// by [`SimMode`]. The sequential arm keeps its default
/// [`RngMode::Global`] stream (existing fixed-seed traces are
/// untouched); the sharded arm runs per-node streams.
pub enum AnySim<M, O> {
    /// The single-threaded golden model.
    Sequential(Box<Simulation<M, O>>),
    /// The sharded conservative-lookahead engine.
    Sharded(Box<ShardedSim<M, O>>),
}

impl<M: Clone + Send + Sync, O: Send> AnySim<M, O> {
    /// Which mode this simulation runs in.
    #[must_use]
    pub fn mode(&self) -> SimMode {
        match self {
            AnySim::Sequential(_) => SimMode::Sequential,
            AnySim::Sharded(s) => SimMode::Sharded(s.threads()),
        }
    }

    /// The sharded engine, when running sharded (for parallelism stats).
    #[must_use]
    pub fn as_sharded(&self) -> Option<&ShardedSim<M, O>> {
        match self {
            AnySim::Sequential(_) => None,
            AnySim::Sharded(s) => Some(s),
        }
    }

    /// Current real time.
    #[must_use]
    pub fn now(&self) -> RealTime {
        match self {
            AnySim::Sequential(s) => s.now(),
            AnySim::Sharded(s) => s.now(),
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        match self {
            AnySim::Sequential(s) => s.node_count(),
            AnySim::Sharded(s) => s.node_count(),
        }
    }

    /// The clock of `node`, by value (clocks are `Copy`; the sharded arm
    /// keeps its slots behind shard mutexes, so no reference can be
    /// handed out).
    #[must_use]
    pub fn clock(&self, node: NodeId) -> DriftClock {
        match self {
            AnySim::Sequential(s) => *s.clock(node),
            AnySim::Sharded(s) => s.clock_of(node),
        }
    }

    /// Runs until real time `t` (inclusive of events at `t`).
    pub fn run_until(&mut self, t: RealTime) {
        match self {
            AnySim::Sequential(s) => s.run_until(t),
            AnySim::Sharded(s) => s.run_until(t),
        }
    }

    /// Runs for a real-time span.
    pub fn run_for(&mut self, span: Duration) {
        match self {
            AnySim::Sequential(s) => s.run_for(span),
            AnySim::Sharded(s) => s.run_for(span),
        }
    }

    /// All observations emitted so far.
    #[must_use]
    pub fn observations(&self) -> &[Observation<O>] {
        match self {
            AnySim::Sequential(s) => s.observations(),
            AnySim::Sharded(s) => s.observations(),
        }
    }

    /// Drains the observation log.
    pub fn take_observations(&mut self) -> Vec<Observation<O>> {
        match self {
            AnySim::Sequential(s) => s.take_observations(),
            AnySim::Sharded(s) => s.take_observations(),
        }
    }

    /// Aggregate counters.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        match self {
            AnySim::Sequential(s) => s.metrics(),
            AnySim::Sharded(s) => s.metrics(),
        }
    }

    /// Number of events processed so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        match self {
            AnySim::Sequential(s) => s.events_processed(),
            AnySim::Sharded(s) => s.events_processed(),
        }
    }

    /// Marks `node` down until the given real time.
    pub fn set_down_until(&mut self, node: NodeId, until: RealTime) {
        match self {
            AnySim::Sequential(s) => s.set_down_until(node, until),
            AnySim::Sharded(s) => s.set_down_until(node, until),
        }
    }

    /// Blocks the directed link `from → to` until the given real time.
    pub fn block_link(&mut self, from: NodeId, to: NodeId, until: RealTime) {
        match self {
            AnySim::Sequential(s) => s.block_link(from, to, until),
            AnySim::Sharded(s) => s.block_link(from, to, until),
        }
    }

    /// Crashes `node` for `down_for`, scheduling its recovery hook.
    pub fn crash_node(&mut self, node: NodeId, down_for: Duration) {
        match self {
            AnySim::Sequential(s) => s.crash_node(node, down_for),
            AnySim::Sharded(s) => s.crash_node(node, down_for),
        }
    }

    /// Recovers a crashed node immediately.
    pub fn recover_node(&mut self, node: NodeId) {
        match self {
            AnySim::Sequential(s) => s.recover_node(node),
            AnySim::Sharded(s) => s.recover_node(node),
        }
    }

    /// Installs (or heals, with `None`) a network partition.
    pub fn set_partition(&mut self, partition: Option<Partition>) {
        match self {
            AnySim::Sequential(s) => s.set_partition(partition),
            AnySim::Sharded(s) => s.set_partition(partition),
        }
    }

    /// The partition currently in force, if any.
    #[must_use]
    pub fn partition(&self) -> Option<&Partition> {
        match self {
            AnySim::Sequential(s) => s.partition(),
            AnySim::Sharded(s) => s.partition(),
        }
    }

    /// Fault injection: jumps `node`'s clock.
    pub fn skew_clock(&mut self, node: NodeId, jump: Duration, new_rate_ppm: Option<i32>) {
        match self {
            AnySim::Sequential(s) => s.skew_clock(node, jump, new_rate_ppm),
            AnySim::Sharded(s) => s.skew_clock(node, jump, new_rate_ppm),
        }
    }

    /// Fault injection: scales sampled link delays by `num/den`.
    pub fn inflate_delays(&mut self, num: u64, den: u64, until: RealTime) {
        match self {
            AnySim::Sequential(s) => s.inflate_delays(num, den, until),
            AnySim::Sharded(s) => s.inflate_delays(num, den, until),
        }
    }

    /// Fault injection: cancels every pending `token` timer of `node`.
    pub fn cancel_node_timer(&mut self, node: NodeId, token: u64) -> usize {
        match self {
            AnySim::Sequential(s) => s.cancel_node_timer(node, token),
            AnySim::Sharded(s) => s.cancel_node_timer(node, token),
        }
    }

    /// Fault injection: plants a spurious `token` timer `after` from now.
    pub fn plant_timer(&mut self, node: NodeId, after: Duration, token: u64) {
        match self {
            AnySim::Sequential(s) => s.plant_timer(node, after, token),
            AnySim::Sharded(s) => s.plant_timer(node, after, token),
        }
    }

    /// Mutable access to a node's process (harness fault injection).
    pub fn process_mut(&mut self, node: NodeId) -> &mut dyn Process<M, O> {
        match self {
            AnySim::Sequential(s) => s.process_mut(node),
            AnySim::Sharded(s) => s.process_mut(node),
        }
    }

    /// Externally injects a message with a forged sender identity.
    pub fn inject_message(&mut self, at: RealTime, from: NodeId, to: NodeId, msg: M) {
        match self {
            AnySim::Sequential(s) => s.inject_message(at, from, to, msg),
            AnySim::Sharded(s) => s.inject_message(at, from, to, msg),
        }
    }
}
