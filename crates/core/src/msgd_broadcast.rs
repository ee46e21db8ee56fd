//! The `msgd-broadcast` primitive (paper Fig. 3, §5).
//!
//! A message-driven re-formulation of the Toueg–Perry–Srikanth reliable
//! broadcast: instead of lock-step rounds, every round is *anchored* at the
//! local-time estimate `τ_G` produced by `Initiator-Accept`, and each block
//! only carries a **deadline** (`τq ≤ τ_G + c·Φ`) — conditions may be
//! satisfied as soon as the necessary messages arrive, so the primitive
//! progresses at actual network speed (the paper's headline performance
//! property).
//!
//! Blocks (for a triplet `(p, m, k)`):
//!
//! * **V** — the broadcaster `p` sends `(init, p, m, k)`.
//! * **W** (by `τ_G + 2kΦ`) — a direct `init` from `p` triggers `echo`.
//! * **X** (by `τ_G + (2k+1)Φ`) — weak quorum of `echo` ⇒ `init′`; strong
//!   quorum of `echo` ⇒ **accept**.
//! * **Y** (by `τ_G + (2k+2)Φ`) — weak quorum of `init′` ⇒ `p` is recorded
//!   in `broadcasters`; strong quorum of `init′` ⇒ `echo′`.
//! * **Z** (untimed) — weak quorum of `echo′` ⇒ relay `echo′`; strong
//!   quorum of `echo′` ⇒ **accept** (late path, powers the Relay
//!   property [TPS-3]).
//!
//! Messages are logged even before the anchor exists ("nodes log messages
//! until they are able to process them") and evaluated once it does.
//! Values are interned [`ValueId`]s, resolved by the owning
//! [`Engine`](crate::Engine) only at output emission.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Write;
use std::hash::BuildHasherDefault;

use ssbyz_types::{DenseNodeMap, LocalTime, NodeId, Value};

use crate::corrupt::{Entropy, Garbage};
use crate::intern::{FxHasher, ValueId, ValueInterner};
use crate::message::BcastKind;
use crate::params::Params;
use crate::store::{Due, StampSlab};

/// Actions produced by the primitive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsgdAction<V> {
    /// Broadcast a primitive message to all nodes.
    Send {
        /// Stage to send.
        kind: BcastKind,
        /// The original broadcaster `p` of the triplet.
        broadcaster: NodeId,
        /// The value `m`.
        value: V,
        /// The round `k`.
        round: u32,
    },
    /// The triplet `(p, m, k)` was accepted (blocks X5/Z5).
    Accepted {
        /// The broadcaster `p`.
        broadcaster: NodeId,
        /// The value `m`.
        value: V,
        /// The round `k`.
        round: u32,
    },
    /// `p` entered the `broadcasters` set (block Y3, [TPS-4]).
    BroadcasterDetected(NodeId),
}

/// A triplet's own state, kept in the first [`HEADER`] words of its slab
/// stride: flag bits in word 0, then the three stamps.
#[derive(Debug, Clone, Copy, Default)]
struct Header {
    /// Arrival of `(init, p, m, k)` from `p` itself.
    init_from_p: Option<LocalTime>,
    /// "Nodes send specific messages only once."
    sent: [bool; 4],
    accepted_at: Option<LocalTime>,
    /// Most recent arrival, for decay.
    touched: Option<LocalTime>,
}

/// Header words per triplet stride.
const HEADER: usize = 4;

/// The `echo`, `init′` and `echo′` sender logs, rows `0..LOGS` of a
/// stride (an `init` counts only from `p`, so it is a header stamp).
const LOGS: usize = 3;

/// The slab row of a non-`init` stage's sender log.
fn log_row(kind: BcastKind) -> usize {
    kind as usize - 1
}

type TripletSlab = StampSlab<HEADER, LOGS>;

/// `(value, broadcaster, round)`.
type TripletKey = (ValueId, NodeId, u32);

impl Header {
    fn load(w: &[u64; HEADER]) -> Self {
        let flag = |bit: usize| w[0] & (1 << bit) != 0;
        let stamp = |bit: usize, t: u64| flag(bit).then(|| LocalTime::from_nanos(t));
        Header {
            init_from_p: stamp(4, w[1]),
            sent: std::array::from_fn(flag),
            accepted_at: stamp(5, w[2]),
            touched: stamp(6, w[3]),
        }
    }

    fn store(&self, w: &mut [u64; HEADER]) {
        let mut flags = 0u64;
        for (bit, sent) in self.sent.into_iter().enumerate() {
            flags |= u64::from(sent) << bit;
        }
        let stamps = [self.init_from_p, self.accepted_at, self.touched];
        for (i, t) in stamps.into_iter().enumerate() {
            flags |= u64::from(t.is_some()) << (4 + i);
            w[1 + i] = t.map_or(0, LocalTime::as_nanos);
        }
        w[0] = flags;
    }

    /// Runs `f` on stride `i`'s header and writes the result back.
    fn update<R>(slab: &mut TripletSlab, i: u32, f: impl FnOnce(&mut Header) -> R) -> R {
        let w = slab.header_mut(i);
        let mut st = Header::load(w);
        let r = f(&mut st);
        st.store(w);
        r
    }
}

/// Whether stride `i` holds nothing but (at most) a `touched` stamp.
fn is_dormant(slab: &TripletSlab, i: u32) -> bool {
    let st = Header::load(slab.header(i));
    st.init_from_p.is_none()
        && st.accepted_at.is_none()
        && !st.sent.iter().any(|b| *b)
        && (0..LOGS).all(|row| slab.log(i, row).is_empty())
}

/// Cap on tracked triplets per agreement instance (Byzantine nodes can mint
/// triplets; the legitimate count is ≤ n·(f+1) per value in play).
///
/// Each triplet is one slab stride of `8·(4 + 3·(1 + ⌈n/64⌉ + n))` bytes,
/// and no arrival opens a triplet past the cap, so arrivals alone never
/// grow one instance's arena past `MAX_TRACKED_TRIPLETS` strides: 704 KiB
/// at n = 4 (176 B strides), 3.2 MiB at n = 31 (824 B), 6.3 MiB at n = 64
/// (1 616 B), 24.6 MiB at n = 256 (6 296 B). The triplet index and the
/// free list add at most a few dozen bytes per triplet. This node's own
/// relay (one per execution) and planted transient-fault residue open
/// their triplet regardless, one stride each.
pub const MAX_TRACKED_TRIPLETS: usize = 4096;

/// One node's `msgd-broadcast` machinery inside the agreement instance of
/// one General.
///
/// Every live triplet is one fixed stride of a [`StampSlab`] sized from
/// `n` — its header next to its `echo`, `init′` and `echo′` sender logs
/// — found through one hash probe on `(value, broadcaster, round)`.
/// Recording a wave is index arithmetic on that stride; cleanup and
/// [`MsgdBroadcast::reset`] return strides to the slab, so after warm-up
/// no arrival and no later agreement allocates triplet state.
///
/// # Example
///
/// ```
/// use ssbyz_core::{BcastKind, MsgdAction, MsgdBroadcast, Params, ValueInterner};
/// use ssbyz_types::{Duration, LocalTime, NodeId};
///
/// let params = Params::from_d(4, 1, Duration::from_millis(10), 0)?;
/// let m = ValueInterner::new().intern(&7u64);
/// let mut bc = MsgdBroadcast::new(NodeId::new(1), params);
/// let mut out = Vec::new();
/// bc.invoke(LocalTime::from_nanos(0), m, 1, &mut out); // block V
/// assert!(matches!(out[0], MsgdAction::Send { kind: BcastKind::Init, .. }));
/// # Ok::<(), ssbyz_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MsgdBroadcast {
    me: NodeId,
    params: Params,
    /// Each live triplet's stride in `slab`. The keys are interner ids
    /// and range-checked node ids and rounds, at most
    /// [`MAX_TRACKED_TRIPLETS`] of them, so the interner's fixed hasher
    /// serves here too: crafted collisions cost at most a walk over that
    /// bounded set.
    index: HashMap<TripletKey, u32, BuildHasherDefault<FxHasher>>,
    slab: TripletSlab,
    broadcasters: DenseNodeMap<LocalTime>,
    /// When [`MsgdBroadcast::cleanup`] can next change anything.
    due: Due,
}

impl MsgdBroadcast {
    /// Creates fresh (empty) broadcast state.
    #[must_use]
    pub fn new(me: NodeId, params: Params) -> Self {
        MsgdBroadcast {
            me,
            params,
            index: HashMap::default(),
            slab: StampSlab::new(params.n(), MAX_TRACKED_TRIPLETS),
            broadcasters: DenseNodeMap::with_capacity(params.n()),
            due: Due::Never,
        }
    }

    /// The stride of `(value, broadcaster, round)`, opened if missing.
    fn stride(&mut self, broadcaster: NodeId, round: u32, value: ValueId) -> u32 {
        *self
            .index
            .entry((value, broadcaster, round))
            .or_insert_with(|| self.slab.alloc())
    }

    /// Block V: this node invokes `msgd-broadcast(me, value, round)`.
    pub fn invoke(
        &mut self,
        now: LocalTime,
        value: ValueId,
        round: u32,
        out: &mut Vec<MsgdAction<ValueId>>,
    ) {
        if round == 0 || round > self.params.max_round() {
            return;
        }
        let i = self.stride(self.me, round, value);
        let fresh = Header::update(&mut self.slab, i, |st| {
            let fresh = !st.sent[BcastKind::Init as usize];
            if fresh {
                st.sent[BcastKind::Init as usize] = true;
                st.touched = Some(now);
            }
            fresh
        });
        if !fresh {
            return;
        }
        self.due.lower(now + self.params.msgd_horizon());
        out.push(MsgdAction::Send {
            kind: BcastKind::Init,
            broadcaster: self.me,
            value,
            round,
        });
    }

    /// Feeds a primitive message from authenticated `sender` — a wave of
    /// one. `anchor` is the node's `τ_G` if already set; without it the
    /// message is only logged.
    #[allow(clippy::too_many_arguments)]
    pub fn on_message(
        &mut self,
        now: LocalTime,
        sender: NodeId,
        kind: BcastKind,
        broadcaster: NodeId,
        value: ValueId,
        round: u32,
        anchor: Option<LocalTime>,
        out: &mut Vec<MsgdAction<ValueId>>,
    ) {
        if sender.index() >= self.params.n() {
            return; // sender outside the membership
        }
        self.on_wave(now, &[sender], kind, broadcaster, value, round, anchor, out);
    }

    /// Coalesced delivery of one same-`(kind, broadcaster, value, round)`
    /// wave: every listed sender's arrival is recorded at the same
    /// instant, with the validity checks, triplet admission and quorum
    /// evaluation paid **once per wave** instead of once per arrival.
    ///
    /// Bit-identical to feeding the senders through
    /// [`MsgdBroadcast::on_message`] one by one (pinned by the
    /// `wave_equivalence` proptests). Two triplet
    /// evaluations make that exact: the first arrival is recorded and
    /// evaluated alone — firing, in block order, any condition already
    /// true at wave start (e.g. a stale latch left by a transient fault),
    /// exactly as the per-message path's first step would. The remaining
    /// arrivals then land in one bulk
    /// [`StampLogMut::record_wave`](crate::store::StampLogMut::record_wave) pass
    /// and a single final evaluation fires whatever the accumulated
    /// counts newly crossed. Within a single-kind wave every later
    /// crossing lives in one deadline block whose emission order equals
    /// its count-crossing order (weak quorum before strong), so the
    /// collapsed final pass reproduces the per-message output sequence.
    ///
    /// Callers must pre-filter `senders` to the membership; an empty wave
    /// is a no-op.
    #[allow(clippy::too_many_arguments)]
    pub fn on_wave(
        &mut self,
        now: LocalTime,
        senders: &[NodeId],
        kind: BcastKind,
        broadcaster: NodeId,
        value: ValueId,
        round: u32,
        anchor: Option<LocalTime>,
        out: &mut Vec<MsgdAction<ValueId>>,
    ) {
        let Some((&first, rest)) = senders.split_first() else {
            return;
        };
        debug_assert!(
            senders.iter().all(|s| s.index() < self.params.n()),
            "wave senders must be pre-filtered to the membership"
        );
        if round == 0 || round > self.params.max_round() {
            return; // bogus round — no legitimate broadcast uses it
        }
        if broadcaster.index() >= self.params.n() {
            return; // claimed broadcaster outside the membership
        }
        let tracked = self.index.len();
        let i = match self.index.entry((value, broadcaster, round)) {
            Entry::Occupied(e) => *e.get(),
            // Bound memory against triplet-minting adversaries.
            Entry::Vacant(_) if tracked >= MAX_TRACKED_TRIPLETS => return,
            Entry::Vacant(e) => *e.insert(self.slab.alloc()),
        };
        Header::update(&mut self.slab, i, |st| {
            st.touched = Some(now);
            if kind == BcastKind::Init && first == broadcaster && st.init_from_p.is_none() {
                st.init_from_p = Some(now);
            }
        });
        if kind != BcastKind::Init {
            self.slab.log_mut(i, log_row(kind)).record(now, first);
        }
        if is_dormant(&self.slab, i) {
            // An init relayed by anyone but the broadcaster records
            // nothing: the fresh triplet is removable at once.
            self.due = Due::Now;
        } else {
            // Every stamp of this wave is `now`.
            self.due.lower(now + self.params.msgd_horizon());
        }
        if let Some(anchor) = anchor {
            self.evaluate_triplet(now, anchor, i, broadcaster, round, value, out);
        }
        if rest.is_empty() {
            return;
        }
        if kind == BcastKind::Init {
            // Only an init from the broadcaster itself counts (W2).
            if rest.contains(&broadcaster) {
                Header::update(&mut self.slab, i, |st| {
                    st.init_from_p.get_or_insert(now);
                });
            }
        } else {
            self.slab.log_mut(i, log_row(kind)).record_wave(now, rest);
        }
        if let Some(anchor) = anchor {
            self.evaluate_triplet(now, anchor, i, broadcaster, round, value, out);
        }
    }

    /// Every live triplet with its stride, ascending in `(value,
    /// broadcaster, round)` order — values compared in `V`'s order
    /// through the interner, so the order depends neither on id
    /// assignment nor on where the triplets sit in the slab.
    fn sorted<V: Value>(&self, interner: &ValueInterner<V>) -> Vec<(TripletKey, u32)> {
        let mut keys: Vec<(TripletKey, u32)> = self.index.iter().map(|(&k, &i)| (k, i)).collect();
        keys.sort_by(|((va, pa, ka), _), ((vb, pb, kb), _)| {
            interner
                .resolve(*va)
                .cmp(interner.resolve(*vb))
                .then(pa.cmp(pb))
                .then(ka.cmp(kb))
        });
        keys
    }

    /// Called when the anchor `τ_G` becomes known: evaluates every logged
    /// triplet against it, in ascending `(value, broadcaster, round)`
    /// order, so the output sequence does not depend on id assignment.
    pub fn on_anchor<V: Value>(
        &mut self,
        now: LocalTime,
        anchor: LocalTime,
        interner: &ValueInterner<V>,
        out: &mut Vec<MsgdAction<ValueId>>,
    ) {
        for ((v, p, k), i) in self.sorted(interner) {
            self.evaluate_triplet(now, anchor, i, p, k, v, out);
        }
    }

    /// Runs blocks W–Z for the triplet in stride `i`.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_triplet(
        &mut self,
        now: LocalTime,
        anchor: LocalTime,
        i: u32,
        broadcaster: NodeId,
        round: u32,
        value: ValueId,
        out: &mut Vec<MsgdAction<ValueId>>,
    ) {
        let phi = self.params.phi();
        let weak = self.params.weak_quorum();
        let strong = self.params.quorum();
        // Elapsed local time since the anchor; a (bogus) future anchor
        // behaves as "just set".
        let elapsed = now.since_or_zero(anchor);
        let k = u64::from(round);
        let [echo, init_prime, echo_prime] =
            [BcastKind::Echo, BcastKind::InitPrime, BcastKind::EchoPrime]
                .map(|kind| self.slab.log(i, log_row(kind)).distinct_total());
        let w = self.slab.header_mut(i);
        let mut st = Header::load(w);
        let mut accepted = false;
        let mut detected = false;
        // All `Send` actions precede `BroadcasterDetected`/`Accepted` in
        // the output (the order tests pin); sends are pushed inline as
        // blocks W–Z fire, which keeps the no-output common case free of
        // any staging allocation.
        let send = |kind: BcastKind, out: &mut Vec<MsgdAction<ValueId>>| {
            out.push(MsgdAction::Send {
                kind,
                broadcaster,
                value,
                round,
            });
        };

        // Block W — by τ_G + 2kΦ.
        if elapsed <= phi * (2 * k)
            && st.init_from_p.is_some()
            && !st.sent[BcastKind::Echo as usize]
        {
            st.sent[BcastKind::Echo as usize] = true;
            send(BcastKind::Echo, out);
        }
        // Block X — by τ_G + (2k+1)Φ.
        if elapsed <= phi * (2 * k + 1) {
            if echo >= weak && !st.sent[BcastKind::InitPrime as usize] {
                st.sent[BcastKind::InitPrime as usize] = true;
                send(BcastKind::InitPrime, out);
            }
            if echo >= strong && st.accepted_at.is_none() {
                st.accepted_at = Some(now);
                accepted = true;
            }
        }
        // Block Y — by τ_G + (2k+2)Φ.
        if elapsed <= phi * (2 * k + 2) {
            if init_prime >= weak && !self.broadcasters.contains(broadcaster) {
                detected = true;
            }
            if init_prime >= strong && !st.sent[BcastKind::EchoPrime as usize] {
                st.sent[BcastKind::EchoPrime as usize] = true;
                send(BcastKind::EchoPrime, out);
            }
        }
        // Block Z — untimed.
        if echo_prime >= weak && !st.sent[BcastKind::EchoPrime as usize] {
            st.sent[BcastKind::EchoPrime as usize] = true;
            send(BcastKind::EchoPrime, out);
        }
        if echo_prime >= strong && st.accepted_at.is_none() {
            st.accepted_at = Some(now);
            accepted = true;
        }
        st.store(w);
        if detected {
            self.broadcasters.insert(broadcaster, now);
            out.push(MsgdAction::BroadcasterDetected(broadcaster));
        }
        if accepted {
            out.push(MsgdAction::Accepted {
                broadcaster,
                value,
                round,
            });
        }
        // The stamps set here leave the due alone: they expire no sooner
        // than the triplet's `touched`, which already bounds it.
    }

    /// Number of detected broadcasters (block T of the agreement).
    #[must_use]
    pub fn broadcaster_count(&self) -> usize {
        self.broadcasters.len()
    }

    /// Number of triplets with live (logged) state — includes messages
    /// buffered before the anchor exists. O(1).
    #[must_use]
    pub fn triplet_count(&self) -> usize {
        self.index.len()
    }

    /// Heap bytes of the triplet slab's arena (see
    /// [`MAX_TRACKED_TRIPLETS`] for its bound).
    #[must_use]
    pub fn arena_bytes(&self) -> usize {
        self.slab.arena_bytes()
    }

    /// Whether `p` has been detected as a broadcaster.
    #[must_use]
    pub fn is_broadcaster(&self, p: NodeId) -> bool {
        self.broadcasters.contains(p)
    }

    /// Fig. 3 cleanup: messages older than `(2f + 3)Φ` decay, as do
    /// future-stamped residues. Recomputes the due exactly, and returns
    /// whether the walk dropped a triplet or a broadcaster or was forced
    /// by a write that left a dormant triplet.
    pub fn cleanup(&mut self, now: LocalTime) -> bool {
        let forced = self.due == Due::Now;
        let horizon = self.params.msgd_horizon();
        let stale =
            |t: Option<LocalTime>| t.is_some_and(|t| t.is_after(now) || now.since(t) > horizon);
        let slab = &mut self.slab;
        let live = self.index.len();
        self.index.retain(|_, &mut i| {
            for row in 0..LOGS {
                slab.log_mut(i, row).prune(now, horizon);
            }
            Header::update(slab, i, |st| {
                if stale(st.init_from_p) {
                    st.init_from_p = None;
                }
                if stale(st.accepted_at) {
                    st.accepted_at = None;
                }
                if stale(st.touched) {
                    st.touched = None;
                    st.sent = [false; 4];
                }
            });
            let dormant = is_dormant(slab, i);
            if dormant {
                slab.release(i);
            }
            !dormant
        });
        let removed = live - self.index.len();
        let detected = self.broadcasters.len();
        self.broadcasters
            .retain(|_, t| !t.is_after(now) && now.since(*t) <= horizon);
        self.due = self.next_due();
        forced || removed > 0 || self.broadcasters.len() < detected
    }

    /// The exact due of the state as it stands: every stamp above decays
    /// at the one horizon.
    fn next_due(&self) -> Due {
        let horizon = self.params.msgd_horizon();
        let mut due = Due::Never;
        for &i in self.index.values() {
            let st = Header::load(self.slab.header(i));
            for t in [st.init_from_p, st.accepted_at, st.touched]
                .into_iter()
                .flatten()
            {
                due.lower(t + horizon);
            }
            for row in 0..LOGS {
                self.slab.log(i, row).lower_due(horizon, &mut due);
            }
        }
        for (_, &t) in self.broadcasters.iter() {
            due.lower(t + horizon);
        }
        due
    }

    /// When [`MsgdBroadcast::cleanup`] can next change anything.
    pub(crate) fn due(&self) -> Due {
        self.due
    }

    /// Plants transient-fault residue for `value`: up to three bogus
    /// triplet arrivals and a coin-flipped fake broadcaster. Every stamp
    /// lies within `2Δ_rmv` of the scramble's `now`, which
    /// [`MsgdBroadcast::cleanup`] above must expire, from the next pass
    /// on. Returns whether anything was planted.
    pub(crate) fn plant<V: Value>(&mut self, g: &mut Garbage<'_, V>, value: &V) -> bool {
        self.due = Due::Now;
        let (n, f) = (self.params.n(), self.params.f() as u64);
        let triplets = g.below(4);
        for _ in 0..triplets {
            let broadcaster = g.node(n);
            let round = g.below(f + 1) as u32 + 1;
            let kind = BcastKind::ALL[g.below(4) as usize];
            let sender = g.node(n);
            let stamp = g.stamp();
            self.corrupt_triplet(broadcaster, round, g.intern(value), kind, sender, stamp);
        }
        let fake_broadcaster = g.chance(1, 2);
        if fake_broadcaster {
            let p = g.node(n);
            self.broadcasters.insert(p, g.stamp());
        }
        triplets > 0 || fake_broadcaster
    }

    /// Plants one bogus arrival for the triplet (`round` in
    /// `1..=max_round`, `sender` in the membership).
    fn corrupt_triplet(
        &mut self,
        broadcaster: NodeId,
        round: u32,
        value: ValueId,
        kind: BcastKind,
        sender: NodeId,
        stamp: LocalTime,
    ) {
        let i = self.stride(broadcaster, round, value);
        if kind != BcastKind::Init {
            self.slab
                .log_mut(i, log_row(kind))
                .inject_raw(sender, stamp);
        }
        Header::update(&mut self.slab, i, |st| {
            if kind == BcastKind::Init {
                st.init_from_p = Some(stamp);
            }
            st.touched = Some(stamp);
        });
    }

    /// Drops all state (3d after the surrounding agreement returned),
    /// keeping the slab's arena for the next execution.
    pub fn reset(&mut self) {
        self.index.clear();
        self.slab.clear();
        self.broadcasters.clear();
        self.due = Due::Never;
    }

    /// Marks every id this instance still references, for the engine's
    /// interner sweep.
    pub(crate) fn mark_live<V: Value>(&self, interner: &mut ValueInterner<V>) {
        for &(id, _, _) in self.index.keys() {
            interner.mark(id);
        }
    }

    /// Appends the protocol state, ids resolved, the due left out: the
    /// triplets in [`MsgdBroadcast::on_anchor`]'s order, each with its
    /// header and the retained `(sender, stamp)` pairs of its logs —
    /// nothing about where it sits in the slab.
    pub(crate) fn render<V: Value>(&self, interner: &ValueInterner<V>, out: &mut String) {
        let _ = writeln!(
            out,
            "  msgd: {} triplets, broadcasters {:?}",
            self.index.len(),
            self.broadcasters
        );
        for ((v, p, k), i) in self.sorted(interner) {
            let st = Header::load(self.slab.header(i));
            let _ = write!(out, "    {:?} {p:?} k{k}: {st:?}", interner.show(v));
            for row in 0..LOGS {
                out.push_str(" [");
                for (s, t) in self.slab.log(i, row).iter() {
                    let _ = write!(out, "({s:?}, {t:?})");
                }
                out.push(']');
            }
            out.push('\n');
        }
    }

    /// Introspection: whether the triplet has been accepted.
    #[must_use]
    pub fn accepted(&self, broadcaster: NodeId, round: u32, value: ValueId) -> bool {
        self.index
            .get(&(value, broadcaster, round))
            .is_some_and(|&i| Header::load(self.slab.header(i)).accepted_at.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corrupt::xorshift;
    use crate::intern::interned;
    use ssbyz_types::Duration;

    const D: u64 = 10_000_000;

    fn params4() -> Params {
        Params::from_d(4, 1, Duration::from_nanos(D), 0).unwrap()
    }

    fn t(n: u64) -> LocalTime {
        LocalTime::from_nanos(1_000 * D + n)
    }

    fn id(n: u32) -> NodeId {
        NodeId::new(n)
    }

    fn bc() -> MsgdBroadcast {
        MsgdBroadcast::new(id(1), params4())
    }

    fn sends(out: &[MsgdAction<ValueId>]) -> Vec<BcastKind> {
        out.iter()
            .filter_map(|a| match a {
                MsgdAction::Send { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect()
    }

    fn accepts(out: &[MsgdAction<ValueId>]) -> usize {
        out.iter()
            .filter(|a| matches!(a, MsgdAction::Accepted { .. }))
            .count()
    }

    #[test]
    fn invoke_sends_init_once() {
        let (_, [v7]) = interned([7]);
        let mut b = bc();
        let mut out = Vec::new();
        b.invoke(t(0), v7, 1, &mut out);
        b.invoke(t(1), v7, 1, &mut out);
        assert_eq!(sends(&out), vec![BcastKind::Init]);
    }

    #[test]
    fn echo_only_for_direct_init() {
        let (_, [v7]) = interned([7]);
        let mut b = bc();
        let anchor = t(0);
        let mut out = Vec::new();
        // init claimed for broadcaster 2 but sent by 3: ignored by W.
        b.on_message(
            t(5),
            id(3),
            BcastKind::Init,
            id(2),
            v7,
            1,
            Some(anchor),
            &mut out,
        );
        assert!(sends(&out).is_empty());
        // Direct init from 2: echo.
        b.on_message(
            t(6),
            id(2),
            BcastKind::Init,
            id(2),
            v7,
            1,
            Some(anchor),
            &mut out,
        );
        assert_eq!(sends(&out), vec![BcastKind::Echo]);
    }

    #[test]
    fn echo_deadline_enforced() {
        let (_, [v7]) = interned([7]);
        let p = params4();
        let mut b = bc();
        let anchor = t(0);
        let mut out = Vec::new();
        // k = 1 ⇒ W deadline at anchor + 2Φ.
        let late = anchor + p.phi() * 2u64 + Duration::from_nanos(1);
        b.on_message(
            late,
            id(2),
            BcastKind::Init,
            id(2),
            v7,
            1,
            Some(anchor),
            &mut out,
        );
        assert!(sends(&out).is_empty(), "past the W deadline no echo");
    }

    #[test]
    fn weak_quorum_of_echo_sends_init_prime() {
        let (_, [v7]) = interned([7]);
        let mut b = bc();
        let anchor = t(0);
        let mut out = Vec::new();
        b.on_message(
            t(1),
            id(0),
            BcastKind::Echo,
            id(2),
            v7,
            1,
            Some(anchor),
            &mut out,
        );
        assert!(sends(&out).is_empty());
        b.on_message(
            t(2),
            id(3),
            BcastKind::Echo,
            id(2),
            v7,
            1,
            Some(anchor),
            &mut out,
        );
        assert_eq!(sends(&out), vec![BcastKind::InitPrime]);
    }

    #[test]
    fn strong_quorum_of_echo_accepts() {
        let (_, [v7]) = interned([7]);
        let mut b = bc();
        let anchor = t(0);
        let mut out = Vec::new();
        for s in [0u32, 2, 3] {
            b.on_message(
                t(s as u64),
                id(s),
                BcastKind::Echo,
                id(2),
                v7,
                1,
                Some(anchor),
                &mut out,
            );
        }
        assert_eq!(accepts(&out), 1);
        assert!(b.accepted(id(2), 1, v7));
        // Replays never re-accept.
        b.on_message(
            t(10),
            id(0),
            BcastKind::Echo,
            id(2),
            v7,
            1,
            Some(anchor),
            &mut out,
        );
        assert_eq!(accepts(&out), 1);
    }

    #[test]
    fn x_deadline_pushes_accept_to_z() {
        let (_, [v7]) = interned([7]);
        let p = params4();
        let mut b = bc();
        let anchor = t(0);
        let mut out = Vec::new();
        let late = anchor + p.phi() * 3u64 + Duration::from_nanos(5); // past (2k+1)Φ for k=1
        for s in [0u32, 2, 3] {
            b.on_message(
                late,
                id(s),
                BcastKind::Echo,
                id(2),
                v7,
                1,
                Some(anchor),
                &mut out,
            );
        }
        assert_eq!(accepts(&out), 0, "X accept disabled after deadline");
        // But echo′ path (block Z) still works at any time.
        for s in [0u32, 2, 3] {
            b.on_message(
                late + Duration::from_nanos(10),
                id(s),
                BcastKind::EchoPrime,
                id(2),
                v7,
                1,
                Some(anchor),
                &mut out,
            );
        }
        assert_eq!(accepts(&out), 1, "Z accept is untimed");
    }

    #[test]
    fn broadcaster_detection() {
        let (_, [v7]) = interned([7]);
        let mut b = bc();
        let anchor = t(0);
        let mut out = Vec::new();
        b.on_message(
            t(1),
            id(0),
            BcastKind::InitPrime,
            id(2),
            v7,
            1,
            Some(anchor),
            &mut out,
        );
        assert_eq!(b.broadcaster_count(), 0);
        b.on_message(
            t(2),
            id(3),
            BcastKind::InitPrime,
            id(2),
            v7,
            1,
            Some(anchor),
            &mut out,
        );
        assert_eq!(b.broadcaster_count(), 1);
        assert!(b.is_broadcaster(id(2)));
        assert!(out.contains(&MsgdAction::BroadcasterDetected(id(2))));
        // Strong quorum sends echo′.
        b.on_message(
            t(3),
            id(1),
            BcastKind::InitPrime,
            id(2),
            v7,
            1,
            Some(anchor),
            &mut out,
        );
        assert!(sends(&out).contains(&BcastKind::EchoPrime));
    }

    #[test]
    fn echo_prime_relay() {
        let (_, [v7]) = interned([7]);
        let mut b = bc();
        let anchor = t(0);
        let mut out = Vec::new();
        // Weak quorum of echo′ makes the node relay echo′ (Z3).
        b.on_message(
            t(1),
            id(0),
            BcastKind::EchoPrime,
            id(2),
            v7,
            1,
            Some(anchor),
            &mut out,
        );
        b.on_message(
            t(2),
            id(3),
            BcastKind::EchoPrime,
            id(2),
            v7,
            1,
            Some(anchor),
            &mut out,
        );
        assert_eq!(sends(&out), vec![BcastKind::EchoPrime]);
    }

    #[test]
    fn buffered_messages_processed_on_anchor() {
        let (vals, [v7]) = interned([7]);
        let mut b = bc();
        let mut out = Vec::new();
        // No anchor: messages only logged.
        for s in [0u32, 2, 3] {
            b.on_message(
                t(s as u64),
                id(s),
                BcastKind::Echo,
                id(2),
                v7,
                1,
                None,
                &mut out,
            );
        }
        assert!(out.is_empty());
        // Anchor arrives: the triplet is evaluated and accepted.
        b.on_anchor(t(10), t(0), &vals, &mut out);
        assert_eq!(accepts(&out), 1);
        assert!(sends(&out).contains(&BcastKind::InitPrime));
    }

    #[test]
    fn out_of_membership_ids_rejected() {
        let (_, [v7]) = interned([7]);
        // Regression: dense per-sender storage must never allocate for
        // ids outside the fixed membership fed through the public API.
        let mut b = bc();
        let mut out = Vec::new();
        b.on_message(
            t(0),
            id(1_000_000),
            BcastKind::Echo,
            id(2),
            v7,
            1,
            Some(t(0)),
            &mut out,
        );
        b.on_message(
            t(0),
            id(2),
            BcastKind::Echo,
            id(1_000_000),
            v7,
            1,
            Some(t(0)),
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(b.triplet_count(), 0);
    }

    #[test]
    fn bogus_rounds_rejected() {
        let (_, [v7]) = interned([7]);
        let p = params4();
        let mut b = bc();
        let mut out = Vec::new();
        b.on_message(
            t(0),
            id(2),
            BcastKind::Echo,
            id(2),
            v7,
            0,
            Some(t(0)),
            &mut out,
        );
        b.on_message(
            t(0),
            id(2),
            BcastKind::Echo,
            id(2),
            v7,
            p.max_round() + 1,
            Some(t(0)),
            &mut out,
        );
        assert!(out.is_empty());
        assert!(!b.accepted(id(2), 0, v7));
    }

    #[test]
    fn cleanup_decays_triplets() {
        let (_, [v7]) = interned([7]);
        let p = params4();
        let mut b = bc();
        let mut out = Vec::new();
        b.on_message(t(0), id(2), BcastKind::Echo, id(2), v7, 1, None, &mut out);
        b.cleanup(t(0) + p.msgd_horizon() + Duration::from_nanos(1));
        // Everything decayed; a fresh echo starts from zero.
        b.on_message(
            t(0) + p.msgd_horizon() + Duration::from_nanos(2),
            id(3),
            BcastKind::Echo,
            id(2),
            v7,
            1,
            Some(t(0) + p.msgd_horizon()),
            &mut out,
        );
        assert!(sends(&out).is_empty(), "old echo must not count");
    }

    #[test]
    fn cleanup_drops_future_residue() {
        let (_, [v7]) = interned([7]);
        let mut b = bc();
        b.corrupt_triplet(id(2), 1, v7, BcastKind::Echo, id(0), t(999_999_999));
        b.broadcasters.insert(id(3), t(999_999_999));
        b.cleanup(t(0));
        assert_eq!(b.broadcaster_count(), 0);
        let mut out = Vec::new();
        // Two fresh echoes should now be exactly a weak quorum (the bogus
        // future echo from id(0) is gone).
        b.on_message(
            t(1),
            id(1),
            BcastKind::Echo,
            id(2),
            v7,
            1,
            Some(t(0)),
            &mut out,
        );
        assert!(sends(&out).is_empty());
        b.on_message(
            t(2),
            id(3),
            BcastKind::Echo,
            id(2),
            v7,
            1,
            Some(t(0)),
            &mut out,
        );
        assert_eq!(sends(&out), vec![BcastKind::InitPrime]);
    }

    #[test]
    fn planted_residue_expires_in_one_cleanup() {
        // Every planted stamp lies before now + 2Δ_rmv; one cleanup past
        // that plus the msgd horizon leaves no triplet and no broadcaster.
        let p = params4();
        let now = t(0);
        let (mut vals, mut e) = (ValueInterner::new(), xorshift(3));
        let mut gen = |e: &mut dyn Entropy| e.next_u64() % 4;
        let mut g = Garbage::new(now, p.delta_rmv(), &mut e, &mut gen, &mut vals);
        let mut b = bc();
        for _ in 0..16 {
            let v = g.value();
            b.plant(&mut g, &v);
        }
        assert!(b.triplet_count() > 0 && b.broadcaster_count() > 0);
        b.cleanup(now + p.delta_rmv() * 2u64 + p.msgd_horizon());
        assert_eq!(b.triplet_count(), 0);
        assert_eq!(b.broadcaster_count(), 0);
    }

    /// The rendered protocol state names triplets by key and lists only
    /// occupied senders, so the same state renders the same whichever
    /// strides hold it and whatever a reused stride held before.
    #[test]
    fn render_ignores_slab_layout() {
        let (vals, [v7, v8]) = interned([7, 8]);
        let p = params4();
        let echo = |b: &mut MsgdBroadcast, at: LocalTime, s: u32, value: ValueId| {
            b.on_message(
                at,
                id(s),
                BcastKind::Echo,
                id(2),
                value,
                1,
                None,
                &mut Vec::new(),
            );
        };
        let late = t(0) + p.msgd_horizon() + Duration::from_nanos(1);
        // `a` opens a triplet for 8, lets it decay, then opens 7 in the
        // released stride; `b` opens 7 and then 8 afresh.
        let mut a = bc();
        echo(&mut a, t(0), 0, v8);
        echo(&mut a, t(0), 3, v8);
        a.cleanup(late);
        echo(&mut a, late, 3, v7);
        echo(&mut a, late, 1, v8);
        let mut b = bc();
        echo(&mut b, late, 1, v8);
        echo(&mut b, late, 3, v7);
        assert_ne!(a.index, b.index, "the layouts differ");
        let (mut ra, mut rb) = (String::new(), String::new());
        a.render(&vals, &mut ra);
        b.render(&vals, &mut rb);
        assert_eq!(ra, rb);
    }

    #[test]
    fn reset_clears_everything() {
        let (_, [v7]) = interned([7]);
        let mut b = bc();
        let mut out = Vec::new();
        for s in [0u32, 2, 3] {
            b.on_message(
                t(1),
                id(s),
                BcastKind::InitPrime,
                id(2),
                v7,
                1,
                Some(t(0)),
                &mut out,
            );
        }
        assert_eq!(b.broadcaster_count(), 1);
        b.reset();
        assert_eq!(b.broadcaster_count(), 0);
        assert!(!b.accepted(id(2), 1, v7));
    }
}
