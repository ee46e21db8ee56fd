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

use std::fmt::Write;

use ssbyz_types::{DenseNodeMap, LocalTime, NodeId, Value};

use crate::corrupt::{Entropy, Garbage};
use crate::intern::{ValueId, ValueIdMap, ValueInterner};
use crate::message::BcastKind;
use crate::params::Params;
use crate::store::{Due, StampLog};

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

/// Per-triplet message state.
#[derive(Debug, Clone, Default)]
struct TripletState {
    /// Arrival of `(init, p, m, k)` from `p` itself.
    init_from_p: Option<LocalTime>,
    echo: StampLog,
    init_prime: StampLog,
    echo_prime: StampLog,
    /// "Nodes send specific messages only once."
    sent: [bool; 4],
    accepted_at: Option<LocalTime>,
    /// Most recent arrival, for decay.
    touched: Option<LocalTime>,
}

impl TripletState {
    fn is_dormant(&self) -> bool {
        self.init_from_p.is_none()
            && self.echo.is_empty()
            && self.init_prime.is_empty()
            && self.echo_prime.is_empty()
            && self.accepted_at.is_none()
            && !self.sent.iter().any(|b| *b)
    }
}

/// One broadcaster's per-round triplet states for a single value, indexed
/// flat by `round − 1` (rounds are validated to `1..=max_round`, so the
/// vector stays tiny: `f + 1` slots at most).
#[derive(Debug, Clone, Default)]
struct RoundSlots {
    rounds: Vec<Option<TripletState>>,
}

impl RoundSlots {
    fn get(&self, round: u32) -> Option<&TripletState> {
        self.rounds
            .get((round as usize).wrapping_sub(1))
            .and_then(Option::as_ref)
    }

    fn get_mut(&mut self, round: u32) -> Option<&mut TripletState> {
        self.rounds
            .get_mut((round as usize).wrapping_sub(1))
            .and_then(Option::as_mut)
    }

    /// Creates the slot for `round` if missing; returns whether it was
    /// newly created (so the owner can maintain its triplet counter).
    fn ensure(&mut self, round: u32) -> (&mut TripletState, bool) {
        let idx = round as usize - 1;
        if idx >= self.rounds.len() {
            self.rounds.resize_with(idx + 1, || None);
        }
        let slot = &mut self.rounds[idx];
        let fresh = slot.is_none();
        if fresh {
            *slot = Some(TripletState::default());
        }
        (slot.as_mut().expect("just filled"), fresh)
    }

    fn is_empty(&self) -> bool {
        self.rounds.iter().all(Option::is_none)
    }
}

/// Cap on tracked triplets per agreement instance (Byzantine nodes can mint
/// triplets; the legitimate count is ≤ n·(f+1) per value in play).
pub const MAX_TRACKED_TRIPLETS: usize = 4096;

/// One node's `msgd-broadcast` machinery inside the agreement instance of
/// one General.
///
/// The per-value triplet table is a dense [`ValueIdMap`] of dense
/// per-broadcaster round tables, so a delivered echo reaches its triplet
/// state with three array indexings and no tree walk.
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
    triplets: ValueIdMap<DenseNodeMap<RoundSlots>>,
    /// Live [`TripletState`] count across all values (memory bound).
    triplet_count: usize,
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
            triplets: ValueIdMap::new(),
            triplet_count: 0,
            broadcasters: DenseNodeMap::with_capacity(params.n()),
            due: Due::Never,
        }
    }

    fn triplet(&self, broadcaster: NodeId, round: u32, value: ValueId) -> Option<&TripletState> {
        self.triplets
            .get(value)
            .and_then(|pv| pv.get(broadcaster))
            .and_then(|slots| slots.get(round))
    }

    fn triplet_entry<'a>(
        triplets: &'a mut ValueIdMap<DenseNodeMap<RoundSlots>>,
        triplet_count: &mut usize,
        broadcaster: NodeId,
        round: u32,
        value: ValueId,
    ) -> &'a mut TripletState {
        let per_value = triplets.get_or_insert_with(value, DenseNodeMap::new);
        let slots = per_value.get_or_insert_with(broadcaster, RoundSlots::default);
        let (st, fresh) = slots.ensure(round);
        if fresh {
            *triplet_count += 1;
        }
        st
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
        let me = self.me;
        let st = Self::triplet_entry(
            &mut self.triplets,
            &mut self.triplet_count,
            me,
            round,
            value,
        );
        if st.sent[BcastKind::Init as usize] {
            return;
        }
        st.sent[BcastKind::Init as usize] = true;
        st.touched = Some(now);
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
    /// arrivals then land in one bulk [`StampLog::record_wave`] pass
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
        if self.triplet_count >= MAX_TRACKED_TRIPLETS
            && self.triplet(broadcaster, round, value).is_none()
        {
            return; // bound memory against triplet-minting adversaries
        }
        {
            let st = Self::triplet_entry(
                &mut self.triplets,
                &mut self.triplet_count,
                broadcaster,
                round,
                value,
            );
            st.touched = Some(now);
            match kind {
                BcastKind::Init => {
                    if first == broadcaster && st.init_from_p.is_none() {
                        st.init_from_p = Some(now);
                    }
                }
                BcastKind::Echo => st.echo.record(now, first),
                BcastKind::InitPrime => st.init_prime.record(now, first),
                BcastKind::EchoPrime => st.echo_prime.record(now, first),
            }
            if st.is_dormant() {
                // An init relayed by anyone but the broadcaster records
                // nothing: the fresh triplet is removable at once.
                self.due = Due::Now;
            } else {
                // Every stamp of this wave is `now`.
                self.due.lower(now + self.params.msgd_horizon());
            }
        }
        if let Some(anchor) = anchor {
            self.evaluate_triplet(now, anchor, broadcaster, round, value, out);
        }
        if rest.is_empty() {
            return;
        }
        {
            let st = self
                .triplets
                .get_mut(value)
                .and_then(|pv| pv.get_mut(broadcaster))
                .and_then(|slots| slots.get_mut(round))
                .expect("triplet recorded above cannot vanish mid-wave");
            match kind {
                BcastKind::Init => {
                    // Only an init from the broadcaster itself counts (W2).
                    for &s in rest {
                        if s == broadcaster && st.init_from_p.is_none() {
                            st.init_from_p = Some(now);
                        }
                    }
                }
                BcastKind::Echo => st.echo.record_wave(now, rest),
                BcastKind::InitPrime => st.init_prime.record_wave(now, rest),
                BcastKind::EchoPrime => st.echo_prime.record_wave(now, rest),
            }
        }
        if let Some(anchor) = anchor {
            self.evaluate_triplet(now, anchor, broadcaster, round, value, out);
        }
    }

    /// Called when the anchor `τ_G` becomes known: evaluates every logged
    /// triplet against it, in ascending `(value, broadcaster, round)`
    /// order — values compared in `V`'s order through the interner, so
    /// the output sequence does not depend on id assignment.
    pub fn on_anchor<V: Value>(
        &mut self,
        now: LocalTime,
        anchor: LocalTime,
        interner: &ValueInterner<V>,
        out: &mut Vec<MsgdAction<ValueId>>,
    ) {
        let mut keys: Vec<(NodeId, u32, ValueId)> = self
            .triplets
            .iter()
            .flat_map(|(v, pv)| {
                pv.iter().flat_map(move |(p, slots)| {
                    slots
                        .rounds
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.is_some())
                        .map(move |(i, _)| (p, i as u32 + 1, v))
                })
            })
            .collect();
        keys.sort_by(|a, b| {
            interner
                .resolve(a.2)
                .cmp(interner.resolve(b.2))
                .then(a.0.cmp(&b.0))
                .then(a.1.cmp(&b.1))
        });
        for (p, k, v) in keys {
            self.evaluate_triplet(now, anchor, p, k, v, out);
        }
    }

    /// Runs blocks W–Z for one triplet.
    fn evaluate_triplet(
        &mut self,
        now: LocalTime,
        anchor: LocalTime,
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
        let Some(st) = self
            .triplets
            .get_mut(value)
            .and_then(|pv| pv.get_mut(broadcaster))
            .and_then(|slots| slots.get_mut(round))
        else {
            return;
        };
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
            if st.echo.distinct_total() >= weak && !st.sent[BcastKind::InitPrime as usize] {
                st.sent[BcastKind::InitPrime as usize] = true;
                send(BcastKind::InitPrime, out);
            }
            if st.echo.distinct_total() >= strong && st.accepted_at.is_none() {
                st.accepted_at = Some(now);
                accepted = true;
            }
        }
        // Block Y — by τ_G + (2k+2)Φ.
        if elapsed <= phi * (2 * k + 2) {
            if st.init_prime.distinct_total() >= weak && !self.broadcasters.contains(broadcaster) {
                detected = true;
            }
            if st.init_prime.distinct_total() >= strong && !st.sent[BcastKind::EchoPrime as usize] {
                st.sent[BcastKind::EchoPrime as usize] = true;
                send(BcastKind::EchoPrime, out);
            }
        }
        // Block Z — untimed.
        if st.echo_prime.distinct_total() >= weak && !st.sent[BcastKind::EchoPrime as usize] {
            st.sent[BcastKind::EchoPrime as usize] = true;
            send(BcastKind::EchoPrime, out);
        }
        if st.echo_prime.distinct_total() >= strong && st.accepted_at.is_none() {
            st.accepted_at = Some(now);
            accepted = true;
        }
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
    /// buffered before the anchor exists. O(1): maintained incrementally.
    #[must_use]
    pub fn triplet_count(&self) -> usize {
        self.triplet_count
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
        let mut removed = 0usize;
        self.triplets.retain(|_, per_value| {
            per_value.retain(|_, slots| {
                for slot in &mut slots.rounds {
                    let Some(st) = slot.as_mut() else { continue };
                    st.echo.prune(now, horizon);
                    st.init_prime.prune(now, horizon);
                    st.echo_prime.prune(now, horizon);
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
                    if st.is_dormant() {
                        *slot = None;
                        removed += 1;
                    }
                }
                !slots.is_empty()
            });
            !per_value.is_empty()
        });
        self.triplet_count -= removed;
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
        for per_value in self.triplets.values() {
            for st in per_value.values().flat_map(|s| s.rounds.iter().flatten()) {
                for t in [st.init_from_p, st.accepted_at, st.touched]
                    .into_iter()
                    .flatten()
                {
                    due.lower(t + horizon);
                }
                for log in [&st.echo, &st.init_prime, &st.echo_prime] {
                    log.lower_due(horizon, &mut due);
                }
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
    /// `1..=max_round`).
    fn corrupt_triplet(
        &mut self,
        broadcaster: NodeId,
        round: u32,
        value: ValueId,
        kind: BcastKind,
        sender: NodeId,
        stamp: LocalTime,
    ) {
        let st = Self::triplet_entry(
            &mut self.triplets,
            &mut self.triplet_count,
            broadcaster,
            round,
            value,
        );
        match kind {
            BcastKind::Init => st.init_from_p = Some(stamp),
            BcastKind::Echo => st.echo.inject_raw(sender, stamp),
            BcastKind::InitPrime => st.init_prime.inject_raw(sender, stamp),
            BcastKind::EchoPrime => st.echo_prime.inject_raw(sender, stamp),
        }
        st.touched = Some(stamp);
    }

    /// Drops all state (3d after the surrounding agreement returned).
    pub fn reset(&mut self) {
        self.triplets.clear();
        self.triplet_count = 0;
        self.broadcasters.clear();
        self.due = Due::Never;
    }

    /// Marks every id this instance still references, for the engine's
    /// interner sweep.
    pub(crate) fn mark_live<V: Value>(&self, interner: &mut ValueInterner<V>) {
        for id in self.triplets.keys() {
            interner.mark(id);
        }
    }

    /// Appends the protocol state, ids resolved, the due left out.
    pub(crate) fn render<V: Value>(&self, interner: &ValueInterner<V>, out: &mut String) {
        let _ = writeln!(
            out,
            "  msgd: {} triplets, broadcasters {:?}",
            self.triplet_count, self.broadcasters
        );
        for (id, per_value) in self.triplets.iter() {
            let _ = writeln!(out, "    {:?}: {per_value:?}", interner.show(id));
        }
    }

    /// Introspection: whether the triplet has been accepted.
    #[must_use]
    pub fn accepted(&self, broadcaster: NodeId, round: u32, value: ValueId) -> bool {
        self.triplet(broadcaster, round, value)
            .is_some_and(|st| st.accepted_at.is_some())
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
        assert!(b.triplets.is_empty());
        assert_eq!(b.triplet_count(), 0);
        assert_eq!(b.broadcaster_count(), 0);
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
