//! The `ss-Byz-Agree` protocol body (paper Fig. 1, §3).
//!
//! One [`Agreement`] value is node `q`'s state for the instance of a single
//! General `G`. Its life cycle:
//!
//! 1. `Initiator-Accept` produces an I-accept `⟨G, m′, τ_G⟩`; the engine
//!    feeds it to [`Agreement::on_i_accept`], which sets the anchor.
//! 2. **Block R** — if the I-accept is fresh (`τq − τ_G ≤ 4d`) the node
//!    decides immediately and relays via `msgd-broadcast(q, ⟨G, m′⟩, 1)`.
//! 3. **Block S** — otherwise the node decides once it has accepted a
//!    chain of `r` broadcasts `(p_i, ⟨G, m″⟩, i)`, `i = 1..r`, with
//!    pairwise-distinct broadcasters `p_i ≠ G`, within the round-`r`
//!    deadline; it then relays at round `r + 1`.
//! 4. **Block T** — early abort: once `τq > τ_G + (2r+1)Φ` with fewer than
//!    `r − 1` detected broadcasters, no chain can ever form — return ⊥.
//!    This is what makes termination `O(f′)` in the *actual* number of
//!    faults.
//! 5. **Block U** — hard stop at `τq > τ_G + (2f+1)Φ`.
//!
//! "At most one of blocks R through U is executed per setting of `τ_G`" —
//! enforced by the `returned` latch. After returning, the node keeps
//! relaying `msgd-broadcast` traffic for `3d` and then resets all state of
//! the execution (Fig. 1 cleanup).
//!
//! Values are interned [`ValueId`]s. Where the protocol leaves a choice
//! open and the outcome must not depend on id assignment — which of two
//! equally short chains block S decides on, the order buffered triplets
//! are evaluated in when a late anchor arrives — values are compared in
//! `V`'s own order through the owner's [`ValueInterner`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;

use ssbyz_types::{DenseNodeMap, Duration, LocalTime, NodeId, Value};

use crate::corrupt::{Entropy, Garbage};
use crate::intern::{ValueId, ValueIdMap, ValueInterner};
use crate::message::BcastKind;
use crate::msgd_broadcast::{MsgdAction, MsgdBroadcast};
use crate::params::Params;
use crate::store::Due;

/// Actions produced by the agreement layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AgrAction<V> {
    /// Broadcast a `msgd-broadcast` message to all nodes.
    SendBcast {
        /// Stage to send.
        kind: BcastKind,
        /// The triplet's broadcaster `p`.
        broadcaster: NodeId,
        /// The value `m`.
        value: V,
        /// The round `k`.
        round: u32,
    },
    /// The node stopped and returned. `decision` is `Some(m)` for a decide
    /// and `None` for an abort (⊥).
    Returned {
        /// Decided value, or ⊥.
        decision: Option<V>,
        /// The anchor this execution ran against.
        tau_g: LocalTime,
    },
    /// Ask the caller to schedule a wake-up at this local time (phase
    /// boundaries for blocks T/U, and the post-return reset).
    WakeAt(LocalTime),
    /// The execution's state was fully reset (3d after returning); a new
    /// execution for this General may now start.
    ExecutionReset,
}

/// The per-General agreement state machine at one node.
#[derive(Debug, Clone)]
pub struct Agreement {
    general: NodeId,
    params: Params,
    msgd: MsgdBroadcast,
    /// The anchor `τ_G` of the current execution.
    tau_g: Option<LocalTime>,
    /// Accepted broadcasts: value id → flat round table (index
    /// `round − 1`) → dense broadcaster map with accept times for decay.
    accepted: ValueIdMap<Vec<DenseNodeMap<LocalTime>>>,
    /// Set once one of blocks R/S/T/U executed: `(decision, at)`.
    returned: Option<(Option<ValueId>, LocalTime)>,
    /// When the post-return reset is due.
    reset_due: Option<LocalTime>,
    /// When the agreement-level part of [`Agreement::cleanup`] can next
    /// change anything (the embedded primitive keeps its own).
    due: Due,
}

impl Agreement {
    /// Creates a fresh instance for `general` at node `me`. It is due at
    /// once: an instance nothing gets written to is removable.
    #[must_use]
    pub fn new(me: NodeId, general: NodeId, params: Params) -> Self {
        Agreement {
            general,
            params,
            msgd: MsgdBroadcast::new(me, params),
            tau_g: None,
            accepted: ValueIdMap::new(),
            returned: None,
            reset_due: None,
            due: Due::Now,
        }
    }

    /// The General of this instance.
    #[must_use]
    pub fn general(&self) -> NodeId {
        self.general
    }

    /// The anchor of the current execution, if set.
    #[must_use]
    pub fn tau_g(&self) -> Option<LocalTime> {
        self.tau_g
    }

    /// Whether the node has returned (decided or aborted) this execution.
    #[must_use]
    pub fn has_returned(&self) -> bool {
        self.returned.is_some()
    }

    /// The decision of the current execution (as an interned id), if
    /// returned.
    #[must_use]
    pub fn decision(&self) -> Option<&Option<ValueId>> {
        self.returned.as_ref().map(|(d, _)| d)
    }

    /// Number of broadcasters detected so far ([TPS-4] feeding block T).
    #[must_use]
    pub fn broadcaster_count(&self) -> usize {
        self.msgd.broadcaster_count()
    }

    /// Read-only access to the embedded `msgd-broadcast` state.
    #[must_use]
    pub fn msgd(&self) -> &MsgdBroadcast {
        &self.msgd
    }

    /// Feeds the I-accept `⟨G, m′, τ_G⟩` from `Initiator-Accept`.
    ///
    /// `msgd_scratch` is a staging buffer for the embedded primitive's
    /// actions; it must arrive empty and is always fully drained before
    /// returning. Pooled callers reuse one buffer across calls
    /// ([`Outbox`](crate::Outbox) owns it); one-shot callers pass
    /// `&mut Vec::new()`.
    pub fn on_i_accept<V: Value>(
        &mut self,
        now: LocalTime,
        value: ValueId,
        tau_g: LocalTime,
        interner: &ValueInterner<V>,
        msgd_scratch: &mut Vec<MsgdAction<ValueId>>,
        out: &mut Vec<AgrAction<ValueId>>,
    ) {
        if self.returned.is_some() || self.tau_g.is_some() {
            // At most one setting of τ_G per execution.
            return;
        }
        self.tau_g = Some(tau_g);
        if tau_g.is_after(now) {
            // An estimate planted in the future decays once it lies too
            // far ahead, which no bound on its age foresees.
            self.due = Due::Now;
        } else {
            self.due.lower(tau_g + self.params.agreement_horizon());
        }
        // Schedule the phase-boundary checks for blocks T and U.
        let eps = Duration::from_nanos(1);
        for r in 1..=self.params.f() as u64 {
            out.push(AgrAction::WakeAt(
                tau_g + self.params.phi() * (2 * r + 1) + eps,
            ));
        }
        out.push(AgrAction::WakeAt(tau_g + self.params.delta_agr() + eps));
        // Block R: fresh I-accept ⇒ decide immediately.
        if now.since_or_zero(tau_g) <= self.params.d() * 4u64 && !tau_g.is_after(now) {
            self.decide(now, value, 1, msgd_scratch, out);
        } else {
            // Late anchor: evaluate buffered broadcast messages now.
            self.msgd.on_anchor(now, tau_g, interner, msgd_scratch);
            self.absorb_msgd(now, interner, msgd_scratch, out);
        }
    }

    /// Feeds a `msgd-broadcast` wire message. `msgd_scratch` follows the
    /// same contract as in [`Agreement::on_i_accept`]: empty in, drained
    /// out.
    #[allow(clippy::too_many_arguments)]
    pub fn on_bcast<V: Value>(
        &mut self,
        now: LocalTime,
        sender: NodeId,
        kind: BcastKind,
        broadcaster: NodeId,
        value: ValueId,
        round: u32,
        interner: &ValueInterner<V>,
        msgd_scratch: &mut Vec<MsgdAction<ValueId>>,
        out: &mut Vec<AgrAction<ValueId>>,
    ) {
        self.msgd.on_message(
            now,
            sender,
            kind,
            broadcaster,
            value,
            round,
            self.tau_g,
            msgd_scratch,
        );
        self.absorb_msgd(now, interner, msgd_scratch, out);
    }

    /// Feeds one coalesced same-key wave of `msgd-broadcast`
    /// messages: all of `senders` claimed `(kind, broadcaster, value,
    /// round)` at the same instant. One primitive pass
    /// ([`MsgdBroadcast::on_wave`]) plus one absorb replaces the
    /// per-arrival loop; the action sequence emitted into `out` is
    /// bit-identical to calling [`Agreement::on_bcast`] per
    /// sender in order. (At most one `Accepted` can fire per same-key
    /// wave — the triplet latches — and no send can cross after it, so a
    /// single block-S pass at the end sees exactly the state the
    /// per-message path saw at its accept.)
    #[allow(clippy::too_many_arguments)]
    pub fn on_bcast_wave<V: Value>(
        &mut self,
        now: LocalTime,
        senders: &[NodeId],
        kind: BcastKind,
        broadcaster: NodeId,
        value: ValueId,
        round: u32,
        interner: &ValueInterner<V>,
        msgd_scratch: &mut Vec<MsgdAction<ValueId>>,
        out: &mut Vec<AgrAction<ValueId>>,
    ) {
        self.msgd.on_wave(
            now,
            senders,
            kind,
            broadcaster,
            value,
            round,
            self.tau_g,
            msgd_scratch,
        );
        self.absorb_msgd(now, interner, msgd_scratch, out);
    }

    /// Converts primitive actions into agreement actions, recording accepts
    /// and running block S. Drains `macts` completely (so the buffer can
    /// be reused for the decide relay and by later calls).
    fn absorb_msgd<V: Value>(
        &mut self,
        now: LocalTime,
        interner: &ValueInterner<V>,
        macts: &mut Vec<MsgdAction<ValueId>>,
        out: &mut Vec<AgrAction<ValueId>>,
    ) {
        let mut try_s = false;
        for act in macts.drain(..) {
            match act {
                MsgdAction::Send {
                    kind,
                    broadcaster,
                    value,
                    round,
                } => out.push(AgrAction::SendBcast {
                    kind,
                    broadcaster,
                    value,
                    round,
                }),
                MsgdAction::Accepted {
                    broadcaster,
                    value,
                    round,
                } => {
                    self.record_accepted(value, round, broadcaster, now);
                    try_s = true;
                }
                MsgdAction::BroadcasterDetected(_) => {}
            }
        }
        if try_s {
            self.try_block_s(now, interner, macts, out);
        }
    }

    /// Records one accepted broadcast in the flat per-round table.
    fn record_accepted(&mut self, value: ValueId, round: u32, broadcaster: NodeId, now: LocalTime) {
        if round == 0 || round > self.params.max_round() {
            return; // no legitimate chain uses such a round
        }
        let rounds = self.accepted.get_or_insert_with(value, Vec::new);
        let idx = round as usize - 1;
        if idx >= rounds.len() {
            rounds.resize_with(idx + 1, DenseNodeMap::new);
        }
        rounds[idx].insert(broadcaster, now);
        self.due.lower(now + self.params.agreement_horizon());
    }

    /// Block S: decide once a chain of `r` distinct-broadcaster accepts of
    /// one value exists within the round-`r` deadline. Among several
    /// decidable values the smallest `(relay round, value)` wins, values
    /// compared in `V`'s order through the interner.
    fn try_block_s<V: Value>(
        &mut self,
        now: LocalTime,
        interner: &ValueInterner<V>,
        msgd_scratch: &mut Vec<MsgdAction<ValueId>>,
        out: &mut Vec<AgrAction<ValueId>>,
    ) {
        if self.returned.is_some() {
            return;
        }
        let Some(tau_g) = self.tau_g else { return };
        let elapsed = now.since_or_zero(tau_g);
        let mut decision: Option<(ValueId, u32)> = None;
        for (value, rounds) in self.accepted.iter() {
            // Sender sets per round 1..: S requires p_i ≠ G (and the chain
            // uses each round exactly once with pairwise distinct senders).
            let mut sets: Vec<Vec<NodeId>> = Vec::new();
            // Chains are capped at r ≤ f: the S deadline for r = f equals
            // the U hard stop, and deciders relay at r + 1 ≤ f + 1.
            for r in 1..=self.params.f() as u32 {
                let senders: Vec<NodeId> = rounds
                    .get(r as usize - 1)
                    .map(|m| m.keys().filter(|p| *p != self.general).collect())
                    .unwrap_or_default();
                if senders.is_empty() {
                    break;
                }
                sets.push(senders);
            }
            let r = max_prefix_with_distinct_representatives(&sets);
            if r == 0 {
                continue;
            }
            let r64 = r as u64;
            if elapsed <= self.params.phi() * (2 * r64 + 1) {
                let next_round = r as u32 + 1;
                let better = match &decision {
                    Some((cur_v, cur)) => {
                        next_round < *cur
                            || (next_round == *cur
                                && interner.resolve(value) < interner.resolve(*cur_v))
                    }
                    None => true,
                };
                if better {
                    decision = Some((value, next_round));
                }
            }
        }
        if let Some((value, next_round)) = decision {
            self.decide(now, value, next_round, msgd_scratch, out);
        }
    }

    /// Blocks R3/S3 + return: relay the decision and stop.
    fn decide(
        &mut self,
        now: LocalTime,
        value: ValueId,
        relay_round: u32,
        msgd_scratch: &mut Vec<MsgdAction<ValueId>>,
        out: &mut Vec<AgrAction<ValueId>>,
    ) {
        let tau_g = self.tau_g.expect("decide requires an anchor");
        self.msgd.invoke(now, value, relay_round, msgd_scratch);
        for act in msgd_scratch.drain(..) {
            if let MsgdAction::Send {
                kind,
                broadcaster,
                value,
                round,
            } = act
            {
                out.push(AgrAction::SendBcast {
                    kind,
                    broadcaster,
                    value,
                    round,
                });
            }
        }
        self.finish(now, Some(value), tau_g, out);
    }

    fn finish(
        &mut self,
        now: LocalTime,
        decision: Option<ValueId>,
        tau_g: LocalTime,
        out: &mut Vec<AgrAction<ValueId>>,
    ) {
        self.returned = Some((decision, now));
        self.due.lower(now + self.params.agreement_horizon());
        let due = now + self.params.d() * 3u64;
        self.reset_due = Some(due);
        out.push(AgrAction::WakeAt(due));
        out.push(AgrAction::Returned { decision, tau_g });
    }

    /// Periodic/deadline tick: runs blocks T and U and the post-return
    /// reset.
    pub fn on_tick(&mut self, now: LocalTime, out: &mut Vec<AgrAction<ValueId>>) {
        // Post-return reset: 3d after returning, drop all execution state.
        if let Some(due) = self.reset_due {
            if now.is_at_or_after(due) {
                self.reset_execution();
                out.push(AgrAction::ExecutionReset);
                return;
            }
        }
        if self.returned.is_some() {
            return;
        }
        let Some(tau_g) = self.tau_g else { return };
        let elapsed = now.since_or_zero(tau_g);
        // Block U — hard deadline.
        if elapsed > self.params.delta_agr() {
            self.finish(now, None, tau_g, out);
            return;
        }
        // Block T — early abort when broadcaster detection has stalled.
        let b = self.msgd.broadcaster_count();
        for r in 1..=self.params.f() as u64 {
            if elapsed > self.params.phi() * (2 * r + 1) && b + 1 < r as usize {
                self.finish(now, None, tau_g, out);
                return;
            }
        }
    }

    /// Decay of agreement-level state (Fig. 1 cleanup: "erase any value or
    /// message older than (2f + 1)Φ + 3d") plus the primitive's own decay.
    /// Returns whether either walk released anything (see
    /// `Agreement::decay`).
    pub fn cleanup(&mut self, now: LocalTime) -> bool {
        self.decay(now, true, &mut 0)
    }

    /// The decay pass's share of this instance: the agreement-level state
    /// and the embedded primitive are each walked when `full` or once their
    /// due has passed, counting walks into `walks`. Returns whether a walk
    /// dropped an entry, reset the execution or was forced — any of which
    /// may release value ids or leave the instance removable.
    pub(crate) fn decay(&mut self, now: LocalTime, full: bool, walks: &mut u64) -> bool {
        let mut released = false;
        if full || self.due.reached(now) {
            *walks += 1;
            released |= self.decay_own(now);
        }
        if full || self.msgd.due().reached(now) {
            *walks += 1;
            released |= self.msgd.cleanup(now);
        }
        released
    }

    fn decay_own(&mut self, now: LocalTime) -> bool {
        let forced = self.due == Due::Now;
        let horizon = self.params.agreement_horizon();
        let values = self.accepted.len();
        for rounds in self.accepted.values_mut() {
            for senders in rounds.iter_mut() {
                senders.retain(|_, t| !t.is_after(now) && now.since(*t) <= horizon);
            }
            while rounds.last().is_some_and(DenseNodeMap::is_empty) {
                rounds.pop();
            }
        }
        self.accepted
            .retain(|_, rounds| rounds.iter().any(|m| !m.is_empty()));
        let mut reset = false;
        // A bogus (future or ancient) anchor with no returned execution
        // decays too — otherwise a corrupted τ_G could wedge the instance.
        if let Some(tau_g) = self.tau_g {
            if self.returned.is_none()
                && (tau_g.is_after(now) && tau_g.since(now) > horizon
                    || now.since_or_zero(tau_g) > horizon)
            {
                self.reset_execution();
                reset = true;
            }
        }
        if let Some((_, at)) = &self.returned {
            if at.is_after(now) || now.since(*at) > horizon {
                self.reset_execution();
                reset = true;
            }
        }
        self.due = self.next_due();
        forced || reset || self.accepted.len() < values
    }

    /// The exact due of the agreement-level state as it stands. A kept
    /// anchor ahead of `now` ages from its own stamp too.
    fn next_due(&self) -> Due {
        let horizon = self.params.agreement_horizon();
        let mut due = Due::Never;
        for senders in self.accepted.values().flatten() {
            for (_, &t) in senders.iter() {
                due.lower(t + horizon);
            }
        }
        match (self.returned, self.tau_g) {
            (Some((_, at)), _) => due.lower(at + horizon),
            (None, Some(tau_g)) => due.lower(tau_g + horizon),
            (None, None) => {}
        }
        due
    }

    /// Plants transient-fault residue for one fabricated value: a
    /// coin-flipped anchor and returned state, up to `f + 1` fake accepts,
    /// then the embedded primitive's own residue. Every stamp lies within
    /// `2Δ_rmv` of the scramble's `now`, which [`Agreement::cleanup`]
    /// above must expire, from the next pass on. Returns whether anything
    /// was planted.
    pub(crate) fn plant<V: Value>(&mut self, g: &mut Garbage<'_, V>) -> bool {
        self.due = Due::Now;
        let (n, f) = (self.params.n(), self.params.f() as u64);
        let v = g.value();
        let mut planted = false;
        if g.chance(1, 2) {
            self.tau_g = Some(g.stamp());
            planted = true;
        }
        if g.chance(1, 3) {
            let at = g.stamp();
            let decision = g.chance(1, 2).then(|| {
                let dv = g.value();
                g.intern(&dv)
            });
            self.returned = Some((decision, at));
            self.reset_due = Some(at + self.params.d() * 3u64);
            planted = true;
        }
        let accepts = g.below(f + 2);
        for _ in 0..accepts {
            let round = g.below(f + 1) as u32 + 1;
            let broadcaster = g.node(n);
            let at = g.stamp();
            self.record_accepted(g.intern(&v), round, broadcaster, at);
        }
        let msgd_planted = self.msgd.plant(g, &v);
        planted || accepts > 0 || msgd_planted
    }

    /// Sets the anchor `τ_G`, as a late I-accept would.
    pub(crate) fn corrupt_anchor(&mut self, tau_g: LocalTime) {
        self.tau_g = Some(tau_g);
        self.due = Due::Now;
    }

    /// Makes this instance indistinguishable from
    /// `Agreement::new(me, general, params)` for its own node and General
    /// while its tables keep their capacity.
    pub(crate) fn recycle(&mut self) {
        self.reset_execution();
    }

    /// Drops every trace of the current execution. The instance may now
    /// be removable and its value ids unreferenced.
    fn reset_execution(&mut self) {
        self.tau_g = None;
        self.accepted.clear();
        self.returned = None;
        self.reset_due = None;
        self.msgd.reset();
        self.due = Due::Now;
    }

    /// Marks every id this instance still references, for the engine's
    /// interner sweep: accepted-broadcast keys, a pending decision held
    /// between return and reset, and the embedded primitive's triplets.
    pub(crate) fn mark_live<V: Value>(&self, interner: &mut ValueInterner<V>) {
        for id in self.accepted.keys() {
            interner.mark(id);
        }
        if let Some((Some(id), _)) = &self.returned {
            interner.mark(*id);
        }
        self.msgd.mark_live(interner);
    }

    /// Appends the protocol state, ids resolved, the dues left out.
    pub(crate) fn render<V: Value>(&self, interner: &ValueInterner<V>, out: &mut String) {
        let returned = self
            .returned
            .map(|(decision, at)| (decision.map(|id| interner.show(id)), at));
        let _ = writeln!(
            out,
            "agr {:?}: tau_g {:?}, returned {returned:?}, reset_due {:?}",
            self.general, self.tau_g, self.reset_due
        );
        for (id, rounds) in self.accepted.iter() {
            let _ = writeln!(out, "  accepted {:?}: {rounds:?}", interner.show(id));
        }
        self.msgd.render(interner, out);
    }
}

/// Computes the longest prefix `1..=r` of `sets` (0-indexed: `sets[i]` is
/// round `i + 1`) that admits a *system of distinct representatives* — a
/// choice of one sender per round, all pairwise distinct. Classic bipartite
/// matching via augmenting paths (rounds are few: `r ≤ f + 1`).
fn max_prefix_with_distinct_representatives(sets: &[Vec<NodeId>]) -> usize {
    let mut matched_to: BTreeMap<NodeId, usize> = BTreeMap::new();
    for (round_idx, _) in sets.iter().enumerate() {
        let mut visited: BTreeSet<NodeId> = BTreeSet::new();
        if !augment(sets, round_idx, &mut matched_to, &mut visited) {
            return round_idx;
        }
    }
    sets.len()
}

fn augment(
    sets: &[Vec<NodeId>],
    round_idx: usize,
    matched_to: &mut BTreeMap<NodeId, usize>,
    visited: &mut BTreeSet<NodeId>,
) -> bool {
    for &sender in &sets[round_idx] {
        if visited.contains(&sender) {
            continue;
        }
        visited.insert(sender);
        match matched_to.get(&sender).copied() {
            None => {
                matched_to.insert(sender, round_idx);
                return true;
            }
            Some(other) => {
                if augment(sets, other, matched_to, visited) {
                    matched_to.insert(sender, round_idx);
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corrupt::xorshift;
    use crate::intern::interned;

    const D: u64 = 10_000_000;

    fn params4() -> Params {
        Params::from_d(4, 1, Duration::from_nanos(D), 0).unwrap()
    }

    fn params7() -> Params {
        Params::from_d(7, 2, Duration::from_nanos(D), 0).unwrap()
    }

    fn t(n: u64) -> LocalTime {
        LocalTime::from_nanos(10_000 * D + n)
    }

    fn id(n: u32) -> NodeId {
        NodeId::new(n)
    }

    fn d() -> Duration {
        Duration::from_nanos(D)
    }

    fn returns(out: &[AgrAction<ValueId>]) -> Vec<(Option<ValueId>, LocalTime)> {
        out.iter()
            .filter_map(|a| match a {
                AgrAction::Returned { decision, tau_g } => Some((*decision, *tau_g)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn sdr_basic() {
        let a = id(1);
        let b = id(2);
        let c = id(3);
        assert_eq!(max_prefix_with_distinct_representatives(&[]), 0);
        assert_eq!(max_prefix_with_distinct_representatives(&[vec![a]]), 1);
        // Same single sender in both rounds: only round 1 matchable.
        assert_eq!(
            max_prefix_with_distinct_representatives(&[vec![a], vec![a]]),
            1
        );
        // Disjoint: both matchable.
        assert_eq!(
            max_prefix_with_distinct_representatives(&[vec![a], vec![b]]),
            2
        );
        // Needs the augmenting path: round1 = {a}, round2 = {a, b}.
        assert_eq!(
            max_prefix_with_distinct_representatives(&[vec![a], vec![a, b]]),
            2
        );
        // round1 = {a, b}, round2 = {a}, round3 = {b}: rounds 1..3 need
        // a ↦ 2, b ↦ 3 leaving nothing for 1 — wait, round1 can't use c.
        assert_eq!(
            max_prefix_with_distinct_representatives(&[vec![a, b], vec![a], vec![b]]),
            2
        );
        assert_eq!(
            max_prefix_with_distinct_representatives(&[vec![a, b, c], vec![a], vec![b]]),
            3
        );
    }

    #[test]
    fn block_r_decides_on_fresh_accept() {
        let (vals, [v7]) = interned([7]);
        let mut agr = Agreement::new(id(1), id(0), params4());
        let mut out = Vec::new();
        let tau_g = t(0);
        agr.on_i_accept(
            t(0) + d() * 2u64,
            v7,
            tau_g,
            &vals,
            &mut Vec::new(),
            &mut out,
        );
        let rets = returns(&out);
        assert_eq!(rets, vec![(Some(v7), tau_g)]);
        // The decision was relayed with round 1.
        assert!(out.iter().any(|a| matches!(
            a,
            AgrAction::SendBcast {
                kind: BcastKind::Init,
                broadcaster,
                value,
                round: 1
            } if *broadcaster == id(1) && *value == v7
        )));
        assert!(agr.has_returned());
    }

    #[test]
    fn block_r_rejects_stale_accept() {
        let (vals, [v7]) = interned([7]);
        let mut agr = Agreement::new(id(1), id(0), params4());
        let mut out = Vec::new();
        let tau_g = t(0);
        // I-accept arrives 5d after the anchor: R is skipped.
        agr.on_i_accept(
            t(0) + d() * 5u64,
            v7,
            tau_g,
            &vals,
            &mut Vec::new(),
            &mut out,
        );
        assert!(returns(&out).is_empty());
        assert_eq!(agr.tau_g(), Some(tau_g));
    }

    #[test]
    fn second_i_accept_ignored() {
        let (vals, [v7, v9]) = interned([7, 9]);
        let mut agr = Agreement::new(id(1), id(0), params4());
        let mut out = Vec::new();
        agr.on_i_accept(
            t(0) + d() * 5u64,
            v7,
            t(0),
            &vals,
            &mut Vec::new(),
            &mut out,
        );
        agr.on_i_accept(
            t(1) + d() * 5u64,
            v9,
            t(1),
            &vals,
            &mut Vec::new(),
            &mut out,
        );
        assert_eq!(agr.tau_g(), Some(t(0)), "one τ_G per execution");
    }

    #[test]
    fn block_s_decides_from_chain() {
        let (vals, [v7]) = interned([7]);
        // Node 1 got a late anchor, then receives a full echo wave for a
        // round-1 broadcast by node 2 — a chain of length 1.
        let mut agr = Agreement::new(id(1), id(0), params4());
        let mut out = Vec::new();
        let tau_g = t(0);
        agr.on_i_accept(
            t(0) + d() * 5u64,
            v7,
            tau_g,
            &vals,
            &mut Vec::new(),
            &mut out,
        );
        assert!(returns(&out).is_empty());
        for s in [0u32, 2, 3] {
            agr.on_bcast(
                t(0) + d() * 6u64,
                id(s),
                BcastKind::Echo,
                id(2),
                v7,
                1,
                &vals,
                &mut Vec::new(),
                &mut out,
            );
        }
        let rets = returns(&out);
        assert_eq!(rets, vec![(Some(v7), tau_g)]);
        // Relayed at round 2.
        assert!(out.iter().any(|a| matches!(
            a,
            AgrAction::SendBcast {
                kind: BcastKind::Init,
                round: 2,
                ..
            }
        )));
    }

    #[test]
    fn block_s_ignores_chain_with_general_as_broadcaster() {
        let (vals, [v7]) = interned([7]);
        let mut agr = Agreement::new(id(1), id(0), params4());
        let mut out = Vec::new();
        agr.on_i_accept(
            t(0) + d() * 5u64,
            v7,
            t(0),
            &vals,
            &mut Vec::new(),
            &mut out,
        );
        // Echo wave for a broadcast by the *General* (id 0): p ≠ G fails.
        for s in [1u32, 2, 3] {
            agr.on_bcast(
                t(0) + d() * 6u64,
                id(s),
                BcastKind::Echo,
                id(0),
                v7,
                1,
                &vals,
                &mut Vec::new(),
                &mut out,
            );
        }
        assert!(returns(&out).is_empty());
    }

    #[test]
    fn block_s_deadline() {
        let (vals, [v7]) = interned([7]);
        let p = params4();
        let mut agr = Agreement::new(id(1), id(0), p);
        let mut out = Vec::new();
        let tau_g = t(0);
        agr.on_i_accept(
            t(0) + d() * 5u64,
            v7,
            tau_g,
            &vals,
            &mut Vec::new(),
            &mut out,
        );
        // Chain of 1 accepted after the (2·1+1)Φ deadline — via Z path.
        let late = tau_g + p.phi() * 3u64 + d();
        for s in [0u32, 2, 3] {
            agr.on_bcast(
                late,
                id(s),
                BcastKind::EchoPrime,
                id(2),
                v7,
                1,
                &vals,
                &mut Vec::new(),
                &mut out,
            );
        }
        assert!(
            returns(&out).is_empty(),
            "S must not decide past its deadline"
        );
    }

    #[test]
    fn block_u_aborts_at_hard_deadline() {
        let (vals, [v7]) = interned([7]);
        let p = params4();
        let mut agr = Agreement::new(id(1), id(0), p);
        let mut out = Vec::new();
        let tau_g = t(0);
        agr.on_i_accept(
            t(0) + d() * 5u64,
            v7,
            tau_g,
            &vals,
            &mut Vec::new(),
            &mut out,
        );
        agr.on_tick(tau_g + p.delta_agr(), &mut out);
        assert!(returns(&out).is_empty(), "not yet: τq = τ_G + Δ_agr");
        agr.on_tick(tau_g + p.delta_agr() + Duration::from_nanos(2), &mut out);
        assert_eq!(returns(&out), vec![(None, tau_g)]);
    }

    #[test]
    fn block_t_early_abort_with_stalled_broadcasters() {
        let (vals, [v7]) = interned([7]);
        // n=7, f=2 gives Δ_agr = 5Φ; block T can abort at 3Φ < 5Φ... for
        // r = 2: elapsed > 5Φ — equal to U here. Use r such that the early
        // abort genuinely precedes U: need f ≥ 2, check r = 2 at 5Φ vs
        // U at 5Φ. With f=2 T never beats U; with f=3 (n=10) T(r=2) at 5Φ
        // beats U at 7Φ.
        let p = Params::from_d(10, 3, Duration::from_nanos(D), 0).unwrap();
        let mut agr = Agreement::new(id(1), id(0), p);
        let mut out = Vec::new();
        let tau_g = t(0);
        agr.on_i_accept(
            t(0) + d() * 5u64,
            v7,
            tau_g,
            &vals,
            &mut Vec::new(),
            &mut out,
        );
        // No broadcasters at all: abort once elapsed > 5Φ (r = 2,
        // |broadcasters| = 0 < 1).
        agr.on_tick(tau_g + p.phi() * 5u64 + Duration::from_nanos(2), &mut out);
        assert_eq!(returns(&out), vec![(None, tau_g)]);
    }

    #[test]
    fn block_t_held_off_by_broadcasters() {
        let (vals, [v7]) = interned([7]);
        let p = Params::from_d(10, 3, Duration::from_nanos(D), 0).unwrap();
        let mut agr = Agreement::new(id(1), id(0), p);
        let mut out = Vec::new();
        let tau_g = t(0);
        agr.on_i_accept(
            t(0) + d() * 5u64,
            v7,
            tau_g,
            &vals,
            &mut Vec::new(),
            &mut out,
        );
        // One broadcaster detected: weak quorum (n − 2f = 4) of init′.
        for s in [0u32, 2, 3, 4] {
            agr.on_bcast(
                t(0) + d() * 6u64,
                id(s),
                BcastKind::InitPrime,
                id(2),
                v7,
                1,
                &vals,
                &mut Vec::new(),
                &mut out,
            );
        }
        assert_eq!(agr.broadcaster_count(), 1);
        agr.on_tick(tau_g + p.phi() * 5u64 + Duration::from_nanos(2), &mut out);
        assert!(returns(&out).is_empty(), "1 broadcaster ≥ r − 1 = 1");
        // But at the next boundary (r = 3, needs ≥ 2) it aborts.
        agr.on_tick(tau_g + p.phi() * 7u64 + Duration::from_nanos(2), &mut out);
        assert_eq!(returns(&out), vec![(None, tau_g)]);
    }

    #[test]
    fn reset_after_3d() {
        let (vals, [v7]) = interned([7]);
        let p = params4();
        let mut agr = Agreement::new(id(1), id(0), p);
        let mut out = Vec::new();
        let tau_g = t(0);
        let decide_at = t(0) + d() * 2u64;
        agr.on_i_accept(decide_at, v7, tau_g, &vals, &mut Vec::new(), &mut out);
        assert!(agr.has_returned());
        out.clear();
        agr.on_tick(decide_at + d() * 3u64 - Duration::from_nanos(1), &mut out);
        assert!(agr.has_returned(), "not yet reset");
        agr.on_tick(decide_at + d() * 3u64, &mut out);
        assert!(!agr.has_returned());
        assert_eq!(agr.tau_g(), None);
        assert!(out.contains(&AgrAction::ExecutionReset));
    }

    #[test]
    fn still_relays_between_return_and_reset() {
        let (vals, [v7]) = interned([7]);
        // After deciding, the node keeps serving msgd-broadcast for 3d.
        let p = params4();
        let mut agr = Agreement::new(id(1), id(0), p);
        let mut out = Vec::new();
        agr.on_i_accept(t(0) + d(), v7, t(0), &vals, &mut Vec::new(), &mut out);
        assert!(agr.has_returned());
        out.clear();
        // An init from node 2 still gets echoed.
        agr.on_bcast(
            t(0) + d() * 2u64,
            id(2),
            BcastKind::Init,
            id(2),
            v7,
            1,
            &vals,
            &mut Vec::new(),
            &mut out,
        );
        assert!(out.iter().any(|a| matches!(
            a,
            AgrAction::SendBcast {
                kind: BcastKind::Echo,
                ..
            }
        )));
        // ... but no second return can happen.
        assert!(returns(&out).is_empty());
    }

    #[test]
    fn cleanup_decays_bogus_anchor() {
        let p = params4();
        let mut agr = Agreement::new(id(1), id(0), p);
        // Transient fault planted an ancient anchor without a return.
        agr.corrupt_anchor(t(0));
        agr.cleanup(t(0) + p.agreement_horizon() + d());
        assert_eq!(agr.tau_g(), None);
        // And a future one.
        agr.corrupt_anchor(t(0) + p.agreement_horizon() * 2u64 + d() * 100u64);
        agr.cleanup(t(1));
        assert_eq!(agr.tau_g(), None);
    }

    #[test]
    fn cleanup_decays_accepted_records() {
        let (vals, [v7]) = interned([7]);
        let p = params4();
        let mut agr = Agreement::new(id(1), id(0), p);
        agr.record_accepted(v7, 1, id(2), t(0));
        agr.cleanup(t(0) + p.agreement_horizon() + d());
        let mut out = Vec::new();
        // The stale accept is gone: a late anchor + S re-check won't fire.
        agr.on_i_accept(
            t(0) + p.agreement_horizon() + d() * 7u64,
            v7,
            t(0) + p.agreement_horizon(),
            &vals,
            &mut Vec::new(),
            &mut out,
        );
        assert!(returns(&out).is_empty());
    }

    #[test]
    fn planted_residue_expires_in_one_cleanup() {
        // Every planted stamp lies before now + 2Δ_rmv; one cleanup past
        // that plus the longer of the agreement and msgd horizons leaves
        // the instance dormant.
        let p = params7();
        let now = t(0);
        let (mut vals, mut e) = (ValueInterner::new(), xorshift(5));
        let mut gen = |e: &mut dyn Entropy| e.next_u64() % 8;
        let mut g = Garbage::new(now, p.delta_rmv(), &mut e, &mut gen, &mut vals);
        let mut agr = Agreement::new(id(1), id(0), p);
        for _ in 0..16 {
            agr.plant(&mut g);
        }
        assert!(agr.tau_g().is_some() && agr.has_returned() && !agr.accepted.is_empty());
        assert!(agr.msgd.triplet_count() > 0 && agr.broadcaster_count() > 0);
        let horizon = p.agreement_horizon().max(p.msgd_horizon());
        agr.cleanup(now + p.delta_rmv() * 2u64 + horizon);
        assert_eq!(
            (agr.tau_g(), agr.returned, agr.reset_due),
            (None, None, None)
        );
        assert!(agr.accepted.is_empty());
        assert_eq!(agr.msgd.triplet_count(), 0);
        assert_eq!(agr.broadcaster_count(), 0);
    }

    #[test]
    fn u_abort_with_seven_nodes() {
        let (vals, [v7]) = interned([7]);
        let p = params7();
        let mut agr = Agreement::new(id(1), id(0), p);
        let mut out = Vec::new();
        let tau_g = t(0);
        agr.on_i_accept(
            t(0) + d() * 5u64,
            v7,
            tau_g,
            &vals,
            &mut Vec::new(),
            &mut out,
        );
        // Δ_agr = (2f+1)Φ = 5Φ for f=2.
        agr.on_tick(tau_g + p.phi() * 5u64 + Duration::from_nanos(2), &mut out);
        assert_eq!(returns(&out), vec![(None, tau_g)]);
    }

    #[test]
    fn corrupt_returned_resets_on_schedule() {
        let (_, [v3]) = interned([3]);
        let p = params4();
        let mut agr = Agreement::new(id(1), id(0), p);
        agr.returned = Some((Some(v3), t(0)));
        agr.reset_due = Some(t(0) + d() * 3u64);
        let mut out = Vec::new();
        agr.on_tick(t(0) + d() * 3u64, &mut out);
        assert!(!agr.has_returned(), "fake return decays via reset");
    }
}
