//! The `Initiator-Accept` primitive (paper Fig. 2, §4).
//!
//! `Initiator-Accept` makes all correct nodes associate a consistent local
//! time `τ_G` with the (possibly faulty) General's initiation and converge
//! on a single candidate value, without assuming any prior synchrony. Its
//! five blocks are:
//!
//! * **K** — invocation: on `(Initiator, G, m)` from `G`, validity-check
//!   the initiation against the node's timed guards and send `support`.
//! * **L** — windowed support aggregation; a weak quorum of supports in a
//!   short window produces the recording time (the future `τ_G`), a strong
//!   quorum produces `approve`.
//! * **M** — windowed approve aggregation; weak quorum arms the `ready`
//!   flag, strong quorum sends `ready`.
//! * **N** — *untimed* ready amplification; a strong quorum of `ready`
//!   yields the **I-accept** `⟨G, m, τ_G⟩`.
//! * **cleanup** — every variable and message decays, which is what makes
//!   the primitive self-stabilizing.
//!
//! The implementation is a pure state machine: callers feed `(local time,
//! sender, message)` and collect [`IaAction`]s. Values are interned
//! [`ValueId`]s — the [`Engine`](crate::Engine) owns the
//! [`ValueInterner`], interns each wire value once at its boundary and
//! resolves ids back to values only when it emits outputs.

use std::fmt::Write;

use ssbyz_types::{Duration, LocalTime, NodeId, Value};

use crate::corrupt::{Entropy, Garbage};
use crate::intern::{ValueId, ValueIdMap, ValueInterner};
use crate::message::IaKind;
use crate::params::Params;
use crate::store::{ArrivalLog, Due, TimedVar};

/// Actions produced by the primitive for the caller to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IaAction<V> {
    /// Broadcast an `Initiator-Accept` stage message to all nodes.
    Send {
        /// Which stage message.
        kind: IaKind,
        /// The value `m` it refers to.
        value: V,
    },
    /// Line N4 fired: the node I-accepts `⟨G, m, τ_G⟩`.
    Accepted {
        /// The accepted value `m`.
        value: V,
        /// The local-time estimate of the General's initiation.
        tau_g: LocalTime,
    },
}

/// The node's own sending progress for one value — used by a correct
/// General to detect failed initiations (criterion ``[IG3]``).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OwnProgress {
    /// When this node last sent `approve` for the value (line L4).
    pub approve_sent: Option<LocalTime>,
    /// When this node last sent `ready` for the value (lines M4/N2).
    pub ready_sent: Option<LocalTime>,
    /// When this node executed line N4 for the value.
    pub accepted_at: Option<LocalTime>,
}

/// Per-value state of the primitive.
#[derive(Debug, Clone, Default)]
struct ValueState {
    /// `i_values[G, m]`: the recorded local-time estimate.
    i_value: Option<LocalTime>,
    /// `last(G, m)` with change history for the `τq − d` query of line K1.
    last_gm: TimedVar<LocalTime>,
    /// The `ready(G, m)` flag, stamped for decay.
    ready_at: Option<LocalTime>,
    support: ArrivalLog,
    approve: ArrivalLog,
    ready: ArrivalLog,
    /// "ignore all (G, m) messages for 3d" after line N4.
    ignore_until: Option<LocalTime>,
    /// Last send time per [`IaKind`] (resend de-duplication + ``[IG3]``).
    sent: [Option<LocalTime>; 3],
    /// When this node executed N4 for this value.
    accepted_at: Option<LocalTime>,
    /// Most recent touch of any kind, for eviction.
    touched: Option<LocalTime>,
}

impl ValueState {
    /// The state of a new value `value`: its id's spare emptied to a
    /// default one's, the logs and guard history keeping their capacity,
    /// or a default one.
    fn from_spare(spare: &mut ValueIdMap<Box<ValueState>>, value: ValueId) -> Box<Self> {
        let Some(mut st) = spare.remove(value) else {
            return Box::default();
        };
        for log in [&mut st.support, &mut st.approve, &mut st.ready] {
            log.clear();
        }
        st.last_gm.forget();
        *st = ValueState {
            last_gm: std::mem::take(&mut st.last_gm),
            support: std::mem::take(&mut st.support),
            approve: std::mem::take(&mut st.approve),
            ready: std::mem::take(&mut st.ready),
            ..ValueState::default()
        };
        st
    }

    fn is_dormant(&self) -> bool {
        self.i_value.is_none()
            && self.ready_at.is_none()
            && self.support.is_empty()
            && self.approve.is_empty()
            && self.ready.is_empty()
            && self.ignore_until.is_none()
            && self.last_gm.is_fresh()
            && self.sent.iter().all(Option::is_none)
            && self.accepted_at.is_none()
    }

    fn log(&self, kind: IaKind) -> &ArrivalLog {
        match kind {
            IaKind::Support => &self.support,
            IaKind::Approve => &self.approve,
            IaKind::Ready => &self.ready,
        }
    }

    fn log_mut(&mut self, kind: IaKind) -> &mut ArrivalLog {
        match kind {
            IaKind::Support => &mut self.support,
            IaKind::Approve => &mut self.approve,
            IaKind::Ready => &mut self.ready,
        }
    }
}

/// One instance of the `Initiator-Accept` primitive: this node's view of
/// General `general`.
///
/// Per-value state lives in dense [`ValueIdMap`] slots, so the
/// per-delivery value lookup is an array index. The entry points that may
/// create state borrow the owner's interner read-only: bounding the
/// tracked values needs the values' *order* for its eviction tie-break.
///
/// # Example
///
/// Block K by hand, at one node of a 4-node system:
///
/// ```
/// use ssbyz_core::{IaAction, IaKind, InitiatorAccept, Params, ValueInterner};
/// use ssbyz_types::{Duration, LocalTime, NodeId};
///
/// let params = Params::from_d(4, 1, Duration::from_millis(10), 0)?;
/// let g = NodeId::new(0);
/// let mut values = ValueInterner::new();
/// let m = values.intern(&7u64);
/// let mut ia = InitiatorAccept::new(g, params);
/// let t0 = LocalTime::from_nanos(1_000_000_000);
/// let mut out = Vec::new();
/// ia.on_initiator(t0, m, &values, &mut out); // Block K fires → support sent
/// assert!(matches!(out[0], IaAction::Send { kind: IaKind::Support, .. }));
/// # Ok::<(), ssbyz_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct InitiatorAccept {
    general: NodeId,
    params: Params,
    /// Boxed, so the slots of absent ids cost a pointer each.
    values: ValueIdMap<Box<ValueState>>,
    /// `last(G)` with change history.
    last_g: TimedVar<LocalTime>,
    /// Times at which *this node* sent `(support, G, ·)` — line K1 window.
    own_support_times: Vec<LocalTime>,
    /// When [`InitiatorAccept::cleanup`] can next change anything.
    due: Due,
    /// The value states a [`InitiatorAccept::recycle`] dropped, by id: a
    /// new value with the same id reuses its spare, emptied, so the logs
    /// keep their capacity.
    spare: ValueIdMap<Box<ValueState>>,
}

impl InitiatorAccept {
    /// Creates a fresh instance (all variables ⊥, no messages).
    #[must_use]
    pub fn new(general: NodeId, params: Params) -> Self {
        InitiatorAccept {
            general,
            params,
            values: ValueIdMap::new(),
            last_g: TimedVar::new(),
            own_support_times: Vec::new(),
            due: Due::Never,
            spare: ValueIdMap::new(),
        }
    }

    /// The General this instance tracks.
    #[must_use]
    pub fn general(&self) -> NodeId {
        self.general
    }

    /// Block K: the primitive is explicitly invoked by an authenticated
    /// `(Initiator, G, m)` message from the General.
    pub fn on_initiator<V: Value>(
        &mut self,
        now: LocalTime,
        value: ValueId,
        interner: &ValueInterner<V>,
        out: &mut Vec<IaAction<ValueId>>,
    ) {
        if self.is_ignoring(value, now) {
            return;
        }
        let d = self.params.d();
        // K1 — all four guards.
        let other_i_value = self
            .values
            .iter()
            .any(|(v, st)| v != value && st.i_value.is_some());
        let last_g_set = self.last_g.get().is_some();
        let recent_own_support = self
            .own_support_times
            .iter()
            .any(|t| !t.is_after(now) && now.since(*t) <= d);
        let last_gm_set_d_ago = self
            .values
            .get(value)
            .is_some_and(|st| st.last_gm.at(now - d).is_some());
        if other_i_value || last_g_set || recent_own_support || last_gm_set_d_ago {
            return;
        }
        // K2 — record time (d before now: the message took up to d to
        // arrive), support the value, stamp last(G, m).
        let st = self.state_mut(now, value, interner);
        st.i_value = Some(now - d);
        st.last_gm.set(now, now);
        st.touched = Some(now);
        // The guard's history compaction is the nearest expiry set here.
        self.due.lower(now + d * 2u64);
        self.send(now, IaKind::Support, value, out);
        self.evaluate(now, value, out);
    }

    /// Feeds a stage message from an authenticated `sender`; runs blocks
    /// L/M/N for the value.
    pub fn on_message<V: Value>(
        &mut self,
        now: LocalTime,
        sender: NodeId,
        kind: IaKind,
        value: ValueId,
        interner: &ValueInterner<V>,
        out: &mut Vec<IaAction<ValueId>>,
    ) {
        if sender.index() >= self.params.n() {
            return; // sender outside the fixed membership
        }
        if self.is_ignoring(value, now) {
            return;
        }
        let st = self.state_mut(now, value, interner);
        st.log_mut(kind).record(now, sender);
        st.touched = Some(now);
        self.due.lower(now + self.params.delta_rmv());
        self.evaluate(now, value, out);
    }

    /// Runs lines L1–N4 for `value` against the current logs. Safe to call
    /// at any time.
    pub fn evaluate(&mut self, now: LocalTime, value: ValueId, out: &mut Vec<IaAction<ValueId>>) {
        let d = self.params.d();
        let weak = self.params.weak_quorum();
        let strong = self.params.quorum();
        let Some(st) = self.values.get_mut(value) else {
            return;
        };
        // Every line below that fires stamps last(G, m) at `now`; it is
        // stamped once, after them.
        let mut stamp_guard = false;

        // L1–L4 — one fused pass over the support log: the shortest
        // suffix window of ≤ 4d holding a weak quorum (L2 records
        // max(i_value, t_k − 2d)) and the 2d count that L3 holds against
        // the strong quorum. A window counts at most the log's senders,
        // so below a weak quorum of them in total neither line fires and
        // the pass is skipped; the same holds for M1–M4 below.
        let (tk, support_2d) = if st.support.distinct_total() < weak {
            (None, 0)
        } else {
            st.support
                .kth_latest_with_inner_count(now, d * 4u64, weak, d * 2u64)
        };
        if let Some(tk) = tk {
            let candidate = tk - d * 2u64;
            st.i_value = Some(match st.i_value {
                Some(cur) if cur.is_after(candidate) => cur,
                _ => candidate,
            });
            stamp_guard = true;
        }
        let mut send_approve = false;
        if support_2d >= strong {
            send_approve = true;
            stamp_guard = true;
        }
        // M1–M4 — one fused pass over the approve log: weak quorum within
        // 5d arms the ready flag, strong quorum within 3d sends ready.
        let (approve_5d, approve_3d) = if st.approve.distinct_total() < weak {
            (0, 0)
        } else {
            st.approve
                .distinct_in_nested_windows(now, d * 5u64, d * 3u64)
        };
        if approve_5d >= weak {
            st.ready_at = Some(now);
            stamp_guard = true;
        }
        let mut send_ready = false;
        if approve_3d >= strong {
            send_ready = true;
            stamp_guard = true;
        }
        // N1/N2 — untimed: armed + weak quorum of readys ⇒ amplify.
        if st.ready_at.is_some() && st.ready.distinct_total() >= weak {
            send_ready = true;
            stamp_guard = true;
        }
        if stamp_guard {
            st.last_gm.set(now, now);
            // The guard's history compaction comes first: the estimate
            // (at least `now − 6d`) and the ready flag are kept `Δ_rmv`.
            self.due.lower(now + d * 2u64);
        }
        // N3/N4 — armed + strong quorum of readys ⇒ I-accept.
        let mut accept: Option<LocalTime> = None;
        let mut flush_wave = false;
        if st.accepted_at.is_none() && st.ready_at.is_some() && st.ready.distinct_total() >= strong
        {
            if let Some(tau_g) = st.i_value {
                accept = Some(tau_g);
            } else {
                // Stabilization guard: a ready quorum without a recorded
                // i_value can only be transient-fault residue (the paper's
                // Lemma 2 shows the estimate is always defined once the
                // system is stable). Flush the bogus wave rather than
                // accept an undefined anchor.
                flush_wave = true;
            }
        }

        if send_approve {
            self.send(now, IaKind::Approve, value, out);
        }
        if send_ready {
            self.send(now, IaKind::Ready, value, out);
        }
        if flush_wave {
            let st = self.values.get_mut(value).expect("state exists");
            st.support.clear();
            st.approve.clear();
            st.ready.clear();
            st.ready_at = None;
            st.ignore_until = Some(now + d * 3u64);
            self.due.lower(now + d * 3u64);
        }
        if let Some(tau_g) = accept {
            self.do_accept(now, value, tau_g, out);
        }
    }

    /// Line N4 body.
    fn do_accept(
        &mut self,
        now: LocalTime,
        value: ValueId,
        tau_g: LocalTime,
        out: &mut Vec<IaAction<ValueId>>,
    ) {
        let d = self.params.d();
        // i_values[G, ∗] := ⊥ for every value.
        for st in self.values.values_mut() {
            st.i_value = None;
        }
        let st = self.values.get_mut(value).expect("state exists");
        st.support.clear();
        st.approve.clear();
        st.ready.clear();
        st.ignore_until = Some(now + d * 3u64);
        st.accepted_at = Some(now);
        st.last_gm.set(now, now);
        self.last_g.set(now, now);
        // Clearing every estimate can leave other values dormant.
        self.due = Due::Now;
        out.push(IaAction::Accepted { value, tau_g });
    }

    /// Whether `(G, m)` messages are currently being ignored (3d after an
    /// I-accept of `m`).
    #[must_use]
    pub fn is_ignoring(&self, value: ValueId, now: LocalTime) -> bool {
        self.values
            .get(value)
            .and_then(|st| st.ignore_until)
            .is_some_and(|until| until.is_after(now))
    }

    fn state_mut<V: Value>(
        &mut self,
        now: LocalTime,
        value: ValueId,
        interner: &ValueInterner<V>,
    ) -> &mut ValueState {
        if !self.values.contains(value) {
            if self.values.len() >= MAX_TRACKED_VALUES {
                // Evict the least-recently-touched value to bound memory
                // under a value-minting Byzantine General; among equally
                // old ones, the largest value in `V`'s order (ids are
                // arrival-order artefacts, so the tie-break resolves
                // through the interner).
                let age = |st: &ValueState| {
                    st.touched
                        .map_or(u64::MAX, |t| now.since_or_zero(t).as_nanos())
                };
                let evict = self.values.iter().max_by(|(a, sa), (b, sb)| {
                    age(sa)
                        .cmp(&age(sb))
                        .then_with(|| interner.resolve(*a).cmp(interner.resolve(*b)))
                });
                if let Some((v, _)) = evict {
                    self.values.remove(v);
                    // The evicted value's id is no longer referenced.
                    self.due = Due::Now;
                }
            }
            let fresh = ValueState::from_spare(&mut self.spare, value);
            self.values.insert(value, fresh);
        }
        self.values.get_mut(value).expect("just ensured present")
    }

    fn send(
        &mut self,
        now: LocalTime,
        kind: IaKind,
        value: ValueId,
        out: &mut Vec<IaAction<ValueId>>,
    ) {
        // The paper permits repeated sending ("we ignore possible
        // optimizations that can save such repetitive sending"); resends
        // of the same stage message within `d` are such a saving.
        let gap = self.params.d();
        let st = self.values.get_mut(value).expect("send requires state");
        let slot = &mut st.sent[kind as usize];
        if slot.is_some_and(|last| !last.is_after(now) && now.since(last) < gap) {
            return;
        }
        *slot = Some(now);
        let kept = if kind == IaKind::Support {
            self.own_support_times.push(now);
            gap * 2u64
        } else {
            self.params.delta_rmv()
        };
        self.due.lower(now + kept);
        out.push(IaAction::Send { kind, value });
    }

    /// Fig. 2 cleanup: decays every message, value and guard variable.
    /// Entries stamped in the future of `now` are treated as transient
    /// residue and dropped. Recomputes the instance's due exactly, and
    /// returns whether the walk dropped a value or was forced by a write
    /// that did (either way, ids may have been released).
    pub fn cleanup(&mut self, now: LocalTime) -> bool {
        let forced = self.due == Due::Now;
        let p = self.params;
        let d = p.d();
        let rmv = p.delta_rmv();
        let expired = |t: Option<LocalTime>, horizon: Duration| {
            t.is_some_and(|t| t.is_after(now) || now.since(t) > horizon)
        };
        for st in self.values.values_mut() {
            st.support.prune(now, rmv);
            st.approve.prune(now, rmv);
            st.ready.prune(now, rmv);
            if expired(st.i_value, rmv) {
                st.i_value = None;
            }
            if expired(st.ready_at, rmv) {
                st.ready_at = None;
            }
            if let Some(until) = st.ignore_until {
                // Expired, or stamped absurdly far in the future.
                if !until.is_after(now) || until.since(now) > d * 3u64 {
                    st.ignore_until = None;
                }
            }
            for slot in &mut st.sent {
                if expired(*slot, rmv) {
                    *slot = None;
                }
            }
            if expired(st.accepted_at, rmv) {
                st.accepted_at = None;
            }
            // last(G, m) expiry: > τq or < τq − (2Δ_rmv + 9d). Line K1
            // only ever queries the history at τq − d: superseded entries
            // past 2d of lookback are dead weight minted at spam rate —
            // compact them.
            st.last_gm.expire(now, p.last_gm_expiry(), d * 2u64);
            if expired(st.touched, rmv * 2u64 + d * 16u64) {
                st.touched = None;
            }
        }
        let tracked = self.values.len();
        self.values.retain(|_, st| !st.is_dormant());
        // last(G) expiry: > τq or < τq − (Δ0 − 6d).
        self.last_g.expire(now, p.last_g_expiry(), d * 2u64);
        self.own_support_times
            .retain(|t| !t.is_after(now) && now.since(*t) <= d * 2u64);
        self.due = self.next_due();
        forced || self.values.len() < tracked
    }

    /// The exact due of the state as it stands, one term per decay rule
    /// of [`InitiatorAccept::cleanup`] above.
    fn next_due(&self) -> Due {
        let p = self.params;
        let (d, rmv) = (p.d(), p.delta_rmv());
        let mut due = Due::Never;
        for st in self.values.values() {
            for log in [&st.support, &st.approve, &st.ready] {
                log.lower_due(rmv, &mut due);
            }
            let stamps = [st.i_value, st.ready_at, st.accepted_at];
            for t in stamps.into_iter().chain(st.sent).flatten() {
                due.lower(t + rmv);
            }
            if let Some(until) = st.ignore_until {
                due.lower(until);
            }
            st.last_gm.lower_due(p.last_gm_expiry(), d * 2u64, &mut due);
            if let Some(t) = st.touched {
                due.lower(t + rmv * 2u64 + d * 16u64);
            }
        }
        self.last_g.lower_due(p.last_g_expiry(), d * 2u64, &mut due);
        for &t in &self.own_support_times {
            due.lower(t + d * 2u64);
        }
        due
    }

    /// When [`InitiatorAccept::cleanup`] can next change anything.
    pub(crate) fn due(&self) -> Due {
        self.due
    }

    /// Plants transient-fault residue: for each of [`PLANTED_VALUES`]
    /// fabricated values, coin-flipped `i_values`, `ready` and
    /// `last(G)`/`last(G, m)` stamps, then up to `n` bogus arrivals per
    /// stage log. Every stamp lies within `2Δ_rmv` of the scramble's
    /// `now`, which [`InitiatorAccept::cleanup`] above must expire — from
    /// the next pass on, since residue may be dormant or future-stamped.
    pub(crate) fn plant<V: Value>(&mut self, g: &mut Garbage<'_, V>) {
        self.due = Due::Now;
        let n = self.params.n();
        for _ in 0..PLANTED_VALUES {
            let v = g.value();
            if g.chance(1, 2) {
                let stamp = g.stamp();
                self.raw_state(g.intern(&v)).i_value = Some(stamp);
            }
            if g.chance(1, 2) {
                let stamp = g.stamp();
                self.raw_state(g.intern(&v)).ready_at = Some(stamp);
            }
            if g.chance(1, 2) {
                let (last_g, last_gm) = (g.stamp(), g.stamp());
                self.corrupt_guards(g.intern(&v), last_g, last_gm);
            }
            for kind in IaKind::ALL {
                for _ in 0..g.below(n as u64 + 1) {
                    let sender = g.node(n);
                    let stamp = g.stamp();
                    self.raw_state(g.intern(&v))
                        .log_mut(kind)
                        .inject_raw(sender, stamp);
                }
            }
        }
    }

    /// The state of `value`, created past the tracked-value cap.
    fn raw_state(&mut self, value: ValueId) -> &mut ValueState {
        let spare = &mut self.spare;
        self.values
            .get_or_insert_with(value, || ValueState::from_spare(spare, value))
    }

    /// Makes this instance indistinguishable from
    /// `InitiatorAccept::new(general, params)` for its own General while
    /// its tables keep their capacity: the value states become the spares
    /// of their ids (the spares held until now are dropped).
    pub(crate) fn recycle(&mut self) {
        std::mem::swap(&mut self.values, &mut self.spare);
        self.values.clear();
        self.last_g.forget();
        self.own_support_times.clear();
        self.due = Due::Never;
    }

    fn corrupt_guards(&mut self, value: ValueId, last_g: LocalTime, last_gm: LocalTime) {
        self.last_g.inject_raw(last_g, Some(last_g));
        self.raw_state(value)
            .last_gm
            .inject_raw(last_gm, Some(last_gm));
    }

    /// Reset after the surrounding agreement returned (3d grace included
    /// by the caller): clears logs, estimates and the accept latch but
    /// **keeps** the `last(G)` / `last(G, m)` guards, which enforce the
    /// initiation-spacing rules across executions and expire on their own
    /// schedule.
    pub fn reset_for_next_execution(&mut self, _now: LocalTime) {
        for st in self.values.values_mut() {
            st.i_value = None;
            st.ready_at = None;
            st.support.clear();
            st.approve.clear();
            st.ready.clear();
            st.ignore_until = None;
            st.sent = [None; 3];
            st.accepted_at = None;
        }
        self.own_support_times.clear();
        self.values.retain(|_, st| !st.is_dormant());
        // The dropped values' ids are no longer referenced.
        self.due = Due::Now;
    }

    /// The General clears all messages of previous invocations of its own
    /// primitive before initiating (paper §4). Guards are kept.
    pub fn clear_messages_before_initiation(&mut self) {
        for st in self.values.values_mut() {
            st.support.clear();
            st.approve.clear();
            st.ready.clear();
            st.ready_at = None;
        }
        // A value that held only messages is dormant now.
        self.due = Due::Now;
    }

    /// Marks every id this instance still references, for the engine's
    /// interner sweep.
    pub(crate) fn mark_live<V: Value>(&self, interner: &mut ValueInterner<V>) {
        for id in self.values.keys() {
            interner.mark(id);
        }
    }

    /// Appends the protocol state, ids resolved, the due left out.
    pub(crate) fn render<V: Value>(&self, interner: &ValueInterner<V>, out: &mut String) {
        let _ = writeln!(
            out,
            "ia {:?}: last_g {:?}, own support {:?}",
            self.general, self.last_g, self.own_support_times
        );
        for (id, st) in self.values.iter() {
            let _ = writeln!(out, "  {:?}: {st:?}", interner.show(id));
        }
    }

    /// The current `i_values[G, m]` entry.
    #[must_use]
    pub fn i_value(&self, value: ValueId) -> Option<LocalTime> {
        self.values.get(value).and_then(|st| st.i_value)
    }

    /// Whether any `i_values[G, ·]` entry is set.
    #[must_use]
    pub fn any_i_value(&self) -> bool {
        self.values.values().any(|st| st.i_value.is_some())
    }

    /// Whether the `ready(G, m)` flag is armed.
    #[must_use]
    pub fn is_ready(&self, value: ValueId) -> bool {
        self.values
            .get(value)
            .is_some_and(|st| st.ready_at.is_some())
    }

    /// The `last(G)` guard.
    #[must_use]
    pub fn last_g(&self) -> Option<LocalTime> {
        self.last_g.get().copied()
    }

    /// The `last(G, m)` guard.
    #[must_use]
    pub fn last_gm(&self, value: ValueId) -> Option<LocalTime> {
        self.values
            .get(value)
            .and_then(|st| st.last_gm.get().copied())
    }

    /// This node's own sending progress for `value` (``[IG3]`` detection).
    #[must_use]
    pub fn own_progress(&self, value: ValueId) -> OwnProgress {
        let Some(st) = self.values.get(value) else {
            return OwnProgress::default();
        };
        OwnProgress {
            approve_sent: st.sent[IaKind::Approve as usize],
            ready_sent: st.sent[IaKind::Ready as usize],
            accepted_at: st.accepted_at,
        }
    }

    /// Number of distinct senders whose `kind` message for `value` is in
    /// `[now − window, now]` (test/introspection helper).
    #[must_use]
    pub fn count_in_window(
        &self,
        now: LocalTime,
        kind: IaKind,
        value: ValueId,
        window: Duration,
    ) -> usize {
        self.values
            .get(value)
            .map_or(0, |st| st.log(kind).distinct_in_window(now, window))
    }

    /// Number of tracked per-value states (bounded-memory introspection).
    #[must_use]
    pub fn tracked_values(&self) -> usize {
        self.values.len()
    }
}

/// How many fabricated values one [`InitiatorAccept::plant`] draws.
const PLANTED_VALUES: usize = 3;

/// Cap on concurrently tracked values per General. A Byzantine General can
/// mint arbitrarily many values; tracked state is bounded by evicting the
/// least-recently-touched value.
pub const MAX_TRACKED_VALUES: usize = 256;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corrupt::xorshift;
    use crate::intern::interned;

    const D: u64 = 10_000_000; // 10ms in ns

    fn params4() -> Params {
        Params::from_d(4, 1, Duration::from_nanos(D), 0).unwrap()
    }

    fn params7() -> Params {
        Params::from_d(7, 2, Duration::from_nanos(D), 0).unwrap()
    }

    fn t(n: u64) -> LocalTime {
        // Comfortably past zero so `now - k·d` never needs to wrap in
        // tests that inspect raw values.
        LocalTime::from_nanos(1_000 * D + n)
    }

    fn id(n: u32) -> NodeId {
        NodeId::new(n)
    }

    fn ia4() -> InitiatorAccept {
        InitiatorAccept::new(id(0), params4())
    }

    fn sends(out: &[IaAction<ValueId>]) -> Vec<(IaKind, ValueId)> {
        out.iter()
            .filter_map(|a| match a {
                IaAction::Send { kind, value } => Some((*kind, *value)),
                _ => None,
            })
            .collect()
    }

    fn accepts(out: &[IaAction<ValueId>]) -> Vec<(ValueId, LocalTime)> {
        out.iter()
            .filter_map(|a| match a {
                IaAction::Accepted { value, tau_g } => Some((*value, *tau_g)),
                _ => None,
            })
            .collect()
    }

    /// Drives a fresh instance through a clean accept: all 4 nodes support,
    /// approve, ready within d of each other.
    fn run_clean_accept(
        ia: &mut InitiatorAccept,
        vals: &ValueInterner<u64>,
        v7: ValueId,
        start: LocalTime,
    ) -> Vec<IaAction<ValueId>> {
        let mut out = Vec::new();
        let d = Duration::from_nanos(D);
        ia.on_initiator(start, v7, vals, &mut out);
        for (i, node) in [0u32, 1, 2, 3].iter().enumerate() {
            ia.on_message(
                start + d / 2 + Duration::from_nanos(i as u64),
                id(*node),
                IaKind::Support,
                v7,
                vals,
                &mut out,
            );
        }
        for (i, node) in [0u32, 1, 2, 3].iter().enumerate() {
            ia.on_message(
                start + d + Duration::from_nanos(i as u64),
                id(*node),
                IaKind::Approve,
                v7,
                vals,
                &mut out,
            );
        }
        for (i, node) in [0u32, 1, 2, 3].iter().enumerate() {
            ia.on_message(
                start + d * 2u64 + Duration::from_nanos(i as u64),
                id(*node),
                IaKind::Ready,
                v7,
                vals,
                &mut out,
            );
        }
        out
    }

    #[test]
    fn block_k_sends_support_and_records_estimate() {
        let (vals, [v7]) = interned([7]);
        let mut ia = ia4();
        let mut out = Vec::new();
        ia.on_initiator(t(0), v7, &vals, &mut out);
        assert_eq!(sends(&out), vec![(IaKind::Support, v7)]);
        // K2: i_value := τq − d.
        assert_eq!(ia.i_value(v7), Some(t(0) - Duration::from_nanos(D)));
        assert_eq!(ia.last_gm(v7), Some(t(0)));
    }

    /// The weak-quorum pre-check skips the L and M queries exactly while
    /// they could not fire: `f` supports and `f` approves emit and record
    /// nothing, and the `(f + 1)`-th of each fires L2 and M1.
    #[test]
    fn l2_and_m1_fire_at_the_weak_quorum_and_not_before() {
        let p = params7();
        let f = p.f() as u32;
        let (vals, [v7]) = interned([7]);
        let mut ia = InitiatorAccept::new(id(0), p);
        let mut out = Vec::new();
        let d = Duration::from_nanos(D);
        for (kind, at) in [(IaKind::Support, t(0)), (IaKind::Approve, t(0) + d)] {
            for node in 0..f {
                let now = at + Duration::from_nanos(u64::from(node));
                ia.on_message(now, id(node + 1), kind, v7, &vals, &mut out);
                assert!(out.is_empty(), "{kind:?} #{} emitted {out:?}", node + 1);
            }
            let fired = match kind {
                IaKind::Support => ia.i_value(v7).is_some(),
                _ => ia.is_ready(v7),
            };
            assert!(!fired, "{f} {kind:?} messages fired a weak-quorum line");
            ia.on_message(at + d / 2, id(f + 1), kind, v7, &vals, &mut out);
        }
        // L2: i_value := t_{f+1} − 2d, the oldest of f + 1 supports.
        assert_eq!(ia.i_value(v7), Some(t(0) - d * 2u64));
        // M1: the ready flag is armed.
        assert!(ia.is_ready(v7));
        assert!(out.is_empty(), "no strong quorum, no send: {out:?}");
    }

    #[test]
    fn block_k_blocked_by_other_i_value() {
        let (vals, [v7, v9]) = interned([7, 9]);
        let mut ia = ia4();
        let mut out = Vec::new();
        ia.raw_state(v9).i_value = Some(t(0));
        ia.on_initiator(t(10), v7, &vals, &mut out);
        assert!(out.is_empty(), "K1 must fail while i_values[G, 9] is set");
    }

    #[test]
    fn block_k_blocked_by_last_g() {
        let (vals, [v7, v8]) = interned([7, 8]);
        let mut ia = ia4();
        let mut out = Vec::new();
        ia.corrupt_guards(v7, t(0), t(0));
        // last(G) set blocks; note last(G, m) at τq − d also blocks.
        ia.on_initiator(t(10), v8, &vals, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn block_k_blocked_by_recent_own_support() {
        let (vals, [v7, v8]) = interned([7, 8]);
        let mut ia = ia4();
        let mut out = Vec::new();
        ia.on_initiator(t(0), v7, &vals, &mut out);
        out.clear();
        // A different value right away: own support within d blocks K.
        // (last(G, m') for m'=8 is ⊥, i_values[7] is set → double block.)
        ia.on_initiator(t(1), v8, &vals, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn block_k_blocked_by_last_gm_d_ago() {
        let (vals, [v7]) = interned([7]);
        // K1's fourth guard checks the *historical* value of last(G, m)
        // at τq − d, not a sliding window.
        let mut ia = ia4();
        let d = Duration::from_nanos(D);
        let mut out = Vec::new();
        // Weak quorum of supports at t(0) sets last(G, 7) at t(0).
        ia.on_message(t(0), id(2), IaKind::Support, v7, &vals, &mut out);
        ia.on_message(t(0), id(3), IaKind::Support, v7, &vals, &mut out);
        assert_eq!(ia.last_gm(v7), Some(t(0)));
        out.clear();
        // Invocation at t(0) + 2d: at τq − d = t(0) + d the guard was set
        // → K blocked.
        ia.on_initiator(t(0) + d * 2u64, v7, &vals, &mut out);
        assert!(out.is_empty(), "last(G, m) was set at τq − d → blocked");
        // Invocation at t(0) + d/2: at τq − d = t(0) − d/2 the guard was
        // still ⊥ → K succeeds (the paper checks the state d ago, so a
        // very recent set does not block).
        ia.on_initiator(t(0) + d / 2, v7, &vals, &mut out);
        assert_eq!(sends(&out), vec![(IaKind::Support, v7)]);
    }

    #[test]
    fn l2_records_weak_quorum_window() {
        let (vals, [v7]) = interned([7]);
        // weak quorum for n=4, f=1 is 2.
        let mut ia = ia4();
        let d = Duration::from_nanos(D);
        let mut out = Vec::new();
        ia.on_message(t(0), id(2), IaKind::Support, v7, &vals, &mut out);
        assert_eq!(ia.i_value(v7), None, "one support is not enough");
        ia.on_message(t(100), id(3), IaKind::Support, v7, &vals, &mut out);
        // Shortest suffix containing both: ends now, starts at t(0).
        // i_value = t(0) − 2d (the k-th latest arrival minus 2d).
        assert_eq!(ia.i_value(v7), Some(t(0) - d * 2u64));
    }

    #[test]
    fn l2_takes_max_of_existing() {
        let (vals, [v7]) = interned([7]);
        let mut ia = ia4();
        let d = Duration::from_nanos(D);
        let mut out = Vec::new();
        ia.on_initiator(t(0), v7, &vals, &mut out); // i_value = t(0) − d
        ia.on_message(t(1), id(2), IaKind::Support, v7, &vals, &mut out);
        ia.on_message(t(2), id(3), IaKind::Support, v7, &vals, &mut out);
        // Candidate from L2 is t(1) − 2d < t(0) − d → keep the larger.
        assert_eq!(ia.i_value(v7), Some(t(0) - d));
    }

    #[test]
    fn l4_needs_strong_quorum_within_2d() {
        let (vals, [v7, v8]) = interned([7, 8]);
        let mut ia = ia4();
        let d = Duration::from_nanos(D);
        let mut out = Vec::new();
        ia.on_message(t(0), id(0), IaKind::Support, v7, &vals, &mut out);
        ia.on_message(t(1), id(2), IaKind::Support, v7, &vals, &mut out);
        assert!(sends(&out).iter().all(|(k, _)| *k != IaKind::Approve));
        ia.on_message(t(2), id(3), IaKind::Support, v7, &vals, &mut out);
        assert!(
            sends(&out).contains(&(IaKind::Approve, v7)),
            "3 supports within 2d ⇒ approve"
        );
        // Supports spread beyond 2d never fire L4:
        let mut ia2 = ia4();
        let mut out2 = Vec::new();
        ia2.on_message(t(0), id(0), IaKind::Support, v8, &vals, &mut out2);
        ia2.on_message(t(0) + d, id(2), IaKind::Support, v8, &vals, &mut out2);
        ia2.on_message(
            t(0) + d * 3u64,
            id(3),
            IaKind::Support,
            v8,
            &vals,
            &mut out2,
        );
        assert!(sends(&out2).iter().all(|(k, _)| *k != IaKind::Approve));
    }

    #[test]
    fn m_blocks_arm_and_send_ready() {
        let (vals, [v7]) = interned([7]);
        let mut ia = ia4();
        let mut out = Vec::new();
        ia.on_message(t(0), id(0), IaKind::Approve, v7, &vals, &mut out);
        assert!(!ia.is_ready(v7));
        ia.on_message(t(1), id(2), IaKind::Approve, v7, &vals, &mut out);
        assert!(ia.is_ready(v7), "weak quorum of approves arms ready");
        assert!(sends(&out).iter().all(|(k, _)| *k != IaKind::Ready));
        ia.on_message(t(2), id(3), IaKind::Approve, v7, &vals, &mut out);
        assert!(
            sends(&out).contains(&(IaKind::Ready, v7)),
            "strong quorum of approves ⇒ ready message"
        );
    }

    #[test]
    fn n2_requires_armed_flag() {
        let (vals, [v7]) = interned([7]);
        let mut ia = ia4();
        let mut out = Vec::new();
        // Weak quorum of ready messages without the armed flag: nothing.
        ia.on_message(t(0), id(0), IaKind::Ready, v7, &vals, &mut out);
        ia.on_message(t(1), id(2), IaKind::Ready, v7, &vals, &mut out);
        assert!(out.is_empty());
        // Arm via approves, then a single further ready event triggers N2.
        ia.on_message(t(2), id(0), IaKind::Approve, v7, &vals, &mut out);
        ia.on_message(t(3), id(2), IaKind::Approve, v7, &vals, &mut out);
        assert!(ia.is_ready(v7));
        assert!(
            sends(&out).contains(&(IaKind::Ready, v7)),
            "N2 amplifies once armed"
        );
    }

    #[test]
    fn full_wave_accepts_with_recorded_anchor() {
        let (vals, [v7]) = interned([7]);
        let mut ia = ia4();
        let out = run_clean_accept(&mut ia, &vals, v7, t(0));
        let acc = accepts(&out);
        assert_eq!(acc.len(), 1);
        let (v, tau_g) = acc[0];
        assert_eq!(v, v7);
        // Anchor is the K2 recording: t(0) − d.
        assert_eq!(tau_g, t(0) - Duration::from_nanos(D));
        // i_values cleared by N4.
        assert!(!ia.any_i_value());
        // Guards set.
        assert!(ia.last_g().is_some());
        assert!(ia.last_gm(v7).is_some());
    }

    #[test]
    fn accept_fires_once() {
        let (vals, [v7]) = interned([7]);
        let mut ia = ia4();
        let out = run_clean_accept(&mut ia, &vals, v7, t(0));
        assert_eq!(accepts(&out).len(), 1);
        // More ready messages (replays) must not re-accept: messages are
        // ignored for 3d and the latch is set.
        let mut out2 = Vec::new();
        for node in [0u32, 2, 3] {
            ia.on_message(t(30), id(node), IaKind::Ready, v7, &vals, &mut out2);
        }
        assert!(accepts(&out2).is_empty());
    }

    #[test]
    fn ready_quorum_without_i_value_flushes() {
        let (vals, [v7]) = interned([7]);
        let mut ia = ia4();
        let mut out = Vec::new();
        // Arm ready via corruption, feed a strong quorum of readys, but no
        // i_value exists → the wave is flushed, no accept.
        ia.raw_state(v7).ready_at = Some(t(0));
        for (i, node) in [0u32, 2, 3].iter().enumerate() {
            ia.on_message(t(i as u64), id(*node), IaKind::Ready, v7, &vals, &mut out);
        }
        assert!(accepts(&out).is_empty());
        assert!(!ia.is_ready(v7), "flush clears the armed flag");
        assert!(ia.is_ignoring(v7, t(5)));
    }

    #[test]
    fn ignore_window_drops_messages() {
        let (vals, [v7, v8]) = interned([7, 8]);
        let mut ia = ia4();
        let d = Duration::from_nanos(D);
        run_clean_accept(&mut ia, &vals, v7, t(0));
        let accept_time = t(2 * D + 3);
        assert!(ia.is_ignoring(v7, accept_time + d));
        assert!(!ia.is_ignoring(v7, accept_time + d * 4u64));
        // Different values are not ignored.
        assert!(!ia.is_ignoring(v8, accept_time + d));
    }

    #[test]
    fn resend_gap_suppresses_duplicates() {
        let (vals, [v7]) = interned([7]);
        let mut ia = ia4();
        let mut out = Vec::new();
        for node in [0u32, 2, 3] {
            ia.on_message(t(0), id(node), IaKind::Support, v7, &vals, &mut out);
        }
        let approves = sends(&out)
            .iter()
            .filter(|(k, _)| *k == IaKind::Approve)
            .count();
        assert_eq!(approves, 1, "one approve per resend gap");
        // After the gap, the (still-satisfied) condition resends.
        out.clear();
        ia.on_message(
            t(0) + Duration::from_nanos(D) + Duration::from_nanos(1),
            id(0),
            IaKind::Support,
            v7,
            &vals,
            &mut out,
        );
        // The 2d window still holds a strong quorum (all arrived ≤ 2d ago).
        assert!(sends(&out).contains(&(IaKind::Approve, v7)));
    }

    #[test]
    fn cleanup_decays_guards_on_schedule() {
        let (vals, [v7]) = interned([7]);
        let p = params4();
        let mut ia = ia4();
        run_clean_accept(&mut ia, &vals, v7, t(0));
        assert!(ia.last_g().is_some());
        // last(G) expires after Δ0 − 6d.
        let set_at = ia.last_g().unwrap();
        ia.cleanup(set_at + p.last_g_expiry() - Duration::from_nanos(1));
        assert!(ia.last_g().is_some());
        ia.cleanup(set_at + p.last_g_expiry() + Duration::from_nanos(1));
        assert!(ia.last_g().is_none());
        // last(G, m) expires after 2Δ_rmv + 9d (later).
        assert!(ia.last_gm(v7).is_some());
        let gm_at = ia.last_gm(v7).unwrap();
        ia.cleanup(gm_at + p.last_gm_expiry() + Duration::from_nanos(1));
        assert!(ia.last_gm(v7).is_none());
    }

    #[test]
    fn cleanup_drops_future_residue() {
        let (_, [v7, v8, v9]) = interned([7, 8, 9]);
        let mut ia = ia4();
        ia.raw_state(v7).i_value = Some(t(1_000_000));
        ia.raw_state(v8).ready_at = Some(t(2_000_000));
        ia.corrupt_guards(v9, t(3_000_000), t(3_000_000));
        ia.cleanup(t(0));
        assert_eq!(ia.i_value(v7), None);
        assert!(!ia.is_ready(v8));
        assert!(ia.last_g().is_none());
        assert!(ia.last_gm(v9).is_none());
    }

    #[test]
    fn planted_residue_expires_in_one_cleanup() {
        // Every planted stamp lies before now + 2Δ_rmv, and last(G, m) has
        // the longest horizon: one cleanup past both leaves every field
        // decayed. What a value keeps is the record of its guard's expiry,
        // which line K1's look-back reads for one more horizon.
        let p = params4();
        let now = t(0);
        let (mut vals, mut e) = (ValueInterner::new(), xorshift(11));
        let mut gen = |e: &mut dyn Entropy| e.next_u64() % 8;
        let mut g = Garbage::new(now, p.delta_rmv(), &mut e, &mut gen, &mut vals);
        let mut ia = ia4();
        for _ in 0..16 {
            ia.plant(&mut g);
        }
        let planted = |f: &dyn Fn(&ValueState) -> bool| ia.values.values().any(|st| f(st));
        assert!(ia.last_g().is_some() && planted(&|st| st.last_gm.get().is_some()));
        assert!(planted(&|st| st.i_value.is_some()) && planted(&|st| st.ready_at.is_some()));
        assert!(IaKind::ALL
            .iter()
            .all(|&k| planted(&|st| !st.log(k).is_empty())));
        ia.cleanup(now + p.delta_rmv() * 2u64 + p.last_gm_expiry());
        assert!(ia.last_g().is_none());
        for st in ia.values.values() {
            assert!(st.last_gm.get().is_none(), "{st:?}");
            let rest = ValueState {
                last_gm: TimedVar::new(),
                ..(**st).clone()
            };
            assert!(rest.is_dormant(), "{st:?}");
        }
    }

    #[test]
    fn cleanup_decays_messages_after_rmv() {
        let (vals, [v7]) = interned([7]);
        let p = params4();
        let mut ia = ia4();
        let mut out = Vec::new();
        ia.on_message(t(0), id(2), IaKind::Support, v7, &vals, &mut out);
        assert_eq!(
            ia.count_in_window(t(1), IaKind::Support, v7, p.delta_rmv()),
            1
        );
        ia.cleanup(t(0) + p.delta_rmv() + Duration::from_nanos(1));
        assert_eq!(
            ia.count_in_window(
                t(0) + p.delta_rmv() + Duration::from_nanos(1),
                IaKind::Support,
                v7,
                p.delta_rmv()
            ),
            0
        );
    }

    #[test]
    fn reset_keeps_guards() {
        let (vals, [v7]) = interned([7]);
        let mut ia = ia4();
        run_clean_accept(&mut ia, &vals, v7, t(0));
        let lg = ia.last_g();
        let lgm = ia.last_gm(v7);
        assert!(lg.is_some() && lgm.is_some());
        ia.reset_for_next_execution(t(100));
        assert_eq!(ia.last_g(), lg, "last(G) survives the reset");
        assert_eq!(ia.last_gm(v7), lgm, "last(G, m) survives the reset");
        assert!(!ia.any_i_value());
        assert!(!ia.is_ready(v7));
    }

    #[test]
    fn second_value_blocked_while_first_pending() {
        let (vals, [v7, v8]) = interned([7, 8]);
        // A two-faced General sends 7 then 8 immediately: K for 8 must be
        // blocked (i_values[7] set + own support sent recently).
        let mut ia = ia4();
        let mut out = Vec::new();
        ia.on_initiator(t(0), v7, &vals, &mut out);
        out.clear();
        ia.on_initiator(t(1), v8, &vals, &mut out);
        assert!(sends(&out).is_empty());
    }

    #[test]
    fn seven_node_quorums() {
        let (vals, [v7]) = interned([7]);
        // n=7, f=2: weak=3, strong=5.
        let p = params7();
        let mut ia: InitiatorAccept = InitiatorAccept::new(id(0), p);
        let mut out = Vec::new();
        for node in [0u32, 2, 3] {
            ia.on_message(t(0), id(node), IaKind::Support, v7, &vals, &mut out);
        }
        assert!(ia.i_value(v7).is_some(), "weak quorum (3) records");
        assert!(sends(&out).iter().all(|(k, _)| *k != IaKind::Approve));
        for node in [4u32, 5] {
            ia.on_message(t(1), id(node), IaKind::Support, v7, &vals, &mut out);
        }
        assert!(sends(&out).contains(&(IaKind::Approve, v7)));
    }

    #[test]
    fn out_of_membership_sender_rejected() {
        let (vals, [v7]) = interned([7]);
        let mut ia = ia4();
        let mut out = Vec::new();
        ia.on_message(t(0), id(1_000_000), IaKind::Support, v7, &vals, &mut out);
        assert!(out.is_empty());
        assert_eq!(
            ia.count_in_window(t(1), IaKind::Support, v7, Duration::from_secs(100)),
            0
        );
    }

    #[test]
    fn value_cap_evicts_oldest() {
        let mut vals = ValueInterner::new();
        let mut ia = ia4();
        let mut out = Vec::new();
        for v in 0..(MAX_TRACKED_VALUES as u64 + 10) {
            let m = vals.intern(&v);
            ia.on_message(t(v), id(2), IaKind::Support, m, &vals, &mut out);
        }
        // Bounded, and the least recently touched value went first:
        assert_eq!(ia.tracked_values(), MAX_TRACKED_VALUES);
        let v0 = vals.lookup(&0).expect("still interned");
        assert!(ia.count_in_window(t(0), IaKind::Support, v0, Duration::from_secs(100)) == 0);
    }

    #[test]
    fn value_cap_tie_break_evicts_largest_value() {
        // Interned in descending order, so id order and value order disagree.
        let mut vals = ValueInterner::new();
        let mut ia = ia4();
        let mut out = Vec::new();
        let cap = MAX_TRACKED_VALUES as u64;
        for v in (0..=cap).rev() {
            // All touched at the same instant; value 0 arrives at a full table.
            let m = vals.intern(&v);
            ia.on_message(t(0), id(2), IaKind::Support, m, &vals, &mut out);
        }
        let tracked = |v: u64| {
            let m = vals.lookup(&v).expect("interned above");
            ia.count_in_window(t(0), IaKind::Support, m, Duration::from_nanos(D)) == 1
        };
        assert!(!tracked(cap), "the largest of the equally old values goes");
        assert!(tracked(cap - 1) && tracked(1) && tracked(0));
    }

    #[test]
    fn own_progress_reports_sends() {
        let (vals, [v7, v99]) = interned([7, 99]);
        let mut ia = ia4();
        run_clean_accept(&mut ia, &vals, v7, t(0));
        let prog = ia.own_progress(v7);
        assert!(prog.approve_sent.is_some());
        assert!(prog.ready_sent.is_some());
        assert!(prog.accepted_at.is_some());
        assert_eq!(ia.own_progress(v99), OwnProgress::default());
    }
}
