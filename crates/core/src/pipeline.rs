//! Pipelined multi-slot agreement over a replicated decision log.
//!
//! The paper's primitive is one-shot: a General proposes, the cluster
//! agrees (or aborts), done. A serving system needs a *stream* — this
//! module multiplexes many concurrent one-shot executions over numbered
//! **slots**, MultiPaxos-style, and applies decisions in slot order to a
//! replicated [`DecisionLog`].
//!
//! # Design
//!
//! * **One [`Engine`] per in-flight slot.** The Sending Validity
//!   Criteria (``[IG1]``–``[IG3]``) rate-limit a *single* engine's
//!   initiations — per-slot engines isolate that state, so slot `k+1`
//!   can start while slot `k` is still echoing. Safety per slot is
//!   untouched: each execution is a full, unmodified protocol run.
//! * **Bounded window.** Slot traffic is admitted only inside
//!   `[committed, committed + window)`. The window caps concurrent
//!   engine state (memory, timer load) and bounds how far optimistic
//!   proposers can run ahead of the slowest correct quorum.
//! * **Slot-order commit.** Decisions land in the log as they arrive,
//!   but [`PipeEvent::Committed`] fires strictly in slot order: a
//!   decision for slot 5 waits for 0..=4. Applications replaying
//!   committed events therefore see an identical prefix on every
//!   correct node.
//! * **Catch-up.** A node that missed a slot (crash, partition) notices
//!   the cluster running ahead or an out-of-order hole in its own log,
//!   and broadcasts a [`SlotMsg::CatchUpRequest`]. "Running ahead" is
//!   judged from per-peer claims of the slot each peer has reached —
//!   slot traffic for `k` claims `k`, a catch-up reply for `k` claims
//!   `k + 1`, a heartbeat claims its sender's prefix length — `f + 1`
//!   of which must agree before a slot counts as reached: a claim past
//!   our prefix arms the probe, a full window past it fires at once,
//!   and a lone Byzantine peer cannot forge cluster progress and turn
//!   the probe into a permanent broadcast loop. Peers answer from their
//!   logs with direct [`SlotMsg::CatchUpReply`]s; `f + 1` matching
//!   replies from distinct senders are required before an entry is
//!   adopted, so `f` Byzantine peers cannot forge history, and replies
//!   are only collected inside a bounded horizon past the committed
//!   prefix, so they cannot grow memory without bound.
//! * **Golden model.** A single-slot pipeline is bit-identical to a
//!   bare [`Engine`]: every engine output is wrapped verbatim (see the
//!   `pipeline_equivalence` proptest battery).
//!
//! Retries: if the proposer's slot stalls (no decision within
//! [`PipelineConfig::retry_after`]), it re-initiates the *same value* on
//! a fresh engine under an incremented attempt number; receivers reset
//! their slot engine when they see the **proposer's own `Initiator`**
//! under a higher attempt (attempt bumps from any other sender, or in
//! any other message kind, are dropped — otherwise a single Byzantine
//! peer could wipe every in-progress engine with a forged
//! `attempt: u32::MAX` and wedge the slot). A correct proposer
//! always retries the same value, so all attempts of a slot can only
//! decide that value (a Byzantine proposer could equivocate across
//! attempts — containment of that is the agreement layer's job, and a
//! mixed decision would surface as a catch-up vote split).

use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound;
use std::sync::Arc;

use ssbyz_types::{Duration, LocalTime, NodeId, Value};

use crate::engine::{Engine, Event, Output};
use crate::message::Msg;
use crate::outbox::Outbox;
use crate::params::Params;

/// How many log entries one [`SlotMsg::CatchUpRequest`] is answered
/// with, per responder: bounds reply fan-out so a freshly recovered
/// node does not trigger an O(log) burst from every peer at once.
pub const CATCHUP_BATCH: u64 = 32;

/// A wire message of the slot pipeline: the one-shot protocol's
/// [`Msg`] tagged with its slot, plus the catch-up sub-protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotMsg<V> {
    /// A one-shot protocol message scoped to `slot`.
    Slot {
        /// The slot this execution decides.
        slot: u64,
        /// Proposer retry attempt (0 for the first initiation).
        /// Receivers reset their slot engine when this increases —
        /// but only on the proposer's own `Initiator`.
        attempt: u32,
        /// The unmodified one-shot protocol message.
        inner: Msg<V>,
    },
    /// "Send me your decided entries from `from` upward."
    CatchUpRequest {
        /// First slot the requester is missing (its committed prefix).
        from: u64,
    },
    /// One decided log entry, sent directly to a requester.
    CatchUpReply {
        /// The decided slot.
        slot: u64,
        /// The decided value.
        value: Arc<V>,
    },
    /// Periodic commit-index gossip: "my committed prefix is this
    /// long." A node that slept through the end of the stream has no
    /// other signal that slots exist beyond its prefix — heartbeats
    /// are what arm its catch-up probe. The prefix length is also the
    /// slot the sender has reached, so it is claimed as is.
    Heartbeat {
        /// The sender's committed-prefix length.
        committed: u64,
    },
}

impl<V: Value> SlotMsg<V> {
    /// Short static label for metrics/taggers (slot messages reuse the
    /// inner protocol tag, so per-kind network metrics stay meaningful).
    pub fn tag(&self) -> &'static str {
        match self {
            SlotMsg::Slot { inner, .. } => inner.tag(),
            SlotMsg::CatchUpRequest { .. } => "catchup-req",
            SlotMsg::CatchUpReply { .. } => "catchup-rep",
            SlotMsg::Heartbeat { .. } => "heartbeat",
        }
    }
}

/// The replicated decision log: decided values indexed by slot, with a
/// contiguous committed prefix.
///
/// `record` accepts decisions in any order (agreement executions and
/// catch-up replies finish out of order); `committed` only advances
/// over a gap-free prefix. Entries are retained after commit to serve
/// catch-up requests.
#[derive(Debug, Clone, Default)]
pub struct DecisionLog<V> {
    entries: Vec<Option<Arc<V>>>,
    committed: u64,
}

impl<V: Value> DecisionLog<V> {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        DecisionLog {
            entries: Vec::new(),
            committed: 0,
        }
    }

    /// Records a decision for `slot`. Returns `true` if the entry was
    /// new; a duplicate recording of the same value is an idempotent
    /// no-op, and a *conflicting* value for an already-recorded slot is
    /// ignored (first write wins — with `f + 1` vouching this can only
    /// happen under more than `f` faults).
    pub fn record(&mut self, slot: u64, value: Arc<V>) -> bool {
        let i = usize::try_from(slot).expect("slot exceeds address space");
        if i >= self.entries.len() {
            self.entries.resize(i + 1, None);
        }
        if self.entries[i].is_some() {
            return false;
        }
        self.entries[i] = Some(value);
        true
    }

    /// The decided value for `slot`, if recorded.
    #[must_use]
    pub fn get(&self, slot: u64) -> Option<&Arc<V>> {
        self.entries.get(usize::try_from(slot).ok()?)?.as_ref()
    }

    /// Length of the gap-free committed prefix: slots `0..committed()`
    /// are all decided and have been emitted as
    /// [`PipeEvent::Committed`] in order.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// One past the highest recorded slot (0 for an empty log); past
    /// [`committed`](DecisionLog::committed) while a gap is open.
    #[must_use]
    pub fn recorded_len(&self) -> u64 {
        // Only `record` grows `entries`, and it fills the entry it grows to.
        self.entries.len() as u64
    }

    /// Extends the committed prefix by one slot if that slot is
    /// recorded, returning it; repeated calls walk the commit cascade.
    fn advance(&mut self) -> Option<(u64, Arc<V>)> {
        let v = Arc::clone(self.get(self.committed)?);
        self.committed += 1;
        Some((self.committed - 1, v))
    }
}

/// Static configuration of a [`SlotPipeline`].
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Maximum in-flight slots: traffic is admitted for slots in
    /// `[committed, committed + window)`.
    pub window: u64,
    /// The node acting as General for every slot (single-proposer
    /// pipeline; rotation is future work).
    pub proposer: NodeId,
    /// Re-initiate a stalled proposer slot after this span (`None`
    /// disables retries — used by the equivalence battery).
    pub retry_after: Option<Duration>,
    /// Minimum spacing between catch-up requests from this node.
    pub catchup_interval: Duration,
}

impl PipelineConfig {
    /// A window-8 pipeline proposed by `proposer` with retry and
    /// catch-up cadence derived from the protocol constants: retries
    /// after `Δ_agr + 4d` (an execution still undecided then has either
    /// aborted or lost its messages) and catch-up probes every `Δ0`.
    #[must_use]
    pub fn new(proposer: NodeId, params: &Params) -> Self {
        PipelineConfig {
            window: 8,
            proposer,
            retry_after: Some(params.delta_agr() + params.d() * 4u64),
            catchup_interval: params.delta_0(),
        }
    }

    /// Overrides the window size.
    #[must_use]
    pub fn with_window(mut self, window: u64) -> Self {
        assert!(window >= 1, "window must admit at least one slot");
        self.window = window;
        self
    }

    /// Overrides (or disables) the stalled-slot retry span.
    #[must_use]
    pub fn with_retry_after(mut self, retry_after: Option<Duration>) -> Self {
        self.retry_after = retry_after;
        self
    }
}

/// An instruction from the pipeline to its harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipeOutput<V> {
    /// Broadcast to all nodes (uniform, own copy included — same
    /// contract as [`Output::Broadcast`]).
    Broadcast(SlotMsg<V>),
    /// Send directly to one node (catch-up replies only; the agreement
    /// protocol itself never unicasts).
    Send(NodeId, SlotMsg<V>),
    /// Schedule a call to [`SlotPipeline::on_tick`] at this local time.
    WakeAt(LocalTime),
    /// An observable pipeline event.
    Event(PipeEvent<V>),
}

/// Observable pipeline events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipeEvent<V> {
    /// A one-shot protocol event from the engine executing `slot`.
    Slot {
        /// The slot whose engine emitted the event.
        slot: u64,
        /// The unmodified engine event.
        event: Event<V>,
    },
    /// `slot` entered the committed prefix — emitted strictly in slot
    /// order; apply `value` to the state machine now.
    Committed {
        /// The newly committed slot.
        slot: u64,
        /// The decided value.
        value: Arc<V>,
    },
    /// A missing entry was adopted from `f + 1` matching catch-up
    /// replies rather than a local agreement execution.
    CaughtUp {
        /// The adopted slot.
        slot: u64,
        /// The adopted value.
        value: Arc<V>,
    },
}

/// Per-slot execution state.
#[derive(Debug)]
struct SlotState<V: Value> {
    engine: Engine<V>,
    attempt: u32,
    /// Proposer side only: the value this node proposed for the slot,
    /// kept for same-value retries.
    proposed: Option<V>,
    /// When the current attempt started (drives the retry timer).
    started_at: LocalTime,
    /// Set once this node's execution decided (stops retries).
    decided: bool,
}

/// The slot multiplexer: many concurrent [`Engine`] executions, one
/// replicated [`DecisionLog`], one catch-up sub-protocol.
///
/// Sans-io like the engine itself: every entry point fills a
/// caller-owned `Vec<PipeOutput<V>>` (cleared on entry) and never
/// performs I/O. The caller owns delivery, timers, and the clock.
#[derive(Debug)]
pub struct SlotPipeline<V: Value> {
    me: NodeId,
    params: Params,
    cfg: PipelineConfig,
    slots: BTreeMap<u64, SlotState<V>>,
    log: DecisionLog<V>,
    proposals: VecDeque<V>,
    /// Next slot this node (as proposer) will open.
    next_open: u64,
    /// Per-peer highest slot that peer claims to have reached, by node
    /// id: slot traffic for `k` claims `k`, a catch-up reply for `k`
    /// claims `k + 1`, a heartbeat claims the sender's prefix length.
    /// 0 is no evidence (no claim, and this node's own entry); empty
    /// before the first claim. The catch-up triggers use the `f + 1`-th
    /// largest claim ([`corroborated_slot`]), so `f` Byzantine peers
    /// cannot fabricate cluster progress; one bounded entry per member,
    /// so forged `u64::MAX` claims cannot poison anything or grow memory.
    ///
    /// [`corroborated_slot`]: SlotPipeline::corroborated_slot
    seen_claims: Vec<u64>,
    claims_scratch: Vec<u64>,
    /// Catch-up votes `(sender, value)` per not-yet-recorded slot.
    catchup: BTreeMap<u64, Vec<(NodeId, Arc<V>)>>,
    last_catchup: Option<LocalTime>,
    /// Armed while peers are known to be past our committed prefix but
    /// no commit has landed: fires a catch-up request once the stall
    /// outlasts the catch-up interval (a recovering node's only signal
    /// that the stream ended while it was down).
    catchup_probe: Option<LocalTime>,
    last_heartbeat: Option<LocalTime>,
    /// Scratch outbox reused across every engine call.
    scratch: Outbox<V>,
    /// Recycled engines of finished slots, at most `window` of them: a
    /// new slot takes one instead of growing a new engine's tables from
    /// empty.
    spare: Vec<Engine<V>>,
}

impl<V: Value> SlotPipeline<V> {
    /// Creates a pipeline for node `me`.
    #[must_use]
    pub fn new(me: NodeId, params: Params, cfg: PipelineConfig) -> Self {
        SlotPipeline {
            me,
            params,
            cfg,
            slots: BTreeMap::new(),
            log: DecisionLog::new(),
            proposals: VecDeque::new(),
            next_open: 0,
            seen_claims: Vec::new(),
            claims_scratch: Vec::new(),
            catchup: BTreeMap::new(),
            last_catchup: None,
            catchup_probe: None,
            last_heartbeat: None,
            scratch: Outbox::new(),
            spare: Vec::new(),
        }
    }

    /// The replicated decision log.
    #[must_use]
    pub fn log(&self) -> &DecisionLog<V> {
        &self.log
    }

    /// Number of queued, not-yet-opened proposals.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.proposals.len()
    }

    /// Number of live slot engines.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.slots.len()
    }

    /// Whether this node is the pipeline's proposer.
    #[must_use]
    pub fn is_proposer(&self) -> bool {
        self.me == self.cfg.proposer
    }

    /// Queues a value for agreement (proposer only; a non-proposer
    /// pipeline accepts the value but will never open a slot for it).
    pub fn enqueue(&mut self, value: V) {
        self.proposals.push_back(value);
    }

    /// Opens slots for queued proposals while the window allows,
    /// initiating one engine per slot. Call after [`enqueue`] and after
    /// commits advance the window.
    ///
    /// [`enqueue`]: SlotPipeline::enqueue
    pub fn pump(&mut self, now: LocalTime, out: &mut Vec<PipeOutput<V>>) {
        out.clear();
        self.pump_inner(now, out);
    }

    fn pump_inner(&mut self, now: LocalTime, out: &mut Vec<PipeOutput<V>>) {
        if !self.is_proposer() {
            return;
        }
        while !self.proposals.is_empty()
            && self.next_open < self.log.committed().saturating_add(self.cfg.window)
        {
            let slot = self.next_open;
            self.next_open += 1;
            let value = self.proposals.pop_front().expect("checked non-empty");
            let mut engine = self.fresh_engine();
            // A fresh engine has no [IG1]/[IG2]/[IG3] history, so the
            // initiation is unconditionally admitted.
            engine
                .initiate(now, value.clone(), &mut self.scratch)
                .expect("fresh per-slot engine admits its first initiation");
            let state = SlotState {
                engine,
                attempt: 0,
                proposed: Some(value),
                started_at: now,
                decided: false,
            };
            self.slots.insert(slot, state);
            self.drain_engine(slot, 0, out);
            if let Some(after) = self.cfg.retry_after {
                out.push(PipeOutput::WakeAt(now + after));
            }
        }
    }

    /// Feeds one wire message: a wave of one.
    pub fn on_message(
        &mut self,
        now: LocalTime,
        sender: NodeId,
        msg: &SlotMsg<V>,
        out: &mut Vec<PipeOutput<V>>,
    ) {
        self.on_wave(now, &[(sender, msg)], out);
    }

    /// Feeds a same-instant wave of wire messages: each run of
    /// consecutive messages for the same slot and attempt goes to that
    /// slot's engine in one call — a lone message to
    /// [`Engine::on_message_ref`], a longer run to [`Engine::on_wave_ref`]
    /// (triplet-table coalescing) — and catch-up traffic is handled per
    /// message in place.
    pub fn on_wave<W: std::borrow::Borrow<SlotMsg<V>>>(
        &mut self,
        now: LocalTime,
        wave: &[(NodeId, W)],
        out: &mut Vec<PipeOutput<V>>,
    ) {
        out.clear();
        let mut i = 0;
        let mut inner_run: Vec<(NodeId, &Msg<V>)> = Vec::new();
        while i < wave.len() {
            let (sender, msg) = (wave[i].0, wave[i].1.borrow());
            let &SlotMsg::Slot {
                slot,
                attempt,
                ref inner,
            } = msg
            else {
                self.dispatch_catchup(sender, msg, out);
                i += 1;
                continue;
            };
            // Extend the run over same-slot same-attempt messages, noting
            // each sender's claim and whether the proposer's own
            // Initiator is among them.
            let mut j = i;
            let mut reset_ok = false;
            while let Some((
                from,
                SlotMsg::Slot {
                    slot: s,
                    attempt: a,
                    inner: m,
                },
            )) = wave.get(j).map(|(from, m)| (*from, m.borrow()))
            {
                if (*s, *a) != (slot, attempt) {
                    break;
                }
                self.note_claim(from, slot);
                reset_ok |= from == self.cfg.proposer && matches!(m, Msg::Initiator { .. });
                j += 1;
            }
            let run = &wave[i..j];
            i = j;
            if !self.admit_slot(now, slot, attempt, reset_ok) {
                continue;
            }
            let engine = &mut self
                .slots
                .get_mut(&slot)
                .expect("admit_slot keeps an engine for an admitted slot")
                .engine;
            if run.len() == 1 {
                // A lone message allocates no run.
                engine.on_message_ref(now, sender, inner, &mut self.scratch);
            } else {
                inner_run.clear();
                inner_run.extend(run.iter().filter_map(|(from, m)| match m.borrow() {
                    SlotMsg::Slot { inner, .. } => Some((*from, inner)),
                    _ => None,
                }));
                engine.on_wave_ref(now, &inner_run, &mut self.scratch);
            }
            self.drain_engine(slot, attempt, out);
        }
        self.pump_inner(now, out);
    }

    /// Periodic tick: drives every in-flight engine's deadlines, fires
    /// stalled-slot retries, and probes for catch-up.
    pub fn on_tick(&mut self, now: LocalTime, out: &mut Vec<PipeOutput<V>>) {
        out.clear();
        // Walk the live slots by range rather than over a copy of the
        // keys: a commit inside `drain_engine` removes slots, but never
        // adds one.
        let mut next = self.slots.keys().next().copied();
        while let Some(slot) = next {
            let state = self.slots.get_mut(&slot).expect("key just read");
            let attempt = state.attempt;
            state.engine.on_tick(now, &mut self.scratch);
            self.drain_engine(slot, attempt, out);
            next = self
                .slots
                .range((Bound::Excluded(slot), Bound::Unbounded))
                .next()
                .map(|(&s, _)| s);
        }
        self.maybe_retry(now, out);
        self.maybe_catch_up(now, out);
        self.maybe_heartbeat(now, out);
        self.pump_inner(now, out);
    }

    /// Admits (and lazily creates / attempt-resets) the engine for
    /// `slot`, or returns `false` if the message must be dropped.
    ///
    /// `reset_ok` says the admission carries the proposer's own
    /// `Initiator` for this attempt. Attempt numbers above the local
    /// one are honored solely on that evidence — a retry always starts
    /// with the proposer's broadcast `Initiator`, so gating on it costs
    /// correct traffic nothing, while a Byzantine peer can no longer
    /// wipe an in-progress engine (or pre-create one at a sky-high
    /// attempt) and wedge the slot by out-bidding the real proposer.
    fn admit_slot(&mut self, now: LocalTime, slot: u64, attempt: u32, reset_ok: bool) -> bool {
        let committed = self.log.committed();
        if slot < committed || self.log.get(slot).is_some() {
            // Already decided here; the sender catches up on its own.
            return false;
        }
        if slot >= committed.saturating_add(self.cfg.window) {
            // Beyond our window: we are behind — the catch-up probe on
            // the next tick will notice the corroborated claims.
            return false;
        }
        match self.slots.get_mut(&slot) {
            Some(state) => {
                if attempt > state.attempt {
                    if !reset_ok {
                        return false;
                    }
                    // The proposer restarted this slot: replace the
                    // stale execution wholesale. (Receiver side only —
                    // the proposer's own retry path bumps `attempt`.)
                    state.engine.recycle();
                    state.attempt = attempt;
                    state.started_at = now;
                    state.decided = false;
                } else if attempt < state.attempt {
                    return false;
                }
            }
            None => {
                if attempt > 0 && !reset_ok {
                    return false;
                }
                let engine = self.fresh_engine();
                self.slots.insert(
                    slot,
                    SlotState {
                        engine,
                        attempt,
                        proposed: None,
                        started_at: now,
                        decided: false,
                    },
                );
            }
        }
        true
    }

    /// An engine for a new slot: a recycled spare, or a new one.
    fn fresh_engine(&mut self) -> Engine<V> {
        self.spare
            .pop()
            .unwrap_or_else(|| Engine::new(self.me, self.params))
    }

    /// Ends `slot`'s execution, keeping its engine, recycled, as a spare
    /// while fewer than `window` are kept.
    fn retire(&mut self, slot: u64) {
        let Some(state) = self.slots.remove(&slot) else {
            return;
        };
        if (self.spare.len() as u64) < self.cfg.window {
            let mut engine = state.engine;
            engine.recycle();
            self.spare.push(engine);
        }
    }

    /// Records `sender`'s claim to have reached `slot` (see
    /// [`seen_claims`](SlotPipeline::seen_claims) for what each message
    /// claims).
    fn note_claim(&mut self, sender: NodeId, slot: u64) {
        if sender == self.me || sender.index() >= self.params.n() {
            return;
        }
        // Sized on the first claim, so building a pipeline allocates nothing.
        self.seen_claims.resize(self.params.n(), 0);
        let claim = &mut self.seen_claims[sender.index()];
        *claim = (*claim).max(slot);
    }

    /// Highest slot `f + 1` distinct peers claim to have reached — at
    /// least one of them correct, so the cluster really got there. This
    /// (not any single peer's claim) drives the catch-up triggers: a lone
    /// forged `slot: u64::MAX` never surfaces here.
    ///
    /// That is the `f + 1`-th largest claim, one O(n) selection that
    /// allocates nothing. A member without a claim counts as 0, which
    /// decides the answer only when fewer than `f + 1` peers claim.
    fn corroborated_slot(&mut self) -> u64 {
        let claims = &mut self.claims_scratch;
        claims.clone_from(&self.seen_claims);
        if claims.is_empty() {
            return 0;
        }
        *claims
            .select_nth_unstable_by(self.params.f(), |a, b| b.cmp(a))
            .1
    }

    /// Horizon past the committed prefix inside which catch-up votes
    /// are collected: wide enough for a full reply batch (a far-behind
    /// node adopts whole batches without re-requesting), but bounded so
    /// forged replies for arbitrary slots cannot grow the vote map.
    fn catchup_horizon(&self) -> u64 {
        self.cfg.window.max(CATCHUP_BATCH)
    }

    /// Wraps everything the engine just put in the scratch outbox and
    /// appends it to `out`, intercepting decisions into the log.
    fn drain_engine(&mut self, slot: u64, attempt: u32, out: &mut Vec<PipeOutput<V>>) {
        // Detach the outputs so a commit can borrow `self`; the emptied
        // buffer is reattached below, keeping its capacity.
        let mut outputs = self.scratch.take_outputs();
        for output in outputs.drain(..) {
            match output {
                Output::Broadcast(inner) => out.push(PipeOutput::Broadcast(SlotMsg::Slot {
                    slot,
                    attempt,
                    inner,
                })),
                Output::WakeAt(t) => out.push(PipeOutput::WakeAt(t)),
                Output::Event(event) => {
                    // Only the configured proposer's execution decides
                    // the slot: a Byzantine peer initiating under its
                    // own General id inside this slot's namespace gets
                    // its decision surfaced as a Slot event but must
                    // not write the log.
                    if let Event::Decided { general, value, .. } = &event {
                        if *general == self.cfg.proposer {
                            let value = Arc::clone(value);
                            if let Some(state) = self.slots.get_mut(&slot) {
                                state.decided = true;
                            }
                            out.push(PipeOutput::Event(PipeEvent::Slot { slot, event }));
                            self.commit(slot, value, out);
                            continue;
                        }
                    }
                    out.push(PipeOutput::Event(PipeEvent::Slot { slot, event }));
                }
            }
        }
        self.scratch.out = outputs;
    }

    /// Records a decision and emits the in-order commit cascade.
    fn commit(&mut self, slot: u64, value: Arc<V>, out: &mut Vec<PipeOutput<V>>) {
        self.log.record(slot, value);
        self.catchup.remove(&slot);
        self.catchup_probe = None;
        while let Some((s, v)) = self.log.advance() {
            out.push(PipeOutput::Event(PipeEvent::Committed {
                slot: s,
                value: v,
            }));
            // The execution below the committed prefix is finished
            // state: retire its engine. Laggards replay from the log via
            // catch-up, not from our echoes.
            self.retire(s);
        }
        // Catch-up votes below the committed prefix can never be
        // adopted (the commit cascade may have leapt past them): drop
        // them so the vote map stays bounded by the horizon.
        self.catchup = self.catchup.split_off(&self.log.committed());
    }

    /// Handles catch-up requests, replies and heartbeats.
    fn dispatch_catchup(&mut self, sender: NodeId, msg: &SlotMsg<V>, out: &mut Vec<PipeOutput<V>>) {
        match msg {
            SlotMsg::CatchUpRequest { from } => {
                if sender == self.me {
                    return; // own broadcast copy
                }
                let mut sent = 0u64;
                let mut slot = *from;
                let end = self.log.recorded_len();
                while slot < end && sent < CATCHUP_BATCH {
                    if let Some(v) = self.log.get(slot) {
                        out.push(PipeOutput::Send(
                            sender,
                            SlotMsg::CatchUpReply {
                                slot,
                                value: Arc::clone(v),
                            },
                        ));
                        sent += 1;
                    }
                    slot += 1;
                }
            }
            SlotMsg::CatchUpReply { slot, value } => {
                let slot = *slot;
                // The sender decided `slot`, so it has reached the next.
                self.note_claim(sender, slot.saturating_add(1));
                let committed = self.log.committed();
                if slot < committed
                    || slot >= committed.saturating_add(self.catchup_horizon())
                    || self.log.get(slot).is_some()
                {
                    // Outside the horizon (or already decided): votes
                    // for it are unusable — collecting them anyway
                    // would let a single faulty peer grow the map (and
                    // its Arc'd forged values) without bound.
                    return;
                }
                let votes = self.catchup.entry(slot).or_default();
                if votes.iter().any(|(s, _)| *s == sender) {
                    return; // one vote per peer
                }
                votes.push((sender, Arc::clone(value)));
                let needed = self.params.f() + 1;
                let agreeing = votes
                    .iter()
                    .filter(|(_, v)| v.as_ref() == value.as_ref())
                    .count();
                if agreeing >= needed {
                    let value = Arc::clone(value);
                    out.push(PipeOutput::Event(PipeEvent::CaughtUp {
                        slot,
                        value: Arc::clone(&value),
                    }));
                    self.retire(slot);
                    self.commit(slot, value, out);
                }
            }
            // A peer with a longer prefix has reached a slot we have not:
            // the probe arms once f + 1 peers claim past our prefix.
            SlotMsg::Heartbeat { committed } => self.note_claim(sender, *committed),
            SlotMsg::Slot { .. } => unreachable!("slot traffic is routed by on_wave"),
        }
    }

    /// Gossips this node's committed prefix (rate-limited; silent while
    /// nothing has committed, so a single-slot run stays bit-identical
    /// to the bare engine until its decision).
    fn maybe_heartbeat(&mut self, now: LocalTime, out: &mut Vec<PipeOutput<V>>) {
        let committed = self.log.committed();
        if committed == 0 {
            return;
        }
        if let Some(last) = self.last_heartbeat {
            if now.since_or_zero(last) < self.cfg.catchup_interval && !last.is_after(now) {
                return;
            }
        }
        self.last_heartbeat = Some(now);
        out.push(PipeOutput::Broadcast(SlotMsg::Heartbeat { committed }));
    }

    /// Re-initiates stalled proposer slots (same value, fresh engine,
    /// bumped attempt).
    fn maybe_retry(&mut self, now: LocalTime, out: &mut Vec<PipeOutput<V>>) {
        let Some(after) = self.cfg.retry_after else {
            return;
        };
        if !self.is_proposer() {
            return;
        }
        let due: Vec<u64> = self
            .slots
            .iter()
            .filter(|(_, s)| {
                !s.decided && s.proposed.is_some() && now.since_or_zero(s.started_at) >= after
            })
            .map(|(&slot, _)| slot)
            .collect();
        for slot in due {
            let state = self.slots.get_mut(&slot).expect("collected above");
            let Some(next_attempt) = state.attempt.checked_add(1) else {
                // Attempt numbers exhausted: a wrapped attempt would be
                // dropped as stale everywhere, so stop retrying and
                // leave the slot to the catch-up path.
                continue;
            };
            let value = state.proposed.clone().expect("filtered on proposed");
            state.engine.recycle();
            state.attempt = next_attempt;
            state.started_at = now;
            let attempt = state.attempt;
            state
                .engine
                .initiate(now, value, &mut self.scratch)
                .expect("fresh per-slot engine admits its first initiation");
            self.drain_engine(slot, attempt, out);
            out.push(PipeOutput::WakeAt(now + after));
        }
    }

    /// Broadcasts a catch-up request when this node is visibly behind.
    ///
    /// Two triggers:
    /// * **hard** — an out-of-order hole in the local log, or `f + 1`
    ///   peers reached a full window past our committed prefix: request
    ///   immediately (rate-limited).
    /// * **soft** — `f + 1` peers reached a slot past our prefix (normal
    ///   while executions are in flight) but no commit has landed for a full
    ///   catch-up interval: a stalled slot or a stream that ended while
    ///   we were down. The probe arms on the first stalled tick and
    ///   fires once the stall outlasts the interval; any commit
    ///   disarms it.
    fn maybe_catch_up(&mut self, now: LocalTime, out: &mut Vec<PipeOutput<V>>) {
        let committed = self.log.committed();
        let reached = self.corroborated_slot();
        let internal_gap = self.log.recorded_len() > committed;
        let hard = internal_gap || reached >= committed.saturating_add(self.cfg.window);
        let soft = reached > committed;
        if !hard && !soft {
            self.catchup_probe = None;
            return;
        }
        let due = if hard {
            true
        } else {
            match self.catchup_probe {
                None => {
                    self.catchup_probe = Some(now);
                    false
                }
                Some(since) => {
                    !since.is_after(now) && now.since_or_zero(since) >= self.cfg.catchup_interval
                }
            }
        };
        if !due {
            return;
        }
        if let Some(last) = self.last_catchup {
            if now.since_or_zero(last) < self.cfg.catchup_interval && !last.is_after(now) {
                return;
            }
        }
        self.last_catchup = Some(now);
        self.catchup_probe = Some(now);
        out.push(PipeOutput::Broadcast(SlotMsg::CatchUpRequest {
            from: committed,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params::from_d(4, 1, Duration::from_millis(10), 0).unwrap()
    }

    fn t(ns: u64) -> LocalTime {
        LocalTime::from_nanos(1_000_000_000 + ns)
    }

    /// Drives `n` pipelines through a zero-latency lockstep network
    /// until quiescent, returning the delivered-message count.
    fn settle(pipes: &mut [SlotPipeline<u64>], now: LocalTime) -> usize {
        let mut delivered = 0;
        let mut inflight: VecDeque<(NodeId, Option<NodeId>, SlotMsg<u64>)> = VecDeque::new();
        let mut out = Vec::new();
        // Prime: collect everything already pending via a tick.
        for pipe in pipes.iter_mut() {
            pipe.on_tick(now, &mut out);
            for o in out.drain(..) {
                collect(pipe.me, o, &mut inflight);
            }
        }
        while let Some((from, dest, msg)) = inflight.pop_front() {
            delivered += 1;
            assert!(delivered < 100_000, "lockstep network failed to quiesce");
            for pipe in pipes.iter_mut() {
                if dest.is_some_and(|d| d != pipe.me) {
                    continue;
                }
                pipe.on_message(now, from, &msg, &mut out);
                for o in out.drain(..) {
                    collect(pipe.me, o, &mut inflight);
                }
            }
        }
        delivered
    }

    fn collect(
        from: NodeId,
        o: PipeOutput<u64>,
        inflight: &mut VecDeque<(NodeId, Option<NodeId>, SlotMsg<u64>)>,
    ) {
        match o {
            PipeOutput::Broadcast(m) => inflight.push_back((from, None, m)),
            PipeOutput::Send(to, m) => inflight.push_back((from, Some(to), m)),
            PipeOutput::WakeAt(_) | PipeOutput::Event(_) => {}
        }
    }

    fn cluster(n: usize) -> Vec<SlotPipeline<u64>> {
        let p = params();
        (0..n)
            .map(|i| {
                SlotPipeline::new(
                    NodeId::new(i as u32),
                    p,
                    PipelineConfig::new(NodeId::new(0), &p).with_retry_after(None),
                )
            })
            .collect()
    }

    #[test]
    fn single_slot_decides_and_commits_everywhere() {
        let mut pipes = cluster(4);
        let mut out = Vec::new();
        pipes[0].enqueue(42);
        pipes[0].pump(t(0), &mut out);
        assert!(
            out.iter()
                .any(|o| matches!(o, PipeOutput::Broadcast(SlotMsg::Slot { slot: 0, .. }))),
            "pump must broadcast the slot-0 initiation"
        );
        // Run the whole exchange at one lockstep instant, then advance
        // ticks past the phase deadlines until everyone decides.
        let mut inflight = VecDeque::new();
        for o in out.drain(..) {
            collect(NodeId::new(0), o, &mut inflight);
        }
        while let Some((from, dest, msg)) = inflight.pop_front() {
            for pipe in pipes.iter_mut() {
                if dest.is_some_and(|d| d != pipe.me) {
                    continue;
                }
                pipe.on_message(t(0), from, &msg, &mut out);
                for o in out.drain(..) {
                    collect(pipe.me, o, &mut inflight);
                }
            }
        }
        for step in 1..=400u64 {
            settle(&mut pipes, t(step * 10_000_000));
            if pipes.iter().all(|p| p.log().committed() == 1) {
                break;
            }
        }
        for pipe in &pipes {
            assert_eq!(pipe.log().committed(), 1, "node {:?}", pipe.me);
            assert_eq!(pipe.log().get(0).map(|v| **v), Some(42));
            assert_eq!(pipe.in_flight(), 0, "committed slot engine dropped");
        }
    }

    #[test]
    fn stream_commits_in_slot_order_across_the_window() {
        let mut pipes = cluster(4);
        let mut out = Vec::new();
        for v in 100..110u64 {
            pipes[0].enqueue(v);
        }
        let window = pipes[0].cfg.window;
        pipes[0].pump(t(0), &mut out);
        let opened: Vec<u64> = out
            .iter()
            .filter_map(|o| match o {
                PipeOutput::Broadcast(SlotMsg::Slot { slot, .. }) => Some(*slot),
                _ => None,
            })
            .collect();
        let distinct: std::collections::BTreeSet<u64> = opened.iter().copied().collect();
        assert_eq!(
            distinct.len() as u64,
            window,
            "exactly one initiation per window slot"
        );
        assert_eq!(pipes[0].backlog(), 10 - window as usize);
        // Deliver and tick until the whole stream commits; the window
        // slides as the prefix advances, admitting the backlog.
        let mut inflight = VecDeque::new();
        for o in out.drain(..) {
            collect(NodeId::new(0), o, &mut inflight);
        }
        while let Some((from, dest, msg)) = inflight.pop_front() {
            for pipe in pipes.iter_mut() {
                if dest.is_some_and(|d| d != pipe.me) {
                    continue;
                }
                pipe.on_message(t(0), from, &msg, &mut out);
                for o in out.drain(..) {
                    collect(pipe.me, o, &mut inflight);
                }
            }
        }
        for step in 1..=2000u64 {
            settle(&mut pipes, t(step * 10_000_000));
            if pipes.iter().all(|p| p.log().committed() == 10) {
                break;
            }
        }
        for pipe in &pipes {
            assert_eq!(pipe.log().committed(), 10, "node {:?}", pipe.me);
            for (i, want) in (100..110u64).enumerate() {
                assert_eq!(pipe.log().get(i as u64).map(|v| **v), Some(want));
            }
        }
    }

    #[test]
    fn committed_events_are_strictly_in_slot_order() {
        let p = params();
        let mut pipe: SlotPipeline<u64> =
            SlotPipeline::new(NodeId::new(1), p, PipelineConfig::new(NodeId::new(0), &p));
        let mut out = Vec::new();
        // Record out of order via the commit path: slot 1 first.
        pipe.commit(1, Arc::new(11), &mut out);
        assert!(out.is_empty(), "slot 1 must wait for slot 0");
        assert_eq!(pipe.log().committed(), 0);
        pipe.commit(0, Arc::new(10), &mut out);
        let commits: Vec<u64> = out
            .iter()
            .filter_map(|o| match o {
                PipeOutput::Event(PipeEvent::Committed { slot, .. }) => Some(*slot),
                _ => None,
            })
            .collect();
        assert_eq!(
            commits,
            vec![0, 1],
            "cascade emits the whole prefix in order"
        );
        assert_eq!(pipe.log().committed(), 2);
    }

    #[test]
    fn out_of_window_traffic_is_rejected_and_noted() {
        let p = params(); // f = 1 → 2 corroborating claims required
        let mut pipe: SlotPipeline<u64> = SlotPipeline::new(
            NodeId::new(1),
            p,
            PipelineConfig::new(NodeId::new(0), &p).with_window(2),
        );
        let mut out = Vec::new();
        let msg = SlotMsg::Slot {
            slot: 7,
            attempt: 0,
            inner: Msg::Initiator {
                general: NodeId::new(0),
                value: Arc::new(5u64),
            },
        };
        pipe.on_message(t(0), NodeId::new(0), &msg, &mut out);
        assert_eq!(pipe.in_flight(), 0, "slot 7 is outside [0, 2)");
        assert_eq!(
            pipe.corroborated_slot(),
            0,
            "one claim is not evidence — f peers can forge it"
        );
        pipe.on_message(t(0), NodeId::new(2), &msg, &mut out);
        assert_eq!(pipe.corroborated_slot(), 7, "f + 1 claims record the lag");
        // The next tick (past the catch-up interval) probes for it.
        pipe.on_tick(t(1), &mut out);
        assert!(
            out.iter().any(|o| matches!(
                o,
                PipeOutput::Broadcast(SlotMsg::CatchUpRequest { from: 0 })
            )),
            "lagging node must ask for the missing prefix"
        );
    }

    #[test]
    fn forged_slot_number_does_not_arm_catch_up() {
        let p = params();
        let mut pipe: SlotPipeline<u64> =
            SlotPipeline::new(NodeId::new(1), p, PipelineConfig::new(NodeId::new(0), &p));
        let mut out = Vec::new();
        // A single Byzantine peer claims an absurd slot exists.
        let forged = SlotMsg::Slot {
            slot: u64::MAX,
            attempt: 0,
            inner: Msg::Initiator {
                general: NodeId::new(0),
                value: Arc::new(5u64),
            },
        };
        pipe.on_message(t(0), NodeId::new(3), &forged, &mut out);
        assert_eq!(pipe.corroborated_slot(), 0, "uncorroborated claim ignored");
        // No tick — however far in the future — broadcasts a request.
        for step in 1..=10u64 {
            pipe.on_tick(t(step * 1_000_000_000), &mut out);
            assert!(
                !out.iter()
                    .any(|o| matches!(o, PipeOutput::Broadcast(SlotMsg::CatchUpRequest { .. }))),
                "forged slot must not turn the probe into a broadcast loop"
            );
        }
    }

    #[test]
    fn catch_up_requires_f_plus_one_matching_votes() {
        let p = params(); // n=4, f=1 → 2 matching votes required
        let mut pipe: SlotPipeline<u64> =
            SlotPipeline::new(NodeId::new(3), p, PipelineConfig::new(NodeId::new(0), &p));
        let mut out = Vec::new();
        let reply = |v: u64| SlotMsg::CatchUpReply {
            slot: 0,
            value: Arc::new(v),
        };
        // One Byzantine vote for a forged value: not adopted.
        pipe.on_message(t(0), NodeId::new(1), &reply(666), &mut out);
        assert_eq!(pipe.log().committed(), 0);
        // A duplicate vote from the same peer is ignored.
        pipe.on_message(t(0), NodeId::new(1), &reply(666), &mut out);
        assert_eq!(pipe.log().committed(), 0);
        // Two distinct correct peers vouch for the real value.
        pipe.on_message(t(0), NodeId::new(0), &reply(42), &mut out);
        assert_eq!(pipe.log().committed(), 0, "one honest vote is not enough");
        pipe.on_message(t(0), NodeId::new(2), &reply(42), &mut out);
        assert_eq!(pipe.log().committed(), 1);
        assert_eq!(pipe.log().get(0).map(|v| **v), Some(42));
        assert!(out
            .iter()
            .any(|o| matches!(o, PipeOutput::Event(PipeEvent::CaughtUp { slot: 0, .. }))));
        assert!(out
            .iter()
            .any(|o| matches!(o, PipeOutput::Event(PipeEvent::Committed { slot: 0, .. }))));
    }

    #[test]
    fn catch_up_replies_serve_from_the_log_in_bounded_batches() {
        let p = params();
        let mut pipe: SlotPipeline<u64> =
            SlotPipeline::new(NodeId::new(0), p, PipelineConfig::new(NodeId::new(0), &p));
        let mut out = Vec::new();
        for slot in 0..(CATCHUP_BATCH + 5) {
            pipe.commit(slot, Arc::new(slot), &mut out);
        }
        pipe.on_message(
            t(0),
            NodeId::new(2),
            &SlotMsg::CatchUpRequest { from: 3 },
            &mut out,
        );
        let replies: Vec<(NodeId, u64)> = out
            .iter()
            .filter_map(|o| match o {
                PipeOutput::Send(to, SlotMsg::CatchUpReply { slot, .. }) => Some((*to, *slot)),
                _ => None,
            })
            .collect();
        assert_eq!(replies.len() as u64, CATCHUP_BATCH, "batch is bounded");
        assert!(replies.iter().all(|(to, _)| *to == NodeId::new(2)));
        assert_eq!(replies.first().map(|(_, s)| *s), Some(3));
    }

    #[test]
    fn higher_attempt_resets_a_receivers_slot_engine() {
        let p = params();
        let mut pipe: SlotPipeline<u64> =
            SlotPipeline::new(NodeId::new(1), p, PipelineConfig::new(NodeId::new(0), &p));
        let mut out = Vec::new();
        let init = |attempt: u32| SlotMsg::Slot {
            slot: 0,
            attempt,
            inner: Msg::Initiator {
                general: NodeId::new(0),
                value: Arc::new(5u64),
            },
        };
        pipe.on_message(t(0), NodeId::new(0), &init(0), &mut out);
        assert_eq!(pipe.in_flight(), 1);
        assert_eq!(pipe.slots[&0].attempt, 0);
        pipe.on_message(t(10), NodeId::new(0), &init(2), &mut out);
        assert_eq!(pipe.slots[&0].attempt, 2, "engine reset to the new attempt");
        // Stale attempt-0 traffic is now dropped.
        pipe.on_message(t(20), NodeId::new(0), &init(0), &mut out);
        assert_eq!(pipe.slots[&0].attempt, 2);
    }

    #[test]
    fn attempt_bump_from_non_proposer_is_ignored() {
        let p = params();
        let mut pipe: SlotPipeline<u64> =
            SlotPipeline::new(NodeId::new(1), p, PipelineConfig::new(NodeId::new(0), &p));
        let mut out = Vec::new();
        let init = |attempt: u32| SlotMsg::Slot {
            slot: 0,
            attempt,
            inner: Msg::Initiator {
                general: NodeId::new(0),
                value: Arc::new(5u64),
            },
        };
        pipe.on_message(t(0), NodeId::new(0), &init(0), &mut out);
        assert_eq!(pipe.slots[&0].attempt, 0);
        // A Byzantine peer out-bids the proposer with a huge attempt:
        // the in-progress engine must survive untouched...
        pipe.on_message(t(10), NodeId::new(2), &init(u32::MAX), &mut out);
        assert_eq!(pipe.slots[&0].attempt, 0, "forged bump must not reset");
        // ...and genuine proposer traffic at the real attempt is still
        // admitted (the slot is not wedged behind a forged attempt).
        pipe.on_message(t(20), NodeId::new(0), &init(0), &mut out);
        assert_eq!(pipe.slots[&0].attempt, 0);
        assert_eq!(pipe.in_flight(), 1);
    }

    #[test]
    fn attempt_bump_requires_the_proposers_initiator() {
        let p = params();
        let mut pipe: SlotPipeline<u64> =
            SlotPipeline::new(NodeId::new(1), p, PipelineConfig::new(NodeId::new(0), &p));
        let mut out = Vec::new();
        // No engine exists for slot 0 yet: non-proposer traffic at a
        // non-zero attempt must not create one at that attempt (that
        // would drop the real proposer's lower-attempt messages).
        let forged = SlotMsg::Slot {
            slot: 0,
            attempt: 7,
            inner: Msg::Initiator {
                general: NodeId::new(0),
                value: Arc::new(5u64),
            },
        };
        pipe.on_message(t(0), NodeId::new(3), &forged, &mut out);
        assert_eq!(pipe.in_flight(), 0, "non-proposer cannot open attempt 7");
        // Open the slot legitimately at attempt 0.
        let init0 = SlotMsg::Slot {
            slot: 0,
            attempt: 0,
            inner: Msg::Initiator {
                general: NodeId::new(0),
                value: Arc::new(5u64),
            },
        };
        pipe.on_message(t(0), NodeId::new(0), &init0, &mut out);
        assert_eq!(pipe.slots[&0].attempt, 0);
        // Even the proposer itself only resets via an Initiator: a
        // bumped-attempt support message does not qualify.
        let proposer_support = SlotMsg::Slot {
            slot: 0,
            attempt: 5,
            inner: Msg::Ia {
                kind: crate::message::IaKind::Support,
                general: NodeId::new(0),
                value: Arc::new(5u64),
            },
        };
        pipe.on_message(t(5), NodeId::new(0), &proposer_support, &mut out);
        assert_eq!(pipe.slots[&0].attempt, 0, "non-Initiator cannot reset");
        let wave = [(
            NodeId::new(0),
            SlotMsg::Slot {
                slot: 0,
                attempt: 3,
                inner: Msg::Initiator {
                    general: NodeId::new(0),
                    value: Arc::new(5u64),
                },
            },
        )];
        pipe.on_wave(t(10), &wave, &mut out);
        assert_eq!(
            pipe.slots[&0].attempt, 3,
            "proposer Initiator resets via the wave path too"
        );
    }

    #[test]
    fn catch_up_replies_outside_the_horizon_are_dropped() {
        let p = params();
        let mut pipe: SlotPipeline<u64> =
            SlotPipeline::new(NodeId::new(1), p, PipelineConfig::new(NodeId::new(0), &p));
        let mut out = Vec::new();
        let horizon = pipe.catchup_horizon();
        // Replies for arbitrary far-away slots must not accumulate.
        for k in 0..100u64 {
            pipe.on_message(
                t(0),
                NodeId::new(3),
                &SlotMsg::CatchUpReply {
                    slot: horizon + k,
                    value: Arc::new(666),
                },
                &mut out,
            );
        }
        assert!(
            pipe.catchup.is_empty(),
            "out-of-horizon votes must not be collected"
        );
        // In-horizon votes are, and commits garbage-collect the ones
        // the cascade leaps past.
        for slot in [1u64, 2] {
            pipe.on_message(
                t(0),
                NodeId::new(3),
                &SlotMsg::CatchUpReply {
                    slot,
                    value: Arc::new(10 * slot),
                },
                &mut out,
            );
        }
        assert_eq!(pipe.catchup.len(), 2);
        pipe.commit(1, Arc::new(11), &mut out);
        pipe.commit(2, Arc::new(22), &mut out);
        pipe.commit(0, Arc::new(0), &mut out); // cascade commits 0..=2
        assert_eq!(pipe.log().committed(), 3);
        assert!(
            pipe.catchup.is_empty(),
            "votes below the committed prefix must be garbage-collected"
        );
    }

    #[test]
    fn retry_stops_at_attempt_exhaustion_without_panicking() {
        let p = params();
        let retry = Duration::from_millis(50);
        let mut pipe: SlotPipeline<u64> = SlotPipeline::new(
            NodeId::new(0),
            p,
            PipelineConfig::new(NodeId::new(0), &p).with_retry_after(Some(retry)),
        );
        let mut out = Vec::new();
        pipe.enqueue(9);
        pipe.pump(t(0), &mut out);
        pipe.slots.get_mut(&0).unwrap().attempt = u32::MAX;
        // Must neither overflow-panic nor wrap to attempt 0.
        pipe.on_tick(t(retry.as_nanos() + 1), &mut out);
        assert_eq!(pipe.slots[&0].attempt, u32::MAX, "no wrap");
        assert!(
            !out.iter()
                .any(|o| matches!(o, PipeOutput::Broadcast(SlotMsg::Slot { .. }))),
            "an exhausted slot is not re-initiated"
        );
    }

    #[test]
    fn proposer_retries_a_stalled_slot_with_the_same_value() {
        let p = params();
        let retry = Duration::from_millis(50);
        let mut pipe: SlotPipeline<u64> = SlotPipeline::new(
            NodeId::new(0),
            p,
            PipelineConfig::new(NodeId::new(0), &p).with_retry_after(Some(retry)),
        );
        let mut out = Vec::new();
        pipe.enqueue(9);
        pipe.pump(t(0), &mut out);
        assert!(out
            .iter()
            .any(|o| matches!(o, PipeOutput::Broadcast(SlotMsg::Slot { attempt: 0, .. }))));
        // No peer traffic arrives; past the retry deadline the tick
        // re-initiates under attempt 1 with the same value.
        pipe.on_tick(t(retry.as_nanos() + 1), &mut out);
        let retried: Vec<(u32, u64)> = out
            .iter()
            .filter_map(|o| match o {
                PipeOutput::Broadcast(SlotMsg::Slot {
                    attempt,
                    inner: Msg::Initiator { value, .. },
                    ..
                }) => Some((*attempt, **value)),
                _ => None,
            })
            .collect();
        assert_eq!(retried, vec![(1, 9)], "same value, bumped attempt");
    }

    #[test]
    fn decision_log_records_out_of_order_and_first_write_wins() {
        let mut log: DecisionLog<u64> = DecisionLog::new();
        assert!(log.record(2, Arc::new(20)));
        assert_eq!(log.committed(), 0);
        assert_eq!(log.recorded_len(), 3);
        assert!(log.record(0, Arc::new(0)));
        assert_eq!(std::iter::from_fn(|| log.advance()).count(), 1);
        assert_eq!(log.committed(), 1);
        assert!(!log.record(2, Arc::new(99)), "conflicting write ignored");
        assert_eq!(log.get(2).map(|v| **v), Some(20));
        assert!(log.record(1, Arc::new(10)));
        let cascade: Vec<u64> = std::iter::from_fn(|| log.advance())
            .map(|(s, _)| s)
            .collect();
        assert_eq!(cascade, vec![1, 2]);
        assert_eq!(log.committed(), 3);
    }

    /// Delivers `Heartbeat { committed }` from each of `peers`.
    fn heartbeats_at(pipe: &mut SlotPipeline<u64>, peers: &[u32], committed: u64) {
        let mut out = Vec::new();
        for &peer in peers {
            let hb = SlotMsg::Heartbeat { committed };
            pipe.on_message(t(0), NodeId::new(peer), &hb, &mut out);
        }
    }

    fn requests(out: &[PipeOutput<u64>]) -> Vec<u64> {
        out.iter()
            .filter_map(|o| match o {
                PipeOutput::Broadcast(SlotMsg::CatchUpRequest { from }) => Some(*from),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn heartbeats_one_slot_ahead_arm_catch_up() {
        let p = params(); // f = 1
        let cfg = PipelineConfig::new(NodeId::new(0), &p);
        let interval = cfg.catchup_interval;
        let mut pipe: SlotPipeline<u64> = SlotPipeline::new(NodeId::new(3), p, cfg);
        let mut out = Vec::new();
        for slot in 0..5 {
            pipe.commit(slot, Arc::new(slot), &mut out);
        }
        heartbeats_at(&mut pipe, &[0, 1], 6);
        assert_eq!(pipe.corroborated_slot(), 6);
        pipe.on_tick(t(1), &mut out);
        assert!(
            requests(&out).is_empty(),
            "the probe arms, it does not fire"
        );
        pipe.on_tick(t(1 + interval.as_nanos()), &mut out);
        assert_eq!(requests(&out), vec![5], "asks for the one missing slot");
    }

    #[test]
    fn f_heartbeats_never_arm_catch_up() {
        let p = params(); // f = 1
        let mut pipe: SlotPipeline<u64> =
            SlotPipeline::new(NodeId::new(3), p, PipelineConfig::new(NodeId::new(0), &p));
        let mut out = Vec::new();
        heartbeats_at(&mut pipe, &[2], u64::MAX);
        assert_eq!(pipe.corroborated_slot(), 0);
        for step in 1..=10u64 {
            pipe.on_tick(t(step * 1_000_000_000), &mut out);
            assert!(
                requests(&out).is_empty(),
                "f forged heartbeats are no evidence"
            );
        }
    }

    #[test]
    fn empty_heartbeat_is_no_claim() {
        let p = params();
        let mut pipe: SlotPipeline<u64> =
            SlotPipeline::new(NodeId::new(3), p, PipelineConfig::new(NodeId::new(0), &p));
        heartbeats_at(&mut pipe, &[0, 1, 2], 0);
        assert_eq!(pipe.corroborated_slot(), 0);
        let mut out = Vec::new();
        for step in 1..=10u64 {
            pipe.on_tick(t(step * 1_000_000_000), &mut out);
            assert!(requests(&out).is_empty(), "a prefix of 0 claims nothing");
        }
    }

    /// The O(n²) definition `corroborated_slot` replaced: the largest
    /// claim that at least `f + 1` claims reach, over the peers that
    /// claimed.
    fn corroborated_slot_oracle(claims: &BTreeMap<NodeId, u64>, f: usize) -> u64 {
        let all = || claims.values().copied();
        all()
            .filter(|&c| all().filter(|&x| x >= c).count() > f)
            .max()
            .unwrap_or(0)
    }

    /// The selection agrees with the counting definition over random
    /// claim sets: forged `u64::MAX` claims, fewer than `f + 1` peers,
    /// ties, claims from outside the membership and from this node, and
    /// memberships up to 128.
    #[test]
    fn corroborated_slot_matches_counting_oracle() {
        let mut e = crate::corrupt::xorshift(42);
        for case in 0..2_000 {
            let n = 4 + (e() % 125) as usize;
            let f = 1 + (e() % ((n as u64 - 1) / 3)) as usize;
            let p = Params::from_d(n, f, Duration::from_millis(10), 0).unwrap();
            let me = NodeId::new((e() % n as u64) as u32);
            let mut pipe: SlotPipeline<u64> =
                SlotPipeline::new(me, p, PipelineConfig::new(NodeId::new(0), &p));
            let mut oracle = BTreeMap::new();
            // Sparse cases leave fewer than f + 1 peers with a claim.
            let claims = e() % (2 * n as u64 + 1);
            let spread = [3, 50, u64::MAX][case % 3];
            for _ in 0..claims {
                let sender = NodeId::new((e() % (n as u64 + 2)) as u32);
                let slot = match e() % 8 {
                    0 => u64::MAX,
                    _ => e() % spread,
                };
                pipe.note_claim(sender, slot);
                if sender != me && sender.index() < n {
                    let claim = oracle.entry(sender).or_insert(slot);
                    *claim = (*claim).max(slot);
                }
            }
            assert_eq!(
                pipe.corroborated_slot(),
                corroborated_slot_oracle(&oracle, f),
                "n={n} f={f} claims={oracle:?}"
            );
        }
    }
}
