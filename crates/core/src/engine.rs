//! The per-node protocol engine.
//!
//! [`Engine`] multiplexes one `Initiator-Accept` instance and one
//! `ss-Byz-Agree` instance per General, routes authenticated wire messages
//! to them, runs the periodic cleanup that every self-stabilizing data
//! structure requires, and — when this node acts as General — enforces the
//! Sending Validity Criteria ``[IG1]``–``[IG3]`` of paper §3/§4.
//!
//! The engine is **sans-io**: it never touches a network or a clock. A
//! harness (the deterministic simulator in `ssbyz-simnet`, or the threaded
//! runtime in `ssbyz-runtime`) feeds it `(local-time, event)` pairs along
//! with a caller-owned [`Outbox`], and executes the [`Output`]s left in
//! it.
//!
//! Two structural properties define the delivery path:
//!
//! * **Pooled dispatch** — the outbox is a caller-owned arena; the
//!   no-output common case under Byzantine spam (duplicate and suppressed
//!   deliveries) performs **zero** heap allocations.
//! * **Value interning** — each wire value is hashed once at the engine
//!   boundary into a dense [`ValueId`]
//!   (see [`crate::intern`]); every per-value table downstream
//!   (`InitiatorAccept::values`, `MsgdBroadcast::triplets`,
//!   `Agreement::accepted`, the General-side `last_per_value` guard) is a
//!   flat slot vector indexed by the id, so per-delivery value lookups are
//!   O(1) array indexings. Ids are resolved back to values only at output
//!   emission, and reclaimed by a mark/sweep on the cleanup cadence once
//!   their state decays.

use std::fmt::{self, Write};
use std::sync::Arc;

use ssbyz_types::{DenseNodeMap, Duration, LocalTime, NodeId, Value};

use crate::agreement::Agreement;
use crate::corrupt::{Entropy, Garbage};
use crate::initiator_accept::{InitiatorAccept, OwnProgress};
use crate::intern::{ValueId, ValueIdMap, ValueInterner};
use crate::message::{IaKind, Msg};
use crate::outbox::Outbox;
use crate::params::Params;
use crate::store::Due;

/// An instruction from the engine to its harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output<V> {
    /// Broadcast `msg` to **all** nodes (including this one — the paper's
    /// "send to all" is uniform, and the node's own copy travels through
    /// the same network path as everyone else's).
    Broadcast(Msg<V>),
    /// Schedule a call to [`Engine::on_tick`] at this local time (in
    /// addition to the harness's own periodic tick).
    WakeAt(LocalTime),
    /// An observable protocol event.
    Event(Event<V>),
}

/// Observable protocol events, consumed by harnesses and property checkers.
///
/// Value fields are shared handles resolved straight from the interner's
/// arena slot — emitting an event never deep-copies `V`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<V> {
    /// `Initiator-Accept` issued an I-accept `⟨G, m, τ_G⟩`.
    IAccepted {
        /// The General.
        general: NodeId,
        /// The accepted candidate value.
        value: Arc<V>,
        /// The local-time anchor.
        tau_g: LocalTime,
    },
    /// `ss-Byz-Agree(G)` decided a value.
    Decided {
        /// The General.
        general: NodeId,
        /// The decided value `m`.
        value: Arc<V>,
        /// The anchor of the execution.
        tau_g: LocalTime,
        /// Local decision time.
        at: LocalTime,
    },
    /// `ss-Byz-Agree(G)` returned ⊥.
    Aborted {
        /// The General.
        general: NodeId,
        /// The anchor of the execution.
        tau_g: LocalTime,
        /// Local abort time.
        at: LocalTime,
    },
    /// Acting as General, this node detected a failed initiation
    /// (criterion ``[IG3]``) and is backing off for `Δ_reset`.
    InitiationFailed {
        /// The value whose initiation failed.
        value: Arc<V>,
        /// When the failure was detected.
        at: LocalTime,
    },
}

/// Why [`Engine::initiate`] refused to start an agreement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InitiateError {
    /// ``[IG1]``: less than `Δ0` since the previous initiation.
    TooSoon {
        /// Remaining wait.
        wait: Duration,
    },
    /// ``[IG2]``: less than `Δ_v` since the previous initiation of this value.
    SameValueTooSoon {
        /// Remaining wait.
        wait: Duration,
    },
    /// ``[IG3]``: a previous initiation failed less than `Δ_reset` ago.
    BackingOff {
        /// Remaining wait.
        wait: Duration,
    },
}

impl fmt::Display for InitiateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InitiateError::TooSoon { wait } => {
                write!(f, "initiation violates IG1, wait {wait}")
            }
            InitiateError::SameValueTooSoon { wait } => {
                write!(f, "initiation violates IG2, wait {wait}")
            }
            InitiateError::BackingOff { wait } => {
                write!(f, "initiation violates IG3, backing off for {wait}")
            }
        }
    }
}

impl std::error::Error for InitiateError {}

/// State for this node's own role as General: the Sending Validity
/// Criteria and the ``[IG3]`` failure monitor. All value references are
/// interned ids.
#[derive(Debug, Clone, Default)]
struct GeneralControl {
    /// Last initiation of any value (``[IG1]``).
    last_initiation: Option<LocalTime>,
    /// Last initiation per value (``[IG2]``); pruned at `Δ_v`.
    last_per_value: ValueIdMap<LocalTime>,
    /// Set when ``[IG3]`` failed; blocks initiations until `+ Δ_reset`.
    failed_at: Option<LocalTime>,
    /// Outstanding progress checks.
    pending_checks: Vec<PendingCheck>,
    /// When [`GeneralControl::cleanup`] can next change anything.
    due: Due,
}

impl GeneralControl {
    /// Empties the guards to a default set's, keeping their capacity.
    fn recycle(&mut self) {
        let (mut last_per_value, mut pending_checks) = (
            std::mem::take(&mut self.last_per_value),
            std::mem::take(&mut self.pending_checks),
        );
        last_per_value.clear();
        pending_checks.clear();
        *self = GeneralControl {
            last_per_value,
            pending_checks,
            ..GeneralControl::default()
        };
    }

    /// Decay of the General-side guards: ``[IG1]`` after `Δ0`, ``[IG2]``
    /// after `Δ_v`, the ``[IG3]`` backoff after `Δ_reset`, stale monitors
    /// after `8d`. Recomputes the due exactly, and returns whether a value
    /// reference was dropped, here or (when forced) since the last walk.
    fn cleanup(&mut self, now: LocalTime, p: Params) -> bool {
        let forced = self.due == Due::Now;
        let expired = |t: LocalTime, horizon: Duration| t.is_after(now) || now.since(t) > horizon;
        if self
            .last_initiation
            .is_some_and(|t| expired(t, p.delta_0()))
        {
            self.last_initiation = None;
        }
        let (guarded, checks) = (self.last_per_value.len(), self.pending_checks.len());
        self.last_per_value.retain(|_, t| !expired(*t, p.delta_v()));
        if self.failed_at.is_some_and(|t| expired(t, p.delta_reset())) {
            self.failed_at = None;
        }
        self.pending_checks
            .retain(|c| !expired(c.invoked_at, p.d() * 8u64));
        self.due = self.next_due(p);
        forced || self.last_per_value.len() < guarded || self.pending_checks.len() < checks
    }

    /// The exact due of the guards as they stand.
    fn next_due(&self, p: Params) -> Due {
        let mut due = Due::Never;
        if let Some(t) = self.last_initiation {
            due.lower(t + p.delta_0());
        }
        for (_, &t) in self.last_per_value.iter() {
            due.lower(t + p.delta_v());
        }
        if let Some(t) = self.failed_at {
            due.lower(t + p.delta_reset());
        }
        for check in &self.pending_checks {
            due.lower(check.invoked_at + p.d() * 8u64);
        }
        due
    }

    /// Plants the engine-level residue of a scramble: of
    /// [`SCRAMBLED_JUNK`] fabricated values, even draws are interner junk
    /// nothing references, odd ones bogus ``[IG2]`` stamps or phantom
    /// ``[IG3]`` monitors; then coin-flipped ``[IG1]`` and backoff guards.
    fn plant<V: Value>(&mut self, g: &mut Garbage<'_, V>) {
        self.due = Due::Now;
        for i in 0..SCRAMBLED_JUNK {
            let v = g.value();
            if i % 2 == 0 {
                g.intern(&v);
            } else if g.chance(1, 2) {
                // Possibly future-dated.
                let at = g.stamp();
                self.last_per_value.insert(g.intern(&v), at);
            } else {
                let invoked_at = g.stamp();
                self.pending_checks.push(PendingCheck {
                    value: g.intern(&v),
                    invoked_at,
                    approve_ok: false,
                    ready_ok: false,
                    accept_ok: false,
                });
            }
        }
        self.last_initiation = g.chance(1, 2).then(|| g.stamp());
        self.failed_at = g.chance(1, 4).then(|| g.stamp());
    }
}

/// One ``[IG3]`` progress monitor. Stage completion is latched *stickily* at
/// every tick: the post-return reset of the Initiator-Accept instance may
/// erase the raw progress stamps (3d after an early decision) before the
/// final `+4d` deadline check runs, so the monitor must not re-read them
/// at the deadline.
#[derive(Debug, Clone)]
struct PendingCheck {
    value: ValueId,
    invoked_at: LocalTime,
    approve_ok: bool,
    ready_ok: bool,
    accept_ok: bool,
}

/// How many Generals' instances (drawn with repetition) one
/// [`Engine::scramble`] plants residue in.
const SCRAMBLED_GENERALS: usize = 3;

/// How many fabricated values one [`Engine::scramble`] leaves at the
/// engine level: even draws are interner junk, odd ones bogus `[IG2]`
/// stamps or phantom `[IG3]` monitors.
const SCRAMBLED_JUNK: usize = 8;

/// Baseline interner occupancy above which the engine forces an
/// off-cadence mark/sweep (doubling thereafter), so a line-rate
/// value-minting storm cannot balloon the arena between cleanup cadences.
const INTERN_SWEEP_BASE: usize = 1024;

/// Key-probe budget of one [`Engine::on_wave_ref`] plan, per arrival: a
/// wave whose keys repeat needs about one probe per arrival plus one scan
/// per distinct key; past this many (plus [`WAVE_PROBE_SLACK`]) the wave
/// is key-minting spam and is dispatched per message.
const WAVE_PROBE_FACTOR: usize = 4;

/// Flat allowance on top of [`WAVE_PROBE_FACTOR`], so short waves of
/// all-distinct keys still plan.
const WAVE_PROBE_SLACK: usize = 64;

/// End-of-chain marker in the per-entry `next` links of a wave plan.
const NO_NEXT: u32 = u32::MAX;

/// One dispatch unit of a planned wave: a same-key `Bcast` group (its
/// entries chained through the plan's `next` links in arrival order), or
/// a lone entry dispatched per message.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WaveUnit {
    /// First entry (carries the key).
    head: u32,
    /// Last entry so far (where the next arrival links in).
    tail: u32,
    /// Number of entries.
    len: u32,
}

impl WaveUnit {
    fn single(entry: u32) -> Self {
        WaveUnit {
            head: entry,
            tail: entry,
            len: 1,
        }
    }
}

/// Whether two `Bcast` messages name the same triplet stage. Values
/// compare by content — equal payloads behind distinct `Arc`s are one key.
fn same_bcast_key<V: Value>(a: &Msg<V>, b: &Msg<V>) -> bool {
    match (a, b) {
        (
            Msg::Bcast {
                kind: k1,
                general: g1,
                broadcaster: b1,
                value: v1,
                round: r1,
            },
            Msg::Bcast {
                kind: k2,
                general: g2,
                broadcaster: b2,
                value: v2,
                round: r2,
            },
        ) => k1 == k2 && g1 == g2 && b1 == b2 && r1 == r2 && (Arc::ptr_eq(v1, v2) || **v1 == **v2),
        _ => false,
    }
}

/// How an engine's `Bcast` arrivals were dispatched — the counter that
/// shows whether the echo storm actually lands as waves — and how much
/// walking its decay passes did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Same-key groups (≥ 2 arrivals) dispatched as one wave pass.
    pub wave_groups: u64,
    /// `Bcast` arrivals covered by those groups.
    pub wave_arrivals: u64,
    /// `Bcast` arrivals dispatched one at a time.
    pub single_arrivals: u64,
    /// Key comparisons spent grouping waves.
    pub key_probes: u64,
    /// Instance walks the decay passes ran: one per `Initiator-Accept`
    /// instance, agreement-level state, `msgd-broadcast` state or set of
    /// General-side guards whose due had passed.
    pub decay_walks: u64,
}

/// The complete protocol state of one node.
///
/// Every entry point fills a caller-owned [`Outbox`]; each call clears
/// the previous call's outputs first, so read (or drain) them before the
/// next call. See the [`crate::outbox`] module docs for the full
/// ownership rules.
///
/// # Example
///
/// ```
/// use ssbyz_core::{Engine, Outbox, Output, Params};
/// use ssbyz_types::{Duration, LocalTime, NodeId};
///
/// let params = Params::from_d(4, 1, Duration::from_millis(10), 0)?;
/// let mut engine: Engine<u64> = Engine::new(NodeId::new(0), params);
/// let mut outbox: Outbox<u64> = Outbox::new();
/// let now = LocalTime::from_nanos(1_000_000_000);
/// engine.initiate(now, 42, &mut outbox).expect("fresh engine may initiate");
/// assert!(matches!(outbox.outputs()[0], Output::Broadcast(_)));
/// # Ok::<(), ssbyz_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Engine<V: Value> {
    me: NodeId,
    params: Params,
    /// The per-execution value interner: `V → ValueId` at the boundary,
    /// `ValueId → V` at emission.
    interner: ValueInterner<V>,
    /// Per-General `Initiator-Accept` instances, dense by General id and
    /// boxed, so an absent General's slot costs a pointer.
    ia: DenseNodeMap<Box<InitiatorAccept>>,
    /// Per-General agreement instances, dense by General id, boxed.
    agr: DenseNodeMap<Box<Agreement>>,
    general_ctl: GeneralControl,
    last_cleanup: Option<LocalTime>,
    /// The latest local time state was written at (the last decay pass
    /// at least): a pass before it walks everything.
    newest: Option<LocalTime>,
    /// Occupancy threshold for the forced off-cadence sweep.
    sweep_high_water: usize,
    /// Interner occupancy the last sweep left: more means fresh ids.
    swept_live: usize,
    stats: DispatchStats,
    /// The instances a [`Engine::recycle`] dropped, by General: the next
    /// instance for the same General reuses its spare, so its tables keep
    /// their capacity.
    spare_ia: DenseNodeMap<Box<InitiatorAccept>>,
    spare_agr: DenseNodeMap<Box<Agreement>>,
}

impl<V: Value> Engine<V> {
    /// Creates a node engine with entirely fresh state.
    #[must_use]
    pub fn new(me: NodeId, params: Params) -> Self {
        Engine {
            me,
            params,
            interner: ValueInterner::new(),
            ia: DenseNodeMap::with_capacity(params.n()),
            agr: DenseNodeMap::with_capacity(params.n()),
            general_ctl: GeneralControl::default(),
            last_cleanup: None,
            newest: None,
            sweep_high_water: INTERN_SWEEP_BASE,
            swept_live: 0,
            stats: DispatchStats::default(),
            spare_ia: DenseNodeMap::new(),
            spare_agr: DenseNodeMap::new(),
        }
    }

    /// Makes this engine indistinguishable from `Engine::new(me, params)`
    /// with its own `me` and `params` — same outputs, protocol state,
    /// interner ids and [`DispatchStats`] from here on — while every table
    /// it grew keeps its capacity: its instances become the spares of
    /// their Generals (the spares it held until now are dropped). The
    /// slot pipeline recycles a finished slot's engine into the next slot
    /// instead of building a new one.
    #[doc(hidden)]
    pub fn recycle(&mut self) {
        self.interner.clear();
        std::mem::swap(&mut self.ia, &mut self.spare_ia);
        self.ia.clear();
        std::mem::swap(&mut self.agr, &mut self.spare_agr);
        self.agr.clear();
        self.general_ctl.recycle();
        self.last_cleanup = None;
        self.newest = None;
        self.sweep_high_water = INTERN_SWEEP_BASE;
        self.swept_live = 0;
        self.stats = DispatchStats::default();
    }

    /// How `Bcast` arrivals have been dispatched since construction.
    #[must_use]
    pub fn dispatch_stats(&self) -> DispatchStats {
        self.stats
    }

    /// This node's identity.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// The protocol constants in force.
    #[must_use]
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Read access to the value interner (occupancy/capacity
    /// introspection for the bounded-interner tests).
    #[must_use]
    pub fn interner(&self) -> &ValueInterner<V> {
        &self.interner
    }

    /// Acting as General: initiate agreement on `value` (block Q0),
    /// subject to the Sending Validity Criteria. Outputs (the `Initiator`
    /// broadcast and the ``[IG3]`` wake-ups) land in `ob`.
    ///
    /// # Errors
    ///
    /// Returns an [`InitiateError`] when any of ``[IG1]``–``[IG3]`` would be
    /// violated; a *correct* General must respect the refusal (a Byzantine
    /// one bypasses the engine entirely and speaks raw messages). The
    /// outbox is left empty on refusal.
    pub fn initiate(
        &mut self,
        now: LocalTime,
        value: V,
        ob: &mut Outbox<V>,
    ) -> Result<(), InitiateError> {
        ob.begin();
        let p = self.params;
        if let Some(failed) = self.general_ctl.failed_at {
            let elapsed = now.since_or_zero(failed);
            if failed.is_after(now) || elapsed < p.delta_reset() {
                return Err(InitiateError::BackingOff {
                    wait: p.delta_reset().saturating_sub(elapsed),
                });
            }
        }
        if let Some(last) = self.general_ctl.last_initiation {
            let elapsed = now.since_or_zero(last);
            if last.is_after(now) || elapsed < p.delta_0() {
                return Err(InitiateError::TooSoon {
                    wait: p.delta_0().saturating_sub(elapsed),
                });
            }
        }
        // [IG2] is the per-value guard: intern once, then the lookup is an
        // array index. The value is boxed into its `Arc` here — the single
        // deep allocation of the whole emission path; every downstream
        // copy (arena slot, broadcast payload, event) is a reference bump.
        // (A refused initiation may leave an unreferenced id behind; the
        // next sweep reclaims it.)
        let shared = Arc::new(value);
        let id = self.interner.intern_shared(&shared);
        if let Some(last) = self.general_ctl.last_per_value.get(id) {
            let elapsed = now.since_or_zero(*last);
            if last.is_after(now) || elapsed < p.delta_v() {
                return Err(InitiateError::SameValueTooSoon {
                    wait: p.delta_v().saturating_sub(elapsed),
                });
            }
        }
        // "The General, before initiating the primitive, removes from its
        // memory all previously received messages associated with any
        // previous invocation of the primitive with him as a General."
        let me = self.me;
        self.note_write(now);
        self.ia_entry(me).clear_messages_before_initiation();
        self.general_ctl.last_initiation = Some(now);
        self.general_ctl.last_per_value.insert(id, now);
        self.general_ctl.pending_checks.push(PendingCheck {
            value: id,
            invoked_at: now,
            approve_ok: false,
            ready_ok: false,
            accept_ok: false,
        });
        let d = p.d();
        // The [IG3] monitor is the nearest expiry set here.
        self.general_ctl.due.lower(now + d * 8u64);
        ob.out.push(Output::Broadcast(Msg::Initiator {
            general: self.me,
            value: shared,
        }));
        // [IG3] progress checks at +2d, +3d, +4d (lines L4/M4/N4).
        ob.out
            .push(Output::WakeAt(now + d * 2u64 + Duration::from_nanos(1)));
        ob.out
            .push(Output::WakeAt(now + d * 3u64 + Duration::from_nanos(1)));
        ob.out
            .push(Output::WakeAt(now + d * 4u64 + Duration::from_nanos(1)));
        Ok(())
    }

    /// Feeds an authenticated wire message (owned-payload convenience
    /// wrapper over [`Engine::on_message_ref`]).
    pub fn on_message(&mut self, now: LocalTime, sender: NodeId, msg: Msg<V>, ob: &mut Outbox<V>) {
        self.on_message_ref(now, sender, &msg, ob);
    }

    /// By-reference message dispatch — the hot path for `Arc`-shared
    /// broadcast payloads. The embedded value is interned exactly once
    /// (cloned only on first sight, into the interner's arena); a
    /// duplicate or suppressed delivery is a hash probe plus array
    /// indexings and touches the heap **zero** times.
    pub fn on_message_ref(
        &mut self,
        now: LocalTime,
        sender: NodeId,
        msg: &Msg<V>,
        ob: &mut Outbox<V>,
    ) {
        ob.begin();
        self.handle_message(now, sender, msg, ob);
    }

    /// One message's dispatch, sans the per-call output reset — shared by
    /// [`Engine::on_message_ref`] and the singleton/barrier/fallback arms
    /// of [`Engine::on_wave_ref`].
    fn handle_message(&mut self, now: LocalTime, sender: NodeId, msg: &Msg<V>, ob: &mut Outbox<V>) {
        if matches!(msg, Msg::Bcast { .. }) {
            self.stats.single_arrivals += 1;
        }
        let n = self.params.n();
        // The membership is fixed and globally known: claims naming ids
        // outside `0..n` can only be transient residue or adversary
        // fabrications — drop them before they allocate any state (or
        // intern-table space).
        if sender.index() >= n || msg.general().index() >= n {
            return;
        }
        self.cleanup_if_due(now);
        match msg {
            Msg::Initiator { general, value } => {
                if sender != *general {
                    return; // forged initiation — identity is authenticated
                }
                let id = self.interner.intern_shared(value);
                let (params, spare) = (self.params, &mut self.spare_ia);
                let ia = self
                    .ia
                    .get_or_insert_with(*general, || new_ia(spare, *general, params));
                ia.on_initiator(now, id, &self.interner, &mut ob.ia);
                self.absorb_ia(now, *general, ob);
            }
            Msg::Ia {
                kind,
                general,
                value,
            } => {
                let id = self.interner.intern_shared(value);
                let (params, spare) = (self.params, &mut self.spare_ia);
                let ia = self
                    .ia
                    .get_or_insert_with(*general, || new_ia(spare, *general, params));
                ia.on_message(now, sender, *kind, id, &self.interner, &mut ob.ia);
                self.absorb_ia(now, *general, ob);
            }
            Msg::Bcast {
                kind,
                general,
                broadcaster,
                value,
                round,
            } => {
                // Claims that can never form legitimate state — a round
                // outside `1..=max_round` or a broadcaster outside the
                // membership — are rejected *before* an agreement instance
                // (or an intern slot) is allocated for them.
                if *round == 0 || *round > self.params.max_round() || broadcaster.index() >= n {
                    return;
                }
                let id = self.interner.intern_shared(value);
                let (me, params, spare) = (self.me, self.params, &mut self.spare_agr);
                let agr = self
                    .agr
                    .get_or_insert_with(*general, || new_agr(spare, me, *general, params));
                agr.on_bcast(
                    now,
                    sender,
                    *kind,
                    *broadcaster,
                    id,
                    *round,
                    &self.interner,
                    &mut ob.msgd,
                    &mut ob.agr,
                );
                self.absorb_agr(now, *general, ob);
            }
        }
        // A value-minting storm faster than the cleanup cadence must not
        // balloon the arena: force a sweep past the high-water mark.
        if self.interner.occupancy() > self.sweep_high_water {
            self.sweep_interner();
        }
    }

    /// Coalesced dispatch of one delivery wave: every `(sender, message)`
    /// pair arrived at the same local instant.
    ///
    /// Simultaneous arrivals have no protocol-defined order, so the wave
    /// is dispatched **stably key-major**: each maximal `Bcast`-only
    /// segment is grouped by `(kind, general, broadcaster, round, value)`
    /// — keys in first-appearance order, arrivals in slice order within a
    /// key — and `Ia`/`Initiator` entries stay barriers at their
    /// position. Every group of ≥ 2 (the msgd echo storm: all `n` peers
    /// relaying the same triplet at once, interleaved sender-major with
    /// the other `n − 1` triplets) goes through the agreement layer as
    /// **one** wave: one membership/validity check, one intern probe, one
    /// bulk record pass and two quorum evaluations. The outputs are
    /// bit-identical to [`Engine::on_message_ref`] over that grouped
    /// permutation of the wave, and the same multiset as over the slice
    /// order — unless one instant completes several decidable chains, in
    /// which case which one block S sees first is the schedule's choice
    /// and both picks are legal (pinned by the `wave_equivalence`
    /// proptests).
    ///
    /// Grouping costs O(1) expected per arrival (a sender's burst repeats
    /// its predecessor's key sequence, so the next key is probed first)
    /// and is bounded: a wave that mints keys faster than four probes per
    /// arrival is dispatched per message in slice order instead.
    ///
    /// The slice element is anything that borrows to a message —
    /// `&Msg<V>` for borrowed waves, `Arc<Msg<V>>` for a simulator's
    /// pooled batch — so callers never copy or re-collect a wave to
    /// dispatch it.
    pub fn on_wave_ref<W: std::borrow::Borrow<Msg<V>>>(
        &mut self,
        now: LocalTime,
        wave: &[(NodeId, W)],
        ob: &mut Outbox<V>,
    ) {
        ob.begin();
        let mut units = std::mem::take(&mut ob.wave_units);
        let mut next = std::mem::take(&mut ob.wave_next);
        if self.plan_wave(wave, &mut units, &mut next) {
            for unit in &units {
                if unit.len == 1 {
                    let (sender, msg) = &wave[unit.head as usize];
                    self.handle_message(now, *sender, msg.borrow(), ob);
                } else {
                    self.handle_bcast_group(now, wave, *unit, &next, ob);
                }
            }
        } else {
            for (sender, msg) in wave {
                self.handle_message(now, *sender, msg.borrow(), ob);
            }
        }
        units.clear();
        next.clear();
        ob.wave_units = units;
        ob.wave_next = next;
    }

    /// Builds the dispatch plan of one wave into `units` (dispatch order)
    /// and `next` (per entry: the next entry of the same unit). Returns
    /// `false` — plan unusable — once the probe budget is spent.
    ///
    /// A `Bcast` entry first tries the unit *after* the one its
    /// predecessor joined: every sender emits its relays in the same
    /// order, so a sender's burst repeats its predecessor's key sequence
    /// and the successor probe hits. A miss scans the segment's other
    /// units from there (a skipped key is found one step on); only a new
    /// key scans them all, which the budget of `WAVE_PROBE_FACTOR` probes
    /// per arrival absorbs for any wave whose keys repeat and refuses for
    /// key-minting spam.
    fn plan_wave<W: std::borrow::Borrow<Msg<V>>>(
        &mut self,
        wave: &[(NodeId, W)],
        units: &mut Vec<WaveUnit>,
        next: &mut Vec<u32>,
    ) -> bool {
        let Ok(len) = u32::try_from(wave.len()) else {
            return false;
        };
        let budget = WAVE_PROBE_FACTOR * wave.len() + WAVE_PROBE_SLACK;
        let mut probes = 0usize;
        // First unit of the current `Bcast`-only segment, and the unit the
        // previous entry joined (`None` at a segment start).
        let mut seg = 0usize;
        let mut prev: Option<usize> = None;
        next.resize(wave.len(), NO_NEXT);
        for i in 0..len {
            let msg = wave[i as usize].1.borrow();
            if !matches!(msg, Msg::Bcast { .. }) {
                units.push(WaveUnit::single(i));
                seg = units.len();
                prev = None;
                continue;
            }
            let start = prev.map_or(seg, |p| p + 1);
            let hit = (start..units.len()).chain(seg..start).find(|&u| {
                probes += 1;
                same_bcast_key(wave[units[u].head as usize].1.borrow(), msg)
            });
            if probes > budget {
                self.stats.key_probes += probes as u64;
                return false;
            }
            let joined = match hit {
                Some(u) => {
                    let unit = &mut units[u];
                    next[unit.tail as usize] = i;
                    unit.tail = i;
                    unit.len += 1;
                    u
                }
                None => {
                    units.push(WaveUnit::single(i));
                    units.len() - 1
                }
            };
            prev = Some(joined);
        }
        self.stats.key_probes += probes as u64;
        true
    }

    /// One same-key `Bcast` group (≥ 2 arrivals) of a planned wave:
    /// shared checks once, then a single wave pass through the agreement
    /// instance. Check order mirrors the per-message path exactly —
    /// sender membership (per message), cleanup on the first message that
    /// passes it, then the round/broadcaster validity shared by the group.
    fn handle_bcast_group<W: std::borrow::Borrow<Msg<V>>>(
        &mut self,
        now: LocalTime,
        wave: &[(NodeId, W)],
        unit: WaveUnit,
        next: &[u32],
        ob: &mut Outbox<V>,
    ) {
        self.stats.wave_groups += 1;
        self.stats.wave_arrivals += u64::from(unit.len);
        let n = self.params.n();
        let Msg::Bcast {
            kind,
            general,
            broadcaster,
            value,
            round,
        } = wave[unit.head as usize].1.borrow()
        else {
            unreachable!("only Bcast entries form groups");
        };
        if general.index() >= n {
            return; // every message of the group fails the membership check
        }
        let mut senders = std::mem::take(&mut ob.wave);
        let mut i = unit.head;
        while i != NO_NEXT {
            let sender = wave[i as usize].0;
            if sender.index() < n {
                senders.push(sender);
            }
            i = next[i as usize];
        }
        if !senders.is_empty() {
            self.cleanup_if_due(now);
            if *round != 0 && *round <= self.params.max_round() && broadcaster.index() < n {
                let id = self.interner.intern_shared(value);
                let (me, params, spare) = (self.me, self.params, &mut self.spare_agr);
                let agr = self
                    .agr
                    .get_or_insert_with(*general, || new_agr(spare, me, *general, params));
                agr.on_bcast_wave(
                    now,
                    &senders,
                    *kind,
                    *broadcaster,
                    id,
                    *round,
                    &self.interner,
                    &mut ob.msgd,
                    &mut ob.agr,
                );
                self.absorb_agr(now, *general, ob);
                if self.interner.occupancy() > self.sweep_high_water {
                    self.sweep_interner();
                }
            }
        }
        senders.clear();
        ob.wave = senders;
    }

    /// Periodic / scheduled tick: deadline blocks (T/U), post-return
    /// resets, ``[IG3]`` checks, stalled-send recovery and state decay.
    ///
    /// Output ordering is fixed (and pinned by tests): per-General
    /// agreement actions in ascending General id, then any
    /// [`Event::InitiationFailed`] from this node's own ``[IG3]`` monitor.
    pub fn on_tick(&mut self, now: LocalTime, ob: &mut Outbox<V>) {
        ob.begin();
        self.cleanup_if_due(now);
        // Agreement deadlines & resets.
        let mut generals = std::mem::take(&mut ob.generals);
        generals.extend(self.agr.keys());
        for &g in &generals {
            if let Some(agr) = self.agr.get_mut(g) {
                agr.on_tick(now, &mut ob.agr);
            }
            self.absorb_agr(now, g, ob);
        }
        generals.clear();
        ob.generals = generals;
        // [IG3] failure detection for our own pending initiations.
        self.check_own_initiations(now, &mut ob.out);
    }

    fn check_own_initiations(&mut self, now: LocalTime, out: &mut Vec<Output<V>>) {
        let p = self.params;
        let d = p.d();
        // Disjoint field borrows: the monitor reads this node's own
        // Initiator-Accept progress (and resolves ids for the failure
        // event) while retaining checks in place — no staging vector, no
        // allocation.
        let ia = self.ia.get(self.me);
        let interner = &self.interner;
        let ctl = &mut self.general_ctl;
        let mut newly_failed = false;
        let checks = ctl.pending_checks.len();
        ctl.pending_checks.retain_mut(|check| {
            if check.invoked_at.is_after(now) {
                return false; // corrupted stamp — drop
            }
            let elapsed = now.since(check.invoked_at);
            // Latch freshly observed progress.
            let prog = ia
                .map(|ia| ia.own_progress(check.value))
                .unwrap_or_default();
            let ok_since =
                |t: Option<LocalTime>| t.is_some_and(|t| t.is_at_or_after(check.invoked_at));
            check.approve_ok |= ok_since(prog.approve_sent);
            check.ready_ok |= ok_since(prog.ready_sent);
            check.accept_ok |= ok_since(prog.accepted_at);
            if check.accept_ok && check.ready_ok && check.approve_ok {
                return false; // all stages satisfied — done
            }
            let failed = (elapsed > d * 2u64 && !check.approve_ok)
                || (elapsed > d * 3u64 && !check.ready_ok)
                || (elapsed > d * 4u64 && !check.accept_ok);
            if failed {
                newly_failed = true;
                out.push(Output::Event(Event::InitiationFailed {
                    value: interner.resolve_shared(check.value),
                    at: now,
                }));
                false
            } else {
                elapsed <= d * 4u64
            }
        });
        if ctl.pending_checks.len() < checks {
            // A finished monitor may have held its value's last reference.
            ctl.due = Due::Now;
        }
        if newly_failed {
            ctl.failed_at = Some(now);
            ctl.due.lower(now + p.delta_reset());
        }
    }

    /// Drains the outbox's `Initiator-Accept` staging arena into outputs
    /// (resolving interned ids back to values), feeding accepts onward to
    /// the agreement layer.
    fn absorb_ia(&mut self, now: LocalTime, general: NodeId, ob: &mut Outbox<V>) {
        // Detach the arena so the nested agreement absorb can borrow the
        // outbox; the (empty, capacity-ful) buffer is reattached below.
        let mut ia_buf = std::mem::take(&mut ob.ia);
        for act in ia_buf.drain(..) {
            match act {
                crate::initiator_accept::IaAction::Send { kind, value } => {
                    ob.out.push(Output::Broadcast(Msg::Ia {
                        kind,
                        general,
                        value: self.interner.resolve_shared(value),
                    }));
                }
                crate::initiator_accept::IaAction::Accepted { value, tau_g } => {
                    ob.out.push(Output::Event(Event::IAccepted {
                        general,
                        value: self.interner.resolve_shared(value),
                        tau_g,
                    }));
                    let (me, params, spare) = (self.me, self.params, &mut self.spare_agr);
                    let agr = self
                        .agr
                        .get_or_insert_with(general, || new_agr(spare, me, general, params));
                    agr.on_i_accept(now, value, tau_g, &self.interner, &mut ob.msgd, &mut ob.agr);
                    self.absorb_agr(now, general, ob);
                }
            }
        }
        ob.ia = ia_buf;
    }

    /// Drains the outbox's agreement staging arena into outputs, resolving
    /// interned ids back to values at this single emission point.
    fn absorb_agr(&mut self, now: LocalTime, general: NodeId, ob: &mut Outbox<V>) {
        let mut agr_buf = std::mem::take(&mut ob.agr);
        for act in agr_buf.drain(..) {
            match act {
                crate::agreement::AgrAction::SendBcast {
                    kind,
                    broadcaster,
                    value,
                    round,
                } => ob.out.push(Output::Broadcast(Msg::Bcast {
                    kind,
                    general,
                    broadcaster,
                    value: self.interner.resolve_shared(value),
                    round,
                })),
                crate::agreement::AgrAction::WakeAt(t) => ob.out.push(Output::WakeAt(t)),
                crate::agreement::AgrAction::Returned { decision, tau_g } => {
                    let event = match decision {
                        Some(id) => Event::Decided {
                            general,
                            value: self.interner.resolve_shared(id),
                            tau_g,
                            at: now,
                        },
                        None => Event::Aborted {
                            general,
                            tau_g,
                            at: now,
                        },
                    };
                    ob.out.push(Output::Event(event));
                }
                crate::agreement::AgrAction::ExecutionReset => {
                    // Fig. 1 cleanup: "3d after returning a value reset
                    // Initiator-Accept, τ_G, and msgd-broadcast."
                    if let Some(ia) = self.ia.get_mut(general) {
                        ia.reset_for_next_execution(now);
                    }
                }
            }
        }
        ob.agr = agr_buf;
    }

    /// The periodic decay pass, gated to run at most once per `d` of local
    /// time: it runs on the first call at least `d` after the last pass,
    /// or when the clock went backwards. Simulated scenarios tick every
    /// 10 ms, just under their `d` of 10.001 ms, so there the gate opens
    /// on every second idle tick.
    fn cleanup_if_due(&mut self, now: LocalTime) {
        let rewound = self.note_write(now);
        let cadence = self.params.d();
        if let Some(last) = self.last_cleanup {
            if !last.is_after(now) && now.since(last) < cadence {
                return;
            }
        }
        self.decay(now, rewound);
    }

    /// Records that state is about to be written at `now`. Returns whether
    /// `now` lies before an earlier write: a clock that ran backwards,
    /// which turns recent stamps into future ones that every cleanup drops
    /// and no due foresees.
    fn note_write(&mut self, now: LocalTime) -> bool {
        match self.newest {
            Some(newest) if newest.is_after(now) => true,
            _ => {
                self.newest = Some(now);
                false
            }
        }
    }

    /// One decay pass at `now`: walks every instance when `full`, else
    /// only those whose due has passed — the skipped walks would change
    /// nothing (`tests/engine_transcripts.rs` holds the oracle). Removing
    /// decayed agreements and sweeping the interner follow only a walk
    /// that released something, or fresh ids; otherwise both are no-ops.
    fn decay(&mut self, now: LocalTime, full: bool) {
        self.last_cleanup = Some(now);
        let mut walks = 0u64;
        let mut released = false;
        for ia in self.ia.values_mut() {
            if full || ia.due().reached(now) {
                walks += 1;
                released |= ia.cleanup(now);
            }
        }
        for agr in self.agr.values_mut() {
            released |= agr.decay(now, full, &mut walks);
        }
        if full || self.general_ctl.due.reached(now) {
            walks += 1;
            released |= self.general_ctl.cleanup(now, self.params);
        }
        self.stats.decay_walks += walks;
        // Whatever was stamped ahead of `now` is gone or accounted for.
        self.newest = Some(now);
        if full || released {
            // Drop instances that have fully decayed. Buffered pre-anchor
            // messages (triplets) keep an instance alive: "nodes log
            // messages until they are able to process them."
            self.agr.retain(|_, a| {
                a.tau_g().is_some()
                    || a.has_returned()
                    || a.broadcaster_count() > 0
                    || a.msgd().triplet_count() > 0
            });
        }
        if full || released || self.interner.occupancy() != self.swept_live {
            // Reclaim the intern ids nothing references any more.
            self.sweep_interner();
        }
    }

    /// Runs the decay pass at `now` whatever the cadence: every instance
    /// when `full` (the pass before dues existed), otherwise only the due
    /// ones, as the periodic pass does. The decay oracle compares the two.
    #[doc(hidden)]
    pub fn force_decay(&mut self, now: LocalTime, full: bool) {
        let rewound = self.note_write(now);
        self.decay(now, full || rewound);
    }

    /// Overwrites protocol state with adversarially random garbage, as a
    /// transient fault would. `now` is the node's (already arbitrary)
    /// current local time; every planted stamp lies in
    /// `[now − 2Δ_rmv, now + 2Δ_rmv)`, so the cleanup above expires it
    /// all within `2Δ_rmv` plus the longest decay horizon.
    ///
    /// Per drawn General, its `Initiator-Accept` instance plants residue,
    /// then its agreement instance (with the embedded `msgd-broadcast`
    /// state); then come interner junk, bogus `[IG2]` stamps, phantom
    /// `[IG3]` monitors and the General's own `[IG1]`/backoff guards.
    /// Everything planted is due at the next pass. `gen_value` fabricates
    /// values of the payload type. A heavier fault is two scrambles.
    pub fn scramble(
        &mut self,
        now: LocalTime,
        entropy: &mut dyn Entropy,
        gen_value: &mut dyn FnMut(&mut dyn Entropy) -> V,
    ) {
        let (me, params) = (self.me, self.params);
        let mut g = Garbage::new(
            now,
            params.delta_rmv(),
            entropy,
            gen_value,
            &mut self.interner,
        );
        for _ in 0..SCRAMBLED_GENERALS {
            let general = g.node(params.n());
            let spare = &mut self.spare_ia;
            self.ia
                .get_or_insert_with(general, || new_ia(spare, general, params))
                .plant(&mut g);
            // An agreement instance nothing was planted in stays absent.
            let existed = self.agr.contains(general);
            let spare = &mut self.spare_agr;
            let agr = self
                .agr
                .get_or_insert_with(general, || new_agr(spare, me, general, params));
            if !agr.plant(&mut g) && !existed {
                self.agr.remove(general);
            }
        }
        self.general_ctl.plant(&mut g);
    }

    /// Mark/sweep over the interner: every id still referenced by live
    /// protocol state (per-value IA states, triplet tables, accepted
    /// tables, pending decisions, the `[IG2]`/`[IG3]` guards) is marked;
    /// everything else is reclaimed onto the interner's free-list.
    /// Allocation-free in steady state: the mark bits, the free-list and
    /// the rebuilt bucket array all reuse their capacity.
    fn sweep_interner(&mut self) {
        self.interner.begin_sweep();
        for ia in self.ia.values() {
            ia.mark_live(&mut self.interner);
        }
        for agr in self.agr.values() {
            agr.mark_live(&mut self.interner);
        }
        for id in self.general_ctl.last_per_value.keys() {
            self.interner.mark(id);
        }
        for check in &self.general_ctl.pending_checks {
            self.interner.mark(check.value);
        }
        self.interner.finish_sweep();
        self.swept_live = self.interner.occupancy();
        self.sweep_high_water = (self.swept_live * 2).max(INTERN_SWEEP_BASE);
    }

    fn ia_entry(&mut self, general: NodeId) -> &mut InitiatorAccept {
        let (params, spare) = (self.params, &mut self.spare_ia);
        self.ia
            .get_or_insert_with(general, || new_ia(spare, general, params))
    }

    /// Read access to the `Initiator-Accept` instance for `general`, as a
    /// view that resolves value arguments through the interner.
    #[must_use]
    pub fn ia(&self, general: NodeId) -> Option<IaView<'_, V>> {
        self.ia.get(general).map(|ia| IaView {
            ia,
            interner: &self.interner,
        })
    }

    /// Read access to the agreement instance for `general`.
    #[must_use]
    pub fn agreement(&self, general: NodeId) -> Option<AgrView<'_, V>> {
        self.agr.get(general).map(|agr| AgrView {
            agr,
            interner: &self.interner,
        })
    }

    /// Plants the anchor `τ_G = tau_g` in `general`'s agreement instance,
    /// as a late I-accept would, for tests that need an execution running
    /// without its `Initiator-Accept` wave.
    #[doc(hidden)]
    pub fn plant_anchor(&mut self, general: NodeId, tau_g: LocalTime) {
        let (me, params, spare) = (self.me, self.params, &mut self.spare_agr);
        self.agr
            .get_or_insert_with(general, || new_agr(spare, me, general, params))
            .corrupt_anchor(tau_g);
    }

    /// The protocol state as text: value ids resolved through the
    /// interner, the decay bookkeeping (dues, sweep marks, counters) left
    /// out. Engines that render alike answer every later call alike. For
    /// the decay oracle.
    #[doc(hidden)]
    #[must_use]
    pub fn protocol_state(&self) -> String {
        let (ctl, interner) = (&self.general_ctl, &self.interner);
        let mut s = String::new();
        let _ = writeln!(
            s,
            "last cleanup {:?}, sweep high water {}, last initiation {:?}, failed at {:?}",
            self.last_cleanup, self.sweep_high_water, ctl.last_initiation, ctl.failed_at
        );
        for (id, t) in ctl.last_per_value.iter() {
            let _ = writeln!(s, "ig2 {:?}: {t:?}", interner.show(id));
        }
        for c in &ctl.pending_checks {
            let stages = (c.approve_ok, c.ready_ok, c.accept_ok);
            let _ = writeln!(
                s,
                "ig3 {:?}: {:?} {stages:?}",
                interner.show(c.value),
                c.invoked_at
            );
        }
        interner.render(&mut s);
        for ia in self.ia.values() {
            ia.render(interner, &mut s);
        }
        for agr in self.agr.values() {
            agr.render(interner, &mut s);
        }
        s
    }
}

/// `general`'s spare `Initiator-Accept` instance, recycled, or a new one.
fn new_ia(
    spare: &mut DenseNodeMap<Box<InitiatorAccept>>,
    general: NodeId,
    params: Params,
) -> Box<InitiatorAccept> {
    match spare.remove(general) {
        Some(mut ia) => {
            ia.recycle();
            ia
        }
        None => Box::new(InitiatorAccept::new(general, params)),
    }
}

/// `general`'s spare agreement instance, recycled, or a new one.
fn new_agr(
    spare: &mut DenseNodeMap<Box<Agreement>>,
    me: NodeId,
    general: NodeId,
    params: Params,
) -> Box<Agreement> {
    match spare.remove(general) {
        Some(mut agr) => {
            agr.recycle();
            agr
        }
        None => Box::new(Agreement::new(me, general, params)),
    }
}

/// Read-only view of an `Initiator-Accept` instance: the primitive's
/// introspection surface, with `&V` arguments resolved through the
/// engine's interner.
#[derive(Debug, Clone, Copy)]
pub struct IaView<'a, V: Value> {
    ia: &'a InitiatorAccept,
    interner: &'a ValueInterner<V>,
}

impl<'a, V: Value> IaView<'a, V> {
    /// The General this instance tracks.
    #[must_use]
    pub fn general(&self) -> NodeId {
        self.ia.general()
    }

    /// The current `i_values[G, m]` entry.
    #[must_use]
    pub fn i_value(&self, value: &V) -> Option<LocalTime> {
        self.interner
            .lookup(value)
            .and_then(|id| self.ia.i_value(id))
    }

    /// Whether any `i_values[G, ·]` entry is set.
    #[must_use]
    pub fn any_i_value(&self) -> bool {
        self.ia.any_i_value()
    }

    /// Whether the `ready(G, m)` flag is armed.
    #[must_use]
    pub fn is_ready(&self, value: &V) -> bool {
        self.interner
            .lookup(value)
            .is_some_and(|id| self.ia.is_ready(id))
    }

    /// Whether `(G, m)` messages are currently being ignored.
    #[must_use]
    pub fn is_ignoring(&self, value: &V, now: LocalTime) -> bool {
        self.interner
            .lookup(value)
            .is_some_and(|id| self.ia.is_ignoring(id, now))
    }

    /// The `last(G)` guard.
    #[must_use]
    pub fn last_g(&self) -> Option<LocalTime> {
        self.ia.last_g()
    }

    /// The `last(G, m)` guard.
    #[must_use]
    pub fn last_gm(&self, value: &V) -> Option<LocalTime> {
        self.interner
            .lookup(value)
            .and_then(|id| self.ia.last_gm(id))
    }

    /// This node's own sending progress for `value`.
    #[must_use]
    pub fn own_progress(&self, value: &V) -> OwnProgress {
        self.interner
            .lookup(value)
            .map(|id| self.ia.own_progress(id))
            .unwrap_or_default()
    }

    /// Number of distinct senders whose `kind` message for `value` is in
    /// `[now − window, now]`.
    #[must_use]
    pub fn count_in_window(
        &self,
        now: LocalTime,
        kind: IaKind,
        value: &V,
        window: Duration,
    ) -> usize {
        self.interner
            .lookup(value)
            .map_or(0, |id| self.ia.count_in_window(now, kind, id, window))
    }

    /// Number of tracked per-value states (bounded-memory introspection).
    #[must_use]
    pub fn tracked_values(&self) -> usize {
        self.ia.tracked_values()
    }

    /// The underlying id-keyed instance.
    #[must_use]
    pub fn raw(&self) -> &'a InitiatorAccept {
        self.ia
    }
}

/// Read-only view of an agreement instance.
#[derive(Debug, Clone, Copy)]
pub struct AgrView<'a, V: Value> {
    agr: &'a Agreement,
    interner: &'a ValueInterner<V>,
}

impl<'a, V: Value> AgrView<'a, V> {
    /// The General of this instance.
    #[must_use]
    pub fn general(&self) -> NodeId {
        self.agr.general()
    }

    /// The anchor of the current execution, if set.
    #[must_use]
    pub fn tau_g(&self) -> Option<LocalTime> {
        self.agr.tau_g()
    }

    /// Whether the node has returned (decided or aborted) this execution.
    #[must_use]
    pub fn has_returned(&self) -> bool {
        self.agr.has_returned()
    }

    /// The decision of the current execution, if returned (`Some(None)`
    /// is an abort), resolved to a shared handle on the decided value.
    #[must_use]
    pub fn decision(&self) -> Option<Option<Arc<V>>> {
        self.agr
            .decision()
            .map(|d| d.map(|id| self.interner.resolve_shared(id)))
    }

    /// Number of broadcasters detected so far.
    #[must_use]
    pub fn broadcaster_count(&self) -> usize {
        self.agr.broadcaster_count()
    }

    /// Number of live triplets in the embedded `msgd-broadcast` state.
    #[must_use]
    pub fn triplet_count(&self) -> usize {
        self.agr.msgd().triplet_count()
    }

    /// Whether the triplet `(broadcaster, value, round)` has been
    /// accepted.
    #[must_use]
    pub fn accepted(&self, broadcaster: NodeId, round: u32, value: &V) -> bool {
        self.interner
            .lookup(value)
            .is_some_and(|id| self.agr.msgd().accepted(broadcaster, round, id))
    }

    /// The underlying id-keyed instance.
    #[must_use]
    pub fn raw(&self) -> &'a Agreement {
        self.agr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{BcastKind, IaKind};

    const D: u64 = 10_000_000;

    fn params4() -> Params {
        Params::from_d(4, 1, Duration::from_nanos(D), 0).unwrap()
    }

    fn t(n: u64) -> LocalTime {
        LocalTime::from_nanos(100_000 * D + n)
    }

    fn id(n: u32) -> NodeId {
        NodeId::new(n)
    }

    fn d() -> Duration {
        Duration::from_nanos(D)
    }

    /// Pooled-call helpers: run one engine call against a scratch outbox
    /// and hand back the outputs as an owned vec.
    fn call_msg(
        e: &mut Engine<u64>,
        now: LocalTime,
        sender: NodeId,
        msg: &Msg<u64>,
    ) -> Vec<Output<u64>> {
        let mut ob = Outbox::new();
        e.on_message_ref(now, sender, msg, &mut ob);
        ob.take_outputs()
    }

    fn call_tick(e: &mut Engine<u64>, now: LocalTime) -> Vec<Output<u64>> {
        let mut ob = Outbox::new();
        e.on_tick(now, &mut ob);
        ob.take_outputs()
    }

    fn call_initiate(
        e: &mut Engine<u64>,
        now: LocalTime,
        value: u64,
    ) -> Result<Vec<Output<u64>>, InitiateError> {
        let mut ob = Outbox::new();
        e.initiate(now, value, &mut ob)?;
        Ok(ob.take_outputs())
    }

    /// Delivers `msg` from `sender` to every engine at its own local time
    /// (all clocks identical here), gathering each engine's broadcasts.
    /// One outbox is shared across all engines — exactly the pooled
    /// consumption pattern.
    fn deliver_all(
        engines: &mut [Engine<u64>],
        ob: &mut Outbox<u64>,
        now: LocalTime,
        sender: NodeId,
        msg: &Msg<u64>,
        events: &mut Vec<(NodeId, Event<u64>)>,
    ) -> Vec<(NodeId, Msg<u64>)> {
        let mut sends = Vec::new();
        for e in engines.iter_mut() {
            e.on_message_ref(now, sender, msg, ob);
            let me = e.id();
            for o in ob.drain() {
                match o {
                    Output::Broadcast(m) => sends.push((me, m)),
                    Output::Event(ev) => events.push((me, ev)),
                    Output::WakeAt(_) => {}
                }
            }
        }
        sends
    }

    /// Each node's observed events, in delivery order.
    type Events = Vec<(NodeId, Event<u64>)>;

    /// Runs a full fault-free agreement among 4 engines with a shared
    /// clock, advancing time by `step` per delivery wave.
    fn run_fault_free() -> Events {
        run_fault_free_with(params4()).1
    }

    /// [`run_fault_free`] for any membership; also returns the engines
    /// and the instant the last wave landed.
    fn run_fault_free_with(p: Params) -> (Vec<Engine<u64>>, Events, LocalTime) {
        let mut engines: Vec<Engine<u64>> =
            (0..p.n() as u32).map(|i| Engine::new(id(i), p)).collect();
        let mut ob = Outbox::new();
        let mut events = Vec::new();
        let t0 = t(0);
        let init_out = call_initiate(&mut engines[0], t0, 7).unwrap();
        let mut wave: Vec<(NodeId, Msg<u64>)> = init_out
            .into_iter()
            .filter_map(|o| match o {
                Output::Broadcast(m) => Some((id(0), m)),
                _ => None,
            })
            .collect();
        let mut now = t0;
        // Fixed-point delivery: each wave arrives step later.
        let step = d() / 2;
        for _ in 0..40 {
            if wave.is_empty() {
                break;
            }
            now += step;
            let mut next = Vec::new();
            for (sender, msg) in &wave {
                next.extend(deliver_all(
                    &mut engines,
                    &mut ob,
                    now,
                    *sender,
                    msg,
                    &mut events,
                ));
            }
            // Dedup identical sends within the wave (engines already
            // de-duplicate, but initiators double-send across waves).
            next.sort();
            next.dedup();
            wave = next;
        }
        (engines, events, now)
    }

    #[test]
    fn fault_free_agreement_all_decide() {
        let events = run_fault_free();
        let decisions: Vec<_> = events
            .iter()
            .filter_map(|(n, e)| match e {
                Event::Decided { value, general, .. } => Some((*n, *general, Arc::clone(value))),
                _ => None,
            })
            .collect();
        assert_eq!(decisions.len(), 4, "all four nodes decide: {events:?}");
        assert!(decisions.iter().all(|(_, g, v)| *g == id(0) && **v == 7));
        // All four also I-accepted first.
        let iaccepts = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::IAccepted { .. }))
            .count();
        assert_eq!(iaccepts, 4);
    }

    /// After an n=7 agreement decides and resets, `2Δ_rmv` of idle ticks
    /// every `d/2` open the cleanup gate on every second tick, yet each
    /// instance still holding state is walked only at its few expiries.
    #[test]
    fn idle_ticks_walk_only_due_instances() {
        let p = Params::from_d(7, 2, d(), 0).unwrap();
        let (mut engines, events, mut now) = run_fault_free_with(p);
        let decided = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::Decided { .. }))
            .count();
        assert_eq!(decided, 7, "{events:?}");
        let mut ob = Outbox::new();
        let mut tick_all = |engines: &mut [Engine<u64>], now: LocalTime| {
            for e in engines {
                e.on_tick(now, &mut ob);
            }
        };
        // Ride out the 3d post-return reset and the pass that drops the
        // reset agreement instances.
        for _ in 0..10 {
            now += d() / 2;
            tick_all(&mut engines, now);
        }
        assert!(engines.iter().all(|e| e.agr.is_empty()));
        // What still holds state: each node's Initiator-Accept instance
        // for the General (its guards), and the General's own guards.
        let holding = |e: &Engine<u64>| (e.ia.len() + usize::from(e.me == id(0))) as u64;
        let before: Vec<u64> = engines.iter().map(|e| e.stats.decay_walks).collect();
        let ticks = (p.delta_rmv() * 2u64).as_nanos() / (D / 2);
        for _ in 0..ticks {
            now += d() / 2;
            tick_all(&mut engines, now);
        }
        for (e, before) in engines.iter().zip(before) {
            let walks = e.stats.decay_walks - before;
            assert!(
                walks <= 6 * holding(e),
                "{:?}: {walks} walks of {} instances over {} passes",
                e.me,
                holding(e),
                ticks / 2
            );
            assert!(
                e.ia(id(0)).unwrap().last_gm(&7).is_some(),
                "still holds state"
            );
        }
    }

    #[test]
    fn initiate_respects_ig1() {
        let p = params4();
        let mut e: Engine<u64> = Engine::new(id(0), p);
        call_initiate(&mut e, t(0), 7).unwrap();
        let err = call_initiate(&mut e, t(1), 8).unwrap_err();
        assert!(matches!(err, InitiateError::TooSoon { .. }));
        // After Δ0 it works again.
        assert!(call_initiate(&mut e, t(0) + p.delta_0(), 8).is_ok());
    }

    #[test]
    fn initiate_respects_ig2() {
        let p = params4();
        let mut e: Engine<u64> = Engine::new(id(0), p);
        call_initiate(&mut e, t(0), 7).unwrap();
        let err = call_initiate(&mut e, t(0) + p.delta_0(), 7).unwrap_err();
        assert!(matches!(err, InitiateError::SameValueTooSoon { .. }));
        assert!(call_initiate(&mut e, t(0) + p.delta_v(), 7).is_ok());
    }

    #[test]
    fn initiate_respects_ig3_backoff() {
        let p = params4();
        let mut e: Engine<u64> = Engine::new(id(0), p);
        call_initiate(&mut e, t(0), 7).unwrap();
        // No support/approve ever arrives → the +2d check fails.
        let outs = call_tick(&mut e, t(0) + d() * 2u64 + Duration::from_nanos(2));
        assert!(
            outs.iter()
                .any(|o| matches!(o, Output::Event(Event::InitiationFailed { .. }))),
            "stalled initiation must be detected: {outs:?}"
        );
        let err = call_initiate(&mut e, t(0) + p.delta_0() * 2u64, 9).unwrap_err();
        assert!(matches!(err, InitiateError::BackingOff { .. }));
        // After Δ_reset the backoff lifts.
        assert!(call_initiate(&mut e, t(0) + d() * 2u64 + p.delta_reset() + d(), 9).is_ok());
    }

    #[test]
    fn refused_initiation_leaves_outbox_empty() {
        let p = params4();
        let mut e: Engine<u64> = Engine::new(id(0), p);
        let mut ob = Outbox::new();
        e.initiate(t(0), 7, &mut ob).unwrap();
        assert!(!ob.is_empty());
        // The refusal clears the previous call's outputs.
        assert!(e.initiate(t(1), 8, &mut ob).is_err());
        assert!(ob.is_empty(), "refused initiate leaves no outputs");
    }

    #[test]
    fn forged_initiator_ignored() {
        let p = params4();
        let mut e: Engine<u64> = Engine::new(id(1), p);
        let out = call_msg(
            &mut e,
            t(0),
            id(2), // claims to be from General 0 but sent by 2
            &Msg::Initiator {
                general: id(0),
                value: Arc::new(7),
            },
        );
        assert!(out.is_empty());
        assert!(e.ia(id(0)).is_none());
        // The rejected value was never interned either.
        assert_eq!(e.interner().occupancy(), 0);
    }

    #[test]
    fn ia_send_routes_to_broadcast() {
        let p = params4();
        let mut e: Engine<u64> = Engine::new(id(1), p);
        let out = call_msg(
            &mut e,
            t(0),
            id(0),
            &Msg::Initiator {
                general: id(0),
                value: Arc::new(7),
            },
        );
        assert!(out.iter().any(|o| matches!(
            o,
            Output::Broadcast(Msg::Ia {
                kind: IaKind::Support,
                ..
            })
        )));
    }

    #[test]
    fn bcast_routes_to_agreement() {
        let p = params4();
        let mut e: Engine<u64> = Engine::new(id(1), p);
        // Echo messages buffer without an anchor, then a late anchor picks
        // them up via the agreement instance.
        for s in [0u32, 2, 3] {
            call_msg(
                &mut e,
                t(0),
                id(s),
                &Msg::Bcast {
                    kind: BcastKind::Echo,
                    general: id(0),
                    broadcaster: id(2),
                    value: Arc::new(7),
                    round: 1,
                },
            );
        }
        assert!(e.agreement(id(0)).is_some());
    }

    #[test]
    fn tick_aborts_at_hard_deadline() {
        let p = params4();
        let mut e: Engine<u64> = Engine::new(id(1), p);
        // Plant an anchor to simulate a late I-accept.
        e.plant_anchor(id(0), t(0));
        let out = call_tick(&mut e, t(0) + p.delta_agr() + Duration::from_nanos(2));
        assert!(out
            .iter()
            .any(|o| matches!(o, Output::Event(Event::Aborted { .. }))));
    }

    #[test]
    fn cleanup_decays_general_guards() {
        let p = params4();
        let mut e: Engine<u64> = Engine::new(id(0), p);
        call_initiate(&mut e, t(0), 7).unwrap();
        // Force cleanup far in the future: IG1 guard decays after Δ0 and
        // IG2 after Δ_v, so an initiation of the same value succeeds.
        let later = t(0) + p.delta_v() + d() * 2u64;
        call_tick(&mut e, later);
        assert!(call_initiate(&mut e, later, 7).is_ok());
    }

    #[test]
    fn cleanup_reclaims_decayed_intern_ids() {
        let p = params4();
        let mut e: Engine<u64> = Engine::new(id(0), p);
        call_initiate(&mut e, t(0), 7).unwrap();
        assert_eq!(e.interner().occupancy(), 1);
        // After every guard and state horizon has passed, a tick's
        // cleanup sweep reclaims the id.
        let later = t(0) + p.delta_v() * 4u64;
        call_tick(&mut e, later);
        call_tick(&mut e, later + p.delta_v() * 4u64);
        assert_eq!(e.interner().occupancy(), 0, "decayed value id reclaimed");
    }

    /// A clock that ran backwards turns recent stamps into future ones,
    /// which every cleanup drops though no due has passed: the pass then
    /// walks everything. Here an `[IG1]` stamp written 3d ahead of the
    /// next tick must go, as it did when every pass walked everything.
    #[test]
    fn rewound_clock_walks_everything() {
        let mut e: Engine<u64> = Engine::new(id(0), params4());
        call_tick(&mut e, t(0));
        call_initiate(&mut e, t(0) + d() * 5u64, 7).unwrap();
        call_tick(&mut e, t(0) + d() * 2u64);
        assert!(call_initiate(&mut e, t(0) + d() * 2u64, 8).is_ok());
    }

    /// A value interned by a message that leaves no state — here an
    /// initiation block K refuses — is reclaimed at the next pass even
    /// though no walk is due there: fresh ids alone call the sweep.
    #[test]
    fn fresh_unreferenced_id_is_swept_at_the_next_pass() {
        let mut e: Engine<u64> = Engine::new(id(1), params4());
        let initiator = |value| Msg::Initiator {
            general: id(0),
            value: Arc::new(value),
        };
        call_msg(&mut e, t(0), id(0), &initiator(7));
        assert!(call_msg(&mut e, t(1), id(0), &initiator(9)).is_empty());
        assert_eq!(e.interner().occupancy(), 2);
        let walks = e.stats.decay_walks;
        call_tick(&mut e, t(0) + d());
        assert_eq!(e.stats.decay_walks, walks, "nothing was due");
        assert_eq!(e.interner().lookup(&9), None, "9 reclaimed");
        assert!(e.interner().lookup(&7).is_some());
    }

    #[test]
    fn outbox_reused_across_calls_stays_clean() {
        // One outbox over many calls: each call's outputs replace the
        // previous call's, and capacity is retained rather than regrown.
        let p = params4();
        let mut e: Engine<u64> = Engine::new(id(1), p);
        let mut ob = Outbox::new();
        e.on_message_ref(
            t(0),
            id(0),
            &Msg::Initiator {
                general: id(0),
                value: Arc::new(7),
            },
            &mut ob,
        );
        assert!(!ob.is_empty(), "block K sends support");
        let cap = ob.capacities();
        // A duplicate initiation is suppressed — and must not re-show the
        // previous call's outputs.
        e.on_message_ref(
            t(1),
            id(0),
            &Msg::Initiator {
                general: id(0),
                value: Arc::new(7),
            },
            &mut ob,
        );
        assert!(ob.is_empty(), "suppressed delivery produces nothing");
        assert_eq!(ob.capacities(), cap, "capacity retained, not regrown");
    }

    #[test]
    fn initiate_error_display() {
        let e = InitiateError::TooSoon {
            wait: Duration::from_millis(5),
        };
        assert!(e.to_string().contains("IG1"));
    }

    #[test]
    fn support_wave_transcript() {
        // What the value-keyed dispatch answered at f9d72a3, written out
        // (the generated batteries live in
        // crates/core/tests/engine_transcripts.rs): duplicates are silent,
        // the weak quorum only records, the strong quorum sends `approve`.
        let p = params4();
        let mut e: Engine<u64> = Engine::new(id(1), p);
        let msg = Msg::Ia {
            kind: IaKind::Support,
            general: id(0),
            value: Arc::new(7),
        };
        let approve = Output::Broadcast(Msg::Ia {
            kind: IaKind::Approve,
            general: id(0),
            value: Arc::new(7),
        });
        let want = [vec![], vec![], vec![], vec![], vec![approve]];
        for (i, (s, want)) in [0u32, 0, 2, 2, 3].into_iter().zip(want).enumerate() {
            let got = call_msg(&mut e, t(i as u64), id(s), &msg);
            assert_eq!(got, want, "delivery {i}");
        }
        // L2 tracked the shortest suffix holding a weak quorum: {2@t(3), 3@t(4)}.
        assert_eq!(e.ia(id(0)).unwrap().i_value(&7), Some(t(3) - d() * 2u64));
    }
}
