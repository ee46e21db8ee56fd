//! Recorded-transcript battery for the engine dispatch.
//!
//! Up to f9d72a3 the engine was checked call by call against a second,
//! value-keyed implementation of the whole protocol (`BTreeMap` state,
//! `Vec`-returning dispatch). That fork is gone; what it answered on
//! these op sequences is kept as one constant per test — FNV-1a over the
//! `Debug` rendering of every call's result in call order, refused
//! initiations included — recorded from the fork at f9d72a3, the last
//! commit that carried it. [`Engine`] must reproduce each one.
//!
//! The sequences are fixed because the offline proptest shim seeds its
//! stream from the test name: renaming a test or editing a strategy
//! moves its transcript, and so does any protocol change. After an
//! *intentional* one, review why each transcript moved, then paste the
//! value the failing assertion prints (`docs/PERF.md` § "History: the
//! value-keyed golden model").
//!
//! The `recorded_scrambled_*` transcripts start each sequence from an
//! engine scrambled with a xorshift entropy and also fold an id-free state
//! summary after every call. They were recorded at 5c643e6, before the
//! scramble moved into the primitives' own `plant` methods, and pin that it
//! still draws entropy, interns values and creates instances in the same
//! order.
//!
//! What still has a code oracle:
//!
//! * the decay pass ≡ the full walk it replaced — the `decay_oracle_*`
//!   tests force both on clones before and after every call of every
//!   shape above, scrambled ones included, and require the same protocol
//!   state: each instance whose due has not passed would be a no-op to
//!   walk;
//! * `Engine<Collide>` ≡ `Engine<u64>` — [`Collide`] hashes to one bit, so
//!   every intern and lookup walks a probe chain and equality, not
//!   hashing, must be what tells values apart;
//! * the `ValueId` reclaim/reuse cycle of the `[IG2]` and `last(G, m)`
//!   guards, with every call's expected result written out;
//! * a recycled engine ≡ a fresh one — the `recycled_engine_*` tests
//!   replay every shape above on an engine that ran two other sequences,
//!   each from a scramble and each followed by a recycle (what the slot
//!   pipeline does with a finished slot's engine), and require the same
//!   outputs, protocol state and dispatch counters after every call.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

use proptest::prelude::*;
use ssbyz_core::{BcastKind, Engine, IaKind, InitiateError, Msg, Outbox, Output, Params, Value};
use ssbyz_types::{Duration, LocalTime, NodeId};

const D: u64 = 10_000_000; // 10ms in ns

/// A value whose hash retains a single bit: values `0..k` land in two
/// buckets, forcing the interner's open-addressed table through its probe
/// chains on every intern and lookup. Renders as its inner number, so a
/// `Collide` transcript reads exactly like the `u64` one.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Collide(u64);

impl Hash for Collide {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.0 % 2).hash(state);
    }
}

impl fmt::Debug for Collide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

/// One raw generated op, decoded by [`decode`].
type RawOp = (u32, u32, u64, u32, u32, u64);

/// The ranges one traffic shape draws a [`RawOp`] from.
type Shape = (
    Range<u32>,
    Range<u32>,
    Range<u64>,
    Range<u32>,
    Range<u32>,
    Range<u64>,
);

/// n = 7, f = 2: mixed legitimate and hostile traffic with duplicates,
/// replays, deadline ticks and the node's own initiations.
const N7: Shape = (0..100, 0..9, 0..4, 0..9, 0..4, 0..40_000_000);
/// n = 4, f = 1: small quorums mean far more emitting calls (accepts,
/// decides, aborts) per sequence — the densest output interleavings.
const N4: Shape = (0..100, 0..6, 0..3, 0..6, 0..3, 0..25_000_000);
/// A tiny value/sender space replayed heavily, so almost every delivery
/// is a duplicate — the allocation-free path — with frequent quorum
/// completions; no initiations or decay jumps.
const DUPLICATE_SPAM: Shape = (0..90, 0..4, 0..2, 0..4, 1..3, 0..2_000_000);
/// The spam shape plus initiations and long decay jumps, so ids cycle
/// through reclaim/reuse mid-sequence.
const SPAM_AND_DECAY: Shape = (0..100, 0..4, 0..2, 0..4, 1..3, 0..2_000_000);

enum Op<V> {
    Deliver { sender: NodeId, msg: Msg<V> },
    ReplayEarlier { index: usize },
    Tick,
    Initiate { value: V },
    JumpTick { factor: u64 },
}

fn decode<V: Value>(
    (sel, sender, value, aux, round, _dt): RawOp,
    make: &impl Fn(u64) -> V,
) -> Op<V> {
    let sender_id = NodeId::new(sender);
    match sel {
        // Initiator messages; forged whenever `aux != sender`.
        0..=9 => Op::Deliver {
            sender: sender_id,
            msg: Msg::Initiator {
                general: NodeId::new(aux),
                value: Arc::new(make(value)),
            },
        },
        // Initiator-Accept stage messages.
        10..=39 => Op::Deliver {
            sender: sender_id,
            msg: Msg::Ia {
                kind: IaKind::ALL[(sel % 3) as usize],
                general: NodeId::new(aux),
                value: Arc::new(make(value)),
            },
        },
        // msgd-broadcast stage messages (bogus rounds included: round 0
        // and rounds past max_round are generated at the edges).
        40..=69 => Op::Deliver {
            sender: sender_id,
            msg: Msg::Bcast {
                kind: BcastKind::ALL[(sel % 4) as usize],
                general: NodeId::new(sel % 8),
                broadcaster: NodeId::new(aux),
                value: Arc::new(make(value)),
                round,
            },
        },
        // Byzantine duplicate: re-deliver an earlier message now.
        70..=79 => Op::ReplayEarlier {
            index: aux as usize,
        },
        80..=89 => Op::Tick,
        90..=94 => Op::Initiate { value: make(value) },
        _ => Op::JumpTick {
            factor: u64::from(sel - 94),
        },
    }
}

/// One engine under a generated op sequence.
struct Driven<V: Value, M> {
    engine: Engine<V>,
    ob: Outbox<V>,
    now: u64,
    history: Vec<(NodeId, Msg<V>)>,
    make: M,
    /// Run the decay oracle before and after every call.
    oracle: bool,
}

impl<V: Value, M: Fn(u64) -> V> Driven<V, M> {
    fn new(me: u32, n: usize, f: usize, make: M) -> Self {
        let params = Params::from_d(n, f, Duration::from_nanos(D), 0).unwrap();
        Driven {
            engine: Engine::new(NodeId::new(me), params),
            ob: Outbox::new(),
            now: 1_000_000_000_000,
            history: Vec::new(),
            make,
            oracle: false,
        }
    }

    /// The decay oracle: the engine's due-gated decay pass and the full
    /// walk it replaces, both forced at `now` on clones, must leave the
    /// same protocol state — every walk the dues skip is a no-op.
    fn check_decay(&self, now: LocalTime) {
        if !self.oracle {
            return;
        }
        let (mut gated, mut full) = (self.engine.clone(), self.engine.clone());
        gated.force_decay(now, false);
        full.force_decay(now, true);
        assert_eq!(
            gated.protocol_state(),
            full.protocol_state(),
            "a skipped decay walk at {now:?} was not a no-op"
        );
    }

    /// Applies one op and returns the `Debug` rendering of the call's
    /// result — `None` when the op made no call (a replay with nothing to
    /// replay yet).
    fn step(&mut self, raw: RawOp) -> Option<String> {
        let dt = raw.5;
        let op = decode(raw, &self.make);
        self.now += dt;
        if let Op::JumpTick { factor } = op {
            // Long silence: decay horizons expire, the cleanup runs and
            // the interner sweep reclaims every id whose state decayed.
            self.now += dt.saturating_mul(factor * 50);
        }
        let t = LocalTime::from_nanos(self.now);
        self.check_decay(t);
        let result = match op {
            Op::Deliver { sender, msg } => {
                self.engine.on_message_ref(t, sender, &msg, &mut self.ob);
                self.history.push((sender, msg));
                format!("{:?}", self.ob.outputs())
            }
            Op::ReplayEarlier { index } => {
                if self.history.is_empty() {
                    return None;
                }
                let (sender, msg) = &self.history[index % self.history.len()];
                self.engine.on_message_ref(t, *sender, msg, &mut self.ob);
                format!("{:?}", self.ob.outputs())
            }
            Op::Tick | Op::JumpTick { .. } => {
                self.engine.on_tick(t, &mut self.ob);
                format!("{:?}", self.ob.outputs())
            }
            Op::Initiate { value } => {
                let admitted = self.engine.initiate(t, value, &mut self.ob);
                // A refusal leaves the outbox empty.
                let me = self.engine.id();
                self.history
                    .extend(self.ob.outputs().iter().filter_map(|o| match o {
                        Output::Broadcast(m) => Some((me, m.clone())),
                        _ => None,
                    }));
                format!("{:?}", admitted.map(|()| self.ob.outputs()))
            }
        };
        self.check_decay(t);
        // The value alphabet has a handful of members: interning must never
        // mint more live ids than that, nor the staging arenas leak.
        let live = self.engine.interner().occupancy();
        assert!(live <= 8, "interner occupancy ballooned: {live} live ids");
        let caps = self.ob.capacities();
        assert!(
            caps.iter().all(|&c| c < 1 << 20),
            "runaway capacity {caps:?}"
        );
        Some(result)
    }
}

/// FNV-1a over the rendered results of a call sequence, one line per call.
/// (Not `DefaultHasher`: the constants must survive toolchain upgrades.)
struct Transcript(u64);

impl Transcript {
    fn new() -> Self {
        Transcript(0xcbf2_9ce4_8422_2325)
    }

    fn call(&mut self, result: &str) {
        for b in result.bytes().chain([b'\n']) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn assert_recorded(&self, recorded: u64) {
        assert_eq!(
            self.0, recorded,
            "transcript moved: got {:#018x}, recorded {recorded:#018x}",
            self.0
        );
    }
}

/// Runs every sequence against a fresh engine at node `me` and requires
/// the fold of all call results to equal `recorded`.
fn assert_engine_reproduces<V: Value>(
    recorded: u64,
    (me, n, f): (u32, usize, usize),
    seqs: Vec<Vec<RawOp>>,
    make: impl Fn(u64) -> V + Copy,
) {
    let mut transcript = Transcript::new();
    for ops in seqs {
        let mut driven = Driven::new(me, n, f, make);
        for raw in ops {
            if let Some(result) = driven.step(raw) {
                transcript.call(&result);
            }
        }
    }
    transcript.assert_recorded(recorded);
}

// One generated case per test, holding all of its op sequences, so each
// test folds into a single constant. The engine sits at node 3 of 7, at
// node 0 of 4 (a General that initiates) and at node 1 of 4.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    #[test]
    fn recorded_n7(seqs in prop::collection::vec(prop::collection::vec(N7, 1..250), 88)) {
        assert_engine_reproduces(0xbd1c_ba69_607e_464d, (3, 7, 2), seqs, |v| v);
    }

    #[test]
    fn recorded_n7_colliding(seqs in prop::collection::vec(prop::collection::vec(N7, 1..250), 40)) {
        assert_engine_reproduces(0x5be2_53ea_2442_e946, (3, 7, 2), seqs, Collide);
    }

    #[test]
    fn recorded_n4(seqs in prop::collection::vec(prop::collection::vec(N4, 1..250), 48)) {
        assert_engine_reproduces(0x5723_a128_9121_8b6b, (0, 4, 1), seqs, |v| v);
    }

    #[test]
    fn recorded_n4_colliding(seqs in prop::collection::vec(prop::collection::vec(N4, 1..250), 40)) {
        assert_engine_reproduces(0xca26_2cb8_4b80_f2fc, (0, 4, 1), seqs, Collide);
    }

    #[test]
    fn recorded_duplicate_spam(
        seqs in prop::collection::vec(prop::collection::vec(DUPLICATE_SPAM, 1..400), 48),
    ) {
        assert_engine_reproduces(0x85fd_692e_140a_8f74, (1, 4, 1), seqs, |v| v);
    }

    #[test]
    fn recorded_spam_and_decay_colliding(
        seqs in prop::collection::vec(prop::collection::vec(SPAM_AND_DECAY, 1..400), 40),
    ) {
        assert_engine_reproduces(0x2802_178e_bc06_7e41, (1, 4, 1), seqs, Collide);
    }
}

/// The scramble's entropy in the scrambled transcripts: xorshift64.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.max(1);
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// An id-free rendering of the engine's state: per General, whether each
/// instance exists and what its view reports, then the interner occupancy.
fn state_summary<V: Value>(e: &Engine<V>) -> String {
    let mut s = String::new();
    for g in (0..e.params().n() as u32).map(NodeId::new) {
        match e.ia(g) {
            Some(ia) => {
                s += &format!(
                    "ia({}, {:?}, {}) ",
                    ia.any_i_value(),
                    ia.last_g(),
                    ia.tracked_values()
                )
            }
            None => s += "ia- ",
        }
        match e.agreement(g) {
            Some(a) => {
                s += &format!(
                    "agr({:?}, {}, {:?}, {}, {}) ",
                    a.tau_g(),
                    a.has_returned(),
                    a.decision(),
                    a.broadcaster_count(),
                    a.triplet_count()
                )
            }
            None => s += "agr- ",
        }
    }
    s + &format!("occupancy {}", e.interner().occupancy())
}

/// Like [`assert_engine_reproduces`], but sequence `i` starts from an
/// engine scrambled with entropy seed `i + 1`, and the fold takes the
/// state summary after the scramble and after every call.
fn assert_scrambled_engine_reproduces(
    recorded: u64,
    (me, n, f): (u32, usize, usize),
    seqs: Vec<Vec<RawOp>>,
) {
    let mut transcript = Transcript::new();
    for (i, ops) in seqs.into_iter().enumerate() {
        let mut driven = Driven::new(me, n, f, |v| v);
        let now = LocalTime::from_nanos(driven.now);
        driven
            .engine
            .scramble(now, &mut xorshift(i as u64 + 1), &mut |e| e.next_u64() % 8);
        transcript.call(&state_summary(&driven.engine));
        for raw in ops {
            if let Some(result) = driven.step(raw) {
                transcript.call(&result);
                transcript.call(&state_summary(&driven.engine));
            }
        }
    }
    transcript.assert_recorded(recorded);
}

// A transient fault leaves arbitrary state behind; these pin what a
// scrambled engine answers afterwards, so the scramble must draw entropy,
// intern values and create instances in one fixed order.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    #[test]
    fn recorded_scrambled_n7(seqs in prop::collection::vec(prop::collection::vec(N7, 1..250), 24)) {
        assert_scrambled_engine_reproduces(0xd11c_4305_cf6b_385f, (3, 7, 2), seqs);
    }

    #[test]
    fn recorded_scrambled_n4(seqs in prop::collection::vec(prop::collection::vec(N4, 1..250), 24)) {
        assert_scrambled_engine_reproduces(0xce88_e96a_0a63_684c, (0, 4, 1), seqs);
    }
}

/// Runs every sequence with the decay oracle on (see
/// [`Driven::check_decay`]). With `scrambled`, sequence `i` starts from
/// an engine scrambled with entropy seed `i + 1` and is scrambled again
/// halfway, over live instances, so planted residue — dormant,
/// future-stamped, unreferenced — decays under the oracle too.
fn assert_skipped_decay_walks_are_no_ops<V: Value>(
    (me, n, f): (u32, usize, usize),
    seqs: Vec<Vec<RawOp>>,
    make: impl Fn(u64) -> V + Copy,
    scrambled: bool,
) {
    for (i, ops) in seqs.into_iter().enumerate() {
        let mut driven = Driven::new(me, n, f, make);
        driven.oracle = true;
        let mut entropy = xorshift(i as u64 + 1);
        let half = if scrambled { ops.len() / 2 } else { usize::MAX };
        for (k, raw) in ops.into_iter().enumerate() {
            if k == 0 && scrambled || k == half {
                let now = LocalTime::from_nanos(driven.now);
                driven
                    .engine
                    .scramble(now, &mut entropy, &mut |e| make(e.next_u64() % 8));
            }
            driven.step(raw);
        }
    }
}

// The decay oracle over every traffic shape above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    #[test]
    fn decay_oracle_n7(seqs in prop::collection::vec(prop::collection::vec(N7, 1..250), 24)) {
        assert_skipped_decay_walks_are_no_ops((3, 7, 2), seqs, |v| v, false);
    }

    #[test]
    fn decay_oracle_n7_colliding(seqs in prop::collection::vec(prop::collection::vec(N7, 1..250), 12)) {
        assert_skipped_decay_walks_are_no_ops((3, 7, 2), seqs, Collide, false);
    }

    #[test]
    fn decay_oracle_n4(seqs in prop::collection::vec(prop::collection::vec(N4, 1..250), 24)) {
        assert_skipped_decay_walks_are_no_ops((0, 4, 1), seqs, |v| v, false);
    }

    #[test]
    fn decay_oracle_duplicate_spam(
        seqs in prop::collection::vec(prop::collection::vec(DUPLICATE_SPAM, 1..400), 12),
    ) {
        assert_skipped_decay_walks_are_no_ops((1, 4, 1), seqs, |v| v, false);
    }

    #[test]
    fn decay_oracle_spam_and_decay_colliding(
        seqs in prop::collection::vec(prop::collection::vec(SPAM_AND_DECAY, 1..400), 24),
    ) {
        assert_skipped_decay_walks_are_no_ops((1, 4, 1), seqs, Collide, false);
    }

    #[test]
    fn decay_oracle_scrambled_n7(seqs in prop::collection::vec(prop::collection::vec(N7, 1..250), 24)) {
        assert_skipped_decay_walks_are_no_ops((3, 7, 2), seqs, |v| v, true);
    }

    #[test]
    fn decay_oracle_scrambled_n4(seqs in prop::collection::vec(prop::collection::vec(N4, 1..250), 24)) {
        assert_skipped_decay_walks_are_no_ops((0, 4, 1), seqs, |v| v, true);
    }
}

/// Requires two engines to be indistinguishable as they stand: same
/// protocol state (interner ids included) and same dispatch counters.
fn assert_same_state<V: Value>(recycled: &Engine<V>, fresh: &Engine<V>, at: &str) {
    assert_eq!(
        recycled.protocol_state(),
        fresh.protocol_state(),
        "protocol state {at}"
    );
    assert_eq!(
        recycled.dispatch_stats(),
        fresh.dispatch_stats(),
        "dispatch stats {at}"
    );
}

/// An engine that lived once per sequence of `priors`, each life
/// started with a scramble (entropy seeds from `seed`) and ended with a
/// recycle, so residue of every kind — instances of several Generals,
/// planted and future-stamped stamps, interned junk, General-side
/// guards, decay bookkeeping, and spares the last life left unused — is
/// there to leak.
fn recycled_engine<V: Value>(
    (me, n, f): (u32, usize, usize),
    priors: &[&[RawOp]],
    seed: u64,
    make: impl Fn(u64) -> V + Copy,
) -> Engine<V> {
    let mut engine = Driven::new(me, n, f, make).engine;
    for (life, prior) in priors.iter().enumerate() {
        let mut used = Driven::new(me, n, f, make);
        used.engine = engine;
        let now = LocalTime::from_nanos(used.now);
        used.engine
            .scramble(now, &mut xorshift(seed + life as u64), &mut |e| {
                make(e.next_u64() % 8)
            });
        for &raw in *prior {
            used.step(raw);
        }
        engine = used.engine;
        engine.recycle();
    }
    engine
}

/// Replays every sequence on a fresh engine and, in lockstep, on a
/// recycled one that first ran the next two sequences of the list: every call
/// must answer alike and leave the same protocol state and dispatch
/// counters. The prior run ends later than the replay starts, so a
/// recycled engine that remembered its clock would see time run
/// backwards. With `scrambled`, both engines are scrambled alike first,
/// as in [`assert_scrambled_engine_reproduces`].
fn assert_recycled_engine_matches_fresh<V: Value>(
    (me, n, f): (u32, usize, usize),
    seqs: Vec<Vec<RawOp>>,
    make: impl Fn(u64) -> V + Copy,
    scrambled: bool,
) {
    for (i, ops) in seqs.iter().enumerate() {
        let priors = [1, 2].map(|k| seqs[(i + k) % seqs.len()].as_slice());
        let mut fresh = Driven::new(me, n, f, make);
        let mut recycled = Driven::new(me, n, f, make);
        recycled.engine = recycled_engine((me, n, f), &priors, i as u64 + 101, make);
        if scrambled {
            let now = LocalTime::from_nanos(fresh.now);
            for driven in [&mut fresh, &mut recycled] {
                driven
                    .engine
                    .scramble(now, &mut xorshift(i as u64 + 1), &mut |e| {
                        make(e.next_u64() % 8)
                    });
            }
        }
        assert_same_state(
            &recycled.engine,
            &fresh.engine,
            &format!("seq {i} at start"),
        );
        for (k, &raw) in ops.iter().enumerate() {
            let at = format!("seq {i}, op {k}");
            assert_eq!(recycled.step(raw), fresh.step(raw), "outputs at {at}");
            assert_same_state(&recycled.engine, &fresh.engine, &at);
        }
    }
}

// A recycled engine is a fresh one: every transcript shape above,
// replayed on an engine that lived twice before, on other sequences of
// its shape, each from a scramble and each ended by a recycle.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    #[test]
    fn recycled_engine_n7(seqs in prop::collection::vec(prop::collection::vec(N7, 1..250), 12)) {
        assert_recycled_engine_matches_fresh((3, 7, 2), seqs, |v| v, false);
    }

    #[test]
    fn recycled_engine_n7_colliding(seqs in prop::collection::vec(prop::collection::vec(N7, 1..250), 8)) {
        assert_recycled_engine_matches_fresh((3, 7, 2), seqs, Collide, false);
    }

    #[test]
    fn recycled_engine_n4(seqs in prop::collection::vec(prop::collection::vec(N4, 1..250), 12)) {
        assert_recycled_engine_matches_fresh((0, 4, 1), seqs, |v| v, false);
    }

    #[test]
    fn recycled_engine_n4_colliding(seqs in prop::collection::vec(prop::collection::vec(N4, 1..250), 8)) {
        assert_recycled_engine_matches_fresh((0, 4, 1), seqs, Collide, false);
    }

    #[test]
    fn recycled_engine_duplicate_spam(
        seqs in prop::collection::vec(prop::collection::vec(DUPLICATE_SPAM, 1..400), 8),
    ) {
        assert_recycled_engine_matches_fresh((1, 4, 1), seqs, |v| v, false);
    }

    #[test]
    fn recycled_engine_spam_and_decay_colliding(
        seqs in prop::collection::vec(prop::collection::vec(SPAM_AND_DECAY, 1..400), 8),
    ) {
        assert_recycled_engine_matches_fresh((1, 4, 1), seqs, Collide, false);
    }

    #[test]
    fn recycled_engine_scrambled_n7(seqs in prop::collection::vec(prop::collection::vec(N7, 1..250), 12)) {
        assert_recycled_engine_matches_fresh((3, 7, 2), seqs, |v| v, true);
    }

    #[test]
    fn recycled_engine_scrambled_n4(seqs in prop::collection::vec(prop::collection::vec(N4, 1..250), 12)) {
        assert_recycled_engine_matches_fresh((0, 4, 1), seqs, |v| v, true);
    }

    /// The full agreement, on an engine that ran two hostile n = 4
    /// sequences at node 1 first.
    #[test]
    fn recycled_engine_full_agreement(priors in prop::collection::vec(prop::collection::vec(N4, 100..250), 2)) {
        let mut fresh: Engine<u64> = Engine::new(id(1), params4());
        let priors: Vec<&[RawOp]> = priors.iter().map(Vec::as_slice).collect();
        let mut recycled = recycled_engine((1, 4, 1), &priors, 1, |v| v);
        let (mut ob_fresh, mut ob_recycled) = (Outbox::new(), Outbox::new());
        assert_same_state(&recycled, &fresh, "at start");
        for (k, call) in full_agreement_calls().iter().enumerate() {
            assert_eq!(
                make_call(&mut recycled, &mut ob_recycled, call),
                make_call(&mut fresh, &mut ob_fresh, call),
                "outputs at call {k}"
            );
            assert_same_state(&recycled, &fresh, &format!("call {k}"));
        }
    }
}

/// Asserts the two engines answer every op of `ops` alike once
/// `Collide(v)` is read as `v`.
fn assert_collide_matches_plain((me, n, f): (u32, usize, usize), ops: Vec<RawOp>) {
    let mut plain = Driven::new(me, n, f, |v| v);
    let mut colliding = Driven::new(me, n, f, Collide);
    for (i, raw) in ops.into_iter().enumerate() {
        assert_eq!(colliding.step(raw), plain.step(raw), "op {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn colliding_hashes_change_nothing_n7(ops in prop::collection::vec(N7, 1..250)) {
        assert_collide_matches_plain((3, 7, 2), ops);
    }

    /// Here colliding ids are reclaimed and reused mid-sequence.
    #[test]
    fn colliding_hashes_change_nothing_under_spam_and_decay(
        ops in prop::collection::vec(SPAM_AND_DECAY, 1..400),
    ) {
        assert_collide_matches_plain((1, 4, 1), ops);
    }
}

fn params4() -> Params {
    Params::from_d(4, 1, Duration::from_nanos(D), 0).unwrap()
}

fn t(n: u64) -> LocalTime {
    LocalTime::from_nanos(100_000 * D + n)
}

fn id(n: u32) -> NodeId {
    NodeId::new(n)
}

/// One call of the hand-written full-agreement transcript.
enum Call {
    Deliver(LocalTime, NodeId, Msg<u64>),
    Tick(LocalTime),
}

/// A full fault-free agreement at node 1 of 4, General 0: the
/// `Initiator`, each stage's quorum, then ticks through the decide and
/// the post-return reset.
fn full_agreement_calls() -> Vec<Call> {
    let g = id(0);
    let t0 = 1_000_000_000_000u64;
    let step = D / 4;
    let mut calls = vec![Call::Deliver(
        LocalTime::from_nanos(t0),
        g,
        Msg::Initiator {
            general: g,
            value: Arc::new(7),
        },
    )];
    for (stage, kind) in IaKind::ALL.into_iter().enumerate() {
        for s in 0..4u32 {
            let now = t0 + (stage as u64 + 1) * step + u64::from(s);
            let msg = Msg::Ia {
                kind,
                general: g,
                value: Arc::new(7),
            };
            calls.push(Call::Deliver(LocalTime::from_nanos(now), id(s), msg));
        }
    }
    for k in 1..=8u64 {
        calls.push(Call::Tick(LocalTime::from_nanos(t0 + 3 * step + k * D)));
    }
    calls
}

/// Makes one [`Call`] and renders its outputs.
fn make_call(engine: &mut Engine<u64>, ob: &mut Outbox<u64>, call: &Call) -> String {
    match call {
        Call::Deliver(now, sender, msg) => engine.on_message_ref(*now, *sender, msg, ob),
        Call::Tick(now) => engine.on_tick(*now, ob),
    }
    format!("{:?}", ob.outputs())
}

/// A full fault-free agreement at one node, including the decide and the
/// post-return reset ticks.
#[test]
fn recorded_full_agreement() {
    let g = id(0);
    let mut engine: Engine<u64> = Engine::new(id(1), params4());
    let mut ob: Outbox<u64> = Outbox::new();
    let mut transcript = Transcript::new();
    let calls = full_agreement_calls();
    let ticks = calls.len() - 8;
    for call in &calls[..ticks] {
        transcript.call(&make_call(&mut engine, &mut ob, call));
    }
    let decided = engine.agreement(g).unwrap().decision();
    assert_eq!(decided, Some(Some(Arc::new(7))));
    for call in &calls[ticks..] {
        transcript.call(&make_call(&mut engine, &mut ob, call));
    }
    transcript.assert_recorded(0xb390_9b09_7deb_614d);
}

/// What an admitted `initiate(now, value)` leaves in the outbox: the
/// `Initiator` broadcast and the three `[IG3]` progress wake-ups.
fn initiation(general: NodeId, now: LocalTime, value: u64, d: Duration) -> Vec<Output<u64>> {
    let eps = Duration::from_nanos(1);
    vec![
        Output::Broadcast(Msg::Initiator {
            general,
            value: Arc::new(value),
        }),
        Output::WakeAt(now + d * 2u64 + eps),
        Output::WakeAt(now + d * 3u64 + eps),
        Output::WakeAt(now + d * 4u64 + eps),
    ]
}

/// ``[IG2]`` across a reclaim/reuse cycle: a decayed value's id is
/// reclaimed, its slot recycled for a *different* value, and neither the
/// recycled slot nor the re-interned original inherits any suppression.
#[test]
fn ig2_suppression_survives_value_id_reuse() {
    let p = params4();
    let mut e: Engine<u64> = Engine::new(id(0), p);
    let mut ob: Outbox<u64> = Outbox::new();
    let same_value_too_soon = |elapsed: Duration| {
        Err(InitiateError::SameValueTooSoon {
            wait: p.delta_v() - elapsed,
        })
    };

    // Initiate 7; a same-value retry Δ0 later clears [IG1] but not [IG2].
    assert_eq!(e.initiate(t(0), 7, &mut ob), Ok(()));
    assert_eq!(ob.outputs(), initiation(id(0), t(0), 7, p.d()));
    let id7 = e.interner().lookup(&7).expect("7 interned");
    assert_eq!(
        e.initiate(t(0) + p.delta_0(), 7, &mut ob),
        same_value_too_soon(p.delta_0())
    );
    assert!(ob.is_empty());

    // Let every guard decay (Δ_v is the longest) and tick so the cleanup
    // sweep runs: the stale [IG3] check is dropped silently and the id
    // for 7 is reclaimed.
    let decayed = t(0) + p.delta_v() * 2u64;
    e.on_tick(decayed, &mut ob);
    assert!(ob.is_empty());
    let late = decayed + p.delta_v() * 2u64;
    e.on_tick(late, &mut ob);
    assert!(ob.is_empty());
    assert_eq!(e.interner().occupancy(), 0, "decayed guard releases its id");
    assert_eq!(e.interner().lookup(&7), None);

    // A *different* value recycles the slot...
    assert_eq!(e.initiate(late, 9, &mut ob), Ok(()));
    assert_eq!(ob.outputs(), initiation(id(0), late, 9, p.d()));
    let id9 = e.interner().lookup(&9).expect("9 interned");
    assert_eq!(id9.index(), id7.index(), "free-list recycles the slot");
    // ...and is guarded under its own identity: 9 is suppressed, but 7 —
    // whose guard lived on the same slot index — is free again after Δ0.
    let next = late + p.delta_0();
    assert_eq!(
        e.initiate(next, 9, &mut ob),
        same_value_too_soon(p.delta_0())
    );
    assert_eq!(e.initiate(next, 7, &mut ob), Ok(()));
    assert_eq!(ob.outputs(), initiation(id(0), next, 7, p.d()));
    // And the fresh guard for 7 (on a brand-new slot) suppresses again.
    assert_eq!(
        e.initiate(next + p.delta_0(), 7, &mut ob),
        same_value_too_soon(p.delta_0())
    );
}

/// `last(G, m)` across a reclaim/reuse cycle: the block-K re-invocation
/// guard suppresses before decay, releases the id after the `2Δ_rmv + 9d`
/// horizon, and leaves nothing behind for the value that recycles the slot.
#[test]
fn last_gm_suppression_survives_value_id_reuse() {
    let p = params4();
    let g = id(0);
    let d = p.d();
    let mut e: Engine<u64> = Engine::new(id(1), p);
    let mut ob: Outbox<u64> = Outbox::new();
    let initiator = |value: u64| Msg::Initiator {
        general: g,
        value: Arc::new(value),
    };
    let support = |value: u64| {
        [Output::Broadcast(Msg::Ia {
            kind: IaKind::Support,
            general: g,
            value: Arc::new(value),
        })]
    };

    // Block K fires for value 7: support sent, last(G, 7) stamped.
    e.on_message_ref(t(0), g, &initiator(7), &mut ob);
    assert_eq!(ob.outputs(), support(7));
    let id7 = e.interner().lookup(&7).expect("7 interned");
    assert_eq!(e.ia(g).unwrap().last_gm(&7), Some(t(0)));
    // A re-invocation 2d later is suppressed: last(G, m) was set at τq − d.
    e.on_message_ref(t(0) + d * 2u64, g, &initiator(7), &mut ob);
    assert!(ob.is_empty(), "last(G, m) suppression");

    // Past 2Δ_rmv + 9d the guard *value* expires and is cleared; the clear
    // itself lives in the change history for one more retention horizon
    // before the state goes dormant — only then does the sweep reclaim
    // the id.
    let horizon = t(0) + p.last_gm_expiry() + d * 8u64;
    e.on_tick(horizon, &mut ob);
    assert!(ob.is_empty());
    assert!(
        e.interner().lookup(&7).is_some(),
        "guard history still pins the id right after the clear"
    );
    let purged = horizon + p.last_gm_expiry() + d * 8u64;
    e.on_tick(purged, &mut ob);
    assert!(ob.is_empty());
    assert_eq!(e.interner().lookup(&7), None, "id reclaimed");

    // Value 9 recycles the slot and behaves completely fresh: block K
    // fires (no inherited last(G, m), i_value or ignore state)...
    let t2 = purged + d * 4u64;
    e.on_message_ref(t2, g, &initiator(9), &mut ob);
    assert_eq!(ob.outputs(), support(9));
    let id9 = e.interner().lookup(&9).expect("9 interned");
    assert_eq!(id9.index(), id7.index(), "slot actually recycled");
    // ...and its own fresh guard suppresses its own re-invocation.
    e.on_message_ref(t2 + d * 2u64, g, &initiator(9), &mut ob);
    assert!(ob.is_empty());
}
