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
//! What still has a code oracle:
//!
//! * `Engine<Collide>` ≡ `Engine<u64>` — [`Collide`] hashes to one bit, so
//!   every intern and lookup walks a probe chain and equality, not
//!   hashing, must be what tells values apart;
//! * the `ValueId` reclaim/reuse cycle of the `[IG2]` and `last(G, m)`
//!   guards, with every call's expected result written out.

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
        }
    }

    /// Applies one op and returns the `Debug` rendering of the call's
    /// result — `None` when the op made no call (a replay with nothing to
    /// replay yet).
    fn step(&mut self, raw: RawOp) -> Option<String> {
        let dt = raw.5;
        self.now += dt;
        let t = LocalTime::from_nanos(self.now);
        let result = match decode(raw, &self.make) {
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
            Op::Tick => {
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
            Op::JumpTick { factor } => {
                // Long silence: decay horizons expire, the cleanup runs and
                // the interner sweep reclaims every id whose state decayed.
                self.now += dt.saturating_mul(factor * 50);
                self.engine
                    .on_tick(LocalTime::from_nanos(self.now), &mut self.ob);
                format!("{:?}", self.ob.outputs())
            }
        };
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

/// A full fault-free agreement at one node, including the decide and the
/// post-return reset ticks.
#[test]
fn recorded_full_agreement() {
    let me = id(1);
    let g = id(0);
    let mut engine: Engine<u64> = Engine::new(me, params4());
    let mut ob: Outbox<u64> = Outbox::new();
    let mut transcript = Transcript::new();
    let t0 = 1_000_000_000_000u64;
    let step = D / 4;

    let init = Msg::Initiator {
        general: g,
        value: Arc::new(7),
    };
    engine.on_message_ref(LocalTime::from_nanos(t0), g, &init, &mut ob);
    transcript.call(&format!("{:?}", ob.outputs()));
    for (stage, kind) in IaKind::ALL.into_iter().enumerate() {
        let msg = Msg::Ia {
            kind,
            general: g,
            value: Arc::new(7),
        };
        for s in 0..4u32 {
            let now = t0 + (stage as u64 + 1) * step + u64::from(s);
            engine.on_message_ref(LocalTime::from_nanos(now), id(s), &msg, &mut ob);
            transcript.call(&format!("{:?}", ob.outputs()));
        }
    }
    let decided = engine.agreement(g).unwrap().decision();
    assert_eq!(decided, Some(Some(Arc::new(7))));
    for k in 1..=8u64 {
        engine.on_tick(LocalTime::from_nanos(t0 + 3 * step + k * D), &mut ob);
        transcript.call(&format!("{:?}", ob.outputs()));
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
