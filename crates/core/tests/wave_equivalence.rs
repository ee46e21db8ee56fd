//! Wave-coalescing equivalence battery. Simultaneous arrivals have no
//! protocol-defined order (the simulator's `seq` tie-break is an
//! artefact), so [`Engine::on_wave_ref`] dispatches a same-instant wave
//! **stably key-major**: each maximal `Bcast`-only segment grouped by
//! `(kind, general, broadcaster, round, value)`, keys in first-appearance
//! order, arrivals in slice order within a key, `Ia`/`Initiator` entries
//! barriers at their position. Two properties pin that contract:
//!
//! 1. **Bit-identical to the golden model**: the outputs equal calling
//!    [`Engine::on_message_ref`] once per entry over the *stably grouped
//!    permutation* of the wave (computed here, independently, by a naive
//!    quadratic grouping) and concatenating the per-call outputs.
//! 2. **A legal schedule**: per-message dispatch in *arrival* order from
//!    the same pre-wave state yields the same output *multiset* and the
//!    same post-wave engine views. One caveat is inherent to the
//!    protocol, not to the grouping: when one instant completes more than
//!    one decidable chain (two values, or rounds 1 and 2 of one value),
//!    which one block S sees first — and therefore the decided value or
//!    relay round — depends on the order, and both picks are legal. The
//!    property is asserted whenever both orders made the same decision.
//!
//! Random wave shapes include mixed keys, Byzantine duplicates,
//! out-of-membership senders, interleaved non-Bcast traffic,
//! hash-colliding values and sender-major bursts (the shape `n`
//! concurrent relays produce). The per-message dispatch is the
//! specification (itself pinned by the recorded transcripts in
//! `engine_transcripts.rs`). Each case runs many waves against the same
//! engine pair with ticks in between, so state divergence in one wave
//! would surface in every later one.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use proptest::prelude::*;
use ssbyz_core::{BcastKind, Engine, Event, IaKind, Msg, Outbox, Output, Params};
use ssbyz_types::{Duration, LocalTime, NodeId, Value};

const D: u64 = 10_000_000; // 10ms in ns

/// One raw generated wave entry, decoded by [`decode`].
type RawEntry = (u32, u32, u32, u64, u32);

/// Decodes a raw tuple into one `(sender, message)` wave entry.
///
/// The selector is biased heavily toward `Bcast` with a tiny key space so
/// generated waves repeat keys often (the coalescible shape), salted
/// with key changes mid-wave, duplicates, foreign senders (`n` and
/// beyond), forged initiations and IA traffic.
fn decode<V: Value>(
    (sel, sender, aux, value, round): RawEntry,
    mk: &dyn Fn(u64) -> V,
) -> (NodeId, Msg<V>) {
    let sender_id = NodeId::new(sender);
    let msg = match sel {
        // The dominant shape: broadcast-stage messages over 2 generals ×
        // 3 broadcasters × small value/round spaces.
        0..=79 => Msg::Bcast {
            kind: BcastKind::ALL[(sel % 4) as usize],
            general: NodeId::new(sel % 2),
            broadcaster: NodeId::new(aux % 3),
            value: Arc::new(mk(value)),
            round,
        },
        // Broadcasts naming an out-of-membership general/broadcaster.
        80..=84 => Msg::Bcast {
            kind: BcastKind::Echo,
            general: NodeId::new(100 + (sel % 2)),
            broadcaster: NodeId::new(aux),
            value: Arc::new(mk(value)),
            round: 1,
        },
        // IA-stage traffic interleaved into the wave.
        85..=94 => Msg::Ia {
            kind: IaKind::ALL[(sel % 3) as usize],
            general: NodeId::new(aux % 3),
            value: Arc::new(mk(value)),
        },
        // Initiations (forged whenever sender ≠ claimed general).
        _ => Msg::Initiator {
            general: NodeId::new(aux % 3),
            value: Arc::new(mk(value)),
        },
    };
    (sender_id, msg)
}

/// Whether two messages are `Bcast`s naming the same triplet stage.
fn same_key<V: Value>(a: &Msg<V>, b: &Msg<V>) -> bool {
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
        ) => (k1, g1, b1, r1) == (k2, g2, b2, r2) && **v1 == **v2,
        _ => false,
    }
}

/// The golden dispatch order: the stably grouped permutation of `wave`,
/// by naive quadratic grouping.
fn grouped_order<V: Value>(wave: &[(NodeId, Msg<V>)]) -> Vec<usize> {
    let mut order = Vec::with_capacity(wave.len());
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, (_, msg)) in wave.iter().enumerate() {
        if !matches!(msg, Msg::Bcast { .. }) {
            order.extend(groups.drain(..).flatten());
            order.push(i);
        } else if let Some(g) = groups.iter_mut().find(|g| same_key(&wave[g[0]].1, msg)) {
            g.push(i);
        } else {
            groups.push(vec![i]);
        }
    }
    order.extend(groups.into_iter().flatten());
    order
}

/// Everything the engine exposes about its per-General state, over the
/// generators' whole key space, as one comparable string.
fn views<V: Value>(e: &Engine<V>, t: LocalTime, mk: &dyn Fn(u64) -> V) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for g in (0..8).map(NodeId::new) {
        if let Some(a) = e.agreement(g) {
            write!(
                s,
                "agr{g:?}:{:?},{},{:?},{},{};",
                a.tau_g(),
                a.has_returned(),
                a.decision(),
                a.broadcaster_count(),
                a.triplet_count()
            )
            .unwrap();
            for (b, r, v) in (0..8)
                .flat_map(|b| (0..5).flat_map(move |r| (0..6).map(move |v| (NodeId::new(b), r, v))))
            {
                if a.accepted(b, r, &mk(v)) {
                    write!(s, "acc{b:?}/{r}/{v};").unwrap();
                }
            }
        }
        if let Some(ia) = e.ia(g) {
            write!(s, "ia{g:?}:{:?},{};", ia.last_g(), ia.tracked_values()).unwrap();
            for v in (0..6).map(mk) {
                write!(
                    s,
                    "{:?},{},{},{:?},{:?};",
                    ia.i_value(&v),
                    ia.is_ready(&v),
                    ia.is_ignoring(&v, t),
                    ia.last_gm(&v),
                    ia.own_progress(&v)
                )
                .unwrap();
            }
        }
    }
    s
}

/// The outputs through which a decision shows: the event itself and the
/// relay `Init` this node broadcasts for it.
fn decision_outputs<V: Value>(me: NodeId, outs: &[Output<V>]) -> Vec<String> {
    sorted_debug(outs.iter().filter(|o| match o {
        Output::Event(Event::Decided { .. } | Event::Aborted { .. }) => true,
        Output::Broadcast(Msg::Bcast {
            kind: BcastKind::Init,
            broadcaster,
            ..
        }) => *broadcaster == me,
        _ => false,
    }))
}

fn sorted_debug<'a, V: Value>(outs: impl Iterator<Item = &'a Output<V>>) -> Vec<String> {
    let mut v: Vec<String> = outs.map(|o| format!("{o:?}")).collect();
    v.sort();
    v
}

/// Checks both properties for one wave at `t`, advancing `waved` (through
/// [`Engine::on_wave_ref`]) and `serial` (the golden model) past it.
fn check_wave<V: Value>(
    waved: &mut Engine<V>,
    serial: &mut Engine<V>,
    t: LocalTime,
    wave: &[(NodeId, Msg<V>)],
    mk: &dyn Fn(u64) -> V,
    what: &str,
) {
    let mut wob: Outbox<V> = Outbox::new();
    let mut sob: Outbox<V> = Outbox::new();
    let mut arrival = serial.clone();

    let wave_refs: Vec<(NodeId, &Msg<V>)> = wave.iter().map(|(s, m)| (*s, m)).collect();
    waved.on_wave_ref(t, &wave_refs, &mut wob);

    // Property 1: bit-identical to per-message dispatch over the stably
    // grouped permutation.
    let mut want: Vec<Output<V>> = Vec::new();
    for i in grouped_order(wave) {
        let (sender, msg) = &wave[i];
        serial.on_message_ref(t, *sender, msg, &mut sob);
        want.extend(sob.outputs().iter().cloned());
    }
    assert_eq!(
        wob.outputs(),
        want.as_slice(),
        "{what}: diverged from the grouped golden model (len {})",
        wave.len()
    );

    // Property 2: arrival-order dispatch is the same schedule up to order.
    let mut arrived: Vec<Output<V>> = Vec::new();
    for (sender, msg) in wave {
        arrival.on_message_ref(t, *sender, msg, &mut sob);
        arrived.extend(sob.outputs().iter().cloned());
    }
    let me = waved.id();
    if decision_outputs(me, &arrived) == decision_outputs(me, &want) {
        assert_eq!(
            sorted_debug(arrived.iter()),
            sorted_debug(want.iter()),
            "{what}: output multiset differs from arrival order"
        );
        assert_eq!(
            views(&arrival, t, mk),
            views(waved, t, mk),
            "{what}: post-wave views differ from arrival order"
        );
    }
}

/// Drives a wave-dispatching engine and the golden model through the same
/// delivery schedule.
///
/// `ops` is a flat op list: each chunk becomes one same-instant wave,
/// with time advancing (and an occasional tick) between waves.
fn run_equivalence<V: Value>(
    me: u32,
    n: usize,
    f: usize,
    anchored: bool,
    ops: Vec<RawEntry>,
    mk: &dyn Fn(u64) -> V,
) {
    let params = Params::from_d(n, f, Duration::from_nanos(D), 0).unwrap();
    let mut waved: Engine<V> = Engine::new(NodeId::new(me), params);
    let mut serial: Engine<V> = Engine::new(NodeId::new(me), params);
    let mut wob: Outbox<V> = Outbox::new();
    let mut sob: Outbox<V> = Outbox::new();
    let mut now = 1_000_000_000_000u64;
    if anchored {
        // A live anchor makes the deadline blocks evaluate, so waves emit
        // (sends, accepts, decides) instead of only recording arrivals.
        for g in [0u32, 1] {
            let tau_g = LocalTime::from_nanos(now - 2 * D);
            waved.plant_anchor(NodeId::new(g), tau_g);
            serial.plant_anchor(NodeId::new(g), tau_g);
        }
    }
    for (wave_no, chunk) in ops.chunks(11).enumerate() {
        let wave: Vec<(NodeId, Msg<V>)> = chunk.iter().map(|raw| decode(*raw, mk)).collect();
        now += 300_000 * (1 + wave_no as u64 % 7);
        let t = LocalTime::from_nanos(now);
        check_wave(
            &mut waved,
            &mut serial,
            t,
            &wave,
            mk,
            &format!("wave {wave_no} at {now} (anchored {anchored})"),
        );

        // Periodic ticks keep cleanup cadences and deadline blocks in
        // play on both sides; their outputs must stay identical too.
        if wave_no % 5 == 4 {
            now += D / 2;
            let t = LocalTime::from_nanos(now);
            waved.on_tick(t, &mut wob);
            serial.on_tick(t, &mut sob);
            assert_eq!(wob.outputs(), sob.outputs(), "tick after wave {wave_no}");
        }
    }
}

/// A value whose `Hash` is a single constant: every distinct value lands
/// in the same interner bucket, forcing the full-equality probe on each
/// lookup. Coalescing interns once per run, so collisions must not
/// change *what* is interned — only how often the probe runs.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Colliding(u64);

impl Hash for Colliding {
    fn hash<H: Hasher>(&self, state: &mut H) {
        0u64.hash(state);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// n = 7, f = 2, anchored instances: waves of mixed broadcast runs
    /// with duplicates and foreign senders, evaluated against live
    /// deadline blocks.
    #[test]
    fn wave_matches_per_message_n7_anchored(
        ops in prop::collection::vec(
            (0u32..100, 0u32..9, 0u32..9, 0u64..4, 0u32..4),
            1..200,
        ),
    ) {
        run_equivalence(3, 7, 2, true, ops, &|v| v);
    }

    /// n = 7 with cold (unanchored) instances: pure recording waves; the
    /// triplet table fills, decays and sweeps identically.
    #[test]
    fn wave_matches_per_message_n7_cold(
        ops in prop::collection::vec(
            (0u32..100, 0u32..9, 0u32..9, 0u64..4, 0u32..4),
            1..200,
        ),
    ) {
        run_equivalence(3, 7, 2, false, ops, &|v| v);
    }

    /// n = 4, f = 1: weak quorum 2, strong quorum 3 — a single wave can
    /// cross both thresholds, so send/accept interleavings are densest.
    #[test]
    fn wave_matches_per_message_n4(
        ops in prop::collection::vec(
            (0u32..100, 0u32..6, 0u32..6, 0u64..3, 0u32..3),
            1..250,
        ),
    ) {
        run_equivalence(0, 4, 1, true, ops, &|v| v);
    }

    /// Spam shape: a tiny value/sender space so nearly every wave is all
    /// duplicates — the bulk-record fast path must stay inert.
    #[test]
    fn wave_matches_per_message_duplicate_spam(
        ops in prop::collection::vec(
            (0u32..80, 0u32..4, 0u32..3, 0u64..2, 1u32..3),
            1..300,
        ),
    ) {
        run_equivalence(1, 4, 1, true, ops, &|v| v);
    }

    /// Hash-colliding values: distinct payloads that all hash alike, so
    /// the interner resolves every wave through bucket collision chains.
    #[test]
    fn wave_matches_per_message_hash_collisions(
        ops in prop::collection::vec(
            (0u32..100, 0u32..9, 0u32..9, 0u64..6, 0u32..4),
            1..150,
        ),
    ) {
        run_equivalence(2, 7, 2, true, ops, &Colliding);
    }

    /// The shape `n` concurrent relays produce: every sender emits the
    /// same key sequence back to back (here with random skips, a
    /// Byzantine sender repeating itself, and the odd IA barrier), so
    /// same-key arrivals are never adjacent and the successor probe does
    /// the grouping.
    #[test]
    fn wave_matches_sender_major_bursts(
        keys in prop::collection::vec((0u32..80, 0u32..9, 0u64..3, 1u32..3), 1..9),
        bursts in prop::collection::vec((0u32..9, 0u32..512, 0u32..100), 1..40),
    ) {
        let params = Params::from_d(7, 2, Duration::from_nanos(D), 0).unwrap();
        let mut waved: Engine<u64> = Engine::new(NodeId::new(3), params);
        let mut serial: Engine<u64> = Engine::new(NodeId::new(3), params);
        let mut now = 1_000_000_000_000u64;
        for g in [0u32, 1] {
            let tau_g = LocalTime::from_nanos(now - 2 * D);
            waved.plant_anchor(NodeId::new(g), tau_g);
            serial.plant_anchor(NodeId::new(g), tau_g);
        }
        for (wave_no, chunk) in bursts.chunks(8).enumerate() {
            let mut wave: Vec<(NodeId, Msg<u64>)> = Vec::new();
            for (sender, skip_mask, barrier) in chunk {
                for (k, (sel, aux, value, round)) in keys.iter().enumerate() {
                    if skip_mask & (1 << k) == 0 {
                        wave.push(decode((*sel, *sender, *aux, *value, *round), &|v| v));
                    }
                }
                if *barrier < 10 {
                    wave.push(decode((85 + barrier, *sender, *sender, 0, 0), &|v| v));
                }
            }
            now += 300_000;
            check_wave(
                &mut waved,
                &mut serial,
                LocalTime::from_nanos(now),
                &wave,
                &|v| v,
                &format!("burst wave {wave_no}"),
            );
        }
    }
}

/// Deterministic single-kind run: a full echo wave for one key delivered
/// as one slice crosses weak and strong quorums inside a single
/// `on_wave_ref` call and must emit exactly the per-message concatenation
/// (support send, then the accept chain).
#[test]
fn full_echo_wave_single_call_matches() {
    let params = Params::from_d(7, 2, Duration::from_nanos(D), 0).unwrap();
    let t0 = 2_000_000_000_000u64;
    let g = NodeId::new(0);
    let mk = |me: u32| {
        let mut e: Engine<u64> = Engine::new(NodeId::new(me), params);
        e.plant_anchor(g, LocalTime::from_nanos(t0 - 6 * D));
        e
    };
    let mut waved = mk(1);
    let mut serial = mk(1);
    let mut wob: Outbox<u64> = Outbox::new();
    let mut sob: Outbox<u64> = Outbox::new();
    let value = Arc::new(7u64);
    let wave: Vec<(NodeId, Msg<u64>)> = (0..7)
        .map(|s| {
            (
                NodeId::new(s),
                Msg::Bcast {
                    kind: BcastKind::Echo,
                    general: g,
                    broadcaster: NodeId::new(2),
                    value: Arc::clone(&value),
                    round: 1,
                },
            )
        })
        .collect();
    let t = LocalTime::from_nanos(t0);
    let refs: Vec<(NodeId, &Msg<u64>)> = wave.iter().map(|(s, m)| (*s, m)).collect();
    waved.on_wave_ref(t, &refs, &mut wob);
    let mut want: Vec<Output<u64>> = Vec::new();
    for (s, m) in &wave {
        serial.on_message_ref(t, *s, m, &mut sob);
        want.extend(sob.outputs().iter().cloned());
    }
    assert!(
        want.iter()
            .any(|o| matches!(o, Output::Broadcast(Msg::Bcast { .. }))),
        "the reference wave must actually emit sends: {want:?}"
    );
    assert_eq!(wob.outputs(), want.as_slice());
}

/// `on_wave_ref` also accepts `Arc`-held messages (the simulator's wire
/// representation) — same outputs as the borrowed form.
#[test]
fn arc_wave_matches_ref_wave() {
    let params = Params::from_d(4, 1, Duration::from_nanos(D), 0).unwrap();
    let t0 = 3_000_000_000_000u64;
    let g = NodeId::new(0);
    let mut a: Engine<u64> = Engine::new(NodeId::new(1), params);
    let mut b: Engine<u64> = Engine::new(NodeId::new(1), params);
    a.plant_anchor(g, LocalTime::from_nanos(t0 - 6 * D));
    b.plant_anchor(g, LocalTime::from_nanos(t0 - 6 * D));
    let mut aob: Outbox<u64> = Outbox::new();
    let mut bob: Outbox<u64> = Outbox::new();
    let value = Arc::new(9u64);
    let msgs: Vec<Msg<u64>> = (0..4)
        .map(|_| Msg::Bcast {
            kind: BcastKind::Echo,
            general: g,
            broadcaster: NodeId::new(2),
            value: Arc::clone(&value),
            round: 1,
        })
        .collect();
    let arc_wave: Vec<(NodeId, Arc<Msg<u64>>)> = msgs
        .iter()
        .enumerate()
        .map(|(i, m)| (NodeId::new(i as u32), Arc::new(m.clone())))
        .collect();
    let ref_wave: Vec<(NodeId, &Msg<u64>)> = msgs
        .iter()
        .enumerate()
        .map(|(i, m)| (NodeId::new(i as u32), m))
        .collect();
    let t = LocalTime::from_nanos(t0);
    a.on_wave_ref(t, &arc_wave, &mut aob);
    b.on_wave_ref(t, &ref_wave, &mut bob);
    assert!(!aob.is_empty(), "the accepted wave must emit");
    assert_eq!(aob.outputs(), bob.outputs());
}

fn echo(general: u32, broadcaster: u32, value: Arc<u64>, round: u32) -> Msg<u64> {
    Msg::Bcast {
        kind: BcastKind::Echo,
        general: NodeId::new(general),
        broadcaster: NodeId::new(broadcaster),
        value,
        round,
    }
}

/// An anchored engine pair for the deterministic grouping cases.
fn anchored_pair(n: usize, f: usize, t0: u64) -> (Engine<u64>, Engine<u64>) {
    let params = Params::from_d(n, f, Duration::from_nanos(D), 0).unwrap();
    let mk = || {
        let mut e: Engine<u64> = Engine::new(NodeId::new(1), params);
        e.plant_anchor(NodeId::new(0), LocalTime::from_nanos(t0 - 6 * D));
        e
    };
    (mk(), mk())
}

/// Key-minting spam: 4096 arrivals, every key distinct. Nothing can
/// group, the outputs are the per-message ones, and the grouping pass
/// gives up within its linear probe budget instead of scanning
/// 4096²/2 keys.
#[test]
fn all_distinct_keys_stay_linear() {
    let t0 = 4_000_000_000_000u64;
    let (mut waved, mut serial) = anchored_pair(7, 2, t0);
    let wave: Vec<(NodeId, Msg<u64>)> = (0..4096u32)
        .map(|i| {
            (
                NodeId::new(i % 7),
                echo(0, i % 7, Arc::new(u64::from(i / 7)), 1 + (i / 7) % 3),
            )
        })
        .collect();
    let before = waved.dispatch_stats();
    check_wave(
        &mut waved,
        &mut serial,
        LocalTime::from_nanos(t0),
        &wave,
        &|v| v,
        "all-distinct wave",
    );
    let after = waved.dispatch_stats();
    assert_eq!(after.wave_groups, before.wave_groups, "nothing to group");
    assert_eq!(after.single_arrivals - before.single_arrivals, 4096);
    let probes = after.key_probes - before.key_probes;
    assert!(
        probes <= 6 * 4096,
        "grouping must stay linear in the wave: {probes} probes for 4096 arrivals"
    );
}

/// Past the probe budget the *whole* wave is dispatched per message in
/// arrival order — including keys that do repeat.
#[test]
fn over_budget_wave_degrades_to_arrival_order() {
    let t0 = 4_100_000_000_000u64;
    let (mut waved, mut serial) = anchored_pair(7, 2, t0);
    let shared = Arc::new(7u64);
    let mut wave: Vec<(NodeId, Msg<u64>)> = (0..1000u32)
        .map(|i| {
            (
                NodeId::new(i % 7),
                echo(0, 2, Arc::new(100 + u64::from(i)), 1),
            )
        })
        .collect();
    for s in 0..7 {
        wave.insert(
            140 * s as usize,
            (NodeId::new(s), echo(0, 3, Arc::clone(&shared), 1)),
        );
    }
    let t = LocalTime::from_nanos(t0);
    let refs: Vec<(NodeId, &Msg<u64>)> = wave.iter().map(|(s, m)| (*s, m)).collect();
    let mut wob: Outbox<u64> = Outbox::new();
    let mut sob: Outbox<u64> = Outbox::new();
    waved.on_wave_ref(t, &refs, &mut wob);
    let mut want: Vec<Output<u64>> = Vec::new();
    for (s, m) in &wave {
        serial.on_message_ref(t, *s, m, &mut sob);
        want.extend(sob.outputs().iter().cloned());
    }
    assert!(!want.is_empty(), "the repeated key must still accept");
    assert_eq!(wob.outputs(), want.as_slice());
    let stats = waved.dispatch_stats();
    assert_eq!((stats.wave_groups, stats.single_arrivals), (0, 1007));
    assert!(stats.key_probes <= 6 * 1007, "{stats:?}");
}

/// The legitimate storm shape at scale: 64 senders × 64 keys,
/// sender-major. Every key forms one 64-arrival group, at about one
/// probe per arrival plus one scan per key.
#[test]
fn sender_major_storm_groups_in_linear_work() {
    let t0 = 4_200_000_000_000u64;
    let (mut waved, mut serial) = anchored_pair(64, 21, t0);
    let value = Arc::new(5u64);
    let wave: Vec<(NodeId, Msg<u64>)> = (0..64u32)
        .flat_map(|s| {
            let value = Arc::clone(&value);
            (0..64u32).map(move |b| (NodeId::new(s), echo(0, b, Arc::clone(&value), 1)))
        })
        .collect();
    check_wave(
        &mut waved,
        &mut serial,
        LocalTime::from_nanos(t0),
        &wave,
        &|v| v,
        "n=64 storm",
    );
    let stats = waved.dispatch_stats();
    assert_eq!(
        (
            stats.wave_groups,
            stats.wave_arrivals,
            stats.single_arrivals
        ),
        (64, 4096, 0)
    );
    assert!(
        stats.key_probes <= 4096 + 64 * 64 / 2 + 64,
        "{} probes for 4096 arrivals over 64 keys",
        stats.key_probes
    );
}

/// Keys compare by value: equal payloads behind distinct `Arc`s are one
/// group.
#[test]
fn equal_values_behind_distinct_arcs_group() {
    let t0 = 4_300_000_000_000u64;
    let (mut waved, mut serial) = anchored_pair(7, 2, t0);
    let wave: Vec<(NodeId, Msg<u64>)> = (0..7u32)
        .flat_map(|s| {
            [
                (NodeId::new(s), echo(0, 2, Arc::new(9), 1)),
                (NodeId::new(s), echo(0, 3, Arc::new(9), 1)),
            ]
        })
        .collect();
    check_wave(
        &mut waved,
        &mut serial,
        LocalTime::from_nanos(t0),
        &wave,
        &|v| v,
        "distinct-Arc wave",
    );
    let stats = waved.dispatch_stats();
    assert_eq!((stats.wave_groups, stats.wave_arrivals), (2, 14));
}

/// `Ia`/`Initiator` entries are barriers: a key repeated on both sides of
/// one forms two groups, and nothing moves across it.
#[test]
fn barriers_split_groups() {
    let t0 = 4_400_000_000_000u64;
    let (mut waved, mut serial) = anchored_pair(7, 2, t0);
    let v = Arc::new(9u64);
    let a = |s: u32| (NodeId::new(s), echo(0, 2, Arc::clone(&v), 1));
    let b = |s: u32| (NodeId::new(s), echo(0, 3, Arc::clone(&v), 1));
    let ia = (
        NodeId::new(4),
        Msg::Ia {
            kind: IaKind::Support,
            general: NodeId::new(0),
            value: Arc::clone(&v),
        },
    );
    let init = (
        NodeId::new(0),
        Msg::Initiator {
            general: NodeId::new(0),
            value: Arc::clone(&v),
        },
    );
    let wave = vec![
        a(0),
        b(0),
        a(1),
        ia,
        b(1),
        a(2),
        b(2),
        a(3),
        init,
        a(4),
        b(3),
    ];
    assert_eq!(
        grouped_order(&wave),
        vec![0, 2, 1, 3, 4, 6, 5, 7, 8, 9, 10],
        "the golden model itself keeps barriers in place"
    );
    check_wave(
        &mut waved,
        &mut serial,
        LocalTime::from_nanos(t0),
        &wave,
        &|v| v,
        "barrier wave",
    );
    let stats = waved.dispatch_stats();
    assert_eq!(
        (
            stats.wave_groups,
            stats.wave_arrivals,
            stats.single_arrivals
        ),
        (3, 6, 3)
    );
}

/// Out-of-membership senders inside a group — leading it, in the middle,
/// and making up all of one — are dropped per arrival, exactly as the
/// per-message path drops them.
#[test]
fn foreign_senders_inside_groups() {
    let t0 = 4_500_000_000_000u64;
    let (mut waved, mut serial) = anchored_pair(7, 2, t0);
    let v = Arc::new(9u64);
    let wave: Vec<(NodeId, Msg<u64>)> = [
        (99u32, 2u32),
        (0, 2),
        (77, 3),
        (1, 2),
        (100, 2),
        (88, 3),
        (2, 2),
        (3, 2),
        (4, 2),
    ]
    .into_iter()
    .map(|(s, b)| (NodeId::new(s), echo(0, b, Arc::clone(&v), 1)))
    .collect();
    check_wave(
        &mut waved,
        &mut serial,
        LocalTime::from_nanos(t0),
        &wave,
        &|v| v,
        "foreign-sender wave",
    );
    assert!(waved
        .agreement(NodeId::new(0))
        .unwrap()
        .accepted(NodeId::new(2), 1, &9));
    assert_eq!(waved.dispatch_stats().wave_groups, 2);
}
