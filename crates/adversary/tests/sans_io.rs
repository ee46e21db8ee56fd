//! The strategies driven through bare [`SansIo`] calls, with no host:
//! the boot tick arms the first strike, each strike emits its messages
//! and then arms the next, and a seeded strategy's stream is a function
//! of its seed.

use std::convert::Infallible;
use std::sync::Arc;

use ssbyz_adversary::{EchoForger, GarbageNode, TwoFacedGeneral};
use ssbyz_core::{BcastKind, Effect, IaKind, Msg, Params, SansIo};
use ssbyz_types::{Duration, LocalTime, NodeId};

type Out = Vec<Effect<Msg<u64>, Infallible>>;

/// Ticks `machine` at `now` and returns what the tick emitted.
fn tick<S: SansIo<Msg = Msg<u64>, Event = Infallible, Buf = Out>>(
    machine: &mut S,
    now: LocalTime,
) -> Out {
    let mut out = Out::new();
    machine.tick(now, &mut out);
    out
}

const BOOT: LocalTime = LocalTime::from_nanos(7_000_000);

#[test]
fn echo_forger_strikes_forty_times_then_stops() {
    let period = Duration::from_millis(5);
    let (general, victim) = (NodeId::new(0), NodeId::new(1));
    let mut forger = EchoForger::new(general, victim, 666u64, 1, period);
    assert_eq!(tick(&mut forger, BOOT), vec![Effect::WakeAt(BOOT + period)]);
    // A tick before the strike instant does nothing.
    assert!(tick(&mut forger, BOOT + Duration::from_millis(4)).is_empty());
    let mut now = BOOT + period;
    for burst in 1..=40 {
        let mut expected: Out = [BcastKind::Echo, BcastKind::InitPrime, BcastKind::EchoPrime]
            .into_iter()
            .map(|kind| {
                Effect::Broadcast(Msg::Bcast {
                    kind,
                    general,
                    broadcaster: victim,
                    value: Arc::new(666),
                    round: 1,
                })
            })
            .collect();
        if burst < 40 {
            expected.push(Effect::WakeAt(now + period));
        }
        assert_eq!(tick(&mut forger, now), expected, "burst {burst}");
        now += period;
    }
    assert!(tick(&mut forger, now).is_empty(), "no 41st burst");
    assert!(tick(&mut forger, now + period * 100u64).is_empty());
}

#[test]
fn two_faced_general_splits_then_reinforces_each_side() {
    let params = Params::from_d(4, 1, Duration::from_millis(10), 0).unwrap();
    let d = params.d();
    let me = NodeId::new(0);
    let mut general = TwoFacedGeneral::new(me, 100u64, 200, vec![NodeId::new(1)], &params);
    assert_eq!(
        tick(&mut general, BOOT),
        vec![Effect::WakeAt(BOOT + d * 2u64)]
    );
    let face = |node: u32| Arc::new(if node == 1 { 100 } else { 200 });
    // A late strike re-arms from the instant it ran.
    let mut now = BOOT + d * 2u64 + Duration::from_micros(300);
    let stages = [IaKind::Support, IaKind::Approve, IaKind::Ready];
    for phase in 0..6 {
        let mut expected: Out = (0..4)
            .map(|node| {
                let value = face(node);
                let msg = match phase {
                    0 => Msg::Initiator { general: me, value },
                    _ => Msg::Ia {
                        kind: stages[(phase - 1) % 3],
                        general: me,
                        value,
                    },
                };
                Effect::Send(NodeId::new(node), msg)
            })
            .collect();
        if phase < 5 {
            expected.push(Effect::WakeAt(now + d));
        }
        assert_eq!(tick(&mut general, now), expected, "phase {phase}");
        now += d;
    }
    assert!(tick(&mut general, now).is_empty(), "six phases in all");
}

/// The effects of `strikes` strikes of a garbage node seeded `seed`.
fn garbage_stream(seed: u64, strikes: u64) -> Out {
    let period = Duration::from_millis(2);
    let mut node = GarbageNode::new(NodeId::new(3), 7, period, vec![1u64, 2, 3], 4, seed);
    let mut all = tick(&mut node, BOOT);
    assert_eq!(all, vec![Effect::WakeAt(BOOT + period)]);
    for k in 1..=strikes {
        let out = tick(&mut node, BOOT + period * k);
        let sends = out.len() - 1;
        assert!((1..=4).contains(&sends), "a burst is 1–4 messages");
        assert_eq!(out.last(), Some(&Effect::WakeAt(BOOT + period * (k + 1))));
        all.extend(out);
    }
    all
}

#[test]
fn garbage_node_stream_is_a_function_of_its_seed() {
    let a = garbage_stream(11, 50);
    assert_eq!(a, garbage_stream(11, 50), "same seed, same stream");
    assert_ne!(a, garbage_stream(12, 50), "another seed, another stream");
    for effect in &a {
        if let Effect::Send(to, msg) = effect {
            assert!(to.index() < 7 && msg.general().index() < 7);
        }
    }
}
