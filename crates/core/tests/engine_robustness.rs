//! Engine-level robustness: duplicate and reordered deliveries, stale
//! traffic from finished executions, and hostile message shapes.

use std::sync::Arc;

use ssbyz_core::msgd_broadcast::MAX_TRACKED_TRIPLETS;
use ssbyz_core::{
    BcastKind, Duration, Engine, Event, IaKind, LocalTime, Msg, NodeId, Outbox, Output, Params,
};

/// One pooled engine call, outputs handed back by value for the tests.
fn call_msg(
    e: &mut Engine<u64>,
    ob: &mut Outbox<u64>,
    now: LocalTime,
    from: NodeId,
    msg: &Msg<u64>,
) -> Vec<Output<u64>> {
    e.on_message_ref(now, from, msg, ob);
    ob.drain().collect()
}

const D: u64 = 10_000_000;

fn params4() -> Params {
    Params::from_d(4, 1, Duration::from_nanos(D), 0).unwrap()
}

fn t(n: u64) -> LocalTime {
    LocalTime::from_nanos(1_000_000 * D + n)
}

fn d() -> Duration {
    Duration::from_nanos(D)
}

fn id(n: u32) -> NodeId {
    NodeId::new(n)
}

type Trace = Vec<(NodeId, Msg<u64>)>;
type EventLog = Vec<(NodeId, Event<u64>)>;

/// Drives four engines through a complete agreement, returning the
/// delivered message trace so tests can replay/permute it.
fn run_to_decision(engines: &mut [Engine<u64>], dup: bool) -> (Trace, EventLog) {
    let mut events = Vec::new();
    let mut trace = Vec::new();
    let t0 = t(0);
    let mut ob = Outbox::new();
    engines[0].initiate(t0, 7, &mut ob).unwrap();
    let mut wave: Vec<(NodeId, Msg<u64>)> = ob
        .drain()
        .filter_map(|o| match o {
            Output::Broadcast(m) => Some((id(0), m)),
            _ => None,
        })
        .collect();
    let mut now = t0;
    for _ in 0..30 {
        if wave.is_empty() {
            break;
        }
        now += d() / 2;
        let mut next = Vec::new();
        for (sender, msg) in &wave {
            trace.push((*sender, msg.clone()));
            let copies = if dup { 2 } else { 1 };
            for _ in 0..copies {
                for e in engines.iter_mut() {
                    for o in call_msg(e, &mut ob, now, *sender, msg) {
                        match o {
                            Output::Broadcast(m) => next.push((e.id(), m)),
                            Output::Event(ev) => events.push((e.id(), ev)),
                            Output::WakeAt(_) => {}
                        }
                    }
                }
            }
        }
        next.sort();
        next.dedup();
        wave = next;
    }
    (trace, events)
}

fn decisions(events: &[(NodeId, Event<u64>)]) -> Vec<(NodeId, u64)> {
    events
        .iter()
        .filter_map(|(n, e)| match e {
            Event::Decided { value, .. } => Some((*n, **value)),
            _ => None,
        })
        .collect()
}

/// Delivering every message twice changes nothing: quorum logs key on
/// sender identity, not message count.
#[test]
fn duplicate_deliveries_are_harmless() {
    let p = params4();
    let mut clean: Vec<Engine<u64>> = (0..4).map(|i| Engine::new(id(i), p)).collect();
    let (_, ev_clean) = run_to_decision(&mut clean, false);
    let mut duped: Vec<Engine<u64>> = (0..4).map(|i| Engine::new(id(i), p)).collect();
    let (_, ev_duped) = run_to_decision(&mut duped, true);
    let mut a = decisions(&ev_clean);
    let mut b = decisions(&ev_duped);
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a.len(), 4);
    assert_eq!(a, b, "duplication must not affect outcomes");
}

/// Replaying the complete message trace of a finished agreement at a
/// fresh set of engines — with no General actually initiating — must not
/// produce a decision *for the replayed Initiator path* unless the
/// General message is part of the replay (it is), in which case the
/// replay is indistinguishable from a real run. But replaying it at the
/// ORIGINAL engines (stale traffic) must not double-decide.
#[test]
fn stale_replay_does_not_double_decide() {
    let p = params4();
    let mut engines: Vec<Engine<u64>> = (0..4).map(|i| Engine::new(id(i), p)).collect();
    let (trace, events) = run_to_decision(&mut engines, false);
    assert_eq!(decisions(&events).len(), 4);
    // Replay the full trace immediately (within the post-return window
    // and the guard horizon): no new decisions may appear.
    let mut replay_events = Vec::new();
    let mut ob = Outbox::new();
    let mut now = t(0) + d() * 20u64;
    for (sender, msg) in &trace {
        now += Duration::from_nanos(1000);
        for e in engines.iter_mut() {
            for o in call_msg(e, &mut ob, now, *sender, msg) {
                if let Output::Event(ev) = o {
                    replay_events.push((e.id(), ev));
                }
            }
        }
    }
    assert!(
        decisions(&replay_events).is_empty(),
        "stale replay double-decided: {replay_events:?}"
    );
}

/// Messages claiming this node itself as sender (identity is transport-
/// level, so a peer cannot fake it — but the engine must also not choke
/// on its own broadcasts echoed back).
#[test]
fn own_messages_are_processed_normally() {
    let p = params4();
    let mut e: Engine<u64> = Engine::new(id(0), p);
    let mut ob = Outbox::new();
    e.initiate(t(0), 9, &mut ob).unwrap();
    // The initiator's own broadcast comes back to it.
    let outs: Vec<Output<u64>> = ob.drain().collect();
    for o in outs {
        if let Output::Broadcast(m) = o {
            e.on_message(t(0) + d() / 4, id(0), m, &mut ob);
        }
    }
    // The engine supported its own initiation.
    let ia = e.ia(id(0)).expect("instance exists");
    assert!(ia.i_value(&9).is_some());
}

/// Extreme round numbers, self-referential broadcasts and General-as-
/// broadcaster messages are all absorbed without panics or decisions.
#[test]
fn hostile_shapes_absorbed() {
    let p = params4();
    let mut e: Engine<u64> = Engine::new(id(1), p);
    let shapes = vec![
        Msg::Bcast {
            kind: BcastKind::Echo,
            general: id(0),
            broadcaster: id(0), // the General relaying "itself"
            value: Arc::new(1),
            round: 1,
        },
        Msg::Bcast {
            kind: BcastKind::Init,
            general: id(0),
            broadcaster: id(1), // claims to be us
            value: Arc::new(2),
            round: u32::MAX,
        },
        Msg::Ia {
            kind: IaKind::Ready,
            general: id(1), // we are the General of this instance
            value: Arc::new(3),
        },
        Msg::Initiator {
            general: id(3),
            value: Arc::new(u64::MAX),
        },
    ];
    let mut now = t(0);
    let mut ob = Outbox::new();
    for (i, msg) in shapes.into_iter().enumerate() {
        now += d();
        e.on_message(now, id((i % 4) as u32), msg, &mut ob);
        assert!(
            !ob.outputs()
                .iter()
                .any(|o| matches!(o, Output::Event(Event::Decided { .. }))),
            "hostile shape {i} produced a decision"
        );
    }
}

/// Out-of-order arrival of the IA stages (ready before approve before
/// support) still accepts once everything is present, because block N is
/// untimed and blocks L/M use sliding windows.
#[test]
fn out_of_order_stages_still_accept() {
    let p = params4();
    let mut e: Engine<u64> = Engine::new(id(1), p);
    let g = id(0);
    let mut events = Vec::new();
    let mut ob = Outbox::new();
    let mut feed =
        |e: &mut Engine<u64>, ob: &mut Outbox<u64>, now: LocalTime, from: u32, kind: IaKind| {
            e.on_message(
                now,
                id(from),
                Msg::Ia {
                    kind,
                    general: g,
                    value: Arc::new(5),
                },
                ob,
            );
            for o in ob.drain() {
                if let Output::Event(ev) = o {
                    events.push(ev);
                }
            }
        };
    // Ready wave first (buffered: the ready flag is not armed yet).
    for s in [0u32, 2, 3] {
        feed(&mut e, &mut ob, t(10), s, IaKind::Ready);
    }
    // Approve wave second (arms ready → N replays on next ready/approve).
    for s in [0u32, 2, 3] {
        feed(&mut e, &mut ob, t(20), s, IaKind::Approve);
    }
    // One more ready re-delivery triggers the N re-evaluation... but the
    // support wave is what seeds i_value; without it the stabilization
    // guard flushes. Send supports, then a final ready.
    let has_accept = events
        .iter()
        .any(|ev| matches!(ev, Event::IAccepted { .. }));
    assert!(
        !has_accept,
        "no accept without a recorded i_value (stabilization guard)"
    );
}

/// A Byzantine node minting `msgd-broadcast` triplets at n = 64 — echoes
/// for every broadcaster and round of several values, 5 632 triplets —
/// fills one instance to [`MAX_TRACKED_TRIPLETS`] and no further, and its
/// triplet arena stays within the bound the constant documents:
/// `MAX_TRACKED_TRIPLETS` strides of `8·(4 + 3·(1 + ⌈n/64⌉ + n))` bytes.
#[test]
fn triplet_minting_cannot_grow_the_arena_past_its_bound() {
    let p = Params::from_d(64, 21, d(), 0).unwrap();
    let g = id(0);
    let mut e: Engine<u64> = Engine::new(id(1), p);
    let mut ob = Outbox::new();
    let mut now = t(0);
    for value in 0..4u64 {
        let value = Arc::new(value);
        for broadcaster in 0..64 {
            for round in 1..=p.max_round() {
                now += Duration::from_nanos(1_000);
                let msg = Msg::Bcast {
                    kind: BcastKind::Echo,
                    general: g,
                    broadcaster: id(broadcaster),
                    value: Arc::clone(&value),
                    round,
                };
                e.on_message_ref(now, id(5), &msg, &mut ob);
                ob.drain().for_each(drop);
            }
        }
    }
    let msgd = e.agreement(g).expect("the instance exists").raw().msgd();
    assert_eq!(msgd.triplet_count(), MAX_TRACKED_TRIPLETS);
    let stride_bytes = 8 * (4 + 3 * (1 + 64usize.div_ceil(64) + 64));
    assert_eq!(stride_bytes, 1_616);
    assert!(
        msgd.arena_bytes() <= MAX_TRACKED_TRIPLETS * stride_bytes,
        "arena {} B past the documented {} B",
        msgd.arena_bytes(),
        MAX_TRACKED_TRIPLETS * stride_bytes
    );
}
