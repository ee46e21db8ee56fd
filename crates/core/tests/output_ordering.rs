//! Pins the engine's output *ordering* explicitly.
//!
//! `on_message_ref` and `on_tick` interleave the drains of the
//! `Initiator-Accept` and agreement action streams in a fixed order
//! (ia-accept event → agreement wake-ups → decide relay → post-return
//! wake-up → returned event; per-General agreement actions in ascending
//! General id, then the node's own ``[IG3]`` failures). Harnesses and the
//! recorded transcripts (`engine_transcripts.rs`) rely on that order —
//! these tests make it impossible for an outbox/dispatch refactor to
//! silently reorder emissions.

use std::sync::Arc;

use ssbyz_core::{BcastKind, Engine, Event, IaKind, Msg, Outbox, Output, Params};
use ssbyz_types::{Duration, LocalTime, NodeId};

const D: u64 = 10_000_000; // 10ms

fn params4() -> Params {
    Params::from_d(4, 1, Duration::from_nanos(D), 0).unwrap()
}

fn id(n: u32) -> NodeId {
    NodeId::new(n)
}

fn d() -> Duration {
    Duration::from_nanos(D)
}

/// The delivery that completes an I-accept must emit, in this exact
/// order: the `IAccepted` event, the agreement phase-boundary wake-ups
/// (block T then block U), the block-R decide relay broadcast, the
/// post-return reset wake-up, and finally the `Decided` event.
#[test]
fn accept_and_decide_output_order_is_pinned() {
    let p = params4();
    let g = id(0);
    let mut e: Engine<u64> = Engine::new(id(1), p);
    let mut ob: Outbox<u64> = Outbox::new();
    let t0 = LocalTime::from_nanos(1_000_000 * D);

    // Initiation from the General, then full support and approve waves,
    // all inside one resend gap so no stage message is re-sent.
    e.on_message_ref(
        t0,
        g,
        &Msg::Initiator {
            general: g,
            value: Arc::new(7),
        },
        &mut ob,
    );
    assert_eq!(
        ob.outputs(),
        &[Output::Broadcast(Msg::Ia {
            kind: IaKind::Support,
            general: g,
            value: Arc::new(7)
        })],
        "block K emits exactly one support"
    );
    for (i, s) in [0u32, 1, 2, 3].iter().enumerate() {
        let m = Msg::Ia {
            kind: IaKind::Support,
            general: g,
            value: Arc::new(7),
        };
        e.on_message_ref(
            t0 + Duration::from_nanos(10 + i as u64),
            id(*s),
            &m,
            &mut ob,
        );
    }
    for (i, s) in [0u32, 1, 2, 3].iter().enumerate() {
        let m = Msg::Ia {
            kind: IaKind::Approve,
            general: g,
            value: Arc::new(7),
        };
        e.on_message_ref(
            t0 + Duration::from_nanos(20 + i as u64),
            id(*s),
            &m,
            &mut ob,
        );
    }
    // Two readys: not yet a strong quorum.
    for (i, s) in [0u32, 1].iter().enumerate() {
        let m = Msg::Ia {
            kind: IaKind::Ready,
            general: g,
            value: Arc::new(7),
        };
        e.on_message_ref(
            t0 + Duration::from_nanos(30 + i as u64),
            id(*s),
            &m,
            &mut ob,
        );
    }

    // The third distinct ready completes the strong quorum: N4 fires.
    let now = t0 + Duration::from_nanos(32);
    e.on_message_ref(
        now,
        id(2),
        &Msg::Ia {
            kind: IaKind::Ready,
            general: g,
            value: Arc::new(7),
        },
        &mut ob,
    );
    let tau_g = t0 - d(); // K2 recorded the estimate at τq − d
    let eps = Duration::from_nanos(1);
    let expected: Vec<Output<u64>> = vec![
        Output::Event(Event::IAccepted {
            general: g,
            value: Arc::new(7),
            tau_g,
        }),
        // Block T boundary for r = 1 ((2r+1)Φ = 3Φ)…
        Output::WakeAt(tau_g + p.phi() * 3u64 + eps),
        // …and the block U hard stop (Δ_agr = (2f+1)Φ = 3Φ for f = 1).
        Output::WakeAt(tau_g + p.delta_agr() + eps),
        // Block R decide: relay via msgd-broadcast(me, ⟨G, m⟩, 1).
        Output::Broadcast(Msg::Bcast {
            kind: BcastKind::Init,
            general: g,
            broadcaster: id(1),
            value: Arc::new(7),
            round: 1,
        }),
        // Post-return reset wake-up, then the return itself.
        Output::WakeAt(now + d() * 3u64),
        Output::Event(Event::Decided {
            general: g,
            value: Arc::new(7),
            tau_g,
            at: now,
        }),
    ];
    assert_eq!(ob.outputs(), expected.as_slice());

    // A fourth ready lands in the post-accept ignore window: silence.
    e.on_message_ref(
        t0 + Duration::from_nanos(33),
        id(3),
        &Msg::Ia {
            kind: IaKind::Ready,
            general: g,
            value: Arc::new(7),
        },
        &mut ob,
    );
    assert!(ob.is_empty());
}

/// `on_tick` order: per-General agreement actions in ascending General
/// id, then this node's own ``[IG3]`` failure events — all in one tick.
#[test]
fn tick_output_order_is_pinned() {
    let p = params4();
    let mut e: Engine<u64> = Engine::new(id(1), p);
    let mut ob: Outbox<u64> = Outbox::new();
    let t0 = LocalTime::from_nanos(2_000_000 * D);

    // Our own initiation that will stall (nobody answers).
    e.initiate(t0, 9, &mut ob).unwrap();
    // Two foreign executions with anchors about to blow the U deadline,
    // planted out of id order to prove the drain sorts by General.
    let tick_at = t0 + d() * 2u64 + Duration::from_nanos(2);
    let tau = tick_at - p.delta_agr() - Duration::from_nanos(2);
    e.agreement_raw(id(2)).corrupt_anchor(tau);
    e.agreement_raw(id(0)).corrupt_anchor(tau);

    e.on_tick(tick_at, &mut ob);
    let expected: Vec<Output<u64>> = vec![
        // General 0 first (ascending id): reset wake-up, then ⊥-return.
        Output::WakeAt(tick_at + d() * 3u64),
        Output::Event(Event::Aborted {
            general: id(0),
            tau_g: tau,
            at: tick_at,
        }),
        // General 2 second.
        Output::WakeAt(tick_at + d() * 3u64),
        Output::Event(Event::Aborted {
            general: id(2),
            tau_g: tau,
            at: tick_at,
        }),
        // Own [IG3] monitor last: the +2d approve check failed.
        Output::Event(Event::InitiationFailed {
            value: Arc::new(9),
            at: tick_at,
        }),
    ];
    assert_eq!(ob.outputs(), expected.as_slice());
}
