//! Hand-driven multi-instance tests of the primitives: several nodes'
//! state machines wired together directly (no simulator), checking the
//! relay and uniqueness semantics at the state-machine level with exact
//! control over timing.

use ssbyz_core::{
    AgrAction, Agreement, BcastKind, Duration, IaAction, IaKind, InitiatorAccept, LocalTime,
    MsgdAction, MsgdBroadcast, NodeId, Params, ValueId, ValueInterner,
};

const D: u64 = 10_000_000;

fn params4() -> Params {
    Params::from_d(4, 1, Duration::from_nanos(D), 0).unwrap()
}

fn t(n: u64) -> LocalTime {
    LocalTime::from_nanos(100_000 * D + n)
}

fn d() -> Duration {
    Duration::from_nanos(D)
}

fn id(n: u32) -> NodeId {
    NodeId::new(n)
}

/// The value `7`, interned the way an engine does at its boundary.
fn seven() -> (ValueInterner<u64>, ValueId) {
    let mut vals = ValueInterner::new();
    let v7 = vals.intern(&7);
    (vals, v7)
}

/// A tiny synchronous "network" over four InitiatorAccept instances:
/// deliver every send to every instance at `now + step`.
struct IaNet {
    nodes: Vec<InitiatorAccept>,
    vals: ValueInterner<u64>,
    accepted: Vec<Option<(ValueId, LocalTime)>>,
}

impl IaNet {
    fn new(params: Params) -> Self {
        IaNet {
            nodes: vec![InitiatorAccept::new(id(0), params); 4],
            vals: ValueInterner::new(),
            accepted: vec![None; 4],
        }
    }

    /// Delivers `(kind, value)` from `sender` to every node at `now`,
    /// collecting the next wave of sends as `(sender, kind, value)`.
    fn deliver_wave(
        &mut self,
        now: LocalTime,
        wave: Vec<(u32, IaKind, ValueId)>,
    ) -> Vec<(u32, IaKind, ValueId)> {
        let mut next = Vec::new();
        for (sender, kind, value) in wave {
            for (i, node) in self.nodes.iter_mut().enumerate() {
                let mut out = Vec::new();
                node.on_message(now, id(sender), kind, value, &self.vals, &mut out);
                for act in out {
                    match act {
                        IaAction::Send { kind, value } => next.push((i as u32, kind, value)),
                        IaAction::Accepted { value, tau_g } => {
                            self.accepted[i] = Some((value, tau_g));
                        }
                    }
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        next
    }

    fn invoke_all(&mut self, now: LocalTime, value: u64) -> Vec<(u32, IaKind, ValueId)> {
        let value = self.vals.intern(&value);
        let mut wave = Vec::new();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let mut out = Vec::new();
            node.on_initiator(now, value, &self.vals, &mut out);
            for act in out {
                if let IaAction::Send { kind, value } = act {
                    wave.push((i as u32, kind, value));
                }
            }
        }
        wave
    }
}

/// All four instances accept the same value with anchors within d of each
/// other when driven in lock-step ([IA-1C] at the state-machine level).
#[test]
fn ia_lockstep_anchors_agree() {
    let mut net = IaNet::new(params4());
    let mut wave = net.invoke_all(t(0), 7);
    let mut now = t(0);
    for _ in 0..6 {
        if wave.is_empty() {
            break;
        }
        now += d() / 2;
        wave = net.deliver_wave(now, wave);
    }
    let anchors: Vec<LocalTime> = net
        .accepted
        .iter()
        .map(|a| a.expect("all accept").1)
        .collect();
    for a in &anchors {
        for b in &anchors {
            assert!(a.since_or_zero(*b) <= d() || b.since_or_zero(*a) <= d());
        }
    }
    let v7 = net.vals.lookup(&7);
    assert!(net.accepted.iter().all(|a| a.map(|(v, _)| v) == v7));
}

/// Replaying the whole accepted wave immediately afterwards produces no
/// second accept anywhere (N4 once per execution + ignore window).
#[test]
fn ia_replay_cannot_double_accept() {
    let mut net = IaNet::new(params4());
    let mut wave = net.invoke_all(t(0), 7);
    let mut now = t(0);
    let mut all_sends = Vec::new();
    for _ in 0..6 {
        if wave.is_empty() {
            break;
        }
        now += d() / 2;
        all_sends.extend(wave.clone());
        wave = net.deliver_wave(now, wave);
    }
    assert!(net.accepted.iter().all(Option::is_some));
    let first = net.accepted.clone();
    // Replay everything.
    now += d();
    let _ = net.deliver_wave(now, all_sends);
    assert_eq!(net.accepted, first, "replay must not change accepts");
}

/// TPS-3 (Relay) at the primitive level: node A accepts `(p, m, k)` via
/// the echo path; feeding only A's resulting `init′`/`echo′` traffic (plus
/// the other correct nodes' induced messages) makes node B accept too,
/// even though B missed all the original echoes.
#[test]
fn msgd_relay_via_echo_prime() {
    let p = params4();
    let (_, v7) = seven();
    let anchor = t(0);
    let mut a = MsgdBroadcast::new(id(1), p);
    let mut b = MsgdBroadcast::new(id(2), p);
    let mut out_a = Vec::new();
    // A sees a strong quorum of echoes (from 0, 2, 3).
    for s in [0u32, 2, 3] {
        a.on_message(
            t(1),
            id(s),
            BcastKind::Echo,
            id(3),
            v7,
            1,
            Some(anchor),
            &mut out_a,
        );
    }
    assert!(out_a
        .iter()
        .any(|x| matches!(x, MsgdAction::Accepted { .. })));
    // A also sent init′; suppose nodes 0 and 3 did the same (they saw the
    // same echoes). B receives the three init′ messages → sends echo′.
    let mut out_b = Vec::new();
    for s in [0u32, 1, 3] {
        b.on_message(
            t(2),
            id(s),
            BcastKind::InitPrime,
            id(3),
            v7,
            1,
            Some(anchor),
            &mut out_b,
        );
    }
    assert!(out_b.iter().any(|x| matches!(
        x,
        MsgdAction::Send {
            kind: BcastKind::EchoPrime,
            ..
        }
    )));
    // B then collects a strong quorum of echo′ (its own + 0 + 3) → accepts
    // through the untimed Z block.
    for s in [0u32, 2, 3] {
        b.on_message(
            t(3),
            id(s),
            BcastKind::EchoPrime,
            id(3),
            v7,
            1,
            Some(anchor),
            &mut out_b,
        );
    }
    assert!(
        out_b
            .iter()
            .any(|x| matches!(x, MsgdAction::Accepted { .. })),
        "B must accept via relay: {out_b:?}"
    );
}

/// TPS-2 (Unforgeability) composition: echoes from only f = 1 node can
/// never accumulate to either accept path, whatever the order.
#[test]
fn msgd_single_forger_cannot_accept() {
    let p = params4();
    let (_, v7) = seven();
    let mut m = MsgdBroadcast::new(id(1), p);
    let mut out = Vec::new();
    for i in 0..50u64 {
        for kind in [BcastKind::Echo, BcastKind::InitPrime, BcastKind::EchoPrime] {
            m.on_message(
                t(i * 1000),
                id(3), // a single Byzantine sender
                kind,
                id(2),
                v7,
                1,
                Some(t(0)),
                &mut out,
            );
        }
    }
    assert!(
        !out.iter().any(|x| matches!(x, MsgdAction::Accepted { .. })),
        "one sender must never produce an accept"
    );
    assert_eq!(m.broadcaster_count(), 0);
}

/// Agreement-level interplay: a decider's round-1 relay feeds another
/// node's block S through a real msgd exchange.
#[test]
fn decider_relay_enables_chain_decision() {
    let p = params4();
    let (vals, v7) = seven();
    let tau_g = t(0);
    // Node 1 decided via block R and invoked msgd-broadcast(1, 7, 1);
    // nodes 0, 2, 3 echo its init. Node 2 has a *late* anchor (R missed).
    let mut late = Agreement::new(id(2), id(0), p);
    let mut out = Vec::new();
    late.on_i_accept(
        tau_g + d() * 5u64,
        v7,
        tau_g,
        &vals,
        &mut Vec::new(),
        &mut out,
    );
    assert!(!late.has_returned());
    // The decider's init arrives (from node 1, broadcaster 1, round 1).
    late.on_bcast(
        tau_g + d() * 6u64,
        id(1),
        BcastKind::Init,
        id(1),
        v7,
        1,
        &vals,
        &mut Vec::new(),
        &mut out,
    );
    // Echoes from everyone (node 2's own echo comes back too).
    for s in [0u32, 2, 3] {
        late.on_bcast(
            tau_g + d() * 7u64,
            id(s),
            BcastKind::Echo,
            id(1),
            v7,
            1,
            &vals,
            &mut Vec::new(),
            &mut out,
        );
    }
    assert!(late.has_returned(), "chain of length 1 decides");
    assert_eq!(late.decision(), Some(&Some(v7)));
    // And it relayed at round 2.
    assert!(out.iter().any(|a| matches!(
        a,
        AgrAction::SendBcast {
            kind: BcastKind::Init,
            round: 2,
            ..
        }
    )));
}

/// A chain whose rounds reuse the same broadcaster must NOT count beyond
/// its matching (distinct representatives): accepts (p=3, r=1) and
/// (p=3, r=2) support only a length-1 chain.
#[test]
fn duplicate_broadcaster_does_not_lengthen_chain() {
    let p = Params::from_d(7, 2, Duration::from_nanos(D), 0).unwrap();
    let (vals, v7) = seven();
    let tau_g = t(0);
    let mut agr = Agreement::new(id(1), id(0), p);
    let mut out = Vec::new();
    agr.on_i_accept(
        tau_g + d() * 5u64,
        v7,
        tau_g,
        &vals,
        &mut Vec::new(),
        &mut out,
    );
    // Work at elapsed 4Φ: past the r = 1 chain deadline (3Φ), within the
    // r = 2 deadline (5Φ). The round-1 accept must therefore arrive via
    // the *untimed* Z path (echo′ quorum).
    let now = tau_g + p.phi() * 4u64;
    for s in [0u32, 2, 3, 4, 5] {
        agr.on_bcast(
            now,
            id(s),
            BcastKind::EchoPrime,
            id(3),
            v7,
            1,
            &vals,
            &mut Vec::new(),
            &mut out,
        );
    }
    // Round-2 accept by the SAME broadcaster 3 (echo path, within 5Φ).
    for s in [0u32, 2, 3, 4, 5] {
        agr.on_bcast(
            now,
            id(s),
            BcastKind::Echo,
            id(3),
            v7,
            2,
            &vals,
            &mut Vec::new(),
            &mut out,
        );
    }
    assert!(
        !agr.has_returned(),
        "rounds 1 and 2 share broadcaster 3 — no length-2 chain exists"
    );
    // A round-2 accept from a different broadcaster completes the chain.
    for s in [0u32, 2, 3, 4, 5] {
        agr.on_bcast(
            now,
            id(s),
            BcastKind::Echo,
            id(4),
            v7,
            2,
            &vals,
            &mut Vec::new(),
            &mut out,
        );
    }
    assert!(agr.has_returned(), "distinct broadcasters decide");
    assert_eq!(agr.decision(), Some(&Some(v7)));
}

/// Block S facing two equally short decidable chains: the smaller *value*
/// wins, whatever order the ids were assigned in.
#[test]
fn equal_chains_decide_the_smaller_value() {
    let p = params4();
    let mut vals = ValueInterner::new();
    let v9 = vals.intern(&9u64);
    let v7 = vals.intern(&7u64); // id order ≠ value order
    let tau_g = t(0);
    let now = tau_g + d() * 6u64;
    let mut agr = Agreement::new(id(1), id(0), p);
    let mut out = Vec::new();
    // Echo quorums for (2, 9, 1) and (3, 7, 1) are logged before the
    // anchor exists...
    for (broadcaster, value) in [(2, v9), (3, v7)] {
        for s in [0u32, 2, 3] {
            agr.on_bcast(
                now,
                id(s),
                BcastKind::Echo,
                id(broadcaster),
                value,
                1,
                &vals,
                &mut Vec::new(),
                &mut out,
            );
        }
    }
    assert!(out.is_empty(), "no anchor yet: messages are only logged");
    // ...so a late anchor accepts both at once and block S must choose.
    agr.on_i_accept(now, v9, tau_g, &vals, &mut Vec::new(), &mut out);
    assert_eq!(agr.decision(), Some(&Some(v7)));
}
