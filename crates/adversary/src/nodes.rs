//! Byzantine *follower* strategies: nodes that disrupt other Generals'
//! agreements without being the General themselves.
//!
//! Four strategies, ordered by sophistication:
//!
//! * [`GarbageNode`] — undirected syntactic noise across every protocol
//!   stage (the fuzzing baseline);
//! * [`IaForger`] — forged `Initiator-Accept` traffic for a value the
//!   General never initiated (the [IA-2] unforgeability attack);
//! * [`EchoForger`] — forged relay stages of `msgd-broadcast` for a
//!   broadcast that never happened (the [TPS-2] attack);
//! * [`QuorumStalker`] — an *adaptive* attacker that observes traffic and
//!   aims its forgeries at the quietest nodes, i.e. exactly the ones
//!   recovering from a crash, partition or scramble.
//!
//! All strategies draw randomness from the simulator's seeded stream via
//! [`Ctx`], so runs containing them stay reproducible.

use std::sync::Arc;

use ssbyz_core::{BcastKind, IaKind, Msg};
use ssbyz_simnet::{Ctx, Process};
use ssbyz_types::{Duration, NodeId, Value};

const T_NOISE: u64 = 7;

/// Emits a stream of syntactically valid but semantically bogus protocol
/// messages: random stages, random values, random broadcasters and rounds,
/// addressed to random subsets. Exercises every "ignore garbage" path and
/// the unforgeability properties ([IA-2], [TPS-2]).
pub struct GarbageNode<V> {
    period: Duration,
    values: Vec<Arc<V>>,
    max_round: u32,
}

impl<V: Value> GarbageNode<V> {
    /// Creates a garbage generator drawing payloads from `values`, firing
    /// a burst of 1–4 messages every `period` (local time), with forged
    /// rounds up to `max_round`, forever.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn new(period: Duration, values: Vec<V>, max_round: u32) -> Self {
        assert!(!values.is_empty());
        GarbageNode {
            period,
            values: values.into_iter().map(Arc::new).collect(),
            max_round: max_round.max(1),
        }
    }

    fn random_msg<O>(&self, ctx: &mut Ctx<'_, Msg<V>, O>, n: usize) -> Msg<V> {
        let me = ctx.me();
        let value = self.values[ctx.rand_below(self.values.len() as u64) as usize].clone();
        match ctx.rand_below(8) {
            0 => Msg::Initiator { general: me, value },
            1..=3 => {
                let kind = match ctx.rand_below(3) {
                    0 => IaKind::Support,
                    1 => IaKind::Approve,
                    _ => IaKind::Ready,
                };
                let general = NodeId::new(ctx.rand_below(n as u64) as u32);
                Msg::Ia {
                    kind,
                    general,
                    value,
                }
            }
            _ => {
                let kind = match ctx.rand_below(4) {
                    0 => BcastKind::Init,
                    1 => BcastKind::Echo,
                    2 => BcastKind::InitPrime,
                    _ => BcastKind::EchoPrime,
                };
                let general = NodeId::new(ctx.rand_below(n as u64) as u32);
                let broadcaster = NodeId::new(ctx.rand_below(n as u64) as u32);
                Msg::Bcast {
                    kind,
                    general,
                    broadcaster,
                    value,
                    round: ctx.rand_below(u64::from(self.max_round)) as u32 + 1,
                }
            }
        }
    }
}

impl<V: Value, O> Process<Msg<V>, O> for GarbageNode<V> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg<V>, O>) {
        ctx.set_timer_after(self.period, T_NOISE);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg<V>, O>, _from: NodeId, _msg: &Msg<V>) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg<V>, O>, token: u64) {
        if token != T_NOISE {
            return;
        }
        let n = ctx.n();
        // A burst of up to 4 messages to random destinations.
        let burst = ctx.rand_below(4) + 1;
        for _ in 0..burst {
            let msg = self.random_msg(ctx, n);
            let to = NodeId::new(ctx.rand_below(n as u64) as u32);
            ctx.send(to, msg);
        }
        ctx.set_timer_after(self.period, T_NOISE);
    }
}

/// Forges the *relay* stages of `msgd-broadcast` for a broadcast that was
/// never made: sends `echo`/`init′`/`echo′` claiming that `victim`
/// broadcast `value` at round `round`. Unforgeability ([TPS-2]) demands
/// that no correct node ever accepts `(victim, value, round)` from the
/// ≤ f such forgers alone.
pub struct EchoForger<V> {
    general: NodeId,
    victim: NodeId,
    value: Arc<V>,
    round: u32,
    period: Duration,
    bursts: u32,
    fired: u32,
}

impl<V: Value> EchoForger<V> {
    /// Creates a forger targeting the agreement instance of `general`,
    /// claiming `victim` broadcast `value` at `round`. Fires the full
    /// `echo`/`init′`/`echo′` triplet every `period` for 40 bursts (long
    /// enough to outlast any single agreement at the default tick).
    #[must_use]
    pub fn new(general: NodeId, victim: NodeId, value: V, round: u32, period: Duration) -> Self {
        EchoForger {
            general,
            victim,
            value: Arc::new(value),
            round,
            period,
            bursts: 40,
            fired: 0,
        }
    }
}

impl<V: Value, O> Process<Msg<V>, O> for EchoForger<V> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg<V>, O>) {
        ctx.set_timer_after(self.period, T_NOISE);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg<V>, O>, _from: NodeId, _msg: &Msg<V>) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg<V>, O>, token: u64) {
        if token != T_NOISE {
            return;
        }
        for kind in [BcastKind::Echo, BcastKind::InitPrime, BcastKind::EchoPrime] {
            ctx.broadcast(Msg::Bcast {
                kind,
                general: self.general,
                broadcaster: self.victim,
                value: self.value.clone(),
                round: self.round,
            });
        }
        self.fired += 1;
        if self.fired < self.bursts {
            ctx.set_timer_after(self.period, T_NOISE);
        }
    }
}

/// Forges `Initiator-Accept` stage traffic for a given (General, value)
/// pair without the General ever initiating — the attack against [IA-2].
pub struct IaForger<V> {
    general: NodeId,
    value: Arc<V>,
    period: Duration,
    bursts: u32,
    fired: u32,
}

impl<V: Value> IaForger<V> {
    /// Creates a forger for the `(general, value)` instance: every
    /// `period` it broadcasts all three `Initiator-Accept` stages
    /// (`support`/`approve`/`ready`) for a value `general` never
    /// initiated, for 40 bursts.
    #[must_use]
    pub fn new(general: NodeId, value: V, period: Duration) -> Self {
        IaForger {
            general,
            value: Arc::new(value),
            period,
            bursts: 40,
            fired: 0,
        }
    }
}

impl<V: Value, O> Process<Msg<V>, O> for IaForger<V> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg<V>, O>) {
        ctx.set_timer_after(self.period, T_NOISE);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg<V>, O>, _from: NodeId, _msg: &Msg<V>) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg<V>, O>, token: u64) {
        if token != T_NOISE {
            return;
        }
        for kind in IaKind::ALL {
            ctx.broadcast(Msg::Ia {
                kind,
                general: self.general,
                value: self.value.clone(),
            });
        }
        self.fired += 1;
        if self.fired < self.bursts {
            ctx.set_timer_after(self.period, T_NOISE);
        }
    }
}

/// An adaptive storm attacker: counts messages heard per peer and, every
/// period, aims forged `Initiator-Accept` and relay traffic at the
/// `targets` *quietest* peers — in a fault campaign those are exactly the
/// nodes recovering from a crash, partition or scramble, so the forgeries
/// pollute the weakest members of the current quorum while they rebuild
/// state. Counts decay geometrically each burst, so the targeting tracks
/// a recent window rather than all of history; ties break towards lower
/// ids, keeping runs deterministic.
pub struct QuorumStalker<V> {
    values: Vec<Arc<V>>,
    period: Duration,
    targets: usize,
    heard: Vec<u64>,
}

impl<V: Value> QuorumStalker<V> {
    /// Creates a stalker drawing payloads from `values`, re-aiming every
    /// `period` (local time) at the `targets` quietest peers.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or `targets` is zero.
    #[must_use]
    pub fn new(values: Vec<V>, period: Duration, targets: usize) -> Self {
        assert!(!values.is_empty());
        assert!(targets > 0, "a stalker needs at least one target");
        QuorumStalker {
            values: values.into_iter().map(Arc::new).collect(),
            period,
            targets,
            heard: Vec::new(),
        }
    }

    /// The current weakest peers (quietest first), excluding `me`.
    fn weakest(&self, me: NodeId, n: usize) -> Vec<NodeId> {
        let mut ranked: Vec<(u64, u32)> = (0..n as u32)
            .filter(|i| *i != me.index() as u32)
            .map(|i| (self.heard.get(i as usize).copied().unwrap_or(0), i))
            .collect();
        ranked.sort_unstable();
        ranked
            .into_iter()
            .take(self.targets)
            .map(|(_, i)| NodeId::new(i))
            .collect()
    }
}

impl<V: Value, O> Process<Msg<V>, O> for QuorumStalker<V> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg<V>, O>) {
        ctx.set_timer_after(self.period, T_NOISE);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg<V>, O>, from: NodeId, _msg: &Msg<V>) {
        if self.heard.len() <= from.index() {
            self.heard.resize(from.index() + 1, 0);
        }
        self.heard[from.index()] += 1;
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg<V>, O>, token: u64) {
        if token != T_NOISE {
            return;
        }
        let n = ctx.n();
        for victim in self.weakest(ctx.me(), n) {
            let value = self.values[ctx.rand_below(self.values.len() as u64) as usize].clone();
            // Forged IA traffic for the victim's own instance, sent
            // straight at it: it must reject evidence it never produced.
            for kind in IaKind::ALL {
                ctx.send(
                    victim,
                    Msg::Ia {
                        kind,
                        general: victim,
                        value: value.clone(),
                    },
                );
            }
            // Plus relay forgeries claiming the victim broadcast — aimed
            // at everyone, poisoning what peers believe about the victim
            // exactly while it is catching up.
            let round = ctx.rand_below(3) as u32 + 1;
            ctx.broadcast(Msg::Bcast {
                kind: BcastKind::Echo,
                general: victim,
                broadcaster: victim,
                value,
                round,
            });
        }
        for h in &mut self.heard {
            *h /= 2;
        }
        ctx.set_timer_after(self.period, T_NOISE);
    }
}
