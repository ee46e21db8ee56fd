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
//! The two that draw randomness own a seeded [`StdRng`], so runs
//! containing them stay reproducible on any host.

use std::convert::Infallible;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssbyz_core::{BcastKind, Effect, IaKind, Msg, SansIo};
use ssbyz_types::{Duration, LocalTime, NodeId, Value};

use crate::{Cadence, Out};

/// Emits a stream of syntactically valid but semantically bogus protocol
/// messages: random stages, random values, random broadcasters and rounds,
/// addressed to random subsets. Exercises every "ignore garbage" path and
/// the unforgeability properties ([IA-2], [TPS-2]).
pub struct GarbageNode<V> {
    me: NodeId,
    n: u64,
    values: Vec<Arc<V>>,
    max_round: u32,
    cadence: Cadence,
    rng: StdRng,
}

impl<V: Value> GarbageNode<V> {
    /// Creates a garbage generator for node `me` of `n`, drawing payloads
    /// from `values`, firing a burst of 1–4 messages every `period` (local
    /// time), with forged rounds up to `max_round`, forever. `seed` seeds
    /// its draws.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn new(
        me: NodeId,
        n: usize,
        period: Duration,
        values: Vec<V>,
        max_round: u32,
        seed: u64,
    ) -> Self {
        assert!(!values.is_empty());
        GarbageNode {
            me,
            n: n as u64,
            values: values.into_iter().map(Arc::new).collect(),
            max_round: max_round.max(1),
            cadence: Cadence::endless(period, period),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn node(&mut self) -> NodeId {
        NodeId::new(self.rng.gen_range(0..self.n) as u32)
    }

    fn random_msg(&mut self) -> Msg<V> {
        let value = self.values[self.rng.gen_range(0..self.values.len())].clone();
        match self.rng.gen_range(0..8u32) {
            0 => Msg::Initiator {
                general: self.me,
                value,
            },
            1..=3 => {
                let kind = IaKind::ALL[self.rng.gen_range(0..3usize)];
                Msg::Ia {
                    kind,
                    general: self.node(),
                    value,
                }
            }
            _ => {
                let kind = BcastKind::ALL[self.rng.gen_range(0..4usize)];
                Msg::Bcast {
                    kind,
                    general: self.node(),
                    broadcaster: self.node(),
                    value,
                    round: self.rng.gen_range(0..self.max_round) + 1,
                }
            }
        }
    }

    /// A burst of up to 4 messages to random destinations.
    fn strike(&mut self, out: &mut Out<V>) {
        for _ in 0..self.rng.gen_range(1..=4u32) {
            let msg = self.random_msg();
            out.push(Effect::Send(self.node(), msg));
        }
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
    cadence: Cadence,
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
            cadence: Cadence::new(period, period, 40),
        }
    }

    fn strike(&mut self, out: &mut Out<V>) {
        for kind in [BcastKind::Echo, BcastKind::InitPrime, BcastKind::EchoPrime] {
            out.push(Effect::Broadcast(Msg::Bcast {
                kind,
                general: self.general,
                broadcaster: self.victim,
                value: self.value.clone(),
                round: self.round,
            }));
        }
    }
}

/// Forges `Initiator-Accept` stage traffic for a given (General, value)
/// pair without the General ever initiating — the attack against [IA-2].
pub struct IaForger<V> {
    general: NodeId,
    value: Arc<V>,
    cadence: Cadence,
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
            cadence: Cadence::new(period, period, 40),
        }
    }

    fn strike(&mut self, out: &mut Out<V>) {
        for kind in IaKind::ALL {
            out.push(Effect::Broadcast(Msg::Ia {
                kind,
                general: self.general,
                value: self.value.clone(),
            }));
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
    me: NodeId,
    values: Vec<Arc<V>>,
    targets: usize,
    heard: Vec<u64>,
    cadence: Cadence,
    rng: StdRng,
}

impl<V: Value> QuorumStalker<V> {
    /// Creates a stalker for node `me` of `n`, drawing payloads from
    /// `values`, re-aiming every `period` (local time) at the `targets`
    /// quietest peers. `seed` seeds its draws.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or `targets` is zero.
    #[must_use]
    pub fn new(
        me: NodeId,
        n: usize,
        values: Vec<V>,
        period: Duration,
        targets: usize,
        seed: u64,
    ) -> Self {
        assert!(!values.is_empty());
        assert!(targets > 0, "a stalker needs at least one target");
        QuorumStalker {
            me,
            values: values.into_iter().map(Arc::new).collect(),
            targets,
            heard: vec![0; n],
            cadence: Cadence::endless(period, period),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The current weakest peers (quietest first), excluding `me`.
    fn weakest(&self) -> Vec<NodeId> {
        let mut ranked: Vec<(u64, u32)> = (0u32..)
            .zip(&self.heard)
            .filter(|(i, _)| *i as usize != self.me.index())
            .map(|(i, heard)| (*heard, i))
            .collect();
        ranked.sort_unstable();
        ranked
            .into_iter()
            .take(self.targets)
            .map(|(_, i)| NodeId::new(i))
            .collect()
    }

    fn hear(&mut self, from: NodeId) {
        if let Some(heard) = self.heard.get_mut(from.index()) {
            *heard += 1;
        }
    }

    fn strike(&mut self, out: &mut Out<V>) {
        for victim in self.weakest() {
            let value = self.values[self.rng.gen_range(0..self.values.len())].clone();
            // Forged IA traffic for the victim's own instance, sent
            // straight at it: it must reject evidence it never produced.
            for kind in IaKind::ALL {
                let msg = Msg::Ia {
                    kind,
                    general: victim,
                    value: value.clone(),
                };
                out.push(Effect::Send(victim, msg));
            }
            // Plus relay forgeries claiming the victim broadcast — aimed
            // at everyone, poisoning what peers believe about the victim
            // exactly while it is catching up.
            out.push(Effect::Broadcast(Msg::Bcast {
                kind: BcastKind::Echo,
                general: victim,
                broadcaster: victim,
                value,
                round: self.rng.gen_range(1..=3),
            }));
        }
        for h in &mut self.heard {
            *h /= 2;
        }
    }
}

striking!(GarbageNode, EchoForger, IaForger, QuorumStalker(hear));
