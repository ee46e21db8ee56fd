//! The time-driven comparator: a lock-step, synchronous-round Byzantine
//! agreement in the style of Toueg–Perry–Srikanth (Toueg, Perry &
//! Srikanth, "Fast Distributed Agreement", SIAM J. Computing 1987 — the
//! paper's reference `[14]` and structural template). It *assumes* what
//! `ss-Byz-Agree` proves it can live without — a synchronized start and
//! consistent initial state — and pays the worst-case phase length `Φ`
//! on every step no matter how fast the actual network is.
//!
//! Nodes advance in rounds of fixed length `Φ` from the **assumed common
//! start** (the host's boot tick), and every protocol step executes at a
//! phase boundary regardless of how fast messages actually arrived. The
//! paper's key performance claim is that its message-driven rounds beat
//! exactly this structure whenever the actual network is faster than the
//! worst-case bound; the experiment suite uses the baseline to measure
//! that gap (E5) and the shared `O(f′)` early-stopping shape (E4).
//!
//! Structure (per broadcast triplet `(p, m, k)`):
//!
//! * phase `2k`   — `p` sends `init`;
//! * phase `2k+1` — nodes holding the `init` send `echo`; at the phase's
//!   *end*, `≥ n−f` echoes ⇒ accept;
//! * phase `2k+2` — `≥ n−2f` echoes ⇒ `init′`; at end, `≥ n−2f` init′ ⇒
//!   broadcaster detected;
//! * phase `2k+3` — `≥ n−f` init′ ⇒ `echo′`; any later phase end with
//!   `≥ n−f` echo′ ⇒ (late) accept.
//!
//! The General's own value is broadcast with `k = 0`. Decision mirrors
//! `ss-Byz-Agree`: accept of `(G, m, 0)` decides directly (validity path);
//! otherwise a chain of `r` distinct broadcasters `(p_i, m, i)`,
//! `i = 1..r`, by the end of phase `2r+1`. Early abort when broadcaster
//! detection stalls; hard abort at the end of phase `2f+1`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ssbyz_adversary::Cadence;
use ssbyz_core::{BcastKind, Effect, Msg, Params, SansIo};
use ssbyz_simnet::{DriftClock, LinkConfig, SimBuilder, Simulation};
use ssbyz_types::{Duration, LocalTime, NodeId, RealTime, Value};

use crate::adapter::{Bare, Driver};

/// Observations emitted by a [`BaselineNode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineEvent<V> {
    /// The node decided `value` at the end of `phase`.
    Decided {
        /// Decided value (shared wire handle, never deep-copied).
        value: Arc<V>,
        /// Phase at whose boundary the decision happened.
        phase: u64,
    },
    /// The node aborted (⊥) at the end of `phase`.
    Aborted {
        /// Phase at whose boundary the abort happened.
        phase: u64,
    },
}

/// What a [`BaselineNode`] leaves for its host.
type Out<V> = Vec<Effect<Msg<V>, BaselineEvent<V>>>;

#[derive(Debug, Clone, Default)]
struct TripletLog {
    init_seen: bool,
    echo: BTreeSet<NodeId>,
    init_prime: BTreeSet<NodeId>,
    echo_prime: BTreeSet<NodeId>,
    sent_echo: bool,
    sent_init_prime: bool,
    sent_echo_prime: bool,
    accepted: bool,
}

/// Stage `kind` of the broadcast `(broadcaster, value, round)` in
/// `general`'s instance, to every node.
fn bcast<V>(
    kind: BcastKind,
    general: NodeId,
    broadcaster: NodeId,
    value: Arc<V>,
    round: u32,
) -> Effect<Msg<V>, BaselineEvent<V>> {
    Effect::Broadcast(Msg::Bcast {
        kind,
        general,
        broadcaster,
        value,
        round,
    })
}

/// One lock-step baseline node.
pub struct BaselineNode<V: Value> {
    me: NodeId,
    params: Params,
    general: NodeId,
    /// `Some(m)` when this node *is* the General and will broadcast `m`
    /// at the start.
    proposal: Option<Arc<V>>,
    /// A boundary every `Φ` from the start, through the end of phase
    /// `2f + 4`, well past the hard abort.
    boundaries: Cadence,
    phase: u64,
    triplets: BTreeMap<(NodeId, u32, Arc<V>), TripletLog>,
    broadcasters: BTreeSet<NodeId>,
    /// Accepted `(p, m, k)` per value and round (keys are the shared wire
    /// handles; `Arc<V>` orders through `V`).
    chains: BTreeMap<Arc<V>, BTreeMap<u32, BTreeSet<NodeId>>>,
    /// Accepted General value (round 0), if any.
    general_value: Option<Arc<V>>,
    returned: bool,
}

impl<V: Value> BaselineNode<V> {
    /// Creates node `me` for the instance of `general`. Pass the proposal
    /// value iff this node is the General.
    #[must_use]
    pub fn new(me: NodeId, params: Params, general: NodeId, proposal: Option<V>) -> Self {
        let phi = params.phi();
        BaselineNode {
            me,
            params,
            general,
            proposal: proposal.map(Arc::new),
            boundaries: Cadence::new(phi, phi, 2 * params.f() as u32 + 5),
            phase: 0,
            triplets: BTreeMap::new(),
            broadcasters: BTreeSet::new(),
            chains: BTreeMap::new(),
            general_value: None,
            returned: false,
        }
    }

    fn accept(&mut self, p: NodeId, k: u32, v: &Arc<V>) {
        if k == 0 {
            if p == self.general && self.general_value.is_none() {
                self.general_value = Some(v.clone());
            }
            return;
        }
        self.chains
            .entry(v.clone())
            .or_default()
            .entry(k)
            .or_default()
            .insert(p);
    }

    /// Longest chain prefix for `v` (distinct broadcasters, rounds 1..r).
    fn chain_len(&self, v: &Arc<V>) -> usize {
        let Some(rounds) = self.chains.get(v) else {
            return 0;
        };
        let mut used: BTreeSet<NodeId> = BTreeSet::new();
        let mut r = 0u32;
        while let Some(senders) = rounds.get(&(r + 1)) {
            // Greedy distinct pick (senders ≠ G).
            let Some(p) = senders
                .iter()
                .find(|p| **p != self.general && !used.contains(p))
            else {
                break;
            };
            used.insert(*p);
            r += 1;
        }
        r as usize
    }

    fn end_of_phase(&mut self, out: &mut Out<V>) {
        let ending = self.phase;
        let weak = self.params.weak_quorum();
        let strong = self.params.quorum();
        let general = self.general;
        // 1. Per-triplet sends & accepts whose deadline is this boundary.
        let keys: Vec<(NodeId, u32, Arc<V>)> = self.triplets.keys().cloned().collect();
        let mut accepts: Vec<(NodeId, u32, Arc<V>)> = Vec::new();
        for key in keys {
            let (p, k, v) = key.clone();
            let k64 = u64::from(k);
            let st = self.triplets.get_mut(&key).expect("exists");
            // Phase 2k+1 begins now (ending == 2k): send echo.
            if ending == 2 * k64 && st.init_seen && !st.sent_echo {
                st.sent_echo = true;
                out.push(bcast(BcastKind::Echo, general, p, v.clone(), k));
            }
            // End of phase 2k+1: strong echo quorum ⇒ accept.
            if ending == 2 * k64 + 1 && st.echo.len() >= strong && !st.accepted {
                st.accepted = true;
                accepts.push((p, k, v.clone()));
            }
            // Phase 2k+2 begins: weak echo quorum ⇒ init′.
            if ending == 2 * k64 + 1 && st.echo.len() >= weak && !st.sent_init_prime {
                st.sent_init_prime = true;
                out.push(bcast(BcastKind::InitPrime, general, p, v.clone(), k));
            }
            // End of phase 2k+2: weak init′ quorum ⇒ broadcaster.
            if ending == 2 * k64 + 2 && st.init_prime.len() >= weak {
                self.broadcasters.insert(p);
            }
            // Phase 2k+3 begins: strong init′ quorum ⇒ echo′.
            let st = self.triplets.get_mut(&key).expect("exists");
            if ending == 2 * k64 + 2 && st.init_prime.len() >= strong && !st.sent_echo_prime {
                st.sent_echo_prime = true;
                out.push(bcast(BcastKind::EchoPrime, general, p, v.clone(), k));
            }
            // Any boundary ≥ 2k+3: echo′ amplification and late accepts.
            if ending >= 2 * k64 + 3 {
                if st.echo_prime.len() >= weak && !st.sent_echo_prime {
                    st.sent_echo_prime = true;
                    out.push(bcast(BcastKind::EchoPrime, general, p, v.clone(), k));
                }
                if st.echo_prime.len() >= strong && !st.accepted {
                    st.accepted = true;
                    accepts.push((p, k, v.clone()));
                }
            }
        }
        for (p, k, v) in accepts {
            self.accept(p, k, &v);
        }
        if self.returned {
            return;
        }
        // 2. Decision rules at this boundary. Validity path: accepted the
        // General's round-0 value by end of phase 1 (or any later
        // boundary before abort); then relay it at round 1. Chain path:
        // an r-chain by end of phase 2r+1; then relay it at round r+1.
        let chain = || {
            self.chains.keys().find_map(|v| {
                let r = self.chain_len(v);
                (r >= 1 && ending <= 2 * r as u64 + 1).then(|| (v.clone(), r as u32 + 1))
            })
        };
        if let Some((v, relay)) = self.general_value.clone().map(|v| (v, 1)).or_else(chain) {
            self.returned = true;
            out.push(Effect::Event(BaselineEvent::Decided {
                value: v.clone(),
                phase: ending,
            }));
            out.push(bcast(BcastKind::Init, general, self.me, v, relay));
            return;
        }
        // Early abort: at end of phase 2r+1 with fewer than r−1
        // broadcasters no chain can complete.
        for r in 2..=self.params.f() as u64 {
            if ending > 2 * r && self.broadcasters.len() + 1 < r as usize {
                self.returned = true;
                out.push(Effect::Event(BaselineEvent::Aborted { phase: ending }));
                return;
            }
        }
        // Hard abort at end of phase 2f+1.
        if ending > 2 * self.params.f() as u64 {
            self.returned = true;
            out.push(Effect::Event(BaselineEvent::Aborted { phase: ending }));
        }
    }
}

impl<V: Value> SansIo for BaselineNode<V> {
    type Msg = Msg<V>;
    type Event = BaselineEvent<V>;
    type Buf = Out<V>;

    fn deliver(&mut self, _: LocalTime, from: NodeId, msg: &Msg<V>, _: &mut Out<V>) {
        let Msg::Bcast {
            kind,
            general,
            broadcaster,
            value,
            round,
        } = msg
        else {
            return; // the baseline speaks only broadcast messages
        };
        let (kind, general, broadcaster, round) = (*kind, *general, *broadcaster, *round);
        if general != self.general || round > self.params.max_round() {
            return;
        }
        let st = self
            .triplets
            .entry((broadcaster, round, value.clone()))
            .or_default();
        match kind {
            BcastKind::Init => {
                if from == broadcaster {
                    st.init_seen = true;
                }
            }
            BcastKind::Echo => {
                st.echo.insert(from);
            }
            BcastKind::InitPrime => {
                st.init_prime.insert(from);
            }
            BcastKind::EchoPrime => {
                st.echo_prime.insert(from);
            }
        }
    }

    fn tick(&mut self, now: LocalTime, out: &mut Out<V>) {
        // Assumed synchronized start: the boot tick begins phase 0.
        if let Some(v) = self.proposal.take() {
            out.push(bcast(BcastKind::Init, self.general, self.me, v, 0));
        }
        let (boundary, wake) = self.boundaries.poll(now);
        if boundary {
            self.end_of_phase(out);
            self.phase += 1;
        }
        out.extend(wake.map(Effect::WakeAt));
    }

    fn drain(out: &mut Out<V>) -> impl Iterator<Item = Effect<Msg<V>, BaselineEvent<V>>> + '_ {
        out.drain(..)
    }
}

/// Outcome of one baseline run.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// `(node, decided value, real decision time)` per decide.
    pub decisions: Vec<(NodeId, u64, RealTime)>,
    /// `(node, real abort time)` per abort.
    pub aborts: Vec<(NodeId, RealTime)>,
    /// Total messages handed to the network.
    pub messages: u64,
}

impl BaselineResult {
    /// Latest decision time among deciders (the "all decided by" instant).
    #[must_use]
    pub fn completion(&self) -> Option<RealTime> {
        self.decisions.iter().map(|(_, _, t)| *t).max()
    }
}

/// `params.n()` baseline nodes for General 0, which proposes `value`
/// unless it is `None`, each on the [`Driver`] ticking every `d`.
///
/// Clocks are ideal — the baseline *requires* the synchronized start that
/// `ss-Byz-Agree` dispenses with, so we grant it that assumption.
fn simulate(
    params: Params,
    value: Option<u64>,
    link: LinkConfig,
    seed: u64,
) -> Simulation<Msg<u64>, BaselineEvent<u64>> {
    let mut builder = SimBuilder::new(seed).link(link);
    for me in NodeId::all(params.n()) {
        let proposal = value.filter(|_| me == NodeId::new(0));
        let node = BaselineNode::new(me, params, NodeId::new(0), proposal);
        let driver: Driver<_, Bare<BaselineEvent<u64>>> = Driver::bare(node, params.d());
        builder = builder.node(Box::new(driver), DriftClock::ideal());
    }
    builder.build()
}

/// Runs the lock-step baseline: `n` nodes, General 0 proposing `value`,
/// `silent_faults` nodes silenced (ids from the top), actual link delays
/// in `[actual_min, actual_max]`.
///
/// # Panics
///
/// Panics on invalid `(n, f)` (needs `n > 3f`).
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn run_baseline(
    n: usize,
    f: usize,
    d: Duration,
    actual_min: Duration,
    actual_max: Duration,
    silent_faults: usize,
    value: u64,
    seed: u64,
) -> BaselineResult {
    let params = Params::from_d(n, f, d, 0).expect("valid n/f/d");
    let link = LinkConfig::uniform(actual_min, actual_max);
    let mut sim = simulate(params, Some(value), link, seed);
    for i in 0..silent_faults {
        let id = NodeId::new((n - 1 - i) as u32);
        sim.set_down_until(id, RealTime::from_nanos(u64::MAX));
    }
    // (2f + 5) phases bounds every path.
    let horizon = RealTime::ZERO + params.phi() * (2 * f as u64 + 5);
    sim.run_until(horizon);
    let mut decisions = Vec::new();
    let mut aborts = Vec::new();
    for obs in sim.observations() {
        match &obs.event {
            BaselineEvent::Decided { value, .. } => decisions.push((obs.node, **value, obs.real)),
            BaselineEvent::Aborted { .. } => aborts.push((obs.node, obs.real)),
        }
    }
    BaselineResult {
        decisions,
        aborts,
        messages: sim.metrics().sent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: Duration = Duration::from_millis(10);

    #[test]
    fn fault_free_all_decide_proposed() {
        let res = run_baseline(
            7,
            2,
            D,
            Duration::from_micros(500),
            Duration::from_millis(9),
            0,
            42,
            1,
        );
        assert_eq!(res.decisions.len(), 7, "{res:?}");
        assert!(res.decisions.iter().all(|(_, v, _)| *v == 42));
        assert!(res.aborts.is_empty());
    }

    #[test]
    fn decision_latency_is_phase_locked() {
        // Even with a 100x faster actual network the baseline decides at
        // the same phase boundary — the whole point of the comparison.
        let slow = run_baseline(
            4,
            1,
            D,
            Duration::from_micros(500),
            Duration::from_millis(9),
            0,
            1,
            2,
        );
        let fast = run_baseline(
            4,
            1,
            D,
            Duration::from_micros(5),
            Duration::from_micros(90),
            0,
            1,
            2,
        );
        let slow_t = slow.completion().unwrap();
        let fast_t = fast.completion().unwrap();
        // Both are pinned to the end of phase 1 = 2Φ = 16d.
        let expected = RealTime::ZERO + D * 16u64;
        assert_eq!(slow_t, expected);
        assert_eq!(fast_t, expected);
    }

    #[test]
    fn silent_general_aborts_everywhere() {
        // General 0 never proposes: every node aborts.
        let params = Params::from_d(4, 1, D, 0).unwrap();
        let mut sim = simulate(params, None, LinkConfig::fixed(Duration::from_millis(1)), 5);
        sim.run_until(RealTime::ZERO + params.phi() * 10u64);
        let aborts = sim
            .observations()
            .iter()
            .filter(|o| matches!(o.event, BaselineEvent::Aborted { .. }))
            .count();
        assert_eq!(aborts, 4, "all nodes abort without a proposal");
    }

    #[test]
    fn tolerates_silent_followers() {
        let res = run_baseline(
            7,
            2,
            D,
            Duration::from_micros(500),
            Duration::from_millis(9),
            2, // f' = f = 2 silent followers
            9,
            4,
        );
        // The 5 live nodes all decide.
        assert_eq!(res.decisions.len(), 5, "{res:?}");
        assert!(res.decisions.iter().all(|(_, v, _)| *v == 9));
    }
}
