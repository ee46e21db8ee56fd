//! Fault-injection campaigns: declarative mid-run fault schedules, the
//! stabilization-measurement layer, and the campaign sweep driver.
//!
//! The paper's self-stabilization claim (Corollary 5) is about *recovery*:
//! from any state the system reaches after transient faults stop, every
//! property holds again within `Δ_stb`. The E6 experiment measures this
//! for one boot-time scramble; this module generalizes it to **mid-run
//! fault bursts** — crashes, healing partitions, clock glitches, link
//! congestion, and live state scrambles — each followed by a probe
//! agreement that must satisfy the full correct-General battery.
//!
//! Three layers:
//!
//! 1. [`FaultSchedule`]: a declarative script of [`Fault`]s at real times,
//!    applied deterministically (the scramble entropy comes from a seeded
//!    RNG, so a schedule + seed reproduces an execution bit-for-bit).
//! 2. [`BurstReport`] / [`StabilizationReport`]: per-burst time to first
//!    correct decision, time to all-correct quiescence, and the
//!    **containment radius** — how many correct nodes emitted wrong or
//!    aborted output before re-converging.
//! 3. [`run_campaign`]: the sweep driver behind `examples/fault_campaign`
//!    and its smoke ([`CampaignSpec::smoke`]), running one
//!    [`CampaignFamily`] of repeated bursts against one `(n, f, seed)`
//!    cell.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use ssbyz_adversary::QuorumStalker;
use ssbyz_simnet::Partition;
use ssbyz_types::{Duration, NodeId, RealTime};

use crate::adapter::{Driver, EngineProcess, TOKEN_WAKE};
use crate::checks::{self, Violations};
use crate::experiments::{filter_window, slack};
use crate::scenario::{RunningScenario, ScenarioBuilder, ScenarioConfig, ScenarioResult, Val};

/// One injectable fault. All node-targeting faults address nodes by id;
/// real-time spans are measured from the moment the fault is applied.
#[derive(Debug, Clone)]
pub enum Fault {
    /// Crash `node` for `down_for`; the simulator drops its timers and
    /// deliveries while down and runs its recovery hook afterwards.
    Crash {
        /// The victim.
        node: NodeId,
        /// Outage length.
        down_for: Duration,
    },
    /// Recover `node` immediately (cuts a [`Fault::Crash`] short).
    Recover {
        /// The node to bring back.
        node: NodeId,
    },
    /// Partition the network into the given groups (arbitrary node sets;
    /// nodes in no group are isolated). With `heal_after` set, the
    /// schedule heals the cut after that span.
    Partition {
        /// Mutually-reachable groups.
        groups: Vec<Vec<NodeId>>,
        /// Auto-heal after this span (expanded into a [`Fault::Heal`]).
        heal_after: Option<Duration>,
    },
    /// Heal the current partition, if any.
    Heal,
    /// Jump `node`'s clock forward by `jump`, optionally changing its
    /// drift rate — a hardware timer glitch.
    ClockJump {
        /// The victim.
        node: NodeId,
        /// Forward reading jump.
        jump: Duration,
        /// New drift rate, or `None` to keep the current one.
        new_rate_ppm: Option<i32>,
    },
    /// Inflate every link delay by `num/den` for `lasts` (models
    /// congestion that violates the paper's δ assumption).
    DelayInflation {
        /// Numerator of the inflation factor.
        num: u64,
        /// Denominator of the inflation factor.
        den: u64,
        /// How long the congestion lasts.
        lasts: Duration,
    },
    /// Scramble `node`'s engine state in place — the mid-run equivalent
    /// of the boot-time transient fault: protocol state, interner junk,
    /// bogus `[IG2]`/`[IG3]` guards, and its pending engine wake-ups on
    /// the timer wheel.
    Scramble {
        /// The victim.
        node: NodeId,
    },
}

/// A fault scheduled at an absolute real time.
#[derive(Debug, Clone)]
pub struct TimedFault {
    /// When to apply it.
    pub at: RealTime,
    /// What to apply.
    pub fault: Fault,
}

/// A declarative script of timed faults. Build with [`FaultSchedule::at`];
/// apply with [`RunningScenario::run_with_faults`]. Faults are applied in
/// time order (ties in insertion order); a
/// [`Fault::Partition`] with `heal_after` expands into an explicit
/// [`Fault::Heal`] at the later time.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    faults: Vec<TimedFault>,
}

impl FaultSchedule {
    /// An empty schedule.
    #[must_use]
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Adds `fault` at real time `at` (builder style).
    #[must_use]
    pub fn at(mut self, at: RealTime, fault: Fault) -> Self {
        self.faults.push(TimedFault { at, fault });
        self
    }

    /// The expanded, time-sorted fault list (auto-heals materialized).
    #[must_use]
    pub fn events(&self) -> Vec<TimedFault> {
        let mut out = Vec::with_capacity(self.faults.len());
        for tf in &self.faults {
            out.push(tf.clone());
            if let Fault::Partition {
                heal_after: Some(h),
                ..
            } = &tf.fault
            {
                out.push(TimedFault {
                    at: tf.at + *h,
                    fault: Fault::Heal,
                });
            }
        }
        // Stable: ties keep insertion order.
        out.sort_by_key(|tf| tf.at);
        out
    }

    /// Number of scheduled faults (before auto-heal expansion).
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the schedule is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

impl RunningScenario {
    /// Applies one fault right now. `rng` drives the scramble entropy
    /// (and nothing else), so identical `(schedule, seed)` pairs replay
    /// identically.
    pub fn apply_fault(&mut self, fault: &Fault, rng: &mut StdRng) {
        match fault {
            Fault::Crash { node, down_for } => self.sim_mut().crash_node(*node, *down_for),
            Fault::Recover { node } => self.sim_mut().recover_node(*node),
            Fault::Partition { groups, .. } => {
                let mut p = Partition::new();
                for g in groups {
                    p = p.group(g.iter().copied());
                }
                self.sim_mut().set_partition(Some(p));
            }
            Fault::Heal => self.sim_mut().set_partition(None),
            Fault::ClockJump {
                node,
                jump,
                new_rate_ppm,
            } => self.sim_mut().skew_clock(*node, *jump, *new_rate_ppm),
            Fault::DelayInflation { num, den, lasts } => {
                let until = self.sim().now() + *lasts;
                self.sim_mut().inflate_delays(*num, *den, until);
            }
            Fault::Scramble { node } => self.scramble_node(*node, rng),
        }
    }

    /// Scrambles a live node's engine and its pending engine wake-ups.
    /// Silently skips nodes that are not [`EngineProcess`]es — scrambling
    /// a Byzantine node is meaningless.
    fn scramble_node(&mut self, node: NodeId, rng: &mut StdRng) {
        let now = self.sim().now();
        let now_local = self.sim().clock(node).local_at(now);
        let span = self.params().delta_rmv() * 2u64;
        if let Some(any) = self.sim_mut().process_mut(node).as_any_mut() {
            if let Some(ep) = any.downcast_mut::<EngineProcess<Val>>() {
                ep.engine_mut()
                    .scramble(now_local, &mut || rng.next_u64(), &mut |e| {
                        e.next_u64() % 64
                    });
            } else {
                return;
            }
        } else {
            return;
        }
        // Eat the engine's pending precise wake-ups and fabricate two
        // spurious ones. The periodic tick is the adapter's driver loop
        // (modeled as hardware), so it stays; eaten deadlines are
        // re-derived from engine state at the next tick, and the spurious
        // wakes just run harmless extra ticks — exactly the "wake-up at an
        // arbitrary time" residue a transient fault leaves on a real timer
        // service.
        self.sim_mut().cancel_node_timer(node, TOKEN_WAKE);
        for _ in 0..2 {
            let off = Duration::from_nanos(rng.gen_range(0..span.as_nanos().max(1)));
            self.sim_mut().plant_timer(node, off, TOKEN_WAKE);
        }
    }

    /// Runs the simulation to `until`, applying every scheduled fault at
    /// its time along the way (faults beyond `until` are skipped).
    pub fn run_with_faults(&mut self, schedule: &FaultSchedule, until: RealTime, rng: &mut StdRng) {
        for tf in schedule.events() {
            if tf.at > until {
                break;
            }
            self.run_until(tf.at);
            self.apply_fault(&tf.fault, rng);
        }
        self.run_until(until);
    }

    /// Convenience wrapper: seeds the fault RNG from `fault_seed` and
    /// runs the schedule to `until`.
    pub fn run_schedule(&mut self, schedule: &FaultSchedule, until: RealTime, fault_seed: u64) {
        let mut rng = StdRng::seed_from_u64(fault_seed ^ 0xFA17_FA17);
        self.run_with_faults(schedule, until, &mut rng);
    }
}

/// Stabilization measurements for one fault burst.
///
/// Each burst is bracketed by **two** agreements: a *companion*
/// initiated `2d` before the burst, so the fault lands on an agreement
/// in flight (its `disrupted_*` numbers are where the families actually
/// differ — a crash loses different messages than a healing cut), and
/// the *probe* initiated a settle span after the burst, which must pass
/// the full correct-General battery on the healed network.
#[derive(Debug, Clone)]
pub struct BurstReport {
    /// Real time of the burst.
    pub burst_at: RealTime,
    /// Real time of the probe initiation (`t0` of the battery).
    pub probe_t0: RealTime,
    /// Real time of the companion initiation (`≈ burst_at − 2d`).
    pub companion_t0: RealTime,
    /// Time from the burst to the first correct probe decision.
    pub first_decision_after: Option<Duration>,
    /// Time from the burst until *every* correct node decided the probe
    /// value — the all-correct quiescence point.
    pub all_correct_after: Option<Duration>,
    /// Time from the burst to the first correct resolution (decide or
    /// abort) of the companion agreement the burst disrupted.
    pub disrupted_first_after: Option<Duration>,
    /// Time from the burst until every correct node resolved the
    /// companion — how long the disruption lingered. `None` while any
    /// correct node never resolved it.
    pub disrupted_all_after: Option<Duration>,
    /// Correct companion decisions carrying the initiated value.
    pub disrupted_decides: usize,
    /// Correct companion aborts (⊥) — nodes the burst cost the value.
    pub disrupted_aborts: usize,
    /// Containment radius: distinct correct nodes that emitted any
    /// (necessarily wrong or aborted) output between the burst and the
    /// probe window — fault residue that leaked into visible returns.
    /// Companion outcomes are excluded: resolving the agreement the
    /// burst disrupted is measured above, not residue.
    pub containment_radius: usize,
    /// Total such leaked outputs.
    pub wrong_outputs: usize,
    /// Probe-battery violations (must be empty for stabilization).
    pub violations: Vec<String>,
}

/// Aggregated stabilization measurements for one campaign cell.
#[derive(Debug, Clone)]
pub struct StabilizationReport {
    /// Campaign family name.
    pub family: &'static str,
    /// Membership size.
    pub n: usize,
    /// Fault budget.
    pub f: usize,
    /// Seed of the run.
    pub seed: u64,
    /// The derived `d`.
    pub d: Duration,
    /// The agreement bound `Δ_agr`.
    pub delta_agr: Duration,
    /// The paper's stabilization bound `Δ_stb`.
    pub delta_stb: Duration,
    /// The settle span granted after each burst before its probe
    /// (strictly tighter than `Δ_stb`, so passing is a stronger claim).
    pub settle: Duration,
    /// Per-burst measurements.
    pub bursts: Vec<BurstReport>,
}

impl StabilizationReport {
    /// Whether every burst stabilized: all correct nodes decided every
    /// probe and no battery violation was recorded.
    #[must_use]
    pub fn stabilized(&self) -> bool {
        !self.bursts.is_empty()
            && self
                .bursts
                .iter()
                .all(|b| b.all_correct_after.is_some() && b.violations.is_empty())
    }

    /// The worst (largest) all-correct quiescence time across bursts.
    #[must_use]
    pub fn max_stabilization(&self) -> Option<Duration> {
        self.bursts.iter().filter_map(|b| b.all_correct_after).max()
    }

    /// The worst containment radius across bursts.
    #[must_use]
    pub fn max_containment(&self) -> usize {
        self.bursts
            .iter()
            .map(|b| b.containment_radius)
            .max()
            .unwrap_or(0)
    }

    /// All violations across bursts.
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        self.bursts
            .iter()
            .flat_map(|b| b.violations.iter().cloned())
            .collect()
    }
}

/// The fault-burst families of the campaign grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignFamily {
    /// Repeated crash/recover churn of random non-probe nodes.
    CrashChurn,
    /// Partitions that cut off a minority and heal before the probe.
    HealingPartitions,
    /// Mid-run state scrambles plus clock glitches and link congestion.
    RepeatedScrambles,
    /// An adaptive storm: a [`QuorumStalker`] Byzantine node runs
    /// throughout, and each burst retargets crash + scramble at the
    /// currently weakest correct nodes (fewest decisions so far).
    AdaptiveStorm,
}

impl CampaignFamily {
    /// All families, in grid order.
    pub const ALL: [CampaignFamily; 4] = [
        CampaignFamily::CrashChurn,
        CampaignFamily::HealingPartitions,
        CampaignFamily::RepeatedScrambles,
        CampaignFamily::AdaptiveStorm,
    ];

    /// Stable name (used in reports and JSON).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            CampaignFamily::CrashChurn => "crash-churn",
            CampaignFamily::HealingPartitions => "healing-partitions",
            CampaignFamily::RepeatedScrambles => "repeated-scrambles",
            CampaignFamily::AdaptiveStorm => "adaptive-storm",
        }
    }
}

/// Picks `count` distinct victims from `candidates` (deterministic).
fn pick_victims(candidates: &[NodeId], count: usize, rng: &mut StdRng) -> Vec<NodeId> {
    let mut pool = candidates.to_vec();
    let mut out = Vec::new();
    for _ in 0..count.min(pool.len()) {
        let i = rng.gen_range(0..pool.len());
        out.push(pool.swap_remove(i));
    }
    out
}

/// Builds one burst's schedule for `family`. `victims` must exclude the
/// probe general (node 0) and any Byzantine nodes; for
/// [`CampaignFamily::AdaptiveStorm`] the caller passes them ranked
/// weakest-first. Every fault ends (outages, cuts, congestion) within
/// `settle / 2` of `at`, so the probe always runs on a coherent network.
#[must_use]
pub fn burst_schedule(
    family: CampaignFamily,
    n: usize,
    at: RealTime,
    settle: Duration,
    d: Duration,
    victims: &[NodeId],
    rng: &mut StdRng,
) -> FaultSchedule {
    let mut s = FaultSchedule::new();
    let half = settle / 2;
    match family {
        CampaignFamily::CrashChurn => {
            // Two staggered outages (or one, in tiny memberships).
            let picks = pick_victims(victims, 2, rng);
            for (i, v) in picks.iter().enumerate() {
                let start = at + d * (i as u64 * 3);
                let span =
                    Duration::from_nanos(rng.gen_range(1..half.as_nanos().max(2)) / 2) + half / 4;
                s = s.at(
                    start,
                    Fault::Crash {
                        node: *v,
                        down_for: span.min(half),
                    },
                );
            }
        }
        CampaignFamily::HealingPartitions => {
            let k = rng.gen_range(1..=victims.len().min(3));
            let minority = pick_victims(victims, k, rng);
            let rest: Vec<NodeId> = (0..n as u32)
                .map(NodeId::new)
                .filter(|id| !minority.contains(id))
                .collect();
            s = s.at(
                at,
                Fault::Partition {
                    groups: vec![rest, minority],
                    heal_after: Some(half / 2),
                },
            );
        }
        CampaignFamily::RepeatedScrambles => {
            let picks = pick_victims(victims, 3, rng);
            for (i, v) in picks.iter().enumerate() {
                match i {
                    0 | 1 => {
                        s = s.at(at + d * (i as u64), Fault::Scramble { node: *v });
                    }
                    _ => {
                        s = s.at(
                            at,
                            Fault::ClockJump {
                                node: *v,
                                jump: Duration::from_nanos(rng.gen_range(0..d.as_nanos() * 100)),
                                new_rate_ppm: None,
                            },
                        );
                    }
                }
            }
            s = s.at(
                at,
                Fault::DelayInflation {
                    num: 2,
                    den: 1,
                    lasts: half / 2,
                },
            );
        }
        CampaignFamily::AdaptiveStorm => {
            // Victims arrive weakest-first: crash the weakest, scramble
            // the runner-up.
            if let Some(w) = victims.first() {
                s = s.at(
                    at,
                    Fault::Crash {
                        node: *w,
                        down_for: half / 2,
                    },
                );
            }
            if let Some(w) = victims.get(1) {
                s = s.at(at + d, Fault::Scramble { node: *w });
            }
        }
    }
    s
}

/// The settle span granted after each burst before its probe: long
/// enough for all planted state (stamps reach `+2Δ_rmv` into the local
/// future) to decay and any residue agreement (`+Δ_agr`) to drain, with
/// a cleanup-cadence margin — and always `< Δ_stb`, the paper's bound,
/// so stabilizing within it is the stronger claim.
#[must_use]
pub fn campaign_settle(params: &ssbyz_core::Params) -> Duration {
    params.delta_rmv() * 2u64 + params.delta_agr() + params.d() * 16u64
}

/// One campaign cell, fully specified: membership, fault family, burst
/// count and an optional δ override (see [`clamped_delta`]).
#[derive(Debug, Clone, Copy)]
pub struct CampaignSpec {
    /// Membership size.
    pub n: usize,
    /// Fault budget.
    pub f: usize,
    /// Seed (drives delays, drift and the fault RNG).
    pub seed: u64,
    /// Fault-burst family.
    pub family: CampaignFamily,
    /// Number of bursts.
    pub bursts: usize,
    /// Overrides the assumed network bound δ (`None` keeps the
    /// [`ScenarioConfig`] default).
    pub delta: Option<Duration>,
}

impl CampaignSpec {
    /// A cell with the default δ.
    #[must_use]
    pub fn new(n: usize, f: usize, seed: u64, family: CampaignFamily, bursts: usize) -> Self {
        CampaignSpec {
            n,
            f,
            seed,
            family,
            bursts,
            delta: None,
        }
    }

    /// A cell of `examples/fault_campaign`'s grid at [`CAMPAIGN_SEED`],
    /// with δ scaled per [`clamped_delta`] when `n` outgrows what the
    /// default bound's processing budget can honestly model (`delta` is
    /// then `Some`).
    #[must_use]
    pub fn cell(n: usize, f: usize, family: CampaignFamily, bursts: usize) -> Self {
        let (delta, scaled) = clamped_delta(n);
        let spec = CampaignSpec::new(n, f, CAMPAIGN_SEED, family, bursts);
        CampaignSpec {
            delta: scaled.then_some(delta),
            ..spec
        }
    }

    /// The campaign smoke: one crash-churn burst and one mid-run
    /// scramble burst at n = 7, plus one crash-churn burst at n = 64 (the
    /// largest membership the default δ covers). Each must stabilize
    /// with zero safety violations.
    #[must_use]
    pub fn smoke() -> [CampaignSpec; 3] {
        [
            CampaignSpec::cell(7, 2, CampaignFamily::CrashChurn, 1),
            CampaignSpec::cell(7, 2, CampaignFamily::RepeatedScrambles, 1),
            CampaignSpec::cell(64, 21, CampaignFamily::CrashChurn, 1),
        ]
    }
}

/// The seed of the campaign grid and its smoke.
pub const CAMPAIGN_SEED: u64 = 1;

/// The assumed network bound δ, kept honest for `n` nodes. δ's
/// companion π (the processing bound) budgets each node one
/// message-handling step per millisecond, but a node touches `O(n)`
/// messages per protocol step — so past roughly 64 nodes the default
/// δ = 9 ms would silently promise more processing than the model
/// grants. Returns δ scaled by `ceil(n / 64)` and whether scaling kicked
/// in (callers should surface a warning when it did). A property of the
/// simulated system only: it does not depend on how the simulator runs.
#[must_use]
pub fn clamped_delta(n: usize) -> (Duration, bool) {
    let base = ScenarioConfig::new(4, 1).delta;
    let factor = n.div_ceil(64) as u32;
    (base * factor, factor > 1)
}

/// Runs one campaign cell: `bursts` fault bursts of `family` against an
/// `(n, f)` membership, each followed by a probe agreement from the
/// fault-free node 0, and returns the per-burst stabilization report.
/// Fully deterministic in `(n, f, seed, family, bursts)`.
///
/// # Panics
///
/// Panics if `n < 4` or the `(n, f)` pair violates `n > 3f`.
#[must_use]
pub fn run_campaign(
    n: usize,
    f: usize,
    seed: u64,
    family: CampaignFamily,
    bursts: usize,
) -> StabilizationReport {
    run_campaign_spec(&CampaignSpec::new(n, f, seed, family, bursts))
}

/// [`run_campaign`] with δ picked by a [`CampaignSpec`], which is what
/// carries the same campaign to `n = 256`.
///
/// # Panics
///
/// Panics if `n < 4` or the `(n, f)` pair violates `n > 3f`.
#[must_use]
pub fn run_campaign_spec(spec: &CampaignSpec) -> StabilizationReport {
    let CampaignSpec {
        n,
        f,
        seed,
        family,
        bursts,
        ..
    } = *spec;
    let mut cfg = ScenarioConfig::new(n, f).with_seed(seed);
    if let Some(delta) = spec.delta {
        cfg.delta = delta;
        // The engine tick tracks d (≈ δ + π at small drift) so protocol
        // deadlines stay one tick apart.
        cfg.tick = cfg.params().expect("valid campaign config").d();
    }
    let params = cfg.params().expect("valid campaign config");
    let d = params.d();
    let settle = campaign_settle(&params);
    let probe_tail = params.delta_agr() + d * 14u64;
    let period = settle + probe_tail;
    let first = d * 10u64;

    // Probe initiations ride on node 0's local clock; values are distinct
    // per burst (dodging the [IG2] per-value rate guard) and spaced by
    // `period` ≫ Δ_0 (the [IG1] any-value guard).
    let probe_offsets: Vec<(Duration, Val)> = (0..bursts)
        .map(|k| (first + period * k as u64 + settle, 100 + k as Val))
        .collect();
    // Companion initiations land 2d *before* each burst so the fault
    // disrupts an agreement in flight. Values 500+k stay clear of the
    // probes (100+k) and the stalker's 600–602 repertoire; the tightest
    // spacing to a neighbouring initiation is `probe_tail − 2d ≥ Δ_agr +
    // 12d > Δ_0 = 13d` (Δ_agr > d always), so [IG1] never refuses.
    let companion_offsets: Vec<(Duration, Val)> = (0..bursts)
        .map(|k| (first + period * k as u64 - d * 2u64, 500 + k as Val))
        .collect();
    let mut initiations = Vec::new();
    for k in 0..bursts {
        initiations.push(companion_offsets[k]);
        initiations.push(probe_offsets[k]);
    }
    let stalker = family == CampaignFamily::AdaptiveStorm;
    let mut b = ScenarioBuilder::new(cfg).correct_with_initiations(initiations);
    for i in 1..n {
        if stalker && i == n - 1 {
            // Its draws get a stream of their own, apart from the
            // simulator's, the clocks' and the faults'.
            let me = NodeId::new(i as u32);
            let node =
                QuorumStalker::new(me, n, vec![600, 601, 602], d, f.max(1), seed ^ 0x57A1_CE55);
            b = b.byzantine(Box::new(Driver::bare(node, cfg.tick)));
        } else {
            b = b.correct();
        }
    }
    let mut sc = b.build();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17_FA17);
    let clock0 = *sc.sim().clock(NodeId::new(0));
    let base_local = clock0.local_at(RealTime::ZERO);
    let correct = sc.correct().to_vec();

    let mut reports = Vec::new();
    for (k, (off, value)) in probe_offsets.iter().enumerate() {
        let burst_at = RealTime::ZERO + first + period * k as u64;
        let t0 = clock0.real_of_local(base_local + *off);
        sc.run_until(burst_at);
        // Candidate victims: correct nodes other than the probe general,
        // ranked weakest-first for the adaptive family.
        let victims: Vec<NodeId> = if stalker {
            let res = sc.result();
            let mut ranked: Vec<(usize, NodeId)> = correct
                .iter()
                .filter(|id| id.index() != 0)
                .map(|id| (res.decisions.iter().filter(|r| r.node == *id).count(), *id))
                .collect();
            ranked.sort_by_key(|(count, id)| (*count, id.index()));
            ranked.into_iter().map(|(_, id)| id).collect()
        } else {
            correct
                .iter()
                .copied()
                .filter(|id| id.index() != 0)
                .collect()
        };
        let schedule = burst_schedule(family, n, burst_at, settle, d, &victims, &mut rng);
        let win_from = t0 - d * 2u64;
        let win_to = t0 + params.delta_agr() + d * 10u64;
        sc.run_with_faults(&schedule, win_to + d * 4u64, &mut rng);

        let comp_t0 = clock0.real_of_local(base_local + companion_offsets[k].0);
        let res = sc.result();
        reports.push(measure_burst(
            &res,
            burst_at,
            t0,
            win_from,
            win_to,
            *value,
            (companion_offsets[k].1, comp_t0),
            &params,
        ));
    }
    StabilizationReport {
        family: family.name(),
        n,
        f,
        seed,
        d,
        delta_agr: params.delta_agr(),
        delta_stb: params.delta_stb(),
        settle,
        bursts: reports,
    }
}

/// Distills one burst's measurements out of the full run result.
#[allow(clippy::too_many_arguments)]
fn measure_burst(
    res: &ScenarioResult,
    burst_at: RealTime,
    t0: RealTime,
    win_from: RealTime,
    win_to: RealTime,
    value: Val,
    companion: (Val, RealTime),
    params: &ssbyz_core::Params,
) -> BurstReport {
    let d = params.d();
    let (comp_value, comp_t0) = companion;
    let probe = filter_window(res, win_from, win_to);
    let mut violations = Violations::default();
    violations.extend(checks::check_correct_general_run(
        &probe,
        NodeId::new(0),
        value,
        t0,
        slack(params.d()),
    ));

    // A record belongs to the companion instance when it decided the
    // companion value, or aborted an instance anchored at the companion
    // initiation (±2d of drift/delivery slop).
    let is_companion = |r: &&crate::scenario::DecisionRecord| {
        r.general == NodeId::new(0)
            && (r.value == Some(comp_value)
                || (r.value.is_none()
                    && r.tau_g_real >= comp_t0 - d * 2u64
                    && r.tau_g_real <= comp_t0 + d * 2u64))
    };
    let comp_records: Vec<&crate::scenario::DecisionRecord> = res
        .decisions
        .iter()
        .filter(|r| res.correct.contains(&r.node))
        .filter(is_companion)
        .collect();
    let disrupted_first_after = comp_records
        .iter()
        .map(|r| r.real_at)
        .min()
        .map(|t| t.saturating_since(burst_at));
    let all_resolved = res
        .correct
        .iter()
        .all(|node| comp_records.iter().any(|r| r.node == *node));
    let disrupted_all_after = if all_resolved {
        comp_records
            .iter()
            .map(|r| r.real_at)
            .max()
            .map(|t| t.saturating_since(burst_at))
    } else {
        None
    };
    let disrupted_decides = comp_records.iter().filter(|r| r.value.is_some()).count();
    let disrupted_aborts = comp_records.len() - disrupted_decides;

    // Containment measures *residue*, so companion outcomes — resolving
    // the agreement the burst deliberately disrupted — don't count.
    let mut residue = res.clone();
    residue.decisions.retain(|r| !is_companion(&r));
    let (containment_radius, wrong_outputs) =
        checks::containment_radius(&residue, burst_at, win_from);
    let probe_decides: Vec<&crate::scenario::DecisionRecord> = probe
        .decisions
        .iter()
        .filter(|r| {
            r.general == NodeId::new(0) && r.value == Some(value) && res.correct.contains(&r.node)
        })
        .collect();
    let first_decision_after = probe_decides
        .iter()
        .map(|r| r.real_at)
        .min()
        .map(|t| t.since(burst_at));
    let all_decided = res
        .correct
        .iter()
        .all(|node| probe_decides.iter().any(|r| r.node == *node));
    let all_correct_after = if all_decided {
        probe_decides
            .iter()
            .map(|r| r.real_at)
            .max()
            .map(|t| t.since(burst_at))
    } else {
        None
    };
    BurstReport {
        burst_at,
        probe_t0: t0,
        companion_t0: comp_t0,
        first_decision_after,
        all_correct_after,
        disrupted_first_after,
        disrupted_all_after,
        disrupted_decides,
        disrupted_aborts,
        containment_radius,
        wrong_outputs,
        violations: violations.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_expands_auto_heal_in_order() {
        let s = FaultSchedule::new()
            .at(
                RealTime::from_nanos(50),
                Fault::Partition {
                    groups: vec![vec![NodeId::new(0)], vec![NodeId::new(1)]],
                    heal_after: Some(Duration::from_nanos(25)),
                },
            )
            .at(
                RealTime::from_nanos(10),
                Fault::Crash {
                    node: NodeId::new(2),
                    down_for: Duration::from_nanos(5),
                },
            );
        let ev = s.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].at, RealTime::from_nanos(10));
        assert_eq!(ev[1].at, RealTime::from_nanos(50));
        assert!(matches!(ev[2].fault, Fault::Heal));
        assert_eq!(ev[2].at, RealTime::from_nanos(75));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn crash_churn_smoke_stabilizes() {
        let report = run_campaign(4, 1, 7, CampaignFamily::CrashChurn, 1);
        assert!(report.stabilized(), "violations: {:?}", report.violations());
        assert!(report.max_stabilization().unwrap() <= report.delta_stb + report.delta_agr);
        assert!(report.settle < report.delta_stb);
    }

    /// δ is a property of the simulated system: it scales with the
    /// membership in steps of 64 nodes and with nothing else.
    #[test]
    fn clamped_delta_scales_with_membership_only() {
        let base = ScenarioConfig::new(4, 1).delta;
        assert_eq!(clamped_delta(7), (base, false));
        assert_eq!(clamped_delta(64), (base, false));
        assert_eq!(clamped_delta(65), (base * 2u32, true));
        assert_eq!(clamped_delta(256), (base * 4u32, true));
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = run_campaign(4, 1, 3, CampaignFamily::RepeatedScrambles, 1);
        let b = run_campaign(4, 1, 3, CampaignFamily::RepeatedScrambles, 1);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// Distinct fault families must leave distinct fingerprints under a
    /// fixed seed. The companion agreement in flight across each burst
    /// is what makes the difference visible: a crash and a healing cut
    /// lose different messages, so the per-burst `disrupted_*` numbers
    /// diverge even when both probes pass identically on the healed
    /// network. (Regression: these two families once produced
    /// bit-identical burst metrics at n = 7.)
    #[test]
    fn families_produce_distinct_traces() {
        let a = run_campaign(7, 2, 1, CampaignFamily::CrashChurn, 2);
        let b = run_campaign(7, 2, 1, CampaignFamily::HealingPartitions, 2);
        assert_ne!(
            format!("{:?}", a.bursts),
            format!("{:?}", b.bursts),
            "crash-churn and healing-partitions produced identical burst traces"
        );
        // The probes themselves must still both stabilize.
        assert!(a.stabilized(), "crash-churn: {:?}", a.violations());
        assert!(b.stabilized(), "healing-partitions: {:?}", b.violations());
    }
}
