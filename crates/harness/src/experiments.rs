//! Drivers for the reproduction experiments E1–E11. Each driver's doc
//! comment names the paper bound it measures; `docs/ROBUSTNESS.md` covers
//! the fault-campaign side.
//!
//! Each driver runs seeded scenarios and returns plain row structs; the
//! integration tests assert the paper's bounds on them, and [`TABLES`]
//! renders them as the markdown `examples/experiments.rs` prints and
//! `tests/recorded_traces.rs` folds.

use ssbyz_baseline::run_baseline;
use ssbyz_types::{Duration, NodeId, RealTime};

use crate::checks;
use crate::scenario::{ScenarioBuilder, ScenarioConfig, ScenarioResult};
use crate::Violations;

/// Margin added to paper bounds for simulation granularity (tick quanta,
/// boundary epsilon). Kept at a small fraction of `d`.
#[must_use]
pub fn slack(d: Duration) -> Duration {
    d / 4
}

/// Runs one fault-free correct-General scenario and returns the result
/// plus the initiation real-time `t0`.
#[must_use]
pub fn run_correct_general(
    n: usize,
    f: usize,
    seed: u64,
    actual_min: Duration,
    actual_max: Duration,
    value: u64,
) -> (ScenarioResult, RealTime) {
    let cfg = ScenarioConfig::new(n, f)
        .with_seed(seed)
        .with_actual_delays(actual_min, actual_max);
    let params = cfg.params().expect("valid");
    let initiate_off = params.d() * 4u64;
    let mut b = ScenarioBuilder::new(cfg).correct_general(initiate_off, value);
    for _ in 1..n {
        b = b.correct();
    }
    let mut sc = b.build();
    // t0: General initiates `initiate_off` after ITS local start; real
    // time of that is clock-dependent. With boot at real 0:
    let t0 = sc
        .sim()
        .clock(NodeId::new(0))
        .real_of_local(sc.sim().clock(NodeId::new(0)).local_at(RealTime::ZERO) + initiate_off);
    sc.run_until(RealTime::ZERO + params.delta_agr() + params.d() * 30u64);
    (sc.result(), t0)
}

/// E1 row: fault-free validity + timeliness for one `(n, f)` across seeds.
#[derive(Debug, Clone)]
pub struct E1Row {
    /// Membership size.
    pub n: usize,
    /// Fault budget.
    pub f: usize,
    /// Seeds run.
    pub runs: usize,
    /// Maximum observed decision skew between correct nodes.
    pub max_decision_skew: Duration,
    /// Maximum observed anchor skew.
    pub max_anchor_skew: Duration,
    /// Maximum observed decision latency from `t0`.
    pub max_latency: Duration,
    /// The paper bound on latency (4d).
    pub latency_bound: Duration,
    /// Property violations across all runs (must be empty).
    pub violations: Vec<String>,
}

/// Runs E1 for one `(n, f)` over `seeds` seeds.
#[must_use]
pub fn e1_validity(n: usize, f: usize, seeds: u64) -> E1Row {
    let mut max_decision_skew = Duration::ZERO;
    let mut max_anchor_skew = Duration::ZERO;
    let mut max_latency = Duration::ZERO;
    let mut violations = Violations::default();
    let mut d_bound = Duration::ZERO;
    for seed in 0..seeds {
        let (res, t0) = run_correct_general(
            n,
            f,
            seed,
            Duration::from_micros(500),
            Duration::from_millis(9),
            40 + seed,
        );
        let d = res.params.d();
        d_bound = d;
        violations.extend(checks::check_correct_general_run(
            &res,
            NodeId::new(0),
            40 + seed,
            t0,
            slack(d),
        ));
        for rec in res.decides_for(NodeId::new(0)) {
            max_latency = max_latency.max(rec.real_at.saturating_since(t0));
            for other in res.decides_for(NodeId::new(0)) {
                max_decision_skew = max_decision_skew.max(rec.real_at.abs_diff(other.real_at));
                max_anchor_skew = max_anchor_skew.max(rec.tau_g_real.abs_diff(other.tau_g_real));
            }
        }
    }
    E1Row {
        n,
        f,
        runs: seeds as usize,
        max_decision_skew,
        max_anchor_skew,
        max_latency,
        latency_bound: d_bound * 4u64,
        violations: violations.0,
    }
}

/// E4 row: early-stopping latency for one actual-fault count `f′`.
#[derive(Debug, Clone)]
pub struct E4Row {
    /// Actual silent faults.
    pub f_actual: usize,
    /// Fault budget.
    pub f_budget: usize,
    /// Mean completion (last correct decide/abort) from `t0`, ss-Byz-Agree.
    pub ours: Duration,
    /// Mean completion for the lock-step baseline.
    pub baseline: Duration,
    /// The worst-case bound `Δ_agr`.
    pub bound: Duration,
}

/// Runs E4: n nodes, f budget, f′ silent faults; measures completion time.
#[must_use]
pub fn e4_early_stopping(n: usize, f: usize, f_actual: usize, seeds: u64) -> E4Row {
    use ssbyz_adversary::SilentNode;
    let mut total = Duration::ZERO;
    let mut runs = 0u32;
    let mut d_bound = Duration::ZERO;
    let mut phi = Duration::ZERO;
    let mut fb = 0usize;
    for seed in 0..seeds {
        let cfg = ScenarioConfig::new(n, f).with_seed(seed);
        let params = cfg.params().expect("valid");
        d_bound = params.d();
        phi = params.phi();
        fb = params.f();
        let initiate_off = params.d() * 4u64;
        let mut b = ScenarioBuilder::new(cfg).correct_general(initiate_off, 7);
        for i in 1..n {
            if i >= n - f_actual {
                b = b.byzantine(Box::new(SilentNode));
            } else {
                b = b.correct();
            }
        }
        let mut sc = b.build();
        let t0 = sc
            .sim()
            .clock(NodeId::new(0))
            .real_of_local(sc.sim().clock(NodeId::new(0)).local_at(RealTime::ZERO) + initiate_off);
        sc.run_until(RealTime::ZERO + params.delta_agr() * 2u64 + params.d() * 40u64);
        let res = sc.result();
        if let Some(last) = res
            .decisions
            .iter()
            .filter(|r| r.general == NodeId::new(0))
            .map(|r| r.real_at)
            .max()
        {
            total += last.saturating_since(t0);
            runs += 1;
        }
    }
    let ours = if runs > 0 {
        total / u64::from(runs)
    } else {
        Duration::ZERO
    };
    // Baseline with the same f′.
    let mut btotal = Duration::ZERO;
    let mut bruns = 0u32;
    for seed in 0..seeds {
        let res = run_baseline(
            n,
            f,
            d_bound,
            Duration::from_micros(500),
            Duration::from_millis(9),
            f_actual,
            7,
            seed,
        );
        if let Some(t) = res.completion() {
            btotal += t.since(RealTime::ZERO);
            bruns += 1;
        }
    }
    let baseline = if bruns > 0 {
        btotal / u64::from(bruns)
    } else {
        Duration::ZERO
    };
    E4Row {
        f_actual,
        f_budget: fb,
        ours,
        baseline,
        bound: phi * (2 * f as u64 + 1),
    }
}

/// E5 row: latency vs actual network delay.
#[derive(Debug, Clone)]
pub struct E5Row {
    /// Actual max delay as a fraction of δ (percent).
    pub delay_pct: u32,
    /// Mean completion, message-driven (ours).
    pub ours: Duration,
    /// Mean completion, lock-step baseline.
    pub baseline: Duration,
}

/// Runs E5 for one actual-delay setting (δ_act = pct% of δ).
#[must_use]
pub fn e5_message_driven(n: usize, f: usize, delay_pct: u32, seeds: u64) -> E5Row {
    let delta = Duration::from_millis(9);
    let actual_max =
        Duration::from_nanos((delta.as_nanos() * u64::from(delay_pct) / 100).max(1_000));
    let actual_min = actual_max / 10;
    let mut total = Duration::ZERO;
    let mut runs = 0u32;
    let mut d_bound = Duration::ZERO;
    for seed in 0..seeds {
        let (res, t0) = run_correct_general(n, f, seed, actual_min, actual_max, 5);
        d_bound = res.params.d();
        if let Some(last) = res
            .decides_for(NodeId::new(0))
            .iter()
            .map(|r| r.real_at)
            .max()
        {
            total += last.saturating_since(t0);
            runs += 1;
        }
    }
    let ours = if runs > 0 {
        total / u64::from(runs)
    } else {
        Duration::ZERO
    };
    let mut btotal = Duration::ZERO;
    let mut bruns = 0u32;
    for seed in 0..seeds {
        let res = run_baseline(n, f, d_bound, actual_min, actual_max, 0, 5, seed);
        if let Some(t) = res.completion() {
            btotal += t.since(RealTime::ZERO);
            bruns += 1;
        }
    }
    let baseline = if bruns > 0 {
        btotal / u64::from(bruns)
    } else {
        Duration::ZERO
    };
    E5Row {
        delay_pct,
        ours,
        baseline,
    }
}

/// E6 row: convergence from arbitrary state.
#[derive(Debug, Clone)]
pub struct E6Row {
    /// Seeds run.
    pub runs: usize,
    /// Runs in which the first post-storm agreement satisfied the full
    /// correct-General battery.
    pub converged: usize,
    /// The stabilization bound `Δ_stb`.
    pub delta_stb: Duration,
    /// Post-storm settle time granted before the probe agreement (must be
    /// ≤ `delta_stb` for the claim to be meaningful).
    pub settle: Duration,
    /// Violations from runs that failed.
    pub violations: Vec<String>,
}

/// Runs E6: every node scrambled + network storm until `storm_end`; after
/// `settle` (≤ Δ_stb) a correct General initiates and the full property
/// battery must pass.
#[must_use]
pub fn e6_convergence(n: usize, f: usize, seeds: u64, settle_frac_percent: u32) -> E6Row {
    use ssbyz_simnet::StormConfig;
    let mut converged = 0usize;
    let mut violations = Violations::default();
    let mut delta_stb = Duration::ZERO;
    let mut settle = Duration::ZERO;
    for seed in 0..seeds {
        let cfg = ScenarioConfig::new(n, f).with_seed(seed);
        let params = cfg.params().expect("valid");
        delta_stb = params.delta_stb();
        let storm_len = params.delta_rmv();
        settle = Duration::from_nanos(delta_stb.as_nanos() * u64::from(settle_frac_percent) / 100);
        let storm_end = RealTime::ZERO + storm_len;
        let initiate_real = storm_end + settle;
        // Planned initiation offset on the General's local clock: clocks
        // boot at real 0, so local offset ≈ scaled real offset.
        let initiate_off = storm_len + settle;
        let mut b = ScenarioBuilder::new(cfg)
            .storm(StormConfig::heavy(
                storm_end,
                params.d() * 4u64,
                params.d() / 4,
            ))
            .scrambled_general(initiate_off, 13);
        for _ in 1..n {
            b = b.scrambled();
        }
        let mut sc = b.build();
        let t0 = sc
            .sim()
            .clock(NodeId::new(0))
            .real_of_local(sc.sim().clock(NodeId::new(0)).local_at(RealTime::ZERO) + initiate_off);
        sc.run_until(initiate_real + params.delta_agr() + params.d() * 40u64);
        let res = sc.result();
        // Only the probe agreement counts: filter to events near t0.
        let probe = filter_window(
            &res,
            t0 - params.d() * 2u64,
            t0 + params.delta_agr() + params.d() * 10u64,
        );
        let v =
            checks::check_correct_general_run(&probe, NodeId::new(0), 13, t0, slack(params.d()));
        if v.is_ok() {
            converged += 1;
        } else {
            violations.extend(v);
        }
    }
    E6Row {
        runs: seeds as usize,
        converged,
        delta_stb,
        settle,
        violations: violations.0,
    }
}

/// Restricts a result to events whose real time lies in `[from, to]` —
/// used to isolate a probe agreement from pre-convergence noise.
#[must_use]
pub fn filter_window(res: &ScenarioResult, from: RealTime, to: RealTime) -> ScenarioResult {
    let mut out = res.clone();
    out.decisions
        .retain(|r| r.real_at >= from && r.real_at <= to);
    out.iaccepts
        .retain(|r| r.real_at >= from && r.real_at <= to);
    out
}

/// E11 row: message complexity.
#[derive(Debug, Clone)]
pub struct E11Row {
    /// Membership size.
    pub n: usize,
    /// Mean messages per completed agreement.
    pub messages: u64,
    /// `messages / n²`.
    pub per_n2: f64,
    /// `messages / n³` — should be roughly flat: each of the n deciders
    /// relays a broadcast whose echo stages cost O(n²).
    pub per_n3: f64,
}

/// Runs E11 for one `n`.
#[must_use]
pub fn e11_message_complexity(n: usize, f: usize, seeds: u64) -> E11Row {
    let mut total = 0u64;
    for seed in 0..seeds {
        let (res, _) = run_correct_general(
            n,
            f,
            seed,
            Duration::from_micros(500),
            Duration::from_millis(9),
            3,
        );
        total += res.metrics.sent;
    }
    let messages = total / seeds.max(1);
    E11Row {
        n,
        messages,
        per_n2: messages as f64 / (n * n) as f64,
        per_n3: messages as f64 / (n * n * n) as f64,
    }
}

/// E2 row: outcomes under one Byzantine-General strategy.
#[derive(Debug, Clone)]
pub struct E2Row {
    /// Strategy name.
    pub strategy: &'static str,
    /// Seeds run.
    pub runs: usize,
    /// Runs in which at least one correct node decided.
    pub decide_runs: usize,
    /// Runs in which all correct nodes aborted or stayed silent.
    pub quiet_runs: usize,
    /// Maximum decision skew observed within an execution.
    pub max_decision_skew: Duration,
    /// Property violations (must be empty).
    pub violations: Vec<String>,
}

/// Runs E2 for one named Byzantine-General strategy factory.
#[must_use]
pub fn e2_byzantine_general(
    strategy: &'static str,
    n: usize,
    f: usize,
    seeds: u64,
    make: &dyn Fn(u64, &ssbyz_core::Params) -> crate::scenario::ScenarioProcess,
) -> E2Row {
    let mut decide_runs = 0usize;
    let mut quiet_runs = 0usize;
    let mut max_skew = Duration::ZERO;
    let mut violations = Violations::default();
    for seed in 0..seeds {
        let cfg = ScenarioConfig::new(n, f).with_seed(seed);
        let params = cfg.params().expect("valid");
        let mut b = ScenarioBuilder::new(cfg).byzantine(make(seed, &params));
        for _ in 1..n {
            b = b.correct();
        }
        let mut sc = b.build();
        sc.run_until(RealTime::ZERO + params.delta_agr() * 2u64 + params.d() * 60u64);
        let res = sc.result();
        let g = NodeId::new(0);
        violations.extend(checks::check_byzantine_general_run(&res, g));
        if res.decides_for(g).is_empty() {
            quiet_runs += 1;
        } else {
            decide_runs += 1;
            for cluster in checks::executions(&res, g) {
                let decides: Vec<_> = cluster.iter().filter(|r| r.value.is_some()).collect();
                for a in &decides {
                    for b2 in &decides {
                        max_skew = max_skew.max(a.real_at.abs_diff(b2.real_at));
                    }
                }
            }
        }
    }
    E2Row {
        strategy,
        runs: seeds as usize,
        decide_runs,
        quiet_runs,
        max_decision_skew: max_skew,
        violations: violations.0,
    }
}

/// E3 row: termination bound per scenario family.
#[derive(Debug, Clone)]
pub struct E3Row {
    /// Scenario family name.
    pub scenario: &'static str,
    /// Total returns observed.
    pub returns: usize,
    /// Maximum `rt(τq) − rt(τ_G^q)` observed.
    pub max_running_time: Duration,
    /// The bound `Δ_agr` (plus the +8d allowance for non-invoked nodes).
    pub bound: Duration,
}

/// Runs E3 over fault-free and silent-fault scenarios.
#[must_use]
pub fn e3_termination(n: usize, f: usize, seeds: u64) -> Vec<E3Row> {
    use ssbyz_adversary::SilentNode;
    let mut rows = Vec::new();
    // Fault-free family.
    let mut max_rt = Duration::ZERO;
    let mut count = 0usize;
    let mut bound = Duration::ZERO;
    for seed in 0..seeds {
        let (res, _) = run_correct_general(
            n,
            f,
            seed,
            Duration::from_micros(500),
            Duration::from_millis(9),
            11,
        );
        bound = res.params.delta_agr() + res.params.d() * 8u64;
        for rec in res.decisions.iter().filter(|r| r.general == NodeId::new(0)) {
            max_rt = max_rt.max(rec.real_at.saturating_since(rec.tau_g_real));
            count += 1;
        }
    }
    rows.push(E3Row {
        scenario: "fault-free",
        returns: count,
        max_running_time: max_rt,
        bound,
    });
    // Max silent faults family.
    let mut max_rt = Duration::ZERO;
    let mut count = 0usize;
    for seed in 0..seeds {
        let cfg = ScenarioConfig::new(n, f).with_seed(seed);
        let params = cfg.params().expect("valid");
        let off = params.d() * 4u64;
        let mut b = ScenarioBuilder::new(cfg).correct_general(off, 12);
        for i in 1..n {
            if i >= n - f {
                b = b.byzantine(Box::new(SilentNode));
            } else {
                b = b.correct();
            }
        }
        let mut sc = b.build();
        sc.run_until(RealTime::ZERO + params.delta_agr() * 2u64 + params.d() * 60u64);
        let res = sc.result();
        for rec in res.decisions.iter().filter(|r| r.general == NodeId::new(0)) {
            max_rt = max_rt.max(rec.real_at.saturating_since(rec.tau_g_real));
            count += 1;
        }
    }
    rows.push(E3Row {
        scenario: "f silent faults",
        returns: count,
        max_running_time: max_rt,
        bound,
    });
    rows
}

/// E7 row: Initiator-Accept bounds for one `(n, f)`.
#[derive(Debug, Clone)]
pub struct E7Row {
    /// Membership size.
    pub n: usize,
    /// Fault budget.
    pub f: usize,
    /// Seeds run.
    pub runs: usize,
    /// Max accept latency from `t0` (bound: 4d).
    pub max_accept_latency: Duration,
    /// Max accept skew between correct nodes (bound: 2d).
    pub max_accept_skew: Duration,
    /// Max anchor skew between correct nodes (bound: d).
    pub max_anchor_skew: Duration,
    /// `d` for reference.
    pub d: Duration,
    /// Violations (must be empty).
    pub violations: Vec<String>,
}

/// Runs E7: [IA-1A..1D] measured on correct-General runs.
#[must_use]
pub fn e7_ia_bounds(n: usize, f: usize, seeds: u64) -> E7Row {
    let mut max_lat = Duration::ZERO;
    let mut max_skew = Duration::ZERO;
    let mut max_anchor = Duration::ZERO;
    let mut violations = Violations::default();
    let mut d_ref = Duration::ZERO;
    for seed in 0..seeds {
        let (res, t0) = run_correct_general(
            n,
            f,
            seed,
            Duration::from_micros(500),
            Duration::from_millis(9),
            21,
        );
        let d = res.params.d();
        d_ref = d;
        violations.extend(checks::check_ia_correctness(
            &res,
            NodeId::new(0),
            t0,
            slack(d),
        ));
        let accepts: Vec<_> = res
            .iaccepts
            .iter()
            .filter(|r| r.general == NodeId::new(0))
            .collect();
        for a in &accepts {
            max_lat = max_lat.max(a.real_at.saturating_since(t0));
            for b in &accepts {
                max_skew = max_skew.max(a.real_at.abs_diff(b.real_at));
                max_anchor = max_anchor.max(a.tau_g_real.abs_diff(b.tau_g_real));
            }
        }
    }
    E7Row {
        n,
        f,
        runs: seeds as usize,
        max_accept_latency: max_lat,
        max_accept_skew: max_skew,
        max_anchor_skew: max_anchor,
        d: d_ref,
        violations: violations.0,
    }
}

/// E8 row: unforgeability under echo/IA forgers.
#[derive(Debug, Clone)]
pub struct E8Row {
    /// Seeds run.
    pub runs: usize,
    /// Decisions on values only ever "vouched for" by forgers (must be 0).
    pub forged_decisions: usize,
    /// I-accepts of forged (never-initiated) values (must be 0).
    pub forged_accepts: usize,
    /// Correct-General agreements that still completed despite the noise.
    pub clean_completions: usize,
}

/// Runs E8: f forgers attack General 0's instance while a *different*
/// correct General (node 1) runs a legitimate agreement.
#[must_use]
pub fn e8_unforgeability(n: usize, f: usize, seeds: u64) -> E8Row {
    use ssbyz_adversary::{EchoForger, IaForger};
    const FORGED: u64 = 666;
    const LEGIT: u64 = 7;
    let mut forged_decisions = 0usize;
    let mut forged_accepts = 0usize;
    let mut clean = 0usize;
    for seed in 0..seeds {
        let cfg = ScenarioConfig::new(n, f).with_seed(seed);
        let params = cfg.params().expect("valid");
        let off = params.d() * 6u64;
        // Node 0: IA forger claiming General 1 initiated FORGED.
        // Node n−1 (if f ≥ 2): echo forger for a phantom broadcast.
        let mut b = ScenarioBuilder::new(cfg).byzantine(Box::new(IaForger::new(
            NodeId::new(1),
            FORGED,
            params.d() / 2,
        )));
        for i in 1..n {
            if i == 1 {
                b = b.correct_general(off, LEGIT);
            } else if i == n - 1 && f >= 2 {
                b = b.byzantine(Box::new(EchoForger::new(
                    NodeId::new(1),
                    NodeId::new(2),
                    FORGED,
                    1,
                    params.d() / 2,
                )));
            } else {
                b = b.correct();
            }
        }
        let mut sc = b.build();
        sc.run_until(RealTime::ZERO + params.delta_agr() * 2u64 + params.d() * 60u64);
        let res = sc.result();
        forged_accepts += res.iaccepts.iter().filter(|r| r.value == FORGED).count();
        forged_decisions += res
            .decisions
            .iter()
            .filter(|r| r.value == Some(FORGED))
            .count();
        let legit_decides = res
            .decides_for(NodeId::new(1))
            .iter()
            .filter(|r| r.value == Some(LEGIT))
            .count();
        if legit_decides == res.correct.len() {
            clean += 1;
        }
    }
    E8Row {
        runs: seeds as usize,
        forged_decisions,
        forged_accepts,
        clean_completions: clean,
    }
}

/// E9 row: separation under a spamming General.
#[derive(Debug, Clone)]
pub struct E9Row {
    /// Seeds run.
    pub runs: usize,
    /// Total I-accepts by correct nodes.
    pub accepts: usize,
    /// Minimum anchor gap between distinct-value accepts (bound: > 4d).
    pub min_distinct_gap: Option<Duration>,
    /// Violations of [IA-4] (must be empty).
    pub violations: Vec<String>,
}

/// Runs E9: a General spamming values far beyond the allowed rate.
#[must_use]
pub fn e9_separation(n: usize, f: usize, seeds: u64) -> E9Row {
    use ssbyz_adversary::SpamGeneral;
    let mut accepts = 0usize;
    let mut min_gap: Option<Duration> = None;
    let mut violations = Violations::default();
    for seed in 0..seeds {
        let cfg = ScenarioConfig::new(n, f).with_seed(seed);
        let params = cfg.params().expect("valid");
        let mut b = ScenarioBuilder::new(cfg).byzantine(Box::new(SpamGeneral::new(
            vec![1, 2, 3, 4, 5, 6, 7, 8],
            params.d() * 2u64,
        )));
        for _ in 1..n {
            b = b.correct();
        }
        let mut sc = b.build();
        sc.run_until(RealTime::ZERO + params.delta_rmv() * 2u64);
        let res = sc.result();
        let g = NodeId::new(0);
        violations.extend(checks::check_separation(&res, g));
        violations.extend(checks::check_agreement(&res, g));
        let recs: Vec<_> = res.iaccepts.iter().filter(|r| r.general == g).collect();
        accepts += recs.len();
        for (i, a) in recs.iter().enumerate() {
            for b2 in recs.iter().skip(i + 1) {
                if a.value != b2.value {
                    let gap = a.tau_g_real.abs_diff(b2.tau_g_real);
                    min_gap = Some(match min_gap {
                        Some(m) => m.min(gap),
                        None => gap,
                    });
                }
            }
        }
    }
    E9Row {
        runs: seeds as usize,
        accepts,
        min_distinct_gap: min_gap,
        violations: violations.0,
    }
}

/// The seed count the E1–E11 tables render with unless told otherwise:
/// what `examples/experiments` prints by default and
/// `tests/recorded_traces.rs` folds.
pub const TABLE_SEEDS: u64 = 5;

/// One reproduction table: its name (`e1` … `e11`), the most seeds its
/// runtime allows, and its renderer.
pub struct Table {
    /// The table's name, `e1` … `e11`.
    pub name: &'static str,
    max_seeds: u64,
    render: fn(u64) -> String,
}

impl Table {
    /// The table as markdown over `seeds` seeds (capped by what its
    /// runtime allows): a blank line, a `##` heading, a blank line, then
    /// the header, separator and one line per row.
    #[must_use]
    pub fn render(&self, seeds: u64) -> String {
        (self.render)(seeds.min(self.max_seeds))
    }
}

/// Every table, in order.
pub const TABLES: [Table; 11] = [
    table("e1", u64::MAX, e1),
    table("e2", u64::MAX, e2),
    table("e3", u64::MAX, e3),
    table("e4", u64::MAX, e4),
    table("e5", u64::MAX, e5),
    table("e6", 5, e6),
    table("e7", u64::MAX, e7),
    table("e8", u64::MAX, e8),
    table("e9", 3, e9),
    table("e10", u64::MAX, |_| e10()),
    table("e11", 3, e11),
];

const fn table(name: &'static str, max_seeds: u64, render: fn(u64) -> String) -> Table {
    Table {
        name,
        max_seeds,
        render,
    }
}

/// Formats a duration as a multiple of `d` plus absolute value.
fn in_d(x: Duration, d: Duration) -> String {
    if d.is_zero() {
        return format!("{x}");
    }
    let ratio = x.as_nanos() as f64 / d.as_nanos() as f64;
    format!("{ratio:.2}d ({x})")
}

/// A table's `##` heading, its header row (`cols`, cells split by ` | `)
/// and the separator row.
fn heading(title: &str, cols: &str) -> String {
    let sep = vec!["---"; cols.split(" | ").count()].join("|");
    format!("\n## {title}\n\n| {cols} |\n|{sep}|\n")
}

/// Appends one line per violation.
fn violation_lines<'a>(out: &mut String, violations: impl IntoIterator<Item = &'a String>) {
    for v in violations {
        *out += &format!("  VIOLATION: {v}\n");
    }
}

fn e1(seeds: u64) -> String {
    let mut out = heading(
        "E1 — Validity + Timeliness-2 (correct General)",
        "n | f | runs | max decide skew (≤2d) | max anchor skew (≤d) | max latency (≤4d) | violations",
    );
    let sizes = [
        (4, 1),
        (7, 2),
        (10, 3),
        (13, 4),
        (16, 5),
        (19, 6),
        (25, 8),
        (31, 10),
    ];
    for (n, f) in sizes {
        let r = e1_validity(n, f, seeds);
        let d = r.latency_bound / 4;
        let skew = in_d(r.max_decision_skew, d);
        let anchor = in_d(r.max_anchor_skew, d);
        let latency = in_d(r.max_latency, d);
        let (runs, violations) = (r.runs, r.violations.len());
        out += &format!("| {n} | {f} | {runs} | {skew} | {anchor} | {latency} | {violations} |\n");
        violation_lines(&mut out, &r.violations);
    }
    out
}

fn e2(seeds: u64) -> String {
    use ssbyz_adversary::{SpamGeneral, StaggeredGeneral, TwoFacedGeneral};
    let mut out = heading(
        "E2 — Agreement under a Byzantine General (n=7, f=2)",
        "strategy | runs | decide runs | quiet runs | max decide skew (≤3d) | violations",
    );
    let (n, f) = (7, 2);
    let rows = [
        e2_byzantine_general("two-faced (split 3/3)", n, f, seeds, &|_, p| {
            let targets = (1..4).map(NodeId::new).collect();
            Box::new(TwoFacedGeneral::new(100, 200, targets, p))
        }),
        e2_byzantine_general("two-faced (split 1/5)", n, f, seeds, &|_, p| {
            Box::new(TwoFacedGeneral::new(100, 200, vec![NodeId::new(1)], p))
        }),
        e2_byzantine_general(
            "staggered (same value, 10d spread)",
            n,
            f,
            seeds,
            &|_, p| Box::new(StaggeredGeneral::new(300, p.d() * 2u64, p.d() * 10u64)),
        ),
        e2_byzantine_general("spam (5 values, every 2d)", n, f, seeds, &|_, p| {
            Box::new(SpamGeneral::new(vec![1, 2, 3, 4, 5], p.d() * 2u64))
        }),
    ];
    let d = Duration::from_micros(10_001); // d of the default config
    for r in rows {
        let (strategy, runs, decide, quiet) = (r.strategy, r.runs, r.decide_runs, r.quiet_runs);
        let (skew, violations) = (in_d(r.max_decision_skew, d), r.violations.len());
        out += &format!("| {strategy} | {runs} | {decide} | {quiet} | {skew} | {violations} |\n");
        violation_lines(&mut out, &r.violations);
    }
    out
}

fn e3(seeds: u64) -> String {
    let mut out = heading(
        "E3 — Termination within Δ_agr (n=7, f=2)",
        "scenario | returns | max running time | bound Δ_agr+8d",
    );
    for r in e3_termination(7, 2, seeds) {
        let (scenario, returns, time, bound) = (r.scenario, r.returns, r.max_running_time, r.bound);
        out += &format!("| {scenario} | {returns} | {time} | {bound} |\n");
    }
    out
}

fn e4(seeds: u64) -> String {
    let mut out = heading(
        "E4 — O(f′) early stopping (n=13, f=4)",
        "f′ | ours (mean completion) | lock-step baseline | bound Δ_agr",
    );
    for fa in 0..=4 {
        let r = e4_early_stopping(13, 4, fa, seeds);
        let (ours, baseline, bound) = (r.ours, r.baseline, r.bound);
        out += &format!("| {fa} | {ours} | {baseline} | {bound} |\n");
    }
    out
}

fn e5(seeds: u64) -> String {
    let mut out = heading(
        "E5 — Message-driven rounds vs lock-step (n=7, f=2)",
        "δ_act / δ | ours (mean completion) | baseline | speedup",
    );
    for pct in [1, 2, 5, 10, 25, 50, 75, 100] {
        let r = e5_message_driven(7, 2, pct, seeds);
        let (ours, baseline) = (r.ours, r.baseline);
        let speedup = if ours.is_zero() {
            "∞".to_string()
        } else {
            format!(
                "{:.1}x",
                baseline.as_nanos() as f64 / ours.as_nanos() as f64
            )
        };
        out += &format!("| {pct}% | {ours} | {baseline} | {speedup} |\n");
    }
    out
}

fn e6(seeds: u64) -> String {
    let mut out = heading(
        "E6 — Convergence from arbitrary state",
        "n | f | runs | converged | settle granted | bound Δ_stb",
    );
    for (n, f) in [(4, 1), (7, 2)] {
        let r = e6_convergence(n, f, seeds, 90);
        let (runs, converged, settle, bound) = (r.runs, r.converged, r.settle, r.delta_stb);
        out += &format!("| {n} | {f} | {runs} | {converged} | {settle} | {bound} |\n");
        violation_lines(&mut out, r.violations.iter().take(5));
    }
    out
}

fn e7(seeds: u64) -> String {
    let mut out = heading(
        "E7 — Initiator-Accept bounds [IA-1]",
        "n | f | runs | max accept latency (≤4d) | max accept skew (≤2d) | max anchor skew (≤d) | violations",
    );
    for (n, f) in [(4, 1), (7, 2), (13, 4), (19, 6), (31, 10)] {
        let r = e7_ia_bounds(n, f, seeds);
        let latency = in_d(r.max_accept_latency, r.d);
        let skew = in_d(r.max_accept_skew, r.d);
        let anchor = in_d(r.max_anchor_skew, r.d);
        let (runs, violations) = (r.runs, r.violations.len());
        out += &format!("| {n} | {f} | {runs} | {latency} | {skew} | {anchor} | {violations} |\n");
    }
    out
}

fn e8(seeds: u64) -> String {
    let mut out = heading(
        "E8 — Unforgeability [IA-2] / [TPS-2]",
        "n | f | runs | forged accepts | forged decisions | clean completions",
    );
    for (n, f) in [(4, 1), (7, 2)] {
        let r = e8_unforgeability(n, f, seeds);
        let (runs, accepts, decisions) = (r.runs, r.forged_accepts, r.forged_decisions);
        let clean = r.clean_completions;
        out += &format!("| {n} | {f} | {runs} | {accepts} | {decisions} | {clean} |\n");
    }
    out
}

fn e9(seeds: u64) -> String {
    let mut out = heading(
        "E9 — Uniqueness / separation [IA-4] under spam (n=7, f=2)",
        "runs | I-accepts | min distinct-value anchor gap (>4d) | violations",
    );
    let r = e9_separation(7, 2, seeds);
    let gap = r
        .min_distinct_gap
        .map_or("n/a".to_string(), |g| g.to_string());
    let (runs, accepts, violations) = (r.runs, r.accepts, r.violations.len());
    out += &format!("| {runs} | {accepts} | {gap} | {violations} |\n");
    violation_lines(&mut out, r.violations.iter().take(5));
    out
}

fn e10() -> String {
    let mut out = heading(
        "E10 — Pulse synchronization atop ss-Byz-Agree",
        "n | f | waves | full waves | max pulse skew | d",
    );
    let d = Duration::from_millis(10);
    for (n, f) in [(4, 1), (7, 2)] {
        let r = crate::pulse::run_pulse(n, f, d, 5, 7);
        let (waves, full, skew) = (r.waves.len(), r.full_waves(n).len(), r.max_skew(n));
        out += &format!("| {n} | {f} | {waves} | {full} | {skew} | {d} |\n");
    }
    out
}

fn e11(seeds: u64) -> String {
    let mut out = heading(
        "E11 — Message complexity (per agreement)",
        "n | f | messages | messages / n² | messages / n³",
    );
    for (n, f) in [(4, 1), (7, 2), (10, 3), (13, 4), (19, 6), (25, 8)] {
        let r = e11_message_complexity(n, f, seeds);
        let (messages, per_n2, per_n3) = (r.messages, r.per_n2, r.per_n3);
        out += &format!("| {n} | {f} | {messages} | {per_n2:.1} | {per_n3:.2} |\n");
    }
    out
}
