//! Property-based fault-injection tests: across randomized mid-run fault
//! schedules — always including at least one live state scramble — the
//! system re-converges and a probe agreement passes the full property
//! battery within the paper's stabilization bound (Corollary 5).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssbyz::harness::experiments::{filter_window, slack};
use ssbyz::harness::faults::{campaign_settle, Fault, FaultSchedule};
use ssbyz::harness::{checks, ScenarioBuilder, ScenarioConfig};
use ssbyz::{Duration, NodeId, RealTime};

const PROBE_VALUE: u64 = 42;

/// Builds a randomized burst at `at`: one guaranteed scramble plus an
/// independent coin-flip mix of crash, healing partition, forward clock
/// jump and link congestion — all targeting non-probe nodes (1..n) and
/// all over (outages ended, cuts healed, congestion drained) within
/// `settle / 2`, so only *state* residue is left for the probe to face.
fn random_burst(
    rng: &mut StdRng,
    n: usize,
    at: RealTime,
    settle: Duration,
    d: Duration,
) -> FaultSchedule {
    let victim = |rng: &mut StdRng| NodeId::new(rng.gen_range(1..n as u32));
    let mut s = FaultSchedule::new().at(at, Fault::Scramble { node: victim(rng) });
    if rng.gen_ratio(1, 2) {
        let down_for = Duration::from_nanos(rng.gen_range(1..(settle / 2).as_nanos()));
        s = s.at(
            at + d,
            Fault::Crash {
                node: victim(rng),
                down_for,
            },
        );
    }
    if rng.gen_ratio(1, 2) {
        let cut = victim(rng);
        let rest: Vec<NodeId> = (0..n as u32)
            .map(NodeId::new)
            .filter(|v| *v != cut)
            .collect();
        s = s.at(
            at,
            Fault::Partition {
                groups: vec![rest, vec![cut]],
                heal_after: Some(Duration::from_nanos(
                    rng.gen_range(1..(settle / 3).as_nanos()),
                )),
            },
        );
    }
    if rng.gen_ratio(1, 3) {
        s = s.at(
            at + d * 2u64,
            Fault::ClockJump {
                node: victim(rng),
                jump: Duration::from_nanos(rng.gen_range(0..(d * 50u64).as_nanos())),
                new_rate_ppm: None,
            },
        );
    }
    if rng.gen_ratio(1, 3) {
        s = s.at(
            at,
            Fault::DelayInflation {
                num: 2,
                den: 1,
                lasts: settle / 4,
            },
        );
    }
    s
}

/// Runs one random schedule against an (n=4, f=1) membership and checks
/// the probe agreement. Returns the probe battery plus the latest
/// correct-node decision offset from the burst.
fn run_one(seed: u64) -> (checks::Violations, Duration, ssbyz::core::Params) {
    let n = 4;
    let cfg = ScenarioConfig::new(n, 1).with_seed(seed);
    let params = cfg.params().expect("valid");
    let d = params.d();
    let settle = campaign_settle(&params);
    let burst_at = RealTime::ZERO + d * 10u64;
    let probe_off = d * 10u64 + settle;

    let mut b = ScenarioBuilder::new(cfg).correct_general(probe_off, PROBE_VALUE);
    for _ in 1..n {
        b = b.correct();
    }
    let mut sc = b.build();
    let clock0 = sc.sim().clock(NodeId::new(0));
    let t0 = clock0.real_of_local(clock0.local_at(RealTime::ZERO) + probe_off);

    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17_5EED);
    let schedule = random_burst(&mut rng, n, burst_at, settle, d);
    sc.run_until(burst_at);
    sc.run_with_faults(&schedule, t0 + params.delta_agr() + d * 14u64, &mut rng);

    let res = sc.result();
    let probe = filter_window(&res, t0 - d * 2u64, t0 + params.delta_agr() + d * 10u64);
    let battery =
        checks::check_correct_general_run(&probe, NodeId::new(0), PROBE_VALUE, t0, slack(d));
    let latest = probe
        .decisions
        .iter()
        .filter(|r| res.correct.contains(&r.node))
        .map(|r| r.real_at.saturating_since(burst_at))
        .max()
        .unwrap_or(Duration::MAX);
    (battery, latest, params)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn random_fault_schedules_reconverge(seed in 0u64..1_000_000) {
        let (battery, latest, params) = run_one(seed);
        prop_assert!(
            battery.is_ok(),
            "seed {seed}: probe violated properties: {:?}",
            battery.0
        );
        // Paper bound: from the burst, the system stabilizes within
        // Δ_stb and the next agreement returns within Δ_agr of its
        // invocation — our probe (settle < Δ_stb, decisions ≤ 4d after
        // t0) sits strictly inside that envelope.
        prop_assert!(
            latest <= params.delta_stb() + params.delta_agr(),
            "seed {seed}: latest decision {latest} exceeds Δ_stb + Δ_agr"
        );
    }
}

/// Same seed ⇒ identical run, including the fault injections (the whole
/// campaign pipeline is replayable).
#[test]
fn fault_schedules_are_deterministic() {
    let a = run_one(77);
    let b = run_one(77);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
}
