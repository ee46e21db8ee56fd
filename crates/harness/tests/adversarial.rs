//! Adversarial end-to-end scenarios: Byzantine Generals, early stopping,
//! convergence from arbitrary state.

use ssbyz_adversary::{EchoForger, SilentNode, SpamGeneral, TwoFacedGeneral};
use ssbyz_harness::experiments::{e4_early_stopping, e5_message_driven, e6_convergence};
use ssbyz_harness::{checks, Driver, ScenarioBuilder, ScenarioConfig};
use ssbyz_types::{Duration, NodeId, RealTime};

#[test]
fn two_faced_general_never_splits_agreement() {
    for seed in 0..5 {
        let cfg = ScenarioConfig::new(7, 2).with_seed(seed);
        let params = cfg.params().unwrap();
        let side_a: Vec<NodeId> = (1..4).map(NodeId::new).collect();
        let general = TwoFacedGeneral::new(NodeId::new(0), 100, 200, side_a, &params);
        let mut b = ScenarioBuilder::new(cfg).byzantine(Box::new(Driver::bare(general, cfg.tick)));
        for _ in 1..7 {
            b = b.correct();
        }
        let mut sc = b.build();
        sc.run_until(RealTime::ZERO + params.delta_agr() * 2u64 + params.d() * 40u64);
        let res = sc.result();
        checks::check_byzantine_general_run(&res, NodeId::new(0))
            .assert_ok(&format!("two-faced general seed {seed}"));
    }
}

/// A Byzantine node crashed across its strike instant strikes again once
/// it is back: the driver re-ticks it on recovery, and its cadence runs
/// on from there.
#[test]
fn crashed_strategy_resumes_its_cadence_after_recovery() {
    let cfg = ScenarioConfig::new(4, 1).with_seed(1);
    let period = Duration::from_millis(5);
    let forger = EchoForger::new(NodeId::new(1), NodeId::new(2), 666, 1, period);
    let mut b = ScenarioBuilder::new(cfg)
        .ideal_clocks()
        .byzantine(Box::new(Driver::bare(forger, cfg.tick)));
    for _ in 1..4 {
        b = b.byzantine(Box::new(Driver::bare(SilentNode::default(), cfg.tick)));
    }
    let mut sc = b.build();
    let ms = |ms: u64| RealTime::ZERO + Duration::from_millis(ms);
    sc.run_until(ms(2));
    sc.sim_mut()
        .crash_node(NodeId::new(0), Duration::from_millis(10));
    sc.run_until(ms(11));
    assert_eq!(sc.sim().metrics().sent, 0, "down across its 5 ms strike");
    sc.run_until(ms(30));
    // Strikes at 12 ms (the recovery tick), 17, 22 and 27 ms: three
    // broadcasts to four nodes each.
    assert_eq!(sc.sim().metrics().sent, 4 * 3 * 4);
}

#[test]
fn spam_general_respects_separation() {
    for seed in 0..3 {
        let cfg = ScenarioConfig::new(7, 2).with_seed(seed);
        let params = cfg.params().unwrap();
        let general = SpamGeneral::new(
            NodeId::new(0),
            vec![1, 2, 3, 4, 5],
            params.d() * 2u64, // way below Δ0 = 13d
        );
        let mut b = ScenarioBuilder::new(cfg).byzantine(Box::new(Driver::bare(general, cfg.tick)));
        for _ in 1..7 {
            b = b.correct();
        }
        let mut sc = b.build();
        sc.run_until(RealTime::ZERO + params.delta_rmv() * 2u64);
        let res = sc.result();
        checks::check_agreement(&res, NodeId::new(0))
            .assert_ok(&format!("spam general agreement seed {seed}"));
        checks::check_separation(&res, NodeId::new(0))
            .assert_ok(&format!("spam general separation seed {seed}"));
    }
}

#[test]
fn early_stopping_scales_with_actual_faults() {
    // n=13, f=4 budget: completion should grow with f′ and stay well
    // under the worst case for f′ = 0.
    let r0 = e4_early_stopping(13, 4, 0, 2);
    let r4 = e4_early_stopping(13, 4, 4, 2);
    assert!(
        r0.ours < r4.ours || r4.ours.is_zero(),
        "f'=0 ({:?}) should finish no later than f'=4 ({:?})",
        r0.ours,
        r4.ours
    );
    assert!(
        r0.ours <= r0.bound,
        "fault-free completion {:?} within Δ_agr {:?}",
        r0.ours,
        r0.bound
    );
}

#[test]
fn message_driven_beats_lockstep_on_fast_networks() {
    let fast = e5_message_driven(7, 2, 5, 2); // actual delay = 5% of δ
    assert!(
        fast.ours < fast.baseline,
        "ours {:?} must beat baseline {:?} on a fast network",
        fast.ours,
        fast.baseline
    );
    // And the gap should be large — paper: progresses at network speed.
    assert!(fast.ours * 3u64 < fast.baseline);
}

#[test]
fn convergence_from_arbitrary_state() {
    let row = e6_convergence(4, 1, 3, 90);
    assert_eq!(
        row.converged, row.runs,
        "all runs must converge within Δ_stb: {:?}",
        row.violations
    );
}

#[test]
fn silent_faults_still_decide() {
    let cfg = ScenarioConfig::new(7, 2).with_seed(3);
    let params = cfg.params().unwrap();
    let off = params.d() * 4u64;
    let mut b = ScenarioBuilder::new(cfg).correct_general(off, 77);
    for i in 1..7 {
        if i >= 5 {
            b = b.byzantine(Box::new(Driver::bare(SilentNode::default(), cfg.tick)));
        } else {
            b = b.correct();
        }
    }
    let mut sc = b.build();
    sc.run_until(RealTime::ZERO + params.delta_agr() + params.d() * 30u64);
    let res = sc.result();
    assert_eq!(res.decided_values(NodeId::new(0)), vec![77]);
    assert_eq!(
        res.decides_for(NodeId::new(0)).len(),
        5,
        "all five correct nodes decide"
    );
    let _ = Duration::ZERO;
}
