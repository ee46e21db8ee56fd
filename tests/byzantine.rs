//! Byzantine-behavior integration tests beyond the harness suites:
//! garbage floods, forgers, staggered generals and combined attacks.

use ssbyz::adversary::{EchoForger, GarbageNode, IaForger, SilentNode, StaggeredGeneral};
use ssbyz::harness::experiments::{e8_unforgeability, slack};
use ssbyz::harness::{checks, Driver, ScenarioBuilder, ScenarioConfig};
use ssbyz::{NodeId, RealTime};

/// f garbage-flooding nodes cannot stop a correct General's agreement.
#[test]
fn garbage_flood_does_not_block_agreement() {
    for seed in 0..3 {
        let cfg = ScenarioConfig::new(7, 2).with_seed(seed);
        let params = cfg.params().unwrap();
        let off = params.d() * 6u64;
        let mut b = ScenarioBuilder::new(cfg).correct_general(off, 31);
        for i in 1..7 {
            if i >= 5 {
                let me = NodeId::new(i);
                let values = vec![1, 2, 3, 31, 99];
                let garbage =
                    GarbageNode::new(me, 7, params.d() / 4, values, params.max_round(), seed);
                b = b.byzantine(Box::new(Driver::bare(garbage, cfg.tick)));
            } else {
                b = b.correct();
            }
        }
        let mut sc = b.build();
        sc.run_until(RealTime::ZERO + params.delta_agr() * 2u64 + params.d() * 40u64);
        let res = sc.result();
        assert_eq!(
            res.decided_values(NodeId::new(0)),
            vec![31],
            "seed {seed}: garbage flood must not corrupt the decision"
        );
        assert_eq!(res.decides_for(NodeId::new(0)).len(), 5);
        checks::check_agreement(&res, NodeId::new(0)).assert_ok("agreement under flood");
    }
}

/// Unforgeability battery across memberships (E8).
#[test]
fn unforgeability_battery() {
    for (n, f) in [(4, 1), (7, 2), (10, 3)] {
        let row = e8_unforgeability(n, f, 3);
        assert_eq!(row.forged_accepts, 0, "n={n}: forged I-accepts");
        assert_eq!(row.forged_decisions, 0, "n={n}: forged decisions");
        assert_eq!(
            row.clean_completions, row.runs,
            "n={n}: the legit agreement must still complete"
        );
    }
}

/// A staggered General (same value, spread over 10d) must never split
/// agreement; with a spread defeating the support windows it fizzles.
#[test]
fn staggered_general_consistent() {
    for spread_d in [1u64, 5, 10, 20] {
        let cfg = ScenarioConfig::new(7, 2).with_seed(spread_d);
        let params = cfg.params().unwrap();
        let general = StaggeredGeneral::new(
            NodeId::new(0),
            7,
            300,
            params.d() * 2u64,
            params.d() * spread_d,
        );
        let mut b = ScenarioBuilder::new(cfg).byzantine(Box::new(Driver::bare(general, cfg.tick)));
        for _ in 1..7 {
            b = b.correct();
        }
        let mut sc = b.build();
        sc.run_until(RealTime::ZERO + params.delta_agr() * 2u64 + params.d() * 60u64);
        let res = sc.result();
        checks::check_byzantine_general_run(&res, NodeId::new(0))
            .assert_ok(&format!("staggered spread {spread_d}d"));
        let values = res.decided_values(NodeId::new(0));
        assert!(
            values.is_empty() || values == vec![300],
            "spread {spread_d}d: decided {values:?}"
        );
    }
}

/// Combined attack at full budget: one IA forger + one echo forger
/// (f = 2) against a correct General — validity must still hold.
#[test]
fn combined_forgers_at_full_budget() {
    let cfg = ScenarioConfig::new(7, 2).with_seed(4);
    let params = cfg.params().unwrap();
    let off = params.d() * 6u64;
    // Node 0: forges IA stages for a phantom initiation by node 1.
    let forger = IaForger::new(NodeId::new(1), 666, params.d() / 2);
    let mut b = ScenarioBuilder::new(cfg).byzantine(Box::new(Driver::bare(forger, cfg.tick)));
    for i in 1..7 {
        if i == 1 {
            b = b.correct_general(off, 44);
        } else if i == 6 {
            let forger = EchoForger::new(NodeId::new(1), NodeId::new(2), 666, 1, params.d() / 2);
            b = b.byzantine(Box::new(Driver::bare(forger, cfg.tick)));
        } else {
            b = b.correct();
        }
    }
    let mut sc = b.build();
    sc.run_until(RealTime::ZERO + params.delta_agr() * 2u64 + params.d() * 40u64);
    let res = sc.result();
    checks::check_validity(&res, NodeId::new(1), 44).assert_ok("validity under forgers");
    assert!(res.iaccepts.iter().all(|r| r.value != 666));
}

/// With all f faulty nodes silent the agreement completes at the same
/// speed as fault-free (the silent nodes are simply not needed).
#[test]
fn silent_budget_does_not_slow_validity_path() {
    let cfg_clean = ScenarioConfig::new(10, 3).with_seed(9);
    let params = cfg_clean.params().unwrap();
    let off = params.d() * 4u64;
    let run = |silent: usize| {
        let cfg = ScenarioConfig::new(10, 3).with_seed(9);
        let mut b = ScenarioBuilder::new(cfg).correct_general(off, 8);
        for i in 1..10 {
            if i >= 10 - silent {
                b = b.byzantine(Box::new(Driver::bare(SilentNode::default(), cfg.tick)));
            } else {
                b = b.correct();
            }
        }
        let mut sc = b.build();
        sc.run_until(RealTime::ZERO + params.delta_agr() + params.d() * 30u64);
        let res = sc.result();
        res.decides_for(NodeId::new(0))
            .iter()
            .map(|r| r.real_at)
            .max()
            .expect("decisions exist")
    };
    let clean = run(0);
    let degraded = run(3);
    // Both are on the fast R-path; allow generous jitter of 2d.
    let diff = clean.abs_diff(degraded);
    assert!(
        diff <= params.d() * 2u64,
        "silent faults shifted completion by {diff}"
    );
    let _ = slack(params.d());
}
