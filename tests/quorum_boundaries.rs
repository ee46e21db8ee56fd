//! Quorum-boundary scenarios: partial initiations probing exactly where
//! the support/approve quorums flip from fizzle to completion.

use ssbyz::adversary::PartialGeneral;
use ssbyz::harness::{checks, Driver, ScenarioBuilder, ScenarioConfig};
use ssbyz::{NodeId, RealTime};

fn run_partial(targets: usize, seed: u64) -> (Vec<u64>, usize) {
    let n = 7;
    let cfg = ScenarioConfig::new(n, 2).with_seed(seed);
    let params = cfg.params().unwrap();
    let recipients: Vec<NodeId> = (1..=targets as u32).map(NodeId::new).collect();
    let general = PartialGeneral::new(NodeId::new(0), 500, recipients, params.d() * 2u64);
    let mut b = ScenarioBuilder::new(cfg).byzantine(Box::new(Driver::bare(general, cfg.tick)));
    for _ in 1..n {
        b = b.correct();
    }
    let mut sc = b.build();
    sc.run_until(RealTime::ZERO + params.delta_agr() * 2u64 + params.d() * 40u64);
    let res = sc.result();
    checks::check_byzantine_general_run(&res, NodeId::new(0))
        .assert_ok(&format!("partial to {targets}"));
    (
        res.decided_values(NodeId::new(0)),
        res.decides_for(NodeId::new(0)).len(),
    )
}

/// Initiation reaching only a weak quorum of nodes: a strong support
/// quorum can never assemble, so no approve is sent and nobody decides.
#[test]
fn below_strong_quorum_fizzles() {
    for targets in [1usize, 2, 3] {
        let (decided, _) = run_partial(targets, targets as u64);
        assert!(
            decided.is_empty(),
            "{targets} receivers must not reach agreement, got {decided:?}"
        );
    }
}

/// Initiation reaching n − f or more correct nodes: the wave completes
/// and — by the relay property — *every* correct node decides, including
/// the ones that never saw the Initiator message.
#[test]
fn at_strong_quorum_completes_everywhere() {
    for targets in [5usize, 6] {
        let (decided, deciders) = run_partial(targets, 40 + targets as u64);
        assert_eq!(decided, vec![500], "{targets} receivers");
        assert_eq!(
            deciders, 6,
            "{targets} receivers: all six correct nodes decide (relay)"
        );
    }
}

/// The boundary case (4 = n − f − 1 receivers): the support quorum
/// cannot reach n − f = 5, so the initiation must fizzle.
#[test]
fn one_below_strong_quorum_fizzles() {
    let (decided, _) = run_partial(4, 99);
    assert!(
        decided.is_empty(),
        "4 receivers < strong quorum, got {decided:?}"
    );
}
