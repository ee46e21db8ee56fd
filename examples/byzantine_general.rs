//! A two-faced Byzantine General tries to split the correct nodes between
//! two values. The Agreement property holds regardless: either nobody
//! decides, or everybody decides the same value.
//!
//! ```text
//! cargo run --example byzantine_general
//! ```

use ssbyz::adversary::TwoFacedGeneral;
use ssbyz::harness::{checks, Driver, ScenarioBuilder, ScenarioConfig};
use ssbyz::{NodeId, RealTime};

fn main() {
    for (label, side_a) in [
        ("split 3/3", (1..4).map(NodeId::new).collect::<Vec<_>>()),
        ("split 1/5", vec![NodeId::new(1)]),
        ("split 5/1", (1..6).map(NodeId::new).collect::<Vec<_>>()),
    ] {
        let cfg = ScenarioConfig::new(7, 2).with_seed(7);
        let params = cfg.params().expect("n > 3f");
        let general = TwoFacedGeneral::new(
            NodeId::new(0),
            100, // value shown to side A
            200, // value shown to side B
            side_a.clone(),
            &params,
        );
        let mut builder =
            ScenarioBuilder::new(cfg).byzantine(Box::new(Driver::bare(general, cfg.tick)));
        for _ in 1..7 {
            builder = builder.correct();
        }
        let mut scenario = builder.build();
        scenario.run_until(RealTime::ZERO + params.delta_agr() * 2u64 + params.d() * 40u64);
        let result = scenario.result();

        let decided = result.decided_values(NodeId::new(0));
        let deciders = result.decides_for(NodeId::new(0)).len();
        let aborts = result.aborts_for(NodeId::new(0)).len();
        println!("two-faced General, {label}:");
        println!("  decided values: {decided:?} ({deciders} deciders, {aborts} aborts)");
        checks::check_byzantine_general_run(&result, NodeId::new(0))
            .assert_ok("agreement must hold");
        match decided.len() {
            0 => println!("  ⇒ the attack fizzled: no correct node decided\n"),
            1 => println!(
                "  ⇒ all correct nodes that returned a value agree on {}\n",
                decided[0]
            ),
            _ => unreachable!("checker would have caught a split"),
        }
    }
}
