//! Self-stabilization integration tests: convergence from arbitrary
//! state, decay of corrupted state without a reboot, and storm survival.

use ssbyz::core::{Engine, Outbox, Params};
use ssbyz::harness::experiments::{e6_convergence, filter_window, slack};
use ssbyz::harness::{checks, ScenarioBuilder, ScenarioConfig};
use ssbyz::simnet::StormConfig;
use ssbyz::{Duration, LocalTime, NodeId, RealTime};

/// The headline claim (Corollary 5): from arbitrary state + storm, the
/// system converges within Δ_stb and the next agreement is fully correct.
#[test]
fn convergence_matrix() {
    for (n, f) in [(4, 1), (7, 2)] {
        let row = e6_convergence(n, f, 4, 90);
        assert_eq!(
            row.converged, row.runs,
            "n={n}, f={f}: {:?}",
            row.violations
        );
        assert!(row.settle <= row.delta_stb, "settle must be within Δ_stb");
    }
}

/// Scrambled state decays via cleanup alone: after 2·Δ_rmv of quiet ticks
/// a scrambled engine accepts a fresh agreement exactly like a clean one.
#[test]
fn scrambled_engine_decays_without_reboot() {
    let cfg = ScenarioConfig::new(4, 1).with_seed(21);
    let params = cfg.params().unwrap();
    let quiet = params.delta_rmv() * 2u64 + params.d() * 20u64;
    let off = quiet + params.d() * 4u64;
    let mut b = ScenarioBuilder::new(cfg).scrambled_general(off, 77);
    for _ in 1..4 {
        b = b.scrambled();
    }
    let mut sc = b.build();
    let t0 = sc
        .sim()
        .clock(NodeId::new(0))
        .real_of_local(sc.sim().clock(NodeId::new(0)).local_at(RealTime::ZERO) + off);
    sc.run_until(t0 + params.delta_agr() + params.d() * 30u64);
    let res = sc.result();
    let probe = filter_window(
        &res,
        t0 - params.d() * 2u64,
        t0 + params.delta_agr() + params.d() * 10u64,
    );
    checks::check_correct_general_run(&probe, NodeId::new(0), 77, t0, slack(params.d()))
        .assert_ok("post-decay agreement");
}

/// During the storm anything goes; the checkers only apply afterwards.
/// This test verifies the system doesn't wedge even under a long, heavy
/// storm with spurious traffic.
#[test]
fn survives_long_heavy_storm() {
    let cfg = ScenarioConfig::new(4, 1).with_seed(33);
    let params = cfg.params().unwrap();
    let storm_len = params.delta_rmv() * 2u64;
    let storm_end = RealTime::ZERO + storm_len;
    let off = storm_len + params.delta_stb();
    let mut b = ScenarioBuilder::new(cfg)
        .storm(StormConfig::heavy(
            storm_end,
            params.d() * 8u64,
            params.d() / 8,
        ))
        .scrambled_general(off, 3);
    for _ in 1..4 {
        b = b.scrambled();
    }
    let mut sc = b.build();
    let t0 = sc
        .sim()
        .clock(NodeId::new(0))
        .real_of_local(sc.sim().clock(NodeId::new(0)).local_at(RealTime::ZERO) + off);
    sc.run_until(t0 + params.delta_agr() + params.d() * 40u64);
    let res = sc.result();
    let probe = filter_window(
        &res,
        t0 - params.d() * 2u64,
        t0 + params.delta_agr() + params.d() * 10u64,
    );
    checks::check_validity(&probe, NodeId::new(0), 3).assert_ok("post-storm validity");
    assert!(
        res.metrics.injected > 0,
        "the storm must have injected junk"
    );
}

/// A doubly scrambled engine keeps functioning (no panic across heavy
/// tick/cleanup cycles) and decays to dormant without a reboot.
#[test]
fn scramble_decays_to_dormant() {
    let params = Params::from_d(4, 1, Duration::from_millis(10), 0).unwrap();
    let mut engine: Engine<u64> = Engine::new(NodeId::new(1), params);
    let mut word = 0x1234_5678_9abc_def0u64;
    let mut entropy = move || {
        word ^= word << 13;
        word ^= word >> 7;
        word ^= word << 17;
        word
    };
    let now = LocalTime::from_nanos(500_000_000_000);
    for _ in 0..2 {
        engine.scramble(now, &mut entropy, &mut |e| {
            ssbyz::core::Entropy::below(e, 16)
        });
    }
    // Tick well past every decay horizon.
    let mut t = now;
    let mut ob = Outbox::new();
    for _ in 0..600 {
        t += params.d();
        engine.on_tick(t, &mut ob);
    }
    // All bogus I-accept candidates and guards must be gone.
    for g in 0..4u32 {
        if let Some(ia) = engine.ia(NodeId::new(g)) {
            assert!(!ia.any_i_value(), "i_values must decay for G={g}");
            assert!(ia.last_g().is_none(), "last(G) must decay for G={g}");
        }
        if let Some(agr) = engine.agreement(NodeId::new(g)) {
            assert!(agr.tau_g().is_none(), "anchors must decay for G={g}");
            assert!(!agr.has_returned(), "fake returns must decay for G={g}");
        }
    }
}

/// Transient node failure mid-agreement: a node goes down during the wave
/// and comes back — the survivors (still ≥ n − f) decide; the system
/// remains usable afterwards.
#[test]
fn node_downtime_during_agreement() {
    let cfg = ScenarioConfig::new(7, 2).with_seed(8);
    let params = cfg.params().unwrap();
    let off = params.d() * 4u64;
    let mut b = ScenarioBuilder::new(cfg).correct_general(off, 55);
    for _ in 1..7 {
        b = b.correct();
    }
    let mut sc = b.build();
    // Nodes 5, 6 sleep through the agreement window.
    let wake = RealTime::ZERO + params.delta_agr() * 2u64;
    sc.sim_mut().set_down_until(NodeId::new(5), wake);
    sc.sim_mut().set_down_until(NodeId::new(6), wake);
    sc.run_until(RealTime::ZERO + params.delta_agr() + params.d() * 30u64);
    let res = sc.result();
    let deciders = res.decides_for(NodeId::new(0)).len();
    assert!(deciders >= 5, "the 5 awake nodes decide; got {deciders}");
    assert_eq!(res.decided_values(NodeId::new(0)), vec![55]);
}
