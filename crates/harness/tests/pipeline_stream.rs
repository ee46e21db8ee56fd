//! Replicated-state-machine checks for the slot pipeline under a
//! continuous value stream: every correct node's committed log must be
//! gap-free (no slot skipped), in slot order, and prefix-consistent
//! with every other correct node — including across a crash/recover of
//! a follower mid-stream, after the [`campaign_settle`] stabilization
//! span from the fault-campaign machinery.

use ssbyz_core::PipelineConfig;
use ssbyz_harness::faults::campaign_settle;
use ssbyz_harness::{PipelineScenario, ScenarioConfig, Workload};
use ssbyz_simnet::WaveMode;
use ssbyz_types::{Duration, NodeId, RealTime};

const TOTAL: usize = 24;

/// An n=7, f=2 cluster with node 0 proposing `workload` through a
/// `window`-slot pipeline.
fn stream(seed: u64, mode: WaveMode, window: u64, workload: Workload) -> PipelineScenario {
    let cfg = ScenarioConfig::new(7, 2).with_seed(seed);
    let params = cfg.params().unwrap();
    let pipe_cfg = PipelineConfig::new(NodeId::new(0), &params).with_window(window);
    PipelineScenario::new(&cfg, &pipe_cfg, workload, mode)
}

fn scenario(seed: u64, mode: WaveMode) -> PipelineScenario {
    // ~2.4s of client load: 24 values in batches of 3 every 100ms.
    let workload = Workload::steady(TOTAL, 3, Duration::from_millis(100));
    stream(seed, mode, 4, workload)
}

fn correct(n: u32) -> Vec<NodeId> {
    (0..n).map(NodeId::new).collect()
}

/// Fault-free stream: the full workload commits on every node, logs are
/// identical, values arrive in issue order.
#[test]
fn continuous_stream_commits_everywhere_in_order() {
    let mut s = scenario(11, WaveMode::Coalesced);
    s.run_until(RealTime::from_nanos(8_000_000_000));
    let logs = s.committed_logs();
    for (i, log) in logs.iter().enumerate() {
        assert_eq!(log.len(), TOTAL, "node {i} must commit the whole stream");
        for (slot, (got_slot, got_val)) in log.iter().enumerate() {
            assert_eq!(*got_slot, slot as u64, "node {i} skipped a slot");
            assert_eq!(*got_val, 1000 + slot as u64, "node {i} wrong value order");
        }
    }
    assert!(s.prefix_violations(&correct(7)).is_empty());
}

/// Saturating stream: 12 values arrive in batches of 8 every 10 ms —
/// faster than the 8-slot window drains, so the proposer's queue backs
/// up behind it — and still every node commits the whole stream, in
/// both wave modes.
#[test]
fn saturating_stream_commits_everywhere_in_both_wave_modes() {
    for mode in [WaveMode::Coalesced, WaveMode::PerMessage] {
        let workload = Workload::steady(12, 8, Duration::from_millis(10));
        let mut s = stream(1, mode, 8, workload);
        s.run_until(RealTime::from_nanos(8_000_000_000));
        for (i, log) in s.committed_logs().iter().enumerate() {
            assert_eq!(log.len(), 12, "{mode:?}: node {i} must commit all 12");
        }
    }
}

/// A follower crashes mid-stream and recovers: it must rejoin via
/// catch-up, end with the same gap-free log as everyone else after the
/// stabilization span, and no correct node may skip a slot.
#[test]
fn follower_crash_recover_catches_up_without_skipping_slots() {
    for seed in [3u64, 21] {
        let mut s = scenario(seed, WaveMode::Coalesced);
        let params = ScenarioConfig::new(7, 2).params().unwrap();
        // Let the stream get going, then take node 4 down for 1.5s —
        // long enough for the window to slide past it repeatedly.
        s.run_until(RealTime::from_nanos(400_000_000));
        s.sim_mut()
            .crash_node(NodeId::new(4), Duration::from_millis(1500));
        // Run to workload end plus the campaign stabilization span.
        let settle = campaign_settle(&params);
        s.run_until(RealTime::from_nanos(8_000_000_000) + settle);
        let logs = s.committed_logs();
        for (i, log) in logs.iter().enumerate() {
            assert_eq!(
                log.len(),
                TOTAL,
                "seed {seed}: node {i} must commit the whole stream (got {log:?})"
            );
            for (slot, (got_slot, _)) in log.iter().enumerate() {
                assert_eq!(
                    *got_slot, slot as u64,
                    "seed {seed}: node {i} skipped a slot"
                );
            }
        }
        let violations = s.prefix_violations(&correct(7));
        assert!(
            violations.is_empty(),
            "seed {seed}: log prefixes diverged: {violations:?}"
        );
    }
}

/// The same crash/recover stream is healthy in both wave modes, and the
/// two modes commit identical logs (the pipeline rides the coalescing
/// gate like the one-shot path does).
#[test]
fn crash_recover_stream_is_equivalent_across_wave_modes() {
    let run = |mode: WaveMode| {
        let mut s = scenario(7, mode);
        s.run_until(RealTime::from_nanos(300_000_000));
        s.sim_mut()
            .crash_node(NodeId::new(5), Duration::from_millis(800));
        s.run_until(RealTime::from_nanos(8_000_000_000));
        (s.committed_logs(), s.sim().metrics().clone())
    };
    let (logs_c, m_c) = run(WaveMode::Coalesced);
    let (logs_p, m_p) = run(WaveMode::PerMessage);
    assert_eq!(logs_c, logs_p, "committed logs diverged across wave modes");
    assert_eq!(m_c, m_p, "metrics diverged across wave modes");
    assert!(
        logs_c[0].len() == TOTAL,
        "the stream must complete: {}",
        logs_c[0].len()
    );
}
