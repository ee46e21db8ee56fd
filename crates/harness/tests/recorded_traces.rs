//! Fixed-seed traces of the simulator, recorded as its contract.
//!
//! Each named shape below runs one default-built simulation and folds
//! the `Debug` rendering of every [`Observation`] in log order, then of
//! the run's [`Metrics`], into one FNV-1a-64 value. The constants were
//! recorded at commit 077bb08 — the last tree that still carried the
//! sharded simulator, the per-node RNG streams and the per-destination
//! broadcast route — by running this file there with every constant 0
//! and copying the values the failure message lists (`docs/PERF.md`
//! § "History: the sharded simulator" has the exact steps). Any change
//! to event order, RNG draw order, batch splitting, wave drains, timer
//! bookkeeping or fault application moves at least one of them.
//!
//! The jittered and storm shapes with a crashed node and a blocked link
//! are the former `fanout_parity.rs` scenarios: at 077bb08 the batched
//! and the per-destination broadcast routes produced the same value for
//! each, so the recorded constant *is* the per-destination trace.
//!
//! To re-record after an intended behaviour change: run
//! `cargo test -p ssbyz-harness --test recorded_traces`,
//! copy the `got` values, and say in the PR why each one moved.

use std::fmt::Debug;

use ssbyz_adversary::EchoForger;
use ssbyz_core::corrupt::ScrambleConfig;
use ssbyz_core::PipelineConfig;
use ssbyz_harness::faults::campaign_settle;
use ssbyz_harness::{
    run_campaign, CampaignFamily, Fault, FaultSchedule, NodeEvent, PipelineScenario,
    RunningScenario, ScenarioBuilder, ScenarioConfig, Workload,
};
use ssbyz_simnet::{Metrics, Observation, StormConfig, WaveMode};
use ssbyz_types::{Duration, NodeId, RealTime};

/// FNV-1a, 64 bit: stable across toolchains and platforms, unlike
/// `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn line(&mut self, rendered: &str) {
        for byte in rendered.bytes().chain([b'\n']) {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The recording fold: every observation in log order, then the metrics.
fn fold<O: Debug>(observations: &[Observation<O>], metrics: &Metrics) -> u64 {
    let mut h = Fnv::new();
    for o in observations {
        h.line(&format!("{o:?}"));
    }
    h.line(&format!("{metrics:?}"));
    h.0
}

fn fold_scenario(sc: &RunningScenario) -> u64 {
    fold(sc.sim().observations(), sc.sim().metrics())
}

/// Compares every `(shape, recorded, got)` row and reports all the
/// mismatches at once, in the form the constants are written in.
fn check<S: AsRef<str>>(rows: &[(S, u64, u64)]) {
    let moved: Vec<String> = rows
        .iter()
        .filter(|(_, recorded, got)| recorded != got)
        .map(|(shape, recorded, got)| {
            format!(
                "{}: recorded {recorded:#018x}, got {got:#018x}",
                shape.as_ref()
            )
        })
        .collect();
    assert!(
        moved.is_empty(),
        "recorded traces moved:\n{}",
        moved.join("\n")
    );
}

#[derive(Clone, Copy)]
enum Links {
    /// The default `[0.5 ms, 9 ms]` uniform delays: a draw per delivery.
    Jittered,
    /// Fixed delays of this many microseconds: every calm instant is
    /// draw-free, so deliveries coalesce into waves.
    Fixed(u64),
}

fn config(seed: u64, links: Links) -> ScenarioConfig {
    let cfg = ScenarioConfig::new(7, 2).with_seed(seed);
    match links {
        Links::Jittered => cfg,
        Links::Fixed(us) => {
            cfg.with_actual_delays(Duration::from_micros(us), Duration::from_micros(us))
        }
    }
}

fn storm() -> StormConfig {
    StormConfig {
        until: RealTime::from_nanos(40_000_000),
        drop_num: 1,
        drop_den: 8,
        corrupt_num: 1,
        corrupt_den: 8,
        dup_num: 1,
        dup_den: 8,
        max_delay: Duration::from_millis(4),
        injection_period: Some(Duration::from_millis(3)),
    }
}

/// Node 0 a correct General initiating 41, six followers of which the
/// ids in `scrambled` boot from scrambled state.
fn seven_nodes(b: ScenarioBuilder, initiate_at: Duration, scrambled: &[usize]) -> RunningScenario {
    let mut b = b.correct_general(initiate_at, 41);
    for i in 1..7 {
        b = if scrambled.contains(&i) {
            b.scrambled()
        } else {
            b.correct()
        };
    }
    b.build()
}

/// One crashed node (excluded from batches at delivery) and one blocked
/// link (excluded at send), then a plain run to 400 ms.
fn run_with_down_node_and_blocked_link(mut sc: RunningScenario) -> RunningScenario {
    sc.sim_mut()
        .set_down_until(NodeId::new(6), RealTime::from_nanos(150_000_000));
    sc.sim_mut().block_link(
        NodeId::new(0),
        NodeId::new(5),
        RealTime::from_nanos(90_000_000),
    );
    sc.run_until(RealTime::from_nanos(400_000_000));
    sc
}

fn correct_general(seed: u64, links: Links) -> u64 {
    let b = ScenarioBuilder::new(config(seed, links));
    let sc = run_with_down_node_and_blocked_link(seven_nodes(b, Duration::from_millis(60), &[]));
    assert!(
        sc.sim()
            .observations()
            .iter()
            .any(|o| format!("{:?}", o.event).contains("Decided")),
        "seed {seed}: the scenario must actually decide"
    );
    fold_scenario(&sc)
}

#[test]
fn correct_general_jittered() {
    check(&[
        (
            "correct-general/jittered/seed-1",
            0x8493_a499_1799_0a9d,
            correct_general(1, Links::Jittered),
        ),
        (
            "correct-general/jittered/seed-7",
            0x0f64_c6af_930f_a40a,
            correct_general(7, Links::Jittered),
        ),
        (
            "correct-general/jittered/seed-23",
            0x5785_7176_7f31_5520,
            correct_general(23, Links::Jittered),
        ),
    ]);
}

/// The wave path: fixed links coalesce every echo round into
/// destination-major batches.
#[test]
fn correct_general_fixed_delay() {
    check(&[
        (
            "correct-general/fixed-900us/seed-2",
            0xa2fb_ced5_4ca1_27a7,
            correct_general(2, Links::Fixed(900)),
        ),
        (
            "correct-general/fixed-900us/seed-9",
            0x9b74_ca72_86e3_4373,
            correct_general(9, Links::Fixed(900)),
        ),
    ]);
}

/// The initiation goes out mid-storm, so the broadcast waves themselves
/// are dropped, corrupted and duplicated; `scrambled` followers boot
/// from arbitrary state on top.
fn storm_run(seed: u64, links: Links, scrambled: &[usize]) -> u64 {
    let b = ScenarioBuilder::new(config(seed, links)).storm(storm());
    let sc =
        run_with_down_node_and_blocked_link(seven_nodes(b, Duration::from_millis(10), scrambled));
    let m = sc.sim().metrics();
    assert!(
        m.corrupted + m.dropped + m.duplicated > 0,
        "seed {seed}: the storm must actually bite"
    );
    fold_scenario(&sc)
}

#[test]
fn storm_jittered() {
    check(&[
        (
            "storm/jittered/seed-3",
            0x8e3a_e1be_202a_9035,
            storm_run(3, Links::Jittered, &[]),
        ),
        (
            "storm/jittered/seed-12",
            0xb8d4_f079_c156_5b50,
            storm_run(12, Links::Jittered, &[]),
        ),
        (
            "storm+scrambled-boot/jittered/seed-3",
            0x04cf_91ed_afa4_a8e3,
            storm_run(3, Links::Jittered, &[3, 4]),
        ),
    ]);
}

#[test]
fn storm_fixed_delay() {
    check(&[
        (
            "storm+scrambled-boot/fixed-900us/seed-4",
            0xfcfb_f7dd_f1ed_7b51,
            storm_run(4, Links::Fixed(900), &[3, 4]),
        ),
        (
            "storm+scrambled-boot/fixed-900us/seed-18",
            0x240c_e3c7_80d4_af0c,
            storm_run(18, Links::Fixed(900), &[2, 5]),
        ),
    ]);
}

/// A mid-run burst touching every fault arm the campaign uses: a live
/// state scramble, a crash with recovery, a healing partition, a
/// forward clock jump and a spell of link congestion.
fn burst(at: RealTime, d: Duration) -> FaultSchedule {
    FaultSchedule::new()
        .at(
            at,
            Fault::Scramble {
                node: NodeId::new(3),
                cfg: ScrambleConfig::default(),
            },
        )
        .at(
            at + d,
            Fault::Crash {
                node: NodeId::new(5),
                down_for: d * 6u64,
            },
        )
        .at(
            at + d,
            Fault::Partition {
                groups: vec![(0..6).map(NodeId::new).collect(), vec![NodeId::new(6)]],
                heal_after: Some(d * 4u64),
            },
        )
        .at(
            at + d * 2u64,
            Fault::ClockJump {
                node: NodeId::new(4),
                jump: d * 10u64,
                new_rate_ppm: None,
            },
        )
        .at(
            at + d * 2u64,
            Fault::DelayInflation {
                num: 2,
                den: 1,
                lasts: d * 5u64,
            },
        )
}

fn fault_burst(seed: u64, links: Links) -> u64 {
    let cfg = config(seed, links);
    let d = cfg.params().expect("valid").d();
    let initiate_at = d * 4u64;
    let mut sc = seven_nodes(ScenarioBuilder::new(cfg), initiate_at, &[]);
    let burst_at = RealTime::ZERO + initiate_at + d * 2u64;
    let horizon = RealTime::ZERO + initiate_at + d * 40u64;
    sc.run_schedule(&burst(burst_at, d), horizon, seed);
    assert!(!sc.sim().observations().is_empty());
    fold_scenario(&sc)
}

#[test]
fn fault_schedule_burst() {
    check(&[
        (
            "fault-burst/jittered/seed-1",
            0xd12b_5d4e_edfb_b5b8,
            fault_burst(1, Links::Jittered),
        ),
        (
            "fault-burst/jittered/seed-7",
            0x2258_c15e_c11f_b024,
            fault_burst(7, Links::Jittered),
        ),
        (
            "fault-burst/fixed-250us/seed-1",
            0xcbc8_725e_d6a3_6b19,
            fault_burst(1, Links::Fixed(250)),
        ),
        (
            "fault-burst/fixed-250us/seed-7",
            0x92f5_aef3_17bd_d3da,
            fault_burst(7, Links::Fixed(250)),
        ),
    ]);
}

/// The adversarial shape of `wave_parity.rs`: two Byzantine echo forgers
/// working on General 0's agreement plus a node that rides out a crash,
/// on fixed links where every delivery arrives through a wave.
#[test]
fn byzantine_fixed_delay() {
    let cfg = config(77, Links::Fixed(700));
    let b = ScenarioBuilder::new(cfg);
    let d = b.params().d();
    let mut sc = b
        .correct_general(Duration::from_millis(50), 13)
        .correct()
        .correct()
        .correct()
        .correct()
        .byzantine(Box::new(EchoForger::new(
            NodeId::new(0),
            NodeId::new(1),
            666,
            1,
            d / 2,
        )))
        .byzantine(Box::new(EchoForger::new(
            NodeId::new(0),
            NodeId::new(2),
            667,
            2,
            d / 3,
        )))
        .build();
    sc.sim_mut()
        .set_down_until(NodeId::new(4), RealTime::from_nanos(30_000_000));
    sc.run_until(RealTime::from_nanos(400_000_000));
    check(&[(
        "byzantine/fixed-700us/seed-77",
        0xdceb_aa61_9f54_c09b,
        fold_scenario(&sc),
    )]);
}

/// The crash-recover stream of `pipeline_stream.rs`: a follower goes
/// down for 1.5 s mid-stream and catches up.
#[test]
fn pipeline_crash_recover_stream() {
    let cfg = ScenarioConfig::new(7, 2).with_seed(3);
    let params = cfg.params().expect("valid");
    let pipe_cfg = PipelineConfig::new(NodeId::new(0), &params).with_window(4);
    let workload = Workload::steady(24, 3, Duration::from_millis(100));
    let mut s = PipelineScenario::new(&cfg, &pipe_cfg, workload, WaveMode::default());
    s.run_until(RealTime::from_nanos(400_000_000));
    s.sim_mut()
        .crash_node(NodeId::new(4), Duration::from_millis(1500));
    s.run_until(RealTime::from_nanos(8_000_000_000) + campaign_settle(&params));
    assert_eq!(s.total_commits(), 7 * 24, "the whole stream must commit");
    check(&[(
        "pipeline/crash-recover/seed-3",
        0x11ed_2fed_6a62_6a49,
        fold(s.sim().observations(), s.sim().metrics()),
    )]);
}

/// One burst of every campaign family: the fold is over the per-burst
/// measurements the campaign reports, which is what `CAMPAIGN_stabilization`
/// rows and the `sim-n31-faults` workload are made of.
#[test]
fn campaign_bursts() {
    const RECORDED: [u64; 4] = [
        0xbb0d_3bfa_38fa_2738,
        0x72de_5492_228d_d620,
        0x292f_fd9c_ce19_47e4,
        0xde3a_63fd_0b14_5404,
    ];
    let rows: Vec<(String, u64, u64)> = CampaignFamily::ALL
        .iter()
        .zip(RECORDED)
        .map(|(family, recorded)| {
            let report = run_campaign(7, 2, 5, *family, 1);
            let mut h = Fnv::new();
            h.line(&format!("{:?}", report.bursts));
            (format!("campaign/{}/seed-5", family.name()), recorded, h.0)
        })
        .collect();
    check(&rows);
}

/// A destination that is down for the whole run is excluded from every
/// batch it would have been part of, and everyone else still decides.
#[test]
fn crashed_destination_observes_nothing() {
    let cfg = ScenarioConfig::new(4, 1).with_seed(5);
    let mut scenario = ScenarioBuilder::new(cfg)
        .correct_general(Duration::from_millis(60), 9)
        .correct()
        .correct()
        .correct()
        .build();
    scenario
        .sim_mut()
        .set_down_until(NodeId::new(3), RealTime::from_nanos(u64::MAX));
    scenario.run_until(RealTime::from_nanos(400_000_000));
    let result = scenario.result();
    let deciders: Vec<NodeId> = result
        .decisions
        .iter()
        .filter(|d| d.value == Some(9))
        .map(|d| d.node)
        .collect();
    assert!(
        (0..3).all(|i| deciders.contains(&NodeId::new(i))),
        "live nodes decide: {result:?}"
    );
    assert!(
        !scenario
            .sim()
            .observations()
            .iter()
            .any(|o| o.node == NodeId::new(3)),
        "a crashed destination must be excluded from every batch"
    );
    assert!(matches!(
        scenario.sim().observations().first().map(|o| &o.event),
        Some(NodeEvent::Core(_)) | None
    ));
}
