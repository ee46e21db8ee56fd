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
//! to event order, RNG draw order, broadcast routing, wave drains, timer
//! bookkeeping or fault application moves at least one of them.
//!
//! The jittered and storm shapes with a crashed node and a blocked link
//! are the former `fanout_parity.rs` scenarios: at 077bb08 the batched
//! and the per-destination broadcast routes produced the same value for
//! each, so the recorded constant *is* the per-destination trace.
//!
//! Two more tests hold what the examples print, so `cargo test` is the
//! whole reproduction contract and no hand `diff` of their output is:
//!
//! * `experiment_tables` has one row per E1–E11 table section, folding
//!   the section's markdown as `examples/experiments` prints it at the
//!   default seed count ([`TABLE_SEEDS`]), after asserting that no
//!   section prints a `VIOLATION:` line;
//! * `campaign_smoke` has one row per cell of
//!   `fault_campaign -- --smoke` ([`CampaignSpec::smoke`]), asserting
//!   the cell stabilizes and folding its report's `Debug` rendering,
//!   which pins every burst's measurements, not just the summary line.
//!
//! Both were recorded at commit 550812b, where the examples still
//! rendered them: every table section's fold is that of the example's
//! output there, byte for byte.
//!
//! Every fold also states what the run means before it pins its bytes:
//! each agreement shape runs the property battery of [`checks`] that
//! fits it, the pipeline shape its log check, and each campaign burst
//! must stabilize with no violations. A shape whose battery fails names
//! the violated property, whatever it folds to. The storm shapes run to
//! 400 ms, far short of `Δ_stb` (about 4.6 s at n = 7), so they start no
//! agreement after `Δ_stb` and the paper promises them nothing to check:
//! they assert only that the storm bites.
//!
//! To re-record after an intended behaviour change: run
//! `cargo test -p ssbyz-harness --test recorded_traces`,
//! copy the `got` values, and say in the PR why each one moved.
//!
//! A shape that moved also has its unfolded stream — one line per
//! observation, then the metrics; the table as printed; the report —
//! written to `target/trace-diff/<shape>.txt`, and the failure message
//! names the file. `diff` it against the same file from the parent
//! commit to find the first line that diverged (`docs/PERF.md`
//! § "History: the sharded simulator" has the recipe).

use std::fmt::Debug;

use ssbyz_adversary::EchoForger;
use ssbyz_core::PipelineConfig;
use ssbyz_harness::checks;
use ssbyz_harness::experiments::{slack, TABLES, TABLE_SEEDS};
use ssbyz_harness::faults::{campaign_settle, run_campaign_spec, CampaignSpec};
use ssbyz_harness::{
    run_campaign, CampaignFamily, Driver, Fault, FaultSchedule, NodeEvent, PipelineScenario,
    RunningScenario, ScenarioBuilder, ScenarioConfig, ScenarioResult, Workload,
};
use ssbyz_simnet::{Metrics, Observation, StormConfig, WaveMode};
use ssbyz_types::{Duration, NodeId, RealTime};

/// A trace: the rendered lines, and their FNV-1a-64 fold — stable
/// across toolchains and platforms, unlike `DefaultHasher`.
struct Trace {
    fold: u64,
    text: String,
}

impl Trace {
    fn new() -> Self {
        Trace {
            fold: 0xcbf2_9ce4_8422_2325,
            text: String::new(),
        }
    }

    /// A trace of `text`, one line per line.
    fn of_text(text: &str) -> Self {
        let mut trace = Trace::new();
        for line in text.lines() {
            trace.line(line);
        }
        trace
    }

    fn line(&mut self, rendered: &str) {
        for byte in rendered.bytes().chain([b'\n']) {
            self.fold = (self.fold ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.text.push_str(rendered);
        self.text.push('\n');
    }
}

/// The recording fold: every observation in log order, then the metrics.
fn fold<O: Debug>(observations: &[Observation<O>], metrics: &Metrics) -> Trace {
    let mut trace = Trace::new();
    for o in observations {
        trace.line(&format!("{o:?}"));
    }
    trace.line(&format!("{metrics:?}"));
    trace
}

fn fold_scenario(sc: &RunningScenario) -> Trace {
    fold(sc.sim().observations(), sc.sim().metrics())
}

/// Real time of node 0's initiation `offset` after its local start.
fn initiation_real(sc: &RunningScenario, offset: Duration) -> RealTime {
    let clock = sc.sim().clock(NodeId::new(0));
    clock.real_of_local(clock.local_at(RealTime::ZERO) + offset)
}

/// The run's result without the nodes in `faulty`: out of the correct
/// set, their returns and I-accepts dropped. A node that is crashed,
/// cut off, scrambled or clock-jumped during the agreement is faulty in
/// the paper's model, and the battery speaks only of the others.
fn result_without(sc: &RunningScenario, faulty: &[u32]) -> ScenarioResult {
    let is_faulty = |node: NodeId| faulty.contains(&(node.index() as u32));
    let mut res = sc.result();
    res.correct.retain(|node| !is_faulty(*node));
    res.decisions.retain(|r| !is_faulty(r.node));
    res.iaccepts.retain(|r| !is_faulty(r.node));
    res
}

/// Writes a moved trace's lines to `target/trace-diff/<shape>.txt` (the
/// target directory the test binary runs from) and says where they went.
fn write_diff(shape: &str, trace: &Trace) -> String {
    let exe = std::env::current_exe().expect("the test binary has a path");
    // The binary is `<target>/<profile>/deps/<name>`.
    let Some(target) = exe.ancestors().nth(3) else {
        return format!("not written: no target directory above {}", exe.display());
    };
    let path = target.join("trace-diff").join(format!("{shape}.txt"));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, &trace.text));
    match written {
        Ok(()) => format!("stream in {}", path.display()),
        Err(e) => format!("not written to {}: {e}", path.display()),
    }
}

/// Compares every `(shape, recorded, got)` row and reports all the
/// mismatches at once, in the form the constants are written in, each
/// with the file its unfolded stream was written to.
fn check<S: AsRef<str>>(rows: &[(S, u64, Trace)]) {
    let moved: Vec<String> = rows
        .iter()
        .filter(|(_, recorded, got)| *recorded != got.fold)
        .map(|(shape, recorded, got)| {
            let shape = shape.as_ref();
            format!(
                "{shape}: recorded {recorded:#018x}, got {:#018x} ({})",
                got.fold,
                write_diff(shape, got)
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

/// One crashed node (its deliveries swallowed) and one blocked
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

fn correct_general(seed: u64, links: Links) -> Trace {
    let b = ScenarioBuilder::new(config(seed, links));
    let sc = run_with_down_node_and_blocked_link(seven_nodes(b, Duration::from_millis(60), &[]));
    assert!(
        sc.sim()
            .observations()
            .iter()
            .any(|o| format!("{:?}", o.event).contains("Decided")),
        "seed {seed}: the scenario must actually decide"
    );
    // Node 6 is down through the agreement, and the General's message to
    // node 5 is dropped at send: a General that omits is not correct in
    // the paper's model, so the Byzantine-General battery is the one
    // that fits.
    checks::check_byzantine_general_run(&result_without(&sc, &[6]), NodeId::new(0))
        .assert_ok(&format!("correct-general seed {seed}"));
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
fn storm_run(seed: u64, links: Links, scrambled: &[usize]) -> Trace {
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

fn fault_burst(seed: u64, links: Links) -> Trace {
    let cfg = config(seed, links);
    let d = cfg.params().expect("valid").d();
    let initiate_at = d * 4u64;
    let mut sc = seven_nodes(ScenarioBuilder::new(cfg), initiate_at, &[]);
    let burst_at = RealTime::ZERO + initiate_at + d * 2u64;
    let horizon = RealTime::ZERO + initiate_at + d * 40u64;
    let t0 = initiation_real(&sc, initiate_at);
    sc.run_schedule(&burst(burst_at, d), horizon, seed);
    assert!(!sc.sim().observations().is_empty());
    // The burst hits nodes 3–6; the General and nodes 1–2 ride it out,
    // and their agreement keeps the correct-General battery.
    checks::check_correct_general_run(
        &result_without(&sc, &[3, 4, 5, 6]),
        NodeId::new(0),
        41,
        t0,
        slack(d),
    )
    .assert_ok(&format!("fault-burst seed {seed}"));
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
        .byzantine(Box::new(Driver::bare(
            EchoForger::new(NodeId::new(0), NodeId::new(1), 666, 1, d / 2),
            cfg.tick,
        )))
        .byzantine(Box::new(Driver::bare(
            EchoForger::new(NodeId::new(0), NodeId::new(2), 667, 2, d / 3),
            cfg.tick,
        )))
        .build();
    sc.sim_mut()
        .set_down_until(NodeId::new(4), RealTime::from_nanos(30_000_000));
    let t0 = initiation_real(&sc, Duration::from_millis(50));
    sc.run_until(RealTime::from_nanos(400_000_000));
    // Node 4 is back 20 ms before the initiation: all five are correct.
    checks::check_correct_general_run(&sc.result(), NodeId::new(0), 13, t0, slack(d))
        .assert_ok("byzantine seed 77");
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
    let all: Vec<NodeId> = (0..7).map(NodeId::new).collect();
    checks::check_pipeline_logs(&s.committed_logs(), &all).assert_ok("pipeline crash-recover");
    check(&[(
        "pipeline/crash-recover/seed-3",
        0x11ed_2fed_6a62_6a49,
        fold(s.sim().observations(), s.sim().metrics()),
    )]);
}

/// One burst of every campaign family: each must stabilize with no
/// violations, and the fold is over the per-burst measurements the
/// campaign reports, which is what `CAMPAIGN_stabilization` rows and the
/// `sim-n31-faults` workload are made of.
#[test]
fn campaign_bursts() {
    const RECORDED: [u64; 4] = [
        0xbb0d_3bfa_38fa_2738,
        0x72de_5492_228d_d620,
        0x292f_fd9c_ce19_47e4,
        0xa566_96dc_c99e_a3da,
    ];
    let rows: Vec<(String, u64, Trace)> = CampaignFamily::ALL
        .iter()
        .zip(RECORDED)
        .map(|(family, recorded)| {
            let report = run_campaign(7, 2, 5, *family, 1);
            assert!(
                report.stabilized(),
                "campaign/{}: every burst must stabilize with no violations: {:?}",
                family.name(),
                report.violations()
            );
            let mut trace = Trace::new();
            trace.line(&format!("{:?}", report.bursts));
            (
                format!("campaign/{}/seed-5", family.name()),
                recorded,
                trace,
            )
        })
        .collect();
    check(&rows);
}

/// Every E1–E11 table at the seed count `examples/experiments` renders
/// by default, one row per section: no section may print a `VIOLATION:`
/// line, and its markdown, line by line, folds to the recorded value, so
/// a moved cell names its table and `target/trace-diff/experiments/<eN>.txt`
/// holds the table as the example would print it.
#[test]
fn experiment_tables() {
    const RECORDED: [u64; 11] = [
        0x01ec_0500_2844_527e,
        0xecb2_76cf_0c80_00a0,
        0xb905_7451_85bd_4e02,
        0xd70a_ce1b_862b_beea,
        0xa657_3c5c_7fe5_1d22,
        0xd5f1_2c52_810b_be29,
        0x616a_53d5_411d_ae21,
        0x8893_24d5_0b20_4bb2,
        0x06be_b0e0_e397_bfe3,
        0xead4_2696_540b_8838,
        0x1ba7_d8c9_729f_53c5,
    ];
    let rendered: Vec<(String, String)> = TABLES
        .iter()
        .map(|table| {
            (
                format!("experiments/{}", table.name),
                table.render(TABLE_SEEDS),
            )
        })
        .collect();
    // Meaning before bytes: a section that reports a property violation
    // fails here, naming itself and quoting the line, whatever it folds to.
    let violations: Vec<String> = rendered
        .iter()
        .flat_map(|(section, text)| {
            text.lines()
                .filter(|line| line.contains("VIOLATION:"))
                .map(move |line| format!("{section}: {}", line.trim()))
        })
        .collect();
    assert!(
        violations.is_empty(),
        "E-table sections print violations:\n{}",
        violations.join("\n")
    );
    let rows: Vec<(String, u64, Trace)> = rendered
        .into_iter()
        .zip(RECORDED)
        .map(|((section, text), recorded)| (section, recorded, Trace::of_text(&text)))
        .collect();
    check(&rows);
}

/// The campaign smoke's cells (`fault_campaign -- --smoke`): each must
/// stabilize, and each report's `Debug` rendering — every burst's
/// measurements, more than the summary line the smoke prints — folds to
/// its recorded value.
#[test]
fn campaign_smoke() {
    const RECORDED: [u64; 3] = [
        0xe933_2bf0_b3dc_3509,
        0x3f01_7b4f_2fb9_3539,
        0x6165_c990_a24c_2b0e,
    ];
    let rows: Vec<(String, u64, Trace)> = CampaignSpec::smoke()
        .iter()
        .zip(RECORDED)
        .map(|(spec, recorded)| {
            let report = run_campaign_spec(spec);
            assert!(
                report.stabilized(),
                "{} (n={}) must stabilize: {:?}",
                report.family,
                report.n,
                report.violations()
            );
            let shape = format!("campaign-smoke/{}/n-{}", report.family, report.n);
            (shape, recorded, Trace::of_text(&format!("{report:#?}")))
        })
        .collect();
    check(&rows);
}

/// A destination that is down for the whole run swallows every copy
/// sent to it, and everyone else still decides.
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
        "a crashed destination must observe nothing"
    );
    assert!(matches!(
        scenario.sim().observations().first().map(|o| &o.event),
        Some(NodeEvent::Core(_)) | None
    ));
}
