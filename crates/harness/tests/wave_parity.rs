//! Whole-protocol A/B parity for receiver-side wave coalescing: the same
//! agreement scenario run with `WaveMode::Coalesced` and with the
//! retained `WaveMode::PerMessage` reference route must be equivalent.
//!
//! Two equivalence strengths apply:
//!
//! * **Jittered networks** (`delay_min != delay_max`) and storm phases
//!   are never coalesced — the draw-free gate falls back to per-event
//!   dispatch — so those runs must be globally **bit-identical**:
//!   same observation stream in order, same metrics, same RNG draws.
//! * **Fixed-delay networks** actually coalesce. Within one instant the
//!   simulator dispatches destination-major instead of seq-major, which
//!   transposes cross-node processing order and hence the *global*
//!   interleaving of observations (and the within-instant arrival order
//!   at later instants). What is preserved: every per-`(node, real
//!   time)` observation **multiset**, every per-node decision, and the
//!   exact network metrics — the protocol behaves identically, message
//!   for message.

use ssbyz_harness::{Fault, FaultSchedule, ScenarioBuilder, ScenarioConfig};
use ssbyz_simnet::{StormConfig, WaveMode};
use ssbyz_types::{Duration, NodeId, RealTime};

fn storm() -> StormConfig {
    StormConfig {
        until: RealTime::from_nanos(40_000_000), // 40ms of chaos
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

/// Runs one 7-node scenario (crash + blocked link + optional storm) and
/// returns the ordered trace, the per-(node, real-time) sorted multiset,
/// and the metrics.
fn run(
    seed: u64,
    mode: WaveMode,
    fixed_delay: bool,
    with_storm: bool,
) -> (Vec<String>, Vec<String>, ssbyz_simnet::Metrics) {
    let mut cfg = ScenarioConfig::new(7, 2).with_seed(seed);
    if fixed_delay {
        // min == max: every instant outside a storm is draw-free, so the
        // coalesced mode actually merges deliveries into waves.
        cfg = cfg.with_actual_delays(Duration::from_micros(900), Duration::from_micros(900));
    }
    let mut b = ScenarioBuilder::new(cfg).wave_mode(mode);
    let initiate_at = if with_storm {
        Duration::from_millis(10)
    } else {
        Duration::from_millis(60)
    };
    if with_storm {
        b = b.storm(storm());
    }
    let mut scenario = b
        .correct_general(initiate_at, 41)
        .correct()
        .correct()
        .correct()
        .correct()
        .correct()
        .correct()
        .build();
    scenario
        .sim_mut()
        .set_down_until(NodeId::new(6), RealTime::from_nanos(150_000_000));
    scenario.sim_mut().block_link(
        NodeId::new(0),
        NodeId::new(5),
        RealTime::from_nanos(90_000_000),
    );
    scenario.run_until(RealTime::from_nanos(400_000_000));
    let trace: Vec<String> = scenario
        .sim()
        .observations()
        .iter()
        .map(|o| format!("{:?}@{:?}/{:?}: {:?}", o.node, o.real, o.local, o.event))
        .collect();
    let mut multiset = trace.clone();
    multiset.sort_unstable();
    (trace, multiset, scenario.sim().metrics().clone())
}

/// Jittered links never form same-due waves: the coalesced route must be
/// a byte-for-byte no-op relative to per-message dispatch.
#[test]
fn jittered_scenario_is_bit_identical_across_wave_modes() {
    for seed in [1u64, 7, 23] {
        let (coalesced, _, m_c) = run(seed, WaveMode::Coalesced, false, false);
        let (per_msg, _, m_p) = run(seed, WaveMode::PerMessage, false, false);
        assert!(
            coalesced.iter().any(|l| l.contains("Decided")),
            "seed {seed}: scenario must actually decide"
        );
        assert_eq!(coalesced, per_msg, "jittered trace diverged at seed {seed}");
        assert_eq!(m_c, m_p, "jittered metrics diverged at seed {seed}");
    }
}

/// Under a storm the gate suppresses coalescing while chaos draws are
/// live; the whole run (jittered links + storm + crash) stays
/// bit-identical, RNG stream included.
#[test]
fn storm_scenario_is_bit_identical_across_wave_modes() {
    for seed in [3u64, 12] {
        let (coalesced, _, m_c) = run(seed, WaveMode::Coalesced, false, true);
        let (per_msg, _, m_p) = run(seed, WaveMode::PerMessage, false, true);
        assert_eq!(coalesced, per_msg, "storm trace diverged at seed {seed}");
        assert_eq!(m_c, m_p, "storm metrics diverged at seed {seed}");
        assert!(
            m_c.corrupted + m_c.dropped + m_c.duplicated > 0,
            "seed {seed}: the storm must actually bite"
        );
    }
}

/// Fixed-delay network: coalescing engages for real (same-instant echo
/// waves hit `on_wave_ref`). Every node observes the same protocol
/// events at the same real times with identical metrics; only the global
/// interleaving within an instant may transpose.
#[test]
fn fixed_delay_scenario_is_equivalent_across_wave_modes() {
    for seed in [2u64, 9, 31] {
        let (trace_c, ms_c, m_c) = run(seed, WaveMode::Coalesced, true, false);
        let (_, ms_p, m_p) = run(seed, WaveMode::PerMessage, true, false);
        assert!(
            trace_c.iter().any(|l| l.contains("Decided")),
            "seed {seed}: fixed-delay scenario must actually decide"
        );
        assert_eq!(
            ms_c, ms_p,
            "fixed-delay observation multiset diverged at seed {seed}"
        );
        assert_eq!(m_c, m_p, "fixed-delay metrics diverged at seed {seed}");
    }
}

/// Fixed-delay network with a storm phase: chaos instants dispatch
/// per-message in both modes (identical RNG consumption), calm instants
/// coalesce — the observation multiset and metrics still match exactly.
#[test]
fn fixed_delay_storm_scenario_is_equivalent_across_wave_modes() {
    for seed in [4u64, 18] {
        let (_, ms_c, m_c) = run(seed, WaveMode::Coalesced, true, true);
        let (_, ms_p, m_p) = run(seed, WaveMode::PerMessage, true, true);
        assert_eq!(
            ms_c, ms_p,
            "fixed-delay storm observation multiset diverged at seed {seed}"
        );
        assert_eq!(
            m_c, m_p,
            "fixed-delay storm metrics diverged at seed {seed}"
        );
        assert!(
            m_c.corrupted + m_c.dropped + m_c.duplicated > 0,
            "seed {seed}: the storm must actually bite"
        );
    }
}

/// A burst-heavy fault schedule: two delay-inflation windows (the second
/// overlapping the agreement's echo phase) and clock jumps on two nodes.
/// Both faults mutate exactly the state the draw-free gate inspects —
/// link delays — or the per-node clocks feeding wave timestamps, so the
/// gate must be re-evaluated at every instant, not latched at build time.
fn burst_schedule() -> FaultSchedule {
    FaultSchedule::new()
        .at(
            RealTime::from_nanos(20_000_000),
            Fault::DelayInflation {
                num: 3,
                den: 1,
                lasts: Duration::from_millis(15),
            },
        )
        .at(
            RealTime::from_nanos(70_000_000),
            Fault::ClockJump {
                node: NodeId::new(2),
                jump: Duration::from_millis(2),
                new_rate_ppm: Some(250),
            },
        )
        .at(
            RealTime::from_nanos(90_000_000),
            Fault::DelayInflation {
                num: 5,
                den: 2,
                lasts: Duration::from_millis(20),
            },
        )
        .at(
            RealTime::from_nanos(130_000_000),
            Fault::ClockJump {
                node: NodeId::new(4),
                jump: Duration::from_millis(1),
                new_rate_ppm: None,
            },
        )
}

/// Runs the 7-node agreement under [`burst_schedule`] in the given mode.
fn run_with_faults(
    seed: u64,
    mode: WaveMode,
    fixed_delay: bool,
) -> (Vec<String>, Vec<String>, ssbyz_simnet::Metrics) {
    let mut cfg = ScenarioConfig::new(7, 2).with_seed(seed);
    if fixed_delay {
        cfg = cfg.with_actual_delays(Duration::from_micros(900), Duration::from_micros(900));
    }
    let mut scenario = ScenarioBuilder::new(cfg)
        .wave_mode(mode)
        .correct_general(Duration::from_millis(60), 41)
        .correct()
        .correct()
        .correct()
        .correct()
        .correct()
        .correct()
        .build();
    scenario.run_schedule(&burst_schedule(), RealTime::from_nanos(400_000_000), seed);
    let trace: Vec<String> = scenario
        .sim()
        .observations()
        .iter()
        .map(|o| format!("{:?}@{:?}/{:?}: {:?}", o.node, o.real, o.local, o.event))
        .collect();
    let mut multiset = trace.clone();
    multiset.sort_unstable();
    (trace, multiset, scenario.sim().metrics().clone())
}

/// Jittered links + delay-inflation/clock-jump bursts: the gate never
/// opens (inflated jittered delays still draw), so the coalesced route
/// must be bit-identical — same trace, same metrics, same RNG stream —
/// while the schedule actively rewrites delays and clocks mid-run.
#[test]
fn fault_schedule_jittered_scenario_is_bit_identical_across_wave_modes() {
    for seed in [5u64, 19] {
        let (coalesced, _, m_c) = run_with_faults(seed, WaveMode::Coalesced, false);
        let (per_msg, _, m_p) = run_with_faults(seed, WaveMode::PerMessage, false);
        assert!(
            coalesced.iter().any(|l| l.contains("Decided")),
            "seed {seed}: scenario must still decide under bursts"
        );
        assert_eq!(
            coalesced, per_msg,
            "fault-schedule jittered trace diverged at seed {seed}"
        );
        assert_eq!(m_c, m_p, "fault-schedule metrics diverged at seed {seed}");
    }
}

/// Fixed-delay links + the same burst schedule: delay inflation scales a
/// draw-free link deterministically (min == max still holds after
/// inflation), so calm instants keep coalescing and inflated instants
/// must too — per-(node, instant) multisets and metrics match exactly.
/// This is the regression pin for the gate being evaluated per instant:
/// a gate latched before the first inflation window would dispatch the
/// inflated instants down the wrong route in exactly one of the modes.
#[test]
fn fault_schedule_fixed_delay_scenario_is_equivalent_across_wave_modes() {
    for seed in [6u64, 27] {
        let (trace_c, ms_c, m_c) = run_with_faults(seed, WaveMode::Coalesced, true);
        let (_, ms_p, m_p) = run_with_faults(seed, WaveMode::PerMessage, true);
        assert!(
            trace_c.iter().any(|l| l.contains("Decided")),
            "seed {seed}: fixed-delay burst scenario must still decide"
        );
        assert_eq!(
            ms_c, ms_p,
            "fault-schedule fixed-delay multiset diverged at seed {seed}"
        );
        assert_eq!(m_c, m_p, "fault-schedule metrics diverged at seed {seed}");
    }
}

/// The coalesced fixed-delay run must actually exercise waves: with 7
/// nodes broadcasting over equal-delay links, same-instant fan-in is the
/// common case, and the batch entry point is what makes it one engine
/// pass. This pins the plumbing end to end via the adversarial shape
/// from `crates/harness/tests/adversarial.rs`: Byzantine echo forgers
/// plus a crashed node, where every delivery arrives through waves.
#[test]
fn adversarial_fixed_delay_scenario_is_equivalent_across_wave_modes() {
    use ssbyz_adversary::EchoForger;
    use ssbyz_harness::Driver;

    let run_adv = |mode: WaveMode| {
        let cfg = ScenarioConfig::new(7, 2)
            .with_seed(77)
            .with_actual_delays(Duration::from_micros(700), Duration::from_micros(700));
        let params = *ScenarioBuilder::new(cfg).params();
        let mut scenario = ScenarioBuilder::new(cfg)
            .wave_mode(mode)
            .correct_general(Duration::from_millis(50), 13)
            .correct()
            .correct()
            .correct()
            .correct()
            .byzantine(Box::new(Driver::bare(
                EchoForger::new(NodeId::new(0), NodeId::new(1), 666, 1, params.d() / 2),
                cfg.tick,
            )))
            .byzantine(Box::new(Driver::bare(
                EchoForger::new(NodeId::new(0), NodeId::new(2), 667, 2, params.d() / 3),
                cfg.tick,
            )))
            .build();
        // Node 4 rides out a crash before the initiation at 50ms: with
        // two Byzantine forgers the strong quorum needs all five correct
        // nodes live, so it recovers first — exercising the recover
        // event's interaction with wave drains without starving quorum.
        scenario
            .sim_mut()
            .set_down_until(NodeId::new(4), RealTime::from_nanos(30_000_000));
        scenario.run_until(RealTime::from_nanos(400_000_000));
        let mut multiset: Vec<String> = scenario
            .sim()
            .observations()
            .iter()
            .map(|o| format!("{:?}@{:?}/{:?}: {:?}", o.node, o.real, o.local, o.event))
            .collect();
        multiset.sort_unstable();
        let decided = multiset.iter().any(|l| l.contains("Decided"));
        (multiset, scenario.sim().metrics().clone(), decided)
    };
    let (ms_c, m_c, decided) = run_adv(WaveMode::Coalesced);
    let (ms_p, m_p, _) = run_adv(WaveMode::PerMessage);
    assert!(decided, "the legitimate agreement must still decide");
    assert_eq!(ms_c, ms_p, "adversarial observation multiset diverged");
    assert_eq!(m_c, m_p, "adversarial metrics diverged");
}

/// The counter that says whether the echo storm lands as waves at all:
/// on fixed-delay links every sender's relays arrive sender-major — the
/// same key is never adjacent to itself — so only key-grouped dispatch
/// forms waves. In a correct-General n=16 run all but the `n²` direct
/// `init`s (one sender per key by construction) must dispatch grouped.
#[test]
fn fixed_delay_bcast_arrivals_dispatch_as_waves() {
    use ssbyz_harness::EngineProcess;

    let n = 16u32;
    let cfg = ScenarioConfig::new(n as usize, 5)
        .with_seed(11)
        .with_actual_delays(Duration::from_micros(250), Duration::from_micros(250));
    let mut b = ScenarioBuilder::new(cfg).correct_general(Duration::from_millis(20), 41);
    for _ in 1..n {
        b = b.correct();
    }
    let mut scenario = b.build();
    scenario.run_until(RealTime::from_nanos(400_000_000));
    assert!(
        scenario
            .sim()
            .observations()
            .iter()
            .filter(|o| format!("{:?}", o.event).contains("Decided"))
            .count()
            == n as usize,
        "every node must decide"
    );
    let (mut waved, mut single) = (0u64, 0u64);
    for node in (0..n).map(NodeId::new) {
        let any = scenario
            .sim_mut()
            .process_mut(node)
            .as_any_mut()
            .expect("engine processes opt into downcasting");
        let stats = any
            .downcast_ref::<EngineProcess<u64>>()
            .expect("every node runs an engine")
            .engine()
            .dispatch_stats();
        assert!(stats.wave_groups > 0, "{node:?} formed no wave: {stats:?}");
        waved += stats.wave_arrivals;
        single += stats.single_arrivals;
    }
    assert!(
        waved * 10 >= (waved + single) * 9,
        "only {waved} of {} Bcast arrivals dispatched as waves",
        waved + single
    );
}
