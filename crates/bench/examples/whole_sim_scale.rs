//! Multi-sample whole-simulation scale rows: the fault-free
//! correct-General scenario timed end to end at n = 64, 256 and 512
//! (n = 1024 gated on host memory, see below), on both engines where
//! tolerable, mean of ≥ 3 seeds per cell (single-iteration criterion
//! rows swing with container load and are not trusted for whole-sim
//! numbers).
//!
//! Cells:
//!
//! * n = 64, f = 21 — sequential vs sharded, fixed 250 µs links (the
//!   wave-coalescing shape: every delivery instant is draw-free and
//!   fan-in lands as whole waves);
//! * n = 256, f = 85 — sequential vs sharded; the wall-clock ratio is
//!   the sharded engine's headline A/B (on a single-core host the
//!   ceiling is 1×; the critical-path parallelism figure reports what
//!   the window structure exposes for real cores);
//! * n = 512, f = 170 — sharded only (the sequential wheel does not
//!   finish in tolerable wall-clock); δ is auto-scaled per
//!   `clamped_delta` so the processing bound stays honest, and the row
//!   records the scaled value;
//! * n = 1024, f = 341 — behind `--max-n 1024`, for hosts with ≥ 48
//!   GiB of RAM. The limit is protocol state, not the simulator: each
//!   node's msgd-broadcast keeps one triplet (three `StampLog`s of `n`
//!   8-byte stamps, plus their occupancy bitsets) per concurrent
//!   broadcaster, and during the relay storm all `n` instances are live
//!   at once — `n³ · 24 B` of stamps system-wide; with bitsets and
//!   allocator overhead 0.59 GiB was measured at n = 256 and 4.1 GiB
//!   at n = 512 (`docs/PERF.md`), which extrapolates to ~33 GiB at
//!   n = 1024.
//!
//! Runs terminate early once every node has decided (plus a 4d drain),
//! capped at the Δ_agr + 30d battery horizon. Output is a JSON fragment
//! on stdout; the committed numbers live in `BENCH_store_hot_path.json`
//! under `whole_sim_scale`.
//!
//! ```text
//! cargo run --release -p ssbyz-bench --example whole_sim_scale \
//!     [-- --seeds N] [--threads T] [--max-n 1024]
//! ```

use ssbyz_harness::faults::clamped_delta;
use ssbyz_harness::{ScenarioBuilder, ScenarioConfig};
use ssbyz_simnet::{SimMode, WaveMode};
use ssbyz_types::{Duration, NodeId, RealTime};
use std::time::Instant;

struct Cell {
    n: usize,
    engine: SimMode,
    delta: Option<Duration>,
    delta_scaled: bool,
    runs: Vec<RunStats>,
}

struct RunStats {
    wall: std::time::Duration,
    events: u64,
    windows: u64,
    windowed_events: u64,
    critical_events: u64,
}

impl Cell {
    fn mean_ns(&self) -> f64 {
        let total: u128 = self.runs.iter().map(|r| r.wall.as_nanos()).sum();
        total as f64 / self.runs.len() as f64
    }

    fn min_ns(&self) -> u128 {
        self.runs
            .iter()
            .map(|r| r.wall.as_nanos())
            .min()
            .unwrap_or(0)
    }

    fn parallelism(&self) -> Option<f64> {
        let (w, c): (u64, u64) = self.runs.iter().fold((0, 0), |(w, c), r| {
            (w + r.windowed_events, c + r.critical_events)
        });
        (c > 0).then(|| w as f64 / c as f64)
    }
}

fn engine_name(mode: SimMode) -> String {
    match mode {
        SimMode::Sequential => "sequential".into(),
        SimMode::Sharded(t) => format!("sharded-{t}"),
    }
}

/// One timed whole-sim run: build, run in 2d slices until every node
/// decided (then drain 4d), capped at the battery horizon.
fn run_once(n: usize, f: usize, seed: u64, engine: SimMode, delta: Option<Duration>) -> RunStats {
    let mut cfg = ScenarioConfig::new(n, f)
        .with_seed(seed)
        .with_actual_delays(Duration::from_micros(250), Duration::from_micros(250));
    if let Some(delta) = delta {
        cfg.delta = delta;
        cfg.tick = cfg.params().expect("valid").d();
        cfg.actual_max = cfg.actual_max.min(delta);
    }
    let params = cfg.params().expect("valid");
    let d = params.d();
    let initiate_off = d * 4u64;
    let horizon = RealTime::ZERO + params.delta_agr() + d * 30u64;

    let started = Instant::now();
    let mut b = ScenarioBuilder::new(cfg)
        .sim_mode(engine)
        .wave_mode(WaveMode::Coalesced)
        .correct_general(initiate_off, 7);
    for _ in 1..n {
        b = b.correct();
    }
    let mut sc = b.build();
    let mut now = RealTime::ZERO;
    loop {
        now = (now + d * 2u64).min(horizon);
        sc.run_until(now);
        if now >= horizon {
            break;
        }
        let res = sc.result();
        let decided = res
            .correct
            .iter()
            .filter(|q| res.decision_of(**q, NodeId::new(0)).is_some())
            .count();
        if decided == n {
            sc.run_until((now + d * 4u64).min(horizon));
            break;
        }
    }
    let res = sc.result();
    assert_eq!(
        res.correct
            .iter()
            .filter(|q| res.decision_of(**q, NodeId::new(0)).is_some())
            .count(),
        n,
        "n={n} seed={seed} {}: every node must decide",
        engine_name(engine)
    );
    let wall = started.elapsed();
    let (windows, windowed, critical) = sc.sim().as_sharded().map_or((0, 0, 0), |s| {
        (s.windows_run(), s.windowed_events(), s.critical_events())
    });
    RunStats {
        wall,
        events: sc.sim().events_processed(),
        windows,
        windowed_events: windowed,
        critical_events: critical,
    }
}

fn run_cell(n: usize, f: usize, engine: SimMode, threads: usize, seeds: u64) -> Cell {
    // Both engines of one n get the SAME δ (clamped for the sharded
    // lane count) — the A/B ratio must compare identical simulations.
    let (delta, delta_scaled) = clamped_delta(n, threads);
    let delta = delta_scaled.then_some(delta);
    if delta_scaled {
        eprintln!(
            "  note: n={n} outgrows the default δ's processing bound on {threads} lane(s); δ scaled to {}",
            delta.expect("scaled")
        );
    }
    let mut runs = Vec::new();
    for seed in 1..=seeds {
        let stats = run_once(n, f, seed, engine, delta);
        println!(
            "  n={n:<5} {:<12} seed {seed}: {:?} ({} events)",
            engine_name(engine),
            stats.wall,
            stats.events
        );
        runs.push(stats);
    }
    Cell {
        n,
        engine,
        delta,
        delta_scaled,
        runs,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str, default: u64| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let seeds = flag("--seeds", 3);
    let threads = flag("--threads", 4) as usize;
    let max_n = flag("--max-n", 512) as usize;

    println!("whole-sim scale rows (seeds 1..={seeds}, sharded threads={threads}):");
    let mut cells = Vec::new();
    for (n, f) in [(64usize, 21usize), (256, 85), (512, 170), (1024, 341)] {
        if n > max_n {
            continue;
        }
        // The sequential wheel bows out at n = 1024 (hours per seed).
        if n <= 256 {
            cells.push(run_cell(n, f, SimMode::Sequential, threads, seeds));
        }
        cells.push(run_cell(n, f, SimMode::Sharded(threads), threads, seeds));
    }

    println!("\n\"whole_sim_scale\": {{");
    println!("  \"workload\": \"fault-free correct-General, fixed 250us links, coalesced waves, early-terminated at all-decided + 4d, mean of seeds 1-{seeds}\",");
    for cell in &cells {
        let key = format!("n{}_{}", cell.n, engine_name(cell.engine).replace('-', "_"));
        println!(
            "  \"{key}_mean_ns\": {:.1},\n  \"{key}_min_ns\": {},",
            cell.mean_ns(),
            cell.min_ns()
        );
        if let Some(p) = cell.parallelism() {
            let windows: u64 = cell.runs.iter().map(|r| r.windows).sum();
            println!(
                "  \"{key}_windows\": {},\n  \"{key}_critical_path_parallelism\": {p:.2},",
                windows / cell.runs.len() as u64
            );
        }
        if cell.delta_scaled {
            println!(
                "  \"{key}_delta_ns\": {},",
                cell.delta.expect("scaled").as_nanos()
            );
        }
    }
    for n in [64usize, 256] {
        let seq = cells
            .iter()
            .find(|c| c.n == n && c.engine == SimMode::Sequential);
        let sh = cells
            .iter()
            .find(|c| c.n == n && matches!(c.engine, SimMode::Sharded(_)));
        if let (Some(seq), Some(sh)) = (seq, sh) {
            println!(
                "  \"n{n}_sharded_vs_sequential_speedup\": {:.2},",
                seq.mean_ns() / sh.mean_ns()
            );
        }
    }
    println!("  \"f_per_n\": \"f = (n-1)/3 floor: 21/85/170/341\"");
    println!("}}");
}
