//! Multi-sample whole-simulation scale rows: the fault-free
//! correct-General scenario timed end to end at n = 64, 256 and 512
//! (n = 1024 gated on host memory, see below), mean and min of ≥ 3
//! seeds per cell (single runs swing with container load and are not
//! trusted for whole-sim numbers).
//!
//! Cells:
//!
//! * n = 64, f = 21 — fixed 250 µs links (the wave-coalescing shape:
//!   every delivery instant is draw-free and fan-in lands as whole
//!   waves);
//! * n = 256, f = 85 and n = 512, f = 170 — the same shape; δ is scaled
//!   per `clamped_delta` so the processing bound stays honest, and the
//!   row records the scaled value. n = 512 takes about a minute per
//!   seed;
//! * n = 1024, f = 341 — behind `--max-n 1024`, for hosts with ≥ 48
//!   GiB of RAM. The limit is protocol state, not the simulator: each
//!   node's msgd-broadcast keeps one triplet (a slab stride holding
//!   three logs of `n` 8-byte stamps, plus their occupancy words) per
//!   concurrent broadcaster, and during the relay storm all `n`
//!   instances are live at once — `n³ · 24 B` of stamps system-wide
//!   (`docs/PERF.md` § Whole-simulation scale has the measured peaks).
//!
//! Runs terminate early once every node has decided (plus a 4d drain),
//! capped at the Δ_agr + 30d battery horizon. After each cell the
//! process's peak resident set (`VmHWM` from `/proc/self/status`) is
//! printed with it divided by `n`, the bytes per node; cells run in
//! ascending `n`, so each reading is that cell's peak. Output is a JSON
//! fragment on stdout; the recorded numbers are in `docs/PERF.md` §
//! Whole-simulation scale.
//!
//! ```text
//! cargo run --release --example whole_sim_scale [-- --seeds N] [--max-n 1024]
//! ```

use ssbyz::harness::faults::clamped_delta;
use ssbyz::harness::{ScenarioBuilder, ScenarioConfig};
use ssbyz::{Duration, NodeId, RealTime};
use std::time::Instant;

struct Cell {
    n: usize,
    /// The scaled δ, when `clamped_delta` scaled it.
    delta: Option<Duration>,
    runs: Vec<RunStats>,
    /// The process's peak resident set after the cell, if known.
    peak_rss: Option<u64>,
}

struct RunStats {
    wall: std::time::Duration,
    events: u64,
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
}

/// One timed whole-sim run: build, run in 2d slices until every node
/// decided (then drain 4d), capped at the battery horizon.
fn run_once(n: usize, f: usize, seed: u64, delta: Option<Duration>) -> RunStats {
    let mut cfg = ScenarioConfig::new(n, f)
        .with_seed(seed)
        .with_actual_delays(Duration::from_micros(250), Duration::from_micros(250));
    if let Some(delta) = delta {
        cfg.delta = delta;
        cfg.tick = cfg.params().expect("valid").d();
    }
    let params = cfg.params().expect("valid");
    let d = params.d();
    let initiate_off = d * 4u64;
    let horizon = RealTime::ZERO + params.delta_agr() + d * 30u64;

    let started = Instant::now();
    let mut b = ScenarioBuilder::new(cfg).correct_general(initiate_off, 7);
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
        "n={n} seed={seed}: every node must decide"
    );
    RunStats {
        wall: started.elapsed(),
        events: sc.sim().events_processed(),
    }
}

/// The process's peak resident set in bytes (`VmHWM` in
/// `/proc/self/status`); `None` where procfs does not report it.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse::<u64>()
        .ok()?;
    Some(kib * 1024)
}

fn run_cell(n: usize, f: usize, seeds: u64) -> Cell {
    let (delta, scaled) = clamped_delta(n);
    let delta = scaled.then_some(delta);
    if let Some(delta) = delta {
        eprintln!("  note: n={n} outgrows the default δ's processing bound; δ scaled to {delta}");
    }
    let mut runs = Vec::new();
    for seed in 1..=seeds {
        let stats = run_once(n, f, seed, delta);
        println!(
            "  n={n:<5} seed {seed}: {:?} ({} events)",
            stats.wall, stats.events
        );
        runs.push(stats);
    }
    let peak_rss = peak_rss_bytes();
    if let Some(rss) = peak_rss {
        println!(
            "  n={n:<5} peak RSS {:.1} MiB, {} B per node",
            rss as f64 / (1024.0 * 1024.0),
            rss / n as u64
        );
    }
    Cell {
        n,
        delta,
        runs,
        peak_rss,
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
    let max_n = flag("--max-n", 512) as usize;

    println!("whole-sim scale rows (seeds 1..={seeds}):");
    let cells: Vec<Cell> = [(64usize, 21usize), (256, 85), (512, 170), (1024, 341)]
        .into_iter()
        .filter(|(n, _)| *n <= max_n)
        .map(|(n, f)| run_cell(n, f, seeds))
        .collect();

    println!("\n\"whole_sim_scale\": {{");
    println!("  \"workload\": \"fault-free correct-General, fixed 250us links, coalesced waves, early-terminated at all-decided + 4d, mean of seeds 1-{seeds}\",");
    for cell in &cells {
        let key = format!("n{}", cell.n);
        println!(
            "  \"{key}_mean_ns\": {:.1},\n  \"{key}_min_ns\": {},",
            cell.mean_ns(),
            cell.min_ns()
        );
        if let Some(delta) = cell.delta {
            println!("  \"{key}_delta_ns\": {},", delta.as_nanos());
        }
        if let Some(rss) = cell.peak_rss {
            println!(
                "  \"{key}_peak_rss_bytes\": {rss},\n  \"{key}_bytes_per_node\": {},",
                rss / cell.n as u64
            );
        }
    }
    println!("  \"f_per_n\": \"f = (n-1)/3 floor: 21/85/170/341\"");
    println!("}}");
}
