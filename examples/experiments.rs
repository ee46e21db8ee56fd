//! Regenerates the paper-reproduction tables E1–E11 (the drivers, and the
//! paper bound each one measures, are in
//! `crates/harness/src/experiments.rs`). Simulated time only: the output
//! is deterministic per seed count.
//!
//! ```text
//! cargo run --release --example experiments -- [all|e1|…|e11] [--seeds N]
//! ```

use ssbyz::adversary::{SpamGeneral, StaggeredGeneral, TwoFacedGeneral};
use ssbyz::harness::experiments as ex;
use ssbyz::pulse::run_pulse;
use ssbyz::{Duration, NodeId};

/// Formats a duration as a multiple of `d` plus absolute value.
fn in_d(x: Duration, d: Duration) -> String {
    if d.is_zero() {
        return format!("{x}");
    }
    let ratio = x.as_nanos() as f64 / d.as_nanos() as f64;
    format!("{ratio:.2}d ({x})")
}

/// Renders one markdown table row.
fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Renders a markdown header + separator.
fn header(cells: &[&str]) -> String {
    let head = format!("| {} |", cells.join(" | "));
    let sep = format!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    format!("{head}\n{sep}")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = "all".to_string();
    let mut seeds: u64 = 5;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                i += 1;
                seeds = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--seeds needs a number");
            }
            other => which = other.to_string(),
        }
        i += 1;
    }
    let selected: Vec<_> = TABLES
        .iter()
        .filter(|(name, ..)| which == "all" || which == *name)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = TABLES.iter().map(|(name, ..)| *name).collect();
        eprintln!(
            "unknown table {which:?}; valid names: all, {}",
            names.join(", ")
        );
        std::process::exit(2);
    }
    for (_, max_seeds, table) in selected {
        table(seeds.min(*max_seeds));
    }
}

/// A table's name, the most seeds its runtime allows, and its driver.
type Table = (&'static str, u64, fn(u64));

const TABLES: [Table; 11] = [
    ("e1", u64::MAX, e1),
    ("e2", u64::MAX, e2),
    ("e3", u64::MAX, e3),
    ("e4", u64::MAX, e4),
    ("e5", u64::MAX, e5),
    ("e6", 5, e6),
    ("e7", u64::MAX, e7),
    ("e8", u64::MAX, e8),
    ("e9", 3, e9),
    ("e10", u64::MAX, |_| e10()),
    ("e11", 3, e11),
];

fn e1(seeds: u64) {
    println!("\n## E1 — Validity + Timeliness-2 (correct General)\n");
    println!(
        "{}",
        header(&[
            "n",
            "f",
            "runs",
            "max decide skew (≤2d)",
            "max anchor skew (≤d)",
            "max latency (≤4d)",
            "violations"
        ])
    );
    for (n, f) in [
        (4, 1),
        (7, 2),
        (10, 3),
        (13, 4),
        (16, 5),
        (19, 6),
        (25, 8),
        (31, 10),
    ] {
        let r = ex::e1_validity(n, f, seeds);
        let d = r.latency_bound / 4;
        println!(
            "{}",
            row(&[
                r.n.to_string(),
                r.f.to_string(),
                r.runs.to_string(),
                in_d(r.max_decision_skew, d),
                in_d(r.max_anchor_skew, d),
                in_d(r.max_latency, d),
                r.violations.len().to_string(),
            ])
        );
        for v in &r.violations {
            println!("  VIOLATION: {v}");
        }
    }
}

fn e2(seeds: u64) {
    println!("\n## E2 — Agreement under a Byzantine General (n=7, f=2)\n");
    println!(
        "{}",
        header(&[
            "strategy",
            "runs",
            "decide runs",
            "quiet runs",
            "max decide skew (≤3d)",
            "violations"
        ])
    );
    let n = 7;
    let f = 2;
    let rows = vec![
        ex::e2_byzantine_general("two-faced (split 3/3)", n, f, seeds, &|_, p| {
            Box::new(TwoFacedGeneral::new(
                100,
                200,
                (1..4).map(NodeId::new).collect(),
                p,
            ))
        }),
        ex::e2_byzantine_general("two-faced (split 1/5)", n, f, seeds, &|_, p| {
            Box::new(TwoFacedGeneral::new(100, 200, vec![NodeId::new(1)], p))
        }),
        ex::e2_byzantine_general(
            "staggered (same value, 10d spread)",
            n,
            f,
            seeds,
            &|_, p| Box::new(StaggeredGeneral::new(300, p.d() * 2u64, p.d() * 10u64)),
        ),
        ex::e2_byzantine_general("spam (5 values, every 2d)", n, f, seeds, &|_, p| {
            Box::new(SpamGeneral::new(vec![1, 2, 3, 4, 5], p.d() * 2u64))
        }),
    ];
    for r in rows {
        let d = Duration::from_micros(10_001); // d of the default config
        println!(
            "{}",
            row(&[
                r.strategy.to_string(),
                r.runs.to_string(),
                r.decide_runs.to_string(),
                r.quiet_runs.to_string(),
                in_d(r.max_decision_skew, d),
                r.violations.len().to_string(),
            ])
        );
        for v in &r.violations {
            println!("  VIOLATION: {v}");
        }
    }
}

fn e3(seeds: u64) {
    println!("\n## E3 — Termination within Δ_agr (n=7, f=2)\n");
    println!(
        "{}",
        header(&["scenario", "returns", "max running time", "bound Δ_agr+8d"])
    );
    for r in ex::e3_termination(7, 2, seeds) {
        println!(
            "{}",
            row(&[
                r.scenario.to_string(),
                r.returns.to_string(),
                format!("{}", r.max_running_time),
                format!("{}", r.bound),
            ])
        );
    }
}

fn e4(seeds: u64) {
    println!("\n## E4 — O(f′) early stopping (n=13, f=4)\n");
    println!(
        "{}",
        header(&[
            "f′",
            "ours (mean completion)",
            "lock-step baseline",
            "bound Δ_agr"
        ])
    );
    for fa in 0..=4 {
        let r = ex::e4_early_stopping(13, 4, fa, seeds);
        println!(
            "{}",
            row(&[
                r.f_actual.to_string(),
                format!("{}", r.ours),
                format!("{}", r.baseline),
                format!("{}", r.bound),
            ])
        );
    }
}

fn e5(seeds: u64) {
    println!("\n## E5 — Message-driven rounds vs lock-step (n=7, f=2)\n");
    println!(
        "{}",
        header(&["δ_act / δ", "ours (mean completion)", "baseline", "speedup"])
    );
    for pct in [1, 2, 5, 10, 25, 50, 75, 100] {
        let r = ex::e5_message_driven(7, 2, pct, seeds);
        let speedup = if r.ours.is_zero() {
            "∞".to_string()
        } else {
            format!(
                "{:.1}x",
                r.baseline.as_nanos() as f64 / r.ours.as_nanos() as f64
            )
        };
        println!(
            "{}",
            row(&[
                format!("{pct}%"),
                format!("{}", r.ours),
                format!("{}", r.baseline),
                speedup,
            ])
        );
    }
}

fn e6(seeds: u64) {
    println!("\n## E6 — Convergence from arbitrary state\n");
    println!(
        "{}",
        header(&[
            "n",
            "f",
            "runs",
            "converged",
            "settle granted",
            "bound Δ_stb"
        ])
    );
    for (n, f) in [(4, 1), (7, 2)] {
        let r = ex::e6_convergence(n, f, seeds, 90);
        println!(
            "{}",
            row(&[
                n.to_string(),
                f.to_string(),
                r.runs.to_string(),
                r.converged.to_string(),
                format!("{}", r.settle),
                format!("{}", r.delta_stb),
            ])
        );
        for v in r.violations.iter().take(5) {
            println!("  VIOLATION: {v}");
        }
    }
}

fn e7(seeds: u64) {
    println!("\n## E7 — Initiator-Accept bounds [IA-1]\n");
    println!(
        "{}",
        header(&[
            "n",
            "f",
            "runs",
            "max accept latency (≤4d)",
            "max accept skew (≤2d)",
            "max anchor skew (≤d)",
            "violations"
        ])
    );
    for (n, f) in [(4, 1), (7, 2), (13, 4), (19, 6), (31, 10)] {
        let r = ex::e7_ia_bounds(n, f, seeds);
        println!(
            "{}",
            row(&[
                r.n.to_string(),
                r.f.to_string(),
                r.runs.to_string(),
                in_d(r.max_accept_latency, r.d),
                in_d(r.max_accept_skew, r.d),
                in_d(r.max_anchor_skew, r.d),
                r.violations.len().to_string(),
            ])
        );
    }
}

fn e8(seeds: u64) {
    println!("\n## E8 — Unforgeability [IA-2] / [TPS-2]\n");
    println!(
        "{}",
        header(&[
            "n",
            "f",
            "runs",
            "forged accepts",
            "forged decisions",
            "clean completions"
        ])
    );
    for (n, f) in [(4, 1), (7, 2)] {
        let r = ex::e8_unforgeability(n, f, seeds);
        println!(
            "{}",
            row(&[
                n.to_string(),
                f.to_string(),
                r.runs.to_string(),
                r.forged_accepts.to_string(),
                r.forged_decisions.to_string(),
                r.clean_completions.to_string(),
            ])
        );
    }
}

fn e9(seeds: u64) {
    println!("\n## E9 — Uniqueness / separation [IA-4] under spam (n=7, f=2)\n");
    println!(
        "{}",
        header(&[
            "runs",
            "I-accepts",
            "min distinct-value anchor gap (>4d)",
            "violations"
        ])
    );
    let r = ex::e9_separation(7, 2, seeds);
    println!(
        "{}",
        row(&[
            r.runs.to_string(),
            r.accepts.to_string(),
            r.min_distinct_gap
                .map_or("n/a".to_string(), |g| format!("{g}")),
            r.violations.len().to_string(),
        ])
    );
    for v in r.violations.iter().take(5) {
        println!("  VIOLATION: {v}");
    }
}

fn e10() {
    println!("\n## E10 — Pulse synchronization atop ss-Byz-Agree\n");
    println!(
        "{}",
        header(&["n", "f", "waves", "full waves", "max pulse skew", "d"])
    );
    for (n, f) in [(4, 1), (7, 2)] {
        let d = Duration::from_millis(10);
        let r = run_pulse(n, f, d, 5, 7);
        println!(
            "{}",
            row(&[
                n.to_string(),
                f.to_string(),
                r.waves.len().to_string(),
                r.full_waves(n).len().to_string(),
                format!("{}", r.max_skew(n)),
                format!("{d}"),
            ])
        );
    }
}

fn e11(seeds: u64) {
    println!("\n## E11 — Message complexity (per agreement)\n");
    println!(
        "{}",
        header(&["n", "f", "messages", "messages / n²", "messages / n³"])
    );
    for (n, f) in [(4, 1), (7, 2), (10, 3), (13, 4), (19, 6), (25, 8)] {
        let r = ex::e11_message_complexity(n, f, seeds);
        println!(
            "{}",
            row(&[
                n.to_string(),
                f.to_string(),
                r.messages.to_string(),
                format!("{:.1}", r.per_n2),
                format!("{:.2}", r.per_n3),
            ])
        );
    }
}
