//! The repository's benchmark: one seeded driver, five workloads.
//!
//! ```text
//! ssbyz-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ssbyz-benchmark all    [--seed n] [--seconds s] [--smoke]
//! ssbyz-benchmark repeat [--workload name]... [--k 5] [--seed n] [--seconds s]
//! ssbyz-benchmark spec
//! ```
//!
//! The first form is one run: it prints every metric by name with its
//! unit and, as the last line, the result object the driver reads.
//! `--trace 0` measures the end-to-end metrics with no instrumentation;
//! `--trace 1` measures the per-layer ones. See `README.md`.

mod json;
mod procfs;
mod rungs;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::Arc;

use json::Json;
use procfs::Host;
use spec::{Better, Metric, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use trace::{Site, Tracer};
use workloads::{named, sim_faults, sim_pipe, sim_wave, tcp, Outcome, Trace};

/// Share of a traced run's seconds spent on the bare reference pass.
const REFERENCE_SHARE: f64 = 0.2;
/// Seconds per run of the smoke tier.
const SMOKE_SECONDS: f64 = 0.5;

#[derive(Debug, Clone)]
struct Args {
    command: String,
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    k: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        k: 5,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => args.workloads.push(value("a workload name")?.clone()),
            "--seed" => {
                args.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" | "--secs" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("{a}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("{a} must be positive"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--k" => args.k = value("a count")?.parse().map_err(|e| format!("--k: {e}"))?,
            "--smoke" => args.smoke = true,
            "run" | "all" | "repeat" | "spec" if args.command.is_empty() => {
                args.command = a.clone()
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.command.is_empty() {
        args.command = "run".into();
    }
    for w in &args.workloads {
        if !WORKLOADS.iter().any(|known| known.name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
        }
    }
    if args.command == "run" && args.workloads.len() != 1 {
        return Err("a run takes exactly one --workload".into());
    }
    if args.command == "repeat" && args.k < 5 {
        return Err("--k must be at least 5".into());
    }
    Ok(args)
}

/// Membership size a workload runs at, for the store rung.
fn membership(workload: &str) -> usize {
    match workload {
        "sim-n64-wave" => sim_wave::Shape::FULL.n,
        "sim-n16-pipe-jitter" => sim_pipe::Shape::FULL.n,
        "sim-n31-faults" => sim_faults::Shape::FULL.n,
        _ => tcp::Shape::PACED.n,
    }
}

/// One pass over a workload. The smoke tier shrinks the unit of work a
/// pass cannot go below and the TCP set-up repeats; cluster sizes stay.
fn pass(workload: &str, smoke: bool, seed: u64, secs: f64, trace: Trace<'_>) -> Outcome {
    match workload {
        "sim-n64-wave" => sim_wave::run(&sim_wave::Shape::FULL, seed, secs, trace),
        "sim-n16-pipe-jitter" => {
            let mut shape = sim_pipe::Shape::FULL;
            if smoke {
                shape.stream = 400;
            }
            sim_pipe::run(&shape, seed, secs, trace)
        }
        "sim-n31-faults" => {
            let mut shape = sim_faults::Shape::FULL;
            if smoke {
                shape.bursts = 1;
            }
            sim_faults::run(&shape, seed, secs, trace)
        }
        "tcp-n4-paced" | "tcp-n4-flood-1k" => {
            let paced = workload == "tcp-n4-paced";
            let mut shape = if paced {
                tcp::Shape::PACED
            } else {
                tcp::Shape::FLOOD
            };
            if smoke {
                shape.setups = 2;
            }
            if paced {
                tcp::run::<u64>(&shape, seed, secs, trace)
            } else {
                tcp::run::<Vec<u8>>(&shape, seed, secs, trace)
            }
        }
        other => unreachable!("{other} passed argument validation"),
    }
}

/// One run's result: what the last output line says, plus the lines
/// for people.
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static Metric, f64)>,
    lines: Vec<String>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The object the driver reads: exactly these four keys.
    fn json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(m, v)| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(*v)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
    }
}

fn fmt_quartiles(samples: &[f64]) -> String {
    match stats::quartiles(samples) {
        Some(q) => format!(
            "median of {} samples, q1 {:.6} q3 {:.6}",
            q.count, q.q1, q.q3
        ),
        None => "no samples".into(),
    }
}

/// The end-to-end metrics of one bare pass.
fn end_to_end(out: &Outcome, report: &mut Report) {
    let values = [
        (
            "decisions_per_s",
            stats::median(&out.rate).unwrap_or(0.0),
            fmt_quartiles(&out.rate),
        ),
        (
            "commit_latency_p50_ms",
            stats::median(&out.latency_ms).unwrap_or(0.0),
            fmt_quartiles(&out.latency_ms),
        ),
        (
            "user_cpu_ms_per_decision",
            out.cpu.user_s * 1e3 / out.decisions.max(1) as f64,
            format!(
                "{:.2} s user (+ {:.2} s sys, see runtime.cpu_us_per_decision) over {} decisions",
                out.cpu.user_s, out.cpu.sys_s, out.decisions
            ),
        ),
        (
            "peak_rss_mb",
            procfs::peak_rss_mb(),
            "VmHWM of this process".into(),
        ),
        (
            "setup_s",
            stats::median(&out.setup_s).unwrap_or(0.0),
            fmt_quartiles(&out.setup_s),
        ),
    ];
    for (name, value, note) in values {
        let metric = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("listed in spec");
        report
            .lines
            .push(format!("{name} = {value} {}   ({note})", metric.unit));
        report.metrics.push((metric, value));
    }
}

/// Runs the isolated rungs a workload's layers call for and returns
/// their values by metric name.
fn rungs_for(
    workload: &str,
    smoke: bool,
    seed: u64,
    traced: &Outcome,
    tracer: &Arc<Tracer>,
    problems: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    let iters = if smoke { 50_000 } else { 1_000_000 };
    let mut values = vec![(
        "core.store.record_query_ns",
        rungs::store_record_query_ns(membership(workload), iters),
    )];
    if let Some(depth) = named(&traced.layer, "sched.queue_depth") {
        values.push((
            "sched.insert_pop_ns",
            rungs::sched_insert_pop_ns(depth as usize, seed, iters),
        ));
    }
    if workload.starts_with("tcp-") {
        let slots = if smoke { 100 } else { 2_000 };
        let ladder = if workload == "tcp-n4-paced" {
            rungs::wire_ladder::<u64>(&tcp::Shape::PACED, seed, slots, tracer)
        } else {
            rungs::wire_ladder::<Vec<u8>>(&tcp::Shape::FLOOD, seed, slots, tracer)
        };
        match ladder {
            Ok(rungs) => {
                let ladder_us = named(&rungs, "wire.ladder_us_per_decision").unwrap_or(0.0);
                let cpu_us = traced.cpu.total_s() * 1e6 / traced.decisions.max(1) as f64;
                values.push(("runtime.residual_cpu_us_per_decision", cpu_us - ladder_us));
                values.extend(rungs);
            }
            Err(e) => problems.push(e),
        }
        let broadcasts = if smoke { 500 } else { 5_000 };
        match rungs::reactor_ns_per_frame(tcp::Shape::PACED.n, seed, broadcasts) {
            Ok(ns) => values.push(("wire.reactor.ns_per_frame", ns)),
            Err(e) => problems.push(e),
        }
    }
    values
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One run of one workload, as the driver asks for it.
fn measure(workload: &str, seed: u64, secs: f64, traced: bool, smoke: bool, host: &Host) -> Report {
    let mut report = Report {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        metrics: Vec::new(),
        lines: Vec::new(),
    };
    if !traced {
        let out = pass(workload, smoke, seed, secs, None);
        end_to_end(&out, &mut report);
        report.attempted = out.attempted;
        report.failed = out.failed;
        report.problems = out.problems;
        if !smoke {
            for (m, v) in &report.metrics {
                if *v == 0.0 {
                    report.problems.push(format!("{} measured 0", m.name));
                }
            }
        }
    } else {
        // A short bare pass first: the reference the traced pass's
        // throughput and (simulated) execution are held against.
        let bare = pass(workload, smoke, seed, secs * REFERENCE_SHARE, None);
        let tracer = Tracer::new();
        let out = tracer.span(Site::Run, 0, || {
            let out = pass(
                workload,
                smoke,
                seed,
                secs * (1.0 - REFERENCE_SHARE),
                Some(&tracer),
            );
            // Whatever the pass kept, keep the span that encloses it.
            tracer.keep_spans(true);
            out
        });
        tracer.keep_spans(false);
        report.attempted = bare.attempted + out.attempted;
        report.failed = bare.failed + out.failed;
        report.problems.extend(bare.problems.iter().cloned());
        report.problems.extend(out.problems.iter().cloned());
        if workload.starts_with("sim-") && bare.fingerprint != out.fingerprint {
            report.problems.push(format!(
                "traced and bare pass of seed {seed} diverged: {:#x} vs {:#x}",
                out.fingerprint, bare.fingerprint
            ));
        }

        let mut values = out.layer.clone();
        values.extend(rungs_for(
            workload,
            smoke,
            seed,
            &out,
            &tracer,
            &mut report.problems,
        ));
        let rate = |o: &Outcome| stats::median(&o.rate).unwrap_or(0.0);
        if rate(&bare) > 0.0 {
            values.push(("trace.overhead_frac", 1.0 - rate(&out) / rate(&bare)));
        }
        let cpu_us = out.cpu.total_s() * 1e6 / out.decisions.max(1) as f64;
        values.push(("runtime.cpu_us_per_decision", cpu_us));
        values.push((
            "runtime.sys_cpu_frac",
            out.cpu.sys_s / out.cpu.total_s().max(1e-9),
        ));
        if let Some((tail_q, tail)) = stats::tail(&out.latency_ms, 0.90) {
            values.push(("runtime.commit_latency_p90_ms", tail));
            values.push(("runtime.latency_tail_quantile", tail_q));
        }
        values.push((
            "benchmark.failed_frac",
            report.failed as f64 / report.attempted.max(1) as f64,
        ));
        for metric in &PER_LAYER {
            let value = named(&values, metric.name).unwrap_or(0.0);
            report
                .lines
                .push(format!("{} = {value} {}", metric.name, metric.unit));
            report.metrics.push((metric, value));
        }
        for (name, _) in &values {
            assert!(
                PER_LAYER.iter().any(|m| m.name == *name),
                "{name} missing from spec"
            );
        }
        if !smoke {
            let meta = Json::obj([
                ("workload", Json::str(workload)),
                ("seed", Json::Num(seed as f64)),
                ("seconds", Json::Num(secs)),
                ("nproc", Json::Num(host.nproc as f64)),
                ("cpu_model", Json::str(&host.cpu_model)),
                ("git_rev", Json::str(&host.git_rev)),
            ]);
            let path = out_dir().join(format!("{workload}.trace.jsonl"));
            match tracer.write_jsonl(&path, meta) {
                Ok(()) => report.lines.push(format!(
                    "# {} spans in {}",
                    tracer.spans_kept(),
                    path.display()
                )),
                // The spans are a by-product; the run does not fail
                // for want of a place to put them.
                Err(e) => eprintln!("note: writing {}: {e}", path.display()),
            }
        }
    }
    for (m, v) in &report.metrics {
        if !v.is_finite() {
            report
                .problems
                .push(format!("{} is not a finite number", m.name));
        }
    }
    report
}

/// Seconds a run measures for when the command line does not say.
fn seconds(args: &Args) -> f64 {
    args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        RUN_SECONDS as f64
    })
}

fn run_one(args: &Args) -> ExitCode {
    let workload = &args.workloads[0];
    let secs = seconds(args);
    let host = Host::read();
    println!(
        "# {workload} seed={} seconds={secs} trace={} smoke={}",
        args.seed,
        u8::from(args.trace),
        args.smoke
    );
    println!(
        "# host: nproc={} cpu=\"{}\" git={}",
        host.nproc, host.cpu_model, host.git_rev
    );
    let report = measure(workload, args.seed, secs, args.trace, args.smoke, &host);
    for line in &report.lines {
        println!("{line}");
    }
    println!(
        "# attempted={} failed={} correct={}",
        report.attempted,
        report.failed,
        report.correct()
    );
    for p in &report.problems {
        println!("# problem: {p}");
    }
    println!("{}", report.json().render());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a child run printed last, read back.
struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

/// Runs this same binary as a child, one workload per process, so peak
/// memory and CPU are each workload's own. Echoes its output.
fn child(
    workload: &str,
    seed: u64,
    secs: f64,
    traced: bool,
    smoke: bool,
    echo: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args([
        "--seconds",
        &secs.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("starting child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if echo {
        for line in stdout.lines().filter(|l| *l != last) {
            println!("  {line}");
        }
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let result = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    let correct = result
        .get("correct")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or(format!("{workload}: result has no metrics"))?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: correct && output.status.success(),
        metrics,
    })
}

fn chosen(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| args.workloads.is_empty() || args.workloads.iter().any(|w| w == n))
        .collect()
}

/// Every workload, bare then traced (the smoke tier: traced only, which
/// makes a bare pass of its own).
fn run_all(args: &Args) -> ExitCode {
    let secs = seconds(args);
    let started = std::time::Instant::now();
    let mut ok = true;
    for workload in chosen(args) {
        let modes: &[bool] = if args.smoke { &[true] } else { &[false, true] };
        for traced in modes {
            println!("== {workload} trace={}", u8::from(*traced));
            match child(workload, args.seed, secs, *traced, args.smoke, true) {
                Ok(r) if r.correct => println!("== {workload} trace={}: ok", u8::from(*traced)),
                Ok(_) => {
                    println!(
                        "== {workload} trace={}: FAILED its correctness gate",
                        u8::from(*traced)
                    );
                    ok = false;
                }
                Err(e) => {
                    println!("== {e}");
                    ok = false;
                }
            }
        }
    }
    println!(
        "== {} in {:.1} s",
        if ok { "all workloads passed" } else { "FAILED" },
        started.elapsed().as_secs_f64()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's
/// own direction (negative when `b` is better).
fn worse_by(metric: &Metric, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Two interleaved sets of `k` bare runs of this build, each run with
/// a seed of its own, compared the way the driver compares them.
fn run_repeat(args: &Args) -> ExitCode {
    let secs = seconds(args);
    let mut ok = true;
    for workload in chosen(args) {
        let mut sets: [Vec<Vec<(String, f64)>>; 2] = [Vec::new(), Vec::new()];
        for i in 0..args.k as u64 {
            for (s, set) in sets.iter_mut().enumerate() {
                let seed = args.seed + 2 * i + s as u64;
                match child(workload, seed, secs, false, false, false) {
                    Ok(r) if r.correct => set.push(r.metrics),
                    Ok(_) => {
                        println!("{workload} seed {seed}: FAILED its correctness gate");
                        ok = false;
                    }
                    Err(e) => {
                        println!("{e}");
                        ok = false;
                    }
                }
            }
        }
        println!("== {workload}: two sets of {} runs, {secs} s each", args.k);
        println!(
            "{:<24} {:>14} {:>8} {:>14} {:>8} {:>9} {:>6}  verdict",
            "metric", "median A", "iqr A", "median B", "iqr B", "B worse", "bound"
        );
        for metric in &END_TO_END {
            let column = |set: &Vec<Vec<(String, f64)>>| -> Vec<f64> {
                set.iter()
                    .filter_map(|run| run.iter().find(|(n, _)| n == metric.name).map(|(_, v)| *v))
                    .collect()
            };
            let (Some(a), Some(b)) = (
                stats::quartiles(&column(&sets[0])),
                stats::quartiles(&column(&sets[1])),
            ) else {
                continue;
            };
            let bound = metric.bound.expect("end-to-end");
            let drift = worse_by(metric, a.median, b.median);
            let spread = a.spread().max(b.spread());
            // The contract exempts set-up time from the spread test.
            let spread_ok = metric.name == "setup_s" || spread <= bound;
            let verdict = if drift.abs() > bound || !spread_ok {
                ok = false;
                "EXCEEDS its bound: demote to per-layer or steady it"
            } else if spread > bound / 3.0 && metric.name != "setup_s" {
                "within bound, spread over a third of it"
            } else {
                "steady"
            };
            println!(
                "{:<24} {:>14.6} {:>7.2}% {:>14.6} {:>7.2}% {:>8.2}% {:>5.0}%  {verdict}",
                metric.name,
                a.median,
                a.spread() * 100.0,
                b.median,
                b.spread() * 100.0,
                drift * 100.0,
                bound * 100.0
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ssbyz-benchmark: {e}");
            eprintln!(
                "usage: ssbyz-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n\
                 \x20      ssbyz-benchmark all|repeat|spec [--workload <name>]... [--seed n] [--seconds s] [--k 5] [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    match args.command.as_str() {
        "run" => run_one(&args),
        "all" => run_all(&args),
        "repeat" => run_repeat(&args),
        "spec" => {
            print!("{}", spec::benchmark_json().render_pretty());
            ExitCode::SUCCESS
        }
        other => unreachable!("{other} passed argument validation"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&argv(
            "--workload tcp-n4-paced --seed 42 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.command.as_str(), a.seed, a.seconds, a.trace),
            ("run", 42, Some(15.0), true)
        );
        assert_eq!(a.workloads, ["tcp-n4-paced"]);
        let a = parse_args(&argv("all --smoke")).unwrap();
        assert!(a.smoke && a.command == "all" && a.workloads.is_empty());
        let a = parse_args(&argv("repeat --workload sim-n64-wave --k 6 --secs 2.5")).unwrap();
        assert_eq!((a.k, a.seconds), (6, Some(2.5)));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope --seed 1",
            "--seed 1",
            "--workload sim-n64-wave --trace 2",
            "--workload sim-n64-wave --seconds 0",
            "--workload sim-n64-wave --seed",
            "repeat --k 3",
            "frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn worse_by_follows_the_metrics_direction() {
        let lower = &END_TO_END[1];
        let higher = &END_TO_END[0];
        assert_eq!(
            (lower.better, higher.better),
            (Better::Lower, Better::Higher)
        );
        assert!((worse_by(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(higher, 10.0, 11.0) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn the_result_line_has_exactly_the_contracts_keys() {
        let report = Report {
            attempted: 10,
            failed: 0,
            problems: Vec::new(),
            metrics: vec![(&END_TO_END[0], 12.5)],
            lines: Vec::new(),
        };
        let line = report.json().render();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"decisions_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}}}"
        );
    }
}
