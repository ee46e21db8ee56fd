//! Fault-injection campaign: repeated mid-run fault bursts — crash
//! churn, healing partitions, state scrambles, adaptive storms — each
//! bracketed by a companion agreement the burst disrupts and a probe
//! agreement that must pass the full property battery. Measures
//! time-to-stabilize, disruption decay and containment radius per burst
//! and writes `CAMPAIGN_stabilization.json` (deterministic per seed, byte
//! identical across re-runs). The `n = 256` cell's assumed δ is scaled
//! because the membership outgrows the processing bound the default δ
//! models (the run says so); it takes minutes, the rest seconds.
//!
//! ```text
//! cargo run --release --example fault_campaign            # full grid
//! cargo run --release --example fault_campaign -- --smoke # CI smoke
//! ```

use std::fmt::Write as _;

use ssbyz::harness::faults::{
    clamped_delta, run_campaign_spec, CampaignFamily, CampaignSpec, StabilizationReport,
};
use ssbyz::Duration;

const SEED: u64 = 1;

fn fmt_opt(d: Option<Duration>) -> String {
    d.map_or_else(|| "null".into(), |d| d.as_nanos().to_string())
}

fn render_row(out: &mut String, report: &StabilizationReport) {
    let _ = write!(
        out,
        "    {{\n      \"family\": \"{}\",\n      \"n\": {},\n      \"f\": {},\n      \"seed\": {},\n      \"d_ns\": {},\n      \"delta_agr_ns\": {},\n      \"delta_stb_ns\": {},\n      \"settle_ns\": {},\n      \"max_stabilization_ns\": {},\n      \"max_containment\": {},\n      \"stabilized\": {},\n      \"bursts\": [\n",
        report.family,
        report.n,
        report.f,
        report.seed,
        report.d.as_nanos(),
        report.delta_agr.as_nanos(),
        report.delta_stb.as_nanos(),
        report.settle.as_nanos(),
        fmt_opt(report.max_stabilization()),
        report.max_containment(),
        report.stabilized(),
    );
    for (i, b) in report.bursts.iter().enumerate() {
        let sep = if i + 1 == report.bursts.len() {
            ""
        } else {
            ","
        };
        // Absolute instants carry the `_ns` suffix alone; spans since
        // the burst carry `_after_ns` (the old `first_decision_ns` name
        // made a span look comparable to the absolute `probe_t0_ns`).
        let _ = writeln!(
            out,
            "        {{\"burst_at_ns\": {}, \"probe_t0_ns\": {}, \"companion_t0_ns\": {}, \"first_decision_after_ns\": {}, \"all_correct_after_ns\": {}, \"disrupted_first_after_ns\": {}, \"disrupted_all_after_ns\": {}, \"disrupted_decides\": {}, \"disrupted_aborts\": {}, \"containment_radius\": {}, \"wrong_outputs\": {}, \"violations\": {}}}{sep}",
            b.burst_at.as_nanos(),
            b.probe_t0.as_nanos(),
            b.companion_t0.as_nanos(),
            fmt_opt(b.first_decision_after),
            fmt_opt(b.all_correct_after),
            fmt_opt(b.disrupted_first_after),
            fmt_opt(b.disrupted_all_after),
            b.disrupted_decides,
            b.disrupted_aborts,
            b.containment_radius,
            b.wrong_outputs,
            b.violations.len(),
        );
    }
    let _ = write!(out, "      ]\n    }}");
}

/// Builds the cell spec, scaling δ when `n` outgrows what the default
/// bound's processing budget can honestly model.
fn spec_for(n: usize, f: usize, family: CampaignFamily, bursts: usize) -> CampaignSpec {
    let (delta, scaled) = clamped_delta(n);
    let mut spec = CampaignSpec::new(n, f, SEED, family, bursts);
    if scaled {
        eprintln!("  note: n={n} outgrows the default δ's processing bound; scaling δ to {delta}");
        spec.delta = Some(delta);
    }
    spec
}

fn run_cell(spec: &CampaignSpec) -> StabilizationReport {
    let report = run_campaign_spec(spec);
    println!(
        "  {:<20} n={:<4} f={:<3} bursts={}  stabilize≤{:<12} containment≤{}  {}",
        report.family,
        report.n,
        report.f,
        report.bursts.len(),
        report
            .max_stabilization()
            .map_or_else(|| "∞".into(), |d| format!("{d}")),
        report.max_containment(),
        if report.stabilized() { "✓" } else { "✗" },
    );
    for v in report.violations() {
        println!("      violation: {v}");
    }
    report
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    if smoke {
        // CI smoke: one crash-churn burst and one mid-run scramble burst
        // at n = 7, plus one crash-churn burst at n = 64 (the largest
        // membership the default δ covers), must all stabilize with zero
        // safety violations.
        println!("fault-campaign smoke (seed={SEED}):");
        let churn = run_cell(&spec_for(7, 2, CampaignFamily::CrashChurn, 1));
        let scramble = run_cell(&spec_for(7, 2, CampaignFamily::RepeatedScrambles, 1));
        let big = run_cell(&spec_for(64, 21, CampaignFamily::CrashChurn, 1));
        for report in [&churn, &scramble, &big] {
            assert!(
                report.stabilized(),
                "{} (n={}) must stabilize: {:?}",
                report.family,
                report.n,
                report.violations()
            );
            assert!(
                report.max_stabilization().is_some(),
                "stabilization time must be finite"
            );
        }
        println!("smoke passed: finite stabilization, zero violations ✓");
        return;
    }

    println!("fault-injection campaign grid (seed={SEED}):");
    let mut rows: Vec<StabilizationReport> = Vec::new();
    for (n, f) in [(7usize, 2usize), (16, 5), (64, 21)] {
        for family in CampaignFamily::ALL {
            rows.push(run_cell(&spec_for(n, f, family, 2)));
        }
    }
    // The n = 256 whole-sim cell: one burst under the scaled δ, minutes
    // of wall-clock where the rest of the grid takes seconds.
    rows.push(run_cell(&spec_for(256, 85, CampaignFamily::CrashChurn, 1)));

    let stabilized = rows.iter().filter(|r| r.stabilized()).count();
    println!("\n{stabilized}/{} cells stabilized", rows.len());
    assert_eq!(
        stabilized,
        rows.len(),
        "every campaign cell must stabilize; violations: {:?}",
        rows.iter()
            .flat_map(StabilizationReport::violations)
            .collect::<Vec<_>>()
    );

    let mut out = String::from("{\n  \"seed\": ");
    let _ = write!(out, "{SEED},\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        render_row(&mut out, row);
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write("CAMPAIGN_stabilization.json", &out).expect("write CAMPAIGN_stabilization.json");
    println!("wrote CAMPAIGN_stabilization.json");
}
