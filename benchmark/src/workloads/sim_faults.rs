//! `sim-n31-faults`: the harness's fault campaigns at n=31 — crash
//! churn, healing partitions, repeated scrambles and the adaptive
//! storm — each burst followed by a probe agreement that must pass the
//! full correct-General battery within `Δ_stb`.

use ssbyz_harness::{run_campaign, CampaignFamily, ScenarioBuilder, ScenarioConfig};
use ssbyz_types::RealTime;

use super::{derive, spanned, Fnv, Outcome, Region, Trace};
use crate::stats;
use crate::trace::Site;

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub n: usize,
    pub f: usize,
    /// Fault bursts (and so probe agreements) per campaign.
    pub bursts: usize,
    /// Throwaway set-ups measured beside every sweep.
    pub setups: usize,
}

impl Shape {
    pub const FULL: Shape = Shape {
        n: 31,
        f: 10,
        bursts: 2,
        setups: 10,
    };
}

/// Per-layer metric carrying one family's wall-clock cost per burst.
pub fn family_metric(family: CampaignFamily) -> &'static str {
    match family {
        CampaignFamily::CrashChurn => "harness.faults.crash_churn_ms_per_burst",
        CampaignFamily::HealingPartitions => "harness.faults.healing_partitions_ms_per_burst",
        CampaignFamily::RepeatedScrambles => "harness.faults.repeated_scrambles_ms_per_burst",
        CampaignFamily::AdaptiveStorm => "harness.faults.adaptive_storm_ms_per_burst",
    }
}

pub fn run(shape: &Shape, seed: u64, secs: f64, trace: Trace<'_>) -> Outcome {
    let mut out = Outcome::default();
    let mut per_family: Vec<Vec<f64>> = vec![Vec::new(); CampaignFamily::ALL.len()];
    let mut stabilization_d = 0.0f64;
    let mut hash = Fnv::new();
    let region = Region::begin(secs);
    let mut sweep = 0u64;
    while sweep == 0 || !region.over() {
        // `run_campaign` wires and boots its cluster inside; the
        // same-size cluster built through the scenario builder stands
        // in for that set-up.
        out.time_setups(shape.setups, |lane| {
            let cfg = ScenarioConfig::new(shape.n, shape.f).with_seed(derive(seed, lane));
            let mut b = ScenarioBuilder::new(cfg);
            for _ in 0..shape.n {
                b = b.correct();
            }
            b.build().run_until(RealTime::ZERO);
        });
        if let Some(t) = trace {
            t.set_op(sweep);
            t.keep_spans(sweep == 0);
        }
        let sweep_seed = derive(seed, sweep);
        let before = out.decisions;
        let sweep_wall = std::time::Instant::now();
        for (fi, family) in CampaignFamily::ALL.into_iter().enumerate() {
            let t = std::time::Instant::now();
            let report = spanned(trace, Site::HarnessCampaign, shape.bursts as u64, || {
                run_campaign(shape.n, shape.f, sweep_seed, family, shape.bursts)
            });
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            per_family[fi].push(wall_ms / shape.bursts as f64);

            for (bi, burst) in report.bursts.iter().enumerate() {
                out.attempted += 1;
                match burst.all_correct_after {
                    Some(after) if burst.violations.is_empty() && after < report.delta_stb => {
                        out.decisions += 1;
                        let in_d = after.as_nanos() as f64 / report.d.as_nanos() as f64;
                        stabilization_d = stabilization_d.max(in_d);
                    }
                    after => out.fail(|| {
                        format!(
                            "sweep {sweep} {} burst {bi}: all-correct after {after:?} (Δ_stb {:?}), {:?}",
                            family.name(),
                            report.delta_stb,
                            burst.violations
                        )
                    }),
                }
            }
            if report.bursts.len() != shape.bursts || !report.stabilized() {
                out.fail(|| {
                    format!(
                        "sweep {sweep} {}: campaign did not stabilize",
                        family.name()
                    )
                });
            }
            if sweep == 0 {
                hash.bytes(format!("{:?}", report.bursts).as_bytes());
            }
        }
        // One sample per sweep: the families differ tenfold in cost, so
        // only a whole sweep is a like-for-like unit.
        let decided = (out.decisions - before) as f64;
        let wall = sweep_wall.elapsed().as_secs_f64();
        if decided > 0.0 {
            out.rate.push(decided / wall);
            out.latency_ms.push(wall * 1e3 / decided);
        }
        sweep += 1;
    }
    region.end(&mut out);
    out.fingerprint = hash.finish();

    out.layer("simtime.stabilization_d", stabilization_d);
    for (fi, family) in CampaignFamily::ALL.into_iter().enumerate() {
        out.layer(
            family_metric(family),
            stats::median(&per_family[fi]).unwrap_or(0.0),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::named;

    // The smallest membership the adaptive storm is defined for: at
    // n=4 its stalker plus one crash already exceed f.
    const SMALL: Shape = Shape {
        n: 7,
        f: 2,
        bursts: 1,
        setups: 1,
    };

    #[test]
    fn one_sweep_stabilizes_and_repeats_exactly_per_seed() {
        let a = run(&SMALL, 7, 0.0, None);
        let b = run(&SMALL, 7, 0.0, None);
        let c = run(&SMALL, 8, 0.0, None);
        assert_eq!(a.attempted, CampaignFamily::ALL.len() as u64);
        assert_eq!(a.failed, 0, "{:?}", a.problems);
        assert_eq!(a.rate.len(), 1);
        assert_eq!(a.latency_ms.len(), 1);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(a.fingerprint, c.fingerprint);
        let stab = |o: &Outcome| named(&o.layer, "simtime.stabilization_d").unwrap();
        assert_eq!(stab(&a), stab(&b));
        assert!(stab(&a) > 0.0);
    }
}
