//! `sim-n64-wave`: back-to-back single-shot agreements at n=64 over
//! fixed-delay links, so every instant is draw-free and the simulator
//! hands each node whole waves (`on_wave_ref` / `record_wave`).

use ssbyz_core::Engine;
use ssbyz_harness::experiments::slack;
use ssbyz_harness::scenario::ScenarioResult;
use ssbyz_harness::{checks, EngineProcess, RunningScenario, ScenarioBuilder, ScenarioConfig};
use ssbyz_types::{Duration, NodeId, RealTime};

use super::{derive, spanned, Fnv, Outcome, Region, Trace};
use crate::stats;
use crate::trace::{HandlerSites, Site, Timed};

/// Membership, fault budget and the fixed link delay.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub n: usize,
    pub f: usize,
    pub link: Duration,
    /// Throwaway set-ups measured beside every agreement.
    pub setups: usize,
}

impl Shape {
    pub const FULL: Shape = Shape {
        n: 64,
        f: 21,
        link: Duration::from_micros(250),
        setups: 1,
    };
}

/// One agreement's inputs, all from the run seed and the rep number.
fn inputs(shape: &Shape, seed: u64, rep: u64) -> (ScenarioConfig, u64) {
    let rep_seed = derive(seed, rep);
    let cfg = ScenarioConfig::new(shape.n, shape.f)
        .with_seed(rep_seed)
        .with_actual_delays(shape.link, shape.link);
    (cfg, 40 + rep_seed % 1000)
}

/// Wires the scenario `experiments::run_correct_general` runs — node 0
/// initiates `value` 4d after boot, everyone else is a correct
/// bystander — with every node wrapped in [`Timed`] when tracing.
/// Returns it with the initiation's real time and the run horizon.
fn build(
    cfg: ScenarioConfig,
    value: u64,
    trace: Trace<'_>,
) -> (RunningScenario, RealTime, RealTime) {
    let params = cfg.params().expect("n > 3f");
    let initiate_off = params.d() * 4u64;
    let mut b = ScenarioBuilder::new(cfg);
    for i in 0..cfg.n {
        let general = i == 0;
        b = match trace {
            None if general => b.correct_general(initiate_off, value),
            None => b.correct(),
            Some(t) => {
                let id = NodeId::new(i as u32);
                let mut p = EngineProcess::new(Engine::new(id, params), cfg.tick);
                if general {
                    p = p.with_initiation(initiate_off, value);
                }
                b.byzantine(Box::new(Timed::new(p, t, HandlerSites::ENGINE)))
            }
        };
    }
    let sc = b.build();
    let clock0 = sc.sim().clock(NodeId::new(0));
    let t0 = clock0.real_of_local(clock0.local_at(RealTime::ZERO) + initiate_off);
    let until = RealTime::ZERO + params.delta_agr() + params.d() * 30u64;
    (sc, t0, until)
}

/// What one agreement produced.
pub struct Rep {
    pub result: ScenarioResult,
    pub t0: RealTime,
    pub value: u64,
    pub events: u64,
}

/// Builds, runs and distils one agreement.
pub fn rep(shape: &Shape, seed: u64, rep: u64, trace: Trace<'_>) -> Rep {
    let (cfg, value) = inputs(shape, seed, rep);
    let (mut sc, t0, until) = spanned(trace, Site::HarnessBuild, 0, || build(cfg, value, trace));
    spanned(trace, Site::SimRunUntil, 0, || sc.run_until(until));
    let mut result = spanned(trace, Site::HarnessResult, 0, || sc.result());
    if trace.is_some() {
        // The builder lists only nodes it made itself as correct; the
        // wrapped ones went in through its custom-process door.
        result.correct = (0..cfg.n as u32).map(NodeId::new).collect();
    }
    Rep {
        result,
        t0,
        value,
        events: sc.sim().events_processed(),
    }
}

/// Messages delivered plus who decided what, when.
pub fn fingerprint(r: &Rep) -> u64 {
    let mut h = Fnv::new();
    h.word(r.result.metrics.delivered);
    h.word(r.result.metrics.sent);
    let mut decisions: Vec<_> = r
        .result
        .decisions
        .iter()
        .map(|d| (d.node.index() as u64, d.value, d.real_at.as_nanos()))
        .collect();
    decisions.sort_unstable();
    for (node, value, at) in decisions {
        h.word(node);
        h.word(value.unwrap_or(u64::MAX));
        h.word(at);
    }
    h.finish()
}

/// Simulated time from initiation to the last correct node's decision,
/// in units of `d`.
pub fn decide_latency_d(r: &Rep) -> Option<f64> {
    let last = r
        .result
        .decides_for(NodeId::new(0))
        .iter()
        .map(|d| d.real_at)
        .max()?;
    Some(last.saturating_since(r.t0).as_nanos() as f64 / r.result.params.d().as_nanos() as f64)
}

pub fn run(shape: &Shape, seed: u64, secs: f64, trace: Trace<'_>) -> Outcome {
    let mut out = Outcome::default();
    let general = NodeId::new(0);
    let (mut delivered, mut sent, mut events) = (0u64, 0u64, 0u64);
    let mut simtime_d = Vec::new();
    let region = Region::begin(secs);
    let mut i = 0u64;
    while i == 0 || !region.over() {
        // Set-up is wiring the cluster and booting it: every node's
        // start hook has run and the first timers are queued.
        out.time_setups(shape.setups, |lane| {
            let (cfg, value) = inputs(shape, seed, lane);
            let (mut sc, _, _) = build(cfg, value, None);
            sc.run_until(RealTime::ZERO);
        });
        if let Some(t) = trace {
            t.set_op(i);
            t.keep_spans(i == 0);
        }
        let t = std::time::Instant::now();
        let r = spanned(trace, Site::Segment, 1, || rep(shape, seed, i, trace));
        let wall = t.elapsed().as_secs_f64();

        out.attempted += 1;
        let violations = checks::check_correct_general_run(
            &r.result,
            general,
            r.value,
            r.t0,
            slack(r.result.params.d()),
        );
        let decided = r.result.decides_for(general).len();
        if !violations.is_ok() || decided != shape.n {
            out.fail(|| format!("rep {i}: {decided}/{} decided, {:?}", shape.n, violations.0));
        } else {
            out.decisions += 1;
            out.rate.push(1.0 / wall);
            out.latency_ms.push(wall * 1e3);
            simtime_d.extend(decide_latency_d(&r));
        }
        if i == 0 {
            out.fingerprint = fingerprint(&r);
        }
        delivered += r.result.metrics.delivered;
        sent += r.result.metrics.sent;
        events += r.events;
        i += 1;
    }
    region.end(&mut out);

    let per = out.decisions.max(1) as f64;
    out.layer("simnet.msgs_per_decision", delivered as f64 / per);
    out.layer("simnet.events_per_decision", events as f64 / per);
    out.layer(
        "core.broadcasts_per_decision",
        sent as f64 / shape.n as f64 / per,
    );
    out.layer(
        "simtime.decide_latency_d",
        stats::median(&simtime_d).unwrap_or(0.0),
    );
    if let Some(t) = trace {
        let handlers = t.sum_of(&HandlerSites::ENGINE.all());
        let segments = t.sum(Site::Segment);
        let residual = segments.total_ns - handlers.total_ns;
        out.layer(
            "core.engine.handler_ns_per_msg",
            handlers.total_ns / delivered.max(1) as f64,
        );
        out.layer("simnet.self_ns_per_msg", residual / delivered.max(1) as f64);
        out.layer("simnet.self_frac", residual / segments.total_ns.max(1.0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use crate::workloads::named;
    use ssbyz_harness::experiments::run_correct_general;

    const SMALL: Shape = Shape {
        n: 7,
        f: 2,
        link: Duration::from_micros(250),
        setups: 1,
    };

    #[test]
    fn same_seed_same_run_traced_or_not_and_equal_to_the_public_driver() {
        let bare = rep(&SMALL, 11, 0, None);
        let again = rep(&SMALL, 11, 0, None);
        let tracer = Tracer::new();
        let traced = rep(&SMALL, 11, 0, Some(&tracer));
        assert_eq!(fingerprint(&bare), fingerprint(&again));
        assert_eq!(fingerprint(&bare), fingerprint(&traced));
        assert_eq!(bare.events, traced.events);
        assert_eq!(decide_latency_d(&bare), decide_latency_d(&traced));
        assert_eq!(
            tracer.sum_of(&HandlerSites::ENGINE.all()).items,
            bare.result.metrics.delivered
        );

        // The benchmark's wiring is the harness's own driver, rebuilt
        // only so the nodes can be wrapped.
        let (cfg, value) = inputs(&SMALL, 11, 0);
        let (public, t0) =
            run_correct_general(SMALL.n, SMALL.f, cfg.seed, SMALL.link, SMALL.link, value);
        assert_eq!(public.metrics, bare.result.metrics);
        assert_eq!(public.decisions, bare.result.decisions);
        assert_eq!(t0, bare.t0);
    }

    #[test]
    fn another_seed_is_another_execution() {
        let a = rep(&SMALL, 11, 0, None);
        let b = rep(&SMALL, 12, 0, None);
        let c = rep(&SMALL, 11, 1, None);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn a_short_run_passes_its_gate_and_attributes_its_wall_time() {
        let tracer = Tracer::new();
        let out = run(&SMALL, 5, 0.05, Some(&tracer));
        assert!(out.attempted >= 1);
        assert_eq!(out.failed, 0, "{:?}", out.problems);
        assert_eq!(out.decisions, out.attempted);
        assert_eq!(out.setup_s.len() as u64, out.attempted);
        let get = |name: &str| named(&out.layer, name).unwrap();
        assert!(get("core.engine.handler_ns_per_msg") > 0.0);
        let frac = get("simnet.self_frac");
        assert!(frac > 0.0 && frac < 1.0, "{frac}");
        // With every link at a fixed 250 µs the decision lands a fixed
        // number of hops after initiation.
        assert!(get("simtime.decide_latency_d") > 0.0);
    }
}
