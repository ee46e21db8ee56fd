//! `sim-n16-pipe-jitter`: a saturating client stream through the slot
//! pipeline at n=16 over jittered links, so every delivery has its own
//! due time: the per-message handler path, a busy timer wheel, and the
//! pipeline's slot multiplexing on top.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssbyz_core::{PipeEvent, PipelineConfig, SlotMsg, SlotPipeline};
use ssbyz_harness::pipeline::{PipelineMsg, PipelineObs};
use ssbyz_harness::{PipelineProcess, ScenarioConfig, Workload};
use ssbyz_simnet::{DriftClock, LinkConfig, SimBuilder, Simulation};
use ssbyz_types::{Duration, LocalTime, NodeId, RealTime};

use super::{derive, spanned, Fnv, Outcome, Region, Trace};
use crate::stats;
use crate::trace::{HandlerSites, Site, Timed};

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub n: usize,
    pub f: usize,
    pub window: u64,
    /// Values of one stream that count as operations.
    pub stream: usize,
    /// Client batch: this many values every `period`.
    pub batch: usize,
    pub period: Duration,
    /// Simulated time advanced per call into the simulator.
    pub step: Duration,
    /// A throughput segment closes once this many slots committed
    /// everywhere.
    pub segment_slots: usize,
    /// Throwaway set-ups measured beside every stream.
    pub setups: usize,
}

impl Shape {
    /// One value every 4 ms: 250/s offered against roughly 290/s of
    /// simulated capacity, so the window is busy but not pinned full.
    /// A saturating stream was sized first and dropped: with the window
    /// pinned, the proposer opens slot k+window the instant it commits
    /// slot k, its Initiator overtakes the commit of k at slower nodes,
    /// they drop it as outside their window, and the slot stalls for
    /// `retry_after` (1.7 stalls per 1000 slots). One stream in ~200 then
    /// wedges for good — six nodes a window ahead, ten never catching up
    /// — and one in ~12 ends with a node one slot short. Below
    /// saturation: no stall, wedge or short log in 160 000 slots.
    pub const FULL: Shape = Shape {
        n: 16,
        f: 5,
        window: 8,
        stream: 2500,
        batch: 1,
        period: Duration::from_millis(4),
        step: Duration::from_millis(250),
        segment_slots: 100,
        setups: 20,
    };
}

/// First value of every stream (`Workload::steady`'s own base).
const BASE: u64 = 1000;

fn config(shape: &Shape, seed: u64, stream: u64) -> ScenarioConfig {
    ScenarioConfig::new(shape.n, shape.f).with_seed(derive(seed, stream))
}

/// Wires what `PipelineScenario::new` wires — same clocks, links and
/// tagger from the same seed — with each node wrapped when tracing.
fn build(
    shape: &Shape,
    cfg: &ScenarioConfig,
    trace: Trace<'_>,
) -> Simulation<PipelineMsg, PipelineObs> {
    let params = cfg.params().expect("n > 3f");
    let pipe_cfg = PipelineConfig::new(NodeId::new(0), &params).with_window(shape.window);
    let workload = Workload::steady(shape.stream, shape.batch, shape.period);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5ca1_ab1e);
    let mut builder = SimBuilder::new(cfg.seed)
        .link(LinkConfig::uniform(cfg.actual_min, cfg.actual_max))
        .tagger(SlotMsg::tag);
    let skew = cfg.clock_skew_max.as_nanos().max(1);
    for i in 0..cfg.n {
        let id = NodeId::new(i as u32);
        let offset = LocalTime::from_nanos(rng.gen_range(0..skew));
        let rate = rng.gen_range(-(cfg.rho_ppm as i32)..=cfg.rho_ppm as i32);
        let clock = DriftClock::new(RealTime::ZERO, offset, rate);
        let mut process =
            PipelineProcess::new(SlotPipeline::new(id, params, pipe_cfg.clone()), cfg.tick);
        if id == pipe_cfg.proposer {
            process = process.with_workload(workload);
        }
        builder = match trace {
            None => builder.node(Box::new(process), clock),
            Some(t) => builder.node(
                Box::new(Timed::new(process, t, HandlerSites::PIPELINE)),
                clock,
            ),
        };
    }
    builder.build()
}

/// What one stream produced.
#[derive(Debug, Default)]
pub struct Stream {
    /// Slots committed by every node, in order, with the right value.
    pub committed: usize,
    pub problems: Vec<String>,
    /// `(slots, wall seconds)` per closed segment.
    pub segments: Vec<(usize, f64)>,
    /// Simulated instant the last counted slot committed everywhere.
    pub done_at: Option<RealTime>,
    /// Commit gaps at the proposer longer than `retry_after`.
    pub stalled: u64,
    pub delivered: u64,
    pub sent: u64,
    pub events: u64,
    pub queue_depth: Vec<f64>,
    pub fingerprint: u64,
}

/// Runs one stream to the point where every node committed every
/// counted value, stepping simulated time and checking each commit as
/// it is observed.
pub fn stream(shape: &Shape, seed: u64, index: u64, trace: Trace<'_>) -> Stream {
    let cfg = config(shape, seed, index);
    let params = cfg.params().expect("n > 3f");
    let retry_after = params.delta_agr() + params.d() * 4u64;
    let mut sim = spanned(trace, Site::HarnessBuild, 0, || build(shape, &cfg, trace));
    let mut s = Stream::default();
    let mut hash = Fnv::new();

    // The client needs stream/batch periods to hand everything over.
    // Past ten times that and a grace, something is stuck.
    let batches = shape.stream.div_ceil(shape.batch) as u64;
    let deadline = RealTime::ZERO + shape.period * (batches * 10) + Duration::from_secs(30);
    let mut count = vec![0usize; shape.n];
    let mut last_proposer_commit: Option<RealTime> = None;
    let mut last_counted_commit = RealTime::ZERO;
    let (mut seg_from, mut seg_wall) = (0usize, 0.0f64);
    let mut now = RealTime::ZERO;
    let mut first_step = true;
    while s.committed < shape.stream && now < deadline {
        now += shape.step;
        if let Some(t) = trace {
            t.keep_spans(index == 0 && first_step);
        }
        first_step = false;
        let t = std::time::Instant::now();
        spanned(trace, Site::SimRunUntil, 0, || sim.run_until(now));
        seg_wall += t.elapsed().as_secs_f64();
        s.queue_depth.push(sim.queue_len() as f64);

        // Taking the log, not reading it, keeps a long stream's
        // resident memory flat.
        for o in &sim.take_observations() {
            let PipeEvent::Committed { slot, value } = &o.event else {
                continue;
            };
            let node = o.node.index();
            hash.word(node as u64);
            hash.word(*slot);
            hash.word(o.real.as_nanos());
            // Gap-free, in order, and the value the client submitted.
            if *slot != count[node] as u64 || **value != BASE + slot {
                s.problems.push(format!(
                    "node {node}: commit #{} is slot {slot} value {value}",
                    count[node]
                ));
            }
            count[node] += 1;
            if count[node] == shape.stream {
                last_counted_commit = last_counted_commit.max(o.real);
            }
            if node == 0 {
                if let Some(prev) = last_proposer_commit {
                    s.stalled += u64::from(o.real.saturating_since(prev) > retry_after);
                }
                last_proposer_commit = Some(o.real);
            }
        }

        let everywhere = count.iter().copied().min().unwrap_or(0).min(shape.stream);
        if everywhere > s.committed {
            s.committed = everywhere;
            if everywhere == shape.stream {
                s.done_at = Some(last_counted_commit);
            }
        }
        if s.committed - seg_from >= shape.segment_slots {
            s.segments.push((s.committed - seg_from, seg_wall));
            seg_from = s.committed;
            seg_wall = 0.0;
        }
    }
    if s.committed < shape.stream {
        s.problems
            .push(format!("gave up at {now:?}; commits per node {count:?}"));
    }
    if let Some(t) = trace {
        // So the span around the first stream is kept with its first step.
        t.keep_spans(index == 0);
    }
    s.delivered = sim.metrics().delivered;
    s.sent = sim.metrics().sent;
    s.events = sim.events_processed();
    hash.word(s.delivered);
    s.fingerprint = hash.finish();
    s
}

pub fn run(shape: &Shape, seed: u64, secs: f64, trace: Trace<'_>) -> Outcome {
    let mut out = Outcome::default();
    let (mut delivered, mut sent, mut events, mut stalled) = (0u64, 0u64, 0u64, 0u64);
    let mut simtime_rate = Vec::new();
    let mut depth = Vec::new();
    let region = Region::begin(secs);
    let mut i = 0u64;
    while i == 0 || !region.over() {
        // Set-up is wiring the cluster and booting it.
        out.time_setups(shape.setups, |lane| {
            build(shape, &config(shape, seed, lane), None).run_until(RealTime::ZERO);
        });
        if let Some(t) = trace {
            t.set_op(i);
        }
        let s = spanned(trace, Site::Segment, shape.stream as u64, || {
            stream(shape, seed, i, trace)
        });
        out.attempted += shape.stream as u64;
        out.decisions += s.committed.saturating_sub(s.problems.len()) as u64;
        for p in &s.problems {
            out.fail(|| format!("stream {i}: {p}"));
        }
        if s.committed < shape.stream {
            let missing = shape.stream - s.committed;
            out.fail(|| format!("stream {i}: {missing} slots never committed everywhere"));
            out.failed += missing as u64 - 1;
        }
        for (slots, wall) in &s.segments {
            out.rate.push(*slots as f64 / wall);
            out.latency_ms.push(wall * 1e3 / *slots as f64);
        }
        if let Some(done) = s.done_at {
            simtime_rate.push(shape.stream as f64 / (done.as_nanos() as f64 / 1e9));
        }
        if i == 0 {
            out.fingerprint = s.fingerprint;
        }
        delivered += s.delivered;
        sent += s.sent;
        events += s.events;
        stalled += s.stalled;
        depth.extend(s.queue_depth);
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
        "simtime.slots_per_s",
        stats::median(&simtime_rate).unwrap_or(0.0),
    );
    out.layer("core.pipeline.stalled_slots", stalled as f64);
    out.layer("sched.queue_depth", stats::median(&depth).unwrap_or(0.0));
    if let Some(t) = trace {
        let handlers = t.sum_of(&HandlerSites::PIPELINE.all());
        let segments = t.sum(Site::Segment);
        let residual = segments.total_ns - handlers.total_ns;
        out.layer(
            "core.pipeline.handler_ns_per_msg",
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
    use ssbyz_harness::PipelineScenario;
    use ssbyz_simnet::WaveMode;

    const SMALL: Shape = Shape {
        n: 4,
        f: 1,
        window: 4,
        stream: 24,
        batch: 4,
        period: Duration::from_millis(10),
        step: Duration::from_millis(250),
        segment_slots: 8,
        setups: 1,
    };

    #[test]
    fn same_seed_same_stream_traced_or_not() {
        let bare = stream(&SMALL, 3, 0, None);
        let again = stream(&SMALL, 3, 0, None);
        let tracer = Tracer::new();
        let traced = stream(&SMALL, 3, 0, Some(&tracer));
        assert_eq!(bare.committed, SMALL.stream, "{:?}", bare.problems);
        assert!(bare.problems.is_empty());
        assert_eq!(bare.fingerprint, again.fingerprint);
        assert_eq!(bare.fingerprint, traced.fingerprint);
        assert_eq!(
            (bare.delivered, bare.events),
            (traced.delivered, traced.events)
        );
        assert_eq!(bare.done_at, traced.done_at);
        assert_eq!(
            tracer.sum_of(&HandlerSites::PIPELINE.all()).items,
            bare.delivered
        );
    }

    #[test]
    fn another_seed_draws_other_delays() {
        let a = stream(&SMALL, 3, 0, None);
        let b = stream(&SMALL, 4, 0, None);
        let c = stream(&SMALL, 3, 1, None);
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_ne!(a.fingerprint, c.fingerprint);
    }

    #[test]
    fn the_wiring_is_the_harness_scenarios_own() {
        let cfg = config(&SMALL, 3, 0);
        let params = cfg.params().unwrap();
        let pipe_cfg = PipelineConfig::new(NodeId::new(0), &params).with_window(SMALL.window);
        let workload = Workload::steady(SMALL.stream, SMALL.batch, SMALL.period);
        let mut public = PipelineScenario::new(&cfg, &pipe_cfg, workload, WaveMode::default());
        let mut mine = build(&SMALL, &cfg, None);
        let until = RealTime::ZERO + Duration::from_secs(2);
        public.run_until(until);
        mine.run_until(until);
        assert_eq!(public.sim().metrics(), mine.metrics());
        assert_eq!(public.sim().events_processed(), mine.events_processed());
        assert_eq!(public.sim().observations(), mine.observations());
    }

    #[test]
    fn a_short_run_passes_its_gate_and_attributes_its_wall_time() {
        let tracer = Tracer::new();
        let out = run(&SMALL, 9, 0.02, Some(&tracer));
        assert_eq!(out.failed, 0, "{:?}", out.problems);
        assert!(out.decisions >= SMALL.stream as u64);
        // At least one segment per stream, however slow the host.
        assert!(!out.rate.is_empty());
        assert_eq!(out.rate.len(), out.latency_ms.len());
        let get = |name: &str| named(&out.layer, name).unwrap();
        assert!(get("core.pipeline.handler_ns_per_msg") > 0.0);
        assert!(get("simtime.slots_per_s") > 0.0);
        assert!(get("sched.queue_depth") > 0.0);
        let frac = get("simnet.self_frac");
        assert!(frac > 0.0 && frac < 1.0, "{frac}");
    }
}
