//! Spans recorded from outside the program: every span brackets one
//! call the benchmark makes into a layer's public API. Spans live in
//! memory and are written out when the run ends.

use std::any::Any;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ssbyz_simnet::{Ctx, Process};
use ssbyz_types::NodeId;

use crate::json::Json;

/// Where a span is taken. The name is `layer.op`, the layer being the
/// module whose public function the span brackets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    Run,
    Segment,
    SimRunUntil,
    HarnessBuild,
    HarnessResult,
    HarnessCampaign,
    EngineStart,
    EngineMessage,
    EngineWave,
    EngineTimer,
    PipeStart,
    PipeMessage,
    PipeWave,
    PipeTimer,
    RuntimeSpawn,
    RuntimeSubmit,
    RuntimeWait,
    RuntimeCommits,
    RuntimeShutdown,
    CodecEncode,
    CodecDecode,
    MacTag,
    FrameWrite,
    FrameVerify,
    LadderPipeline,
}

impl Site {
    const ALL: [Site; 25] = [
        Site::Run,
        Site::Segment,
        Site::SimRunUntil,
        Site::HarnessBuild,
        Site::HarnessResult,
        Site::HarnessCampaign,
        Site::EngineStart,
        Site::EngineMessage,
        Site::EngineWave,
        Site::EngineTimer,
        Site::PipeStart,
        Site::PipeMessage,
        Site::PipeWave,
        Site::PipeTimer,
        Site::RuntimeSpawn,
        Site::RuntimeSubmit,
        Site::RuntimeWait,
        Site::RuntimeCommits,
        Site::RuntimeShutdown,
        Site::CodecEncode,
        Site::CodecDecode,
        Site::MacTag,
        Site::FrameWrite,
        Site::FrameVerify,
        Site::LadderPipeline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Site::Run => "benchmark.run",
            Site::Segment => "benchmark.segment",
            Site::SimRunUntil => "simnet.run_until",
            Site::HarnessBuild => "harness.build",
            Site::HarnessResult => "harness.result",
            Site::HarnessCampaign => "harness.faults.run_campaign",
            Site::EngineStart => "core.engine.on_start",
            Site::EngineMessage => "core.engine.on_message",
            Site::EngineWave => "core.engine.on_message_batch",
            Site::EngineTimer => "core.engine.on_timer",
            Site::PipeStart => "core.pipeline.on_start",
            Site::PipeMessage => "core.pipeline.on_message",
            Site::PipeWave => "core.pipeline.on_message_batch",
            Site::PipeTimer => "core.pipeline.on_timer",
            Site::RuntimeSpawn => "runtime.spawn_tcp",
            Site::RuntimeSubmit => "runtime.submit",
            Site::RuntimeWait => "runtime.wait_for_commits",
            Site::RuntimeCommits => "runtime.commits",
            Site::RuntimeShutdown => "runtime.shutdown",
            Site::CodecEncode => "wire.codec.encode_slot_msg",
            Site::CodecDecode => "wire.codec.decode_slot_msg",
            Site::MacTag => "wire.mac.mac",
            Site::FrameWrite => "wire.frame.write_frame",
            Site::FrameVerify => "wire.frame.verify_frame",
            Site::LadderPipeline => "core.pipeline.ladder_on_message",
        }
    }
}

/// One recorded span. `op` groups the spans of one operation (a rep, a
/// stream, a sweep); `parent` is the span that was open when this one
/// began, 0 for none.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub site: Site,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-site sums, kept for every span whether or not the span itself
/// was. `items` counts what the calls carried (messages in a wave,
/// frames in a burst); `self_ns` is `total_ns` minus the time covered
/// by child spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sum {
    pub count: u64,
    pub items: u64,
    pub total_ns: f64,
    pub self_ns: f64,
}

/// Most spans kept in full; later ones only feed the sums.
pub const SPAN_CAP: usize = 1_000_000;

struct Frame {
    id: u64,
    children_ns: f64,
}

struct Inner {
    next_id: u64,
    op: u64,
    keep: bool,
    stack: Vec<Frame>,
    spans: Vec<Span>,
    dropped: u64,
    sums: [Sum; Site::ALL.len()],
}

pub struct Tracer {
    epoch: Instant,
    /// What the two clock reads add to an empty span's duration.
    bias_ns: f64,
    /// What one span costs its enclosing span, all in.
    cost_ns: f64,
    inner: Mutex<Inner>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        let mut t = Tracer {
            epoch: Instant::now(),
            bias_ns: 0.0,
            cost_ns: 0.0,
            inner: Mutex::new(Inner {
                next_id: 1,
                op: 0,
                keep: false,
                stack: Vec::new(),
                spans: Vec::new(),
                dropped: 0,
                sums: [Sum::default(); Site::ALL.len()],
            }),
        };
        // Calibrate on empty spans, then forget them.
        const ROUNDS: u32 = 20_000;
        let wall = Instant::now();
        for _ in 0..ROUNDS {
            t.span(Site::Run, 0, || std::hint::black_box(()));
        }
        let cost = wall.elapsed().as_nanos() as f64 / f64::from(ROUNDS);
        let bias = t.sum(Site::Run).total_ns / f64::from(ROUNDS);
        t.bias_ns = bias;
        t.cost_ns = cost;
        let inner = t.inner.get_mut().expect("no span panicked");
        inner.sums = [Sum::default(); Site::ALL.len()];
        inner.next_id = 1;
        Arc::new(t)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("no span panicked")
    }

    /// Keep the following spans in full (up to [`SPAN_CAP`]), or only
    /// their sums.
    pub fn keep_spans(&self, keep: bool) {
        self.lock().keep = keep;
    }

    /// Names the operation the following spans belong to.
    pub fn set_op(&self, op: u64) {
        self.lock().op = op;
    }

    /// Runs `f` inside a span at `site` carrying `items` units of work.
    pub fn span<R>(&self, site: Site, items: u64, f: impl FnOnce() -> R) -> R {
        let (id, parent, op) = {
            let mut g = self.lock();
            let id = g.next_id;
            g.next_id += 1;
            let parent = g.stack.last().map_or(0, |fr| fr.id);
            g.stack.push(Frame {
                id,
                children_ns: 0.0,
            });
            (id, parent, g.op)
        };
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let raw = end.duration_since(start).as_nanos() as f64;
        let dur = (raw - self.bias_ns).max(0.0);
        let mut g = self.lock();
        let frame = g.stack.pop().expect("span stack balanced");
        debug_assert_eq!(frame.id, id);
        if let Some(up) = g.stack.last_mut() {
            // The parent lost this span's whole footprint, not just
            // the part between its clock reads.
            up.children_ns += raw + (self.cost_ns - self.bias_ns).max(0.0);
        }
        let sum = &mut g.sums[site as usize];
        sum.count += 1;
        sum.items += items;
        sum.total_ns += dur;
        sum.self_ns += (dur - frame.children_ns).max(0.0);
        if g.keep {
            if g.spans.len() < SPAN_CAP {
                let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
                g.spans.push(Span {
                    id,
                    parent,
                    op,
                    site,
                    start_ns,
                    end_ns: start_ns + raw as u64,
                });
            } else {
                g.dropped += 1;
            }
        }
        out
    }

    pub fn sum(&self, site: Site) -> Sum {
        self.lock().sums[site as usize]
    }

    /// Sums over several sites, e.g. every handler of one layer.
    pub fn sum_of(&self, sites: &[Site]) -> Sum {
        let g = self.lock();
        sites.iter().fold(Sum::default(), |acc, s| {
            let x = g.sums[*s as usize];
            Sum {
                count: acc.count + x.count,
                items: acc.items + x.items,
                total_ns: acc.total_ns + x.total_ns,
                self_ns: acc.self_ns + x.self_ns,
            }
        })
    }

    pub fn spans_kept(&self) -> usize {
        self.lock().spans.len()
    }

    /// Writes `{"meta": …}`, then one line per kept span with exactly
    /// the keys `id, parent, op, name, start_ns, end_ns`, then one
    /// `{"sum": name, …}` line per site that saw a span.
    pub fn write_jsonl(&self, path: &Path, meta: Json) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let g = self.lock();
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        let meta = Json::obj([
            ("meta", meta),
            ("spans_kept", Json::Num(g.spans.len() as f64)),
            ("spans_over_cap", Json::Num(g.dropped as f64)),
            ("span_bias_ns", Json::Num(self.bias_ns)),
            ("span_cost_ns", Json::Num(self.cost_ns)),
        ]);
        writeln!(w, "{}", meta.render())?;
        for s in &g.spans {
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent,
                s.op,
                s.site.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        for site in Site::ALL {
            let s = g.sums[site as usize];
            if s.count == 0 {
                continue;
            }
            let line = Json::obj([
                ("sum", Json::str(site.name())),
                ("count", Json::Num(s.count as f64)),
                ("items", Json::Num(s.items as f64)),
                ("total_ns", Json::Num(s.total_ns)),
                ("self_ns", Json::Num(s.self_ns)),
            ]);
            writeln!(w, "{}", line.render())?;
        }
        w.flush()
    }
}

/// The four handler sites of one protocol layer.
#[derive(Debug, Clone, Copy)]
pub struct HandlerSites {
    pub start: Site,
    pub message: Site,
    pub wave: Site,
    pub timer: Site,
}

impl HandlerSites {
    pub const ENGINE: HandlerSites = HandlerSites {
        start: Site::EngineStart,
        message: Site::EngineMessage,
        wave: Site::EngineWave,
        timer: Site::EngineTimer,
    };
    pub const PIPELINE: HandlerSites = HandlerSites {
        start: Site::PipeStart,
        message: Site::PipeMessage,
        wave: Site::PipeWave,
        timer: Site::PipeTimer,
    };

    pub fn all(&self) -> [Site; 4] {
        [self.start, self.message, self.wave, self.timer]
    }
}

/// A simulated node whose every handler call is a span. It forwards
/// unchanged, so a wrapped run and a bare run of one seed are the same
/// execution.
pub struct Timed<P> {
    inner: P,
    tracer: Arc<Tracer>,
    sites: HandlerSites,
}

impl<P> Timed<P> {
    pub fn new(inner: P, tracer: &Arc<Tracer>, sites: HandlerSites) -> Self {
        Timed {
            inner,
            tracer: Arc::clone(tracer),
            sites,
        }
    }
}

impl<M, O, P: Process<M, O>> Process<M, O> for Timed<P> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M, O>) {
        let inner = &mut self.inner;
        self.tracer
            .span(self.sites.start, 0, || inner.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, M, O>, from: NodeId, msg: &M) {
        let inner = &mut self.inner;
        self.tracer
            .span(self.sites.message, 1, || inner.on_message(ctx, from, msg));
    }

    fn on_message_batch(&mut self, ctx: &mut Ctx<'_, M, O>, batch: &[(NodeId, Arc<M>)]) {
        let inner = &mut self.inner;
        self.tracer.span(self.sites.wave, batch.len() as u64, || {
            inner.on_message_batch(ctx, batch);
        });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M, O>, token: u64) {
        let inner = &mut self.inner;
        self.tracer
            .span(self.sites.timer, 0, || inner.on_timer(ctx, token));
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, M, O>) {
        self.inner.on_recover(ctx);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        self.inner.as_any_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u128) {
        let t = Instant::now();
        while t.elapsed().as_nanos() < ns {
            std::hint::black_box(());
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let t = Tracer::new();
        t.keep_spans(true);
        t.set_op(7);
        t.span(Site::Segment, 0, || {
            spin(2_000_000);
            for _ in 0..3 {
                t.span(Site::EngineMessage, 2, || spin(1_000_000));
            }
        });
        let seg = t.sum(Site::Segment);
        let msg = t.sum(Site::EngineMessage);
        assert_eq!((seg.count, msg.count, msg.items), (1, 3, 6));
        // Only lower bounds on time: a busy host stretches any spin.
        assert!(msg.total_ns >= 3.0e6, "{msg:?}");
        assert!(seg.total_ns >= msg.total_ns + 2.0e6, "{seg:?}");
        // Leaves have no children; the parent's self time excludes them.
        assert_eq!(msg.self_ns, msg.total_ns);
        assert!(
            seg.self_ns >= 1.9e6 && seg.self_ns <= seg.total_ns - msg.total_ns,
            "{seg:?}"
        );
        assert_eq!(t.spans_kept(), 4);
        let both = t.sum_of(&[Site::Segment, Site::EngineMessage]);
        assert_eq!(both.count, 4);
    }

    #[test]
    fn jsonl_holds_meta_spans_and_sums() {
        let t = Tracer::new();
        t.keep_spans(true);
        t.span(Site::Segment, 0, || t.span(Site::FrameWrite, 1, || ()));
        t.keep_spans(false);
        t.span(Site::FrameWrite, 1, || ());
        let dir = std::env::temp_dir().join(format!("ssbyz-bench-trace-{}", std::process::id()));
        let path = dir.join("t.trace.jsonl");
        t.write_jsonl(&path, Json::obj([("workload", Json::str("test"))]))
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 1 + 2 + 2);
        assert_eq!(lines[0].get("spans_kept").and_then(Json::as_f64), Some(2.0));
        // Spans close child-first; the child names its parent.
        let child = &lines[1];
        let keys: Vec<&str> = child
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["id", "parent", "op", "name", "start_ns", "end_ns"]);
        assert_eq!(
            child.get("name").and_then(Json::as_str),
            Some("wire.frame.write_frame")
        );
        assert_eq!(child.get("parent"), lines[2].get("id"));
        let sum = lines
            .iter()
            .find(|l| l.get("sum").and_then(Json::as_str) == Some("wire.frame.write_frame"));
        assert_eq!(
            sum.and_then(|s| s.get("count")).and_then(Json::as_f64),
            Some(2.0)
        );
    }
}
