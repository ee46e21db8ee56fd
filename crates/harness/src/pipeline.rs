//! The pipeline serving layer: a [`SlotPipeline`] per node inside the
//! simulator, driven by a continuous client [`Workload`], with per-node
//! committed-log extraction for replicated-state-machine checks.
//!
//! This is [`crate::adapter::EngineProcess`] ported to the slot
//! multiplexer: deliveries and timers become pipeline calls, pipeline
//! outputs become sends, timers and observations. Same-instant waves
//! enter through [`SlotPipeline::on_wave`], so receiver-side coalescing
//! reaches the per-slot engines' triplet-table batch path unchanged.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssbyz_core::{PipeEvent, PipeOutput, PipelineConfig, SlotMsg, SlotPipeline};
use ssbyz_simnet::{Ctx, DriftClock, LinkConfig, Process, SimBuilder, Simulation, WaveMode};
use ssbyz_types::{Duration, NodeId, RealTime};

use crate::scenario::{ScenarioConfig, Val};

/// The pipeline scenarios' concrete message type.
pub type PipelineMsg = SlotMsg<Val>;
/// The pipeline scenarios' concrete observation type.
pub type PipelineObs = PipeEvent<Val>;

/// Timer token: periodic pipeline tick.
pub const PIPE_TOKEN_TICK: u64 = 0;
/// Timer token: precise pipeline wake-up (engine deadlines, retries).
pub const PIPE_TOKEN_WAKE: u64 = 1;
/// Timer token: the workload driver's next enqueue batch.
pub const PIPE_TOKEN_WORKLOAD: u64 = 2;

/// A continuous client-load generator: starting at local offset
/// `start`, enqueue `batch` fresh values every `period` until `total`
/// values have been issued. Values are `base, base+1, …` so log checks
/// can assert exact contents and ordering.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Local-time offset of the first batch after boot.
    pub start: Duration,
    /// Spacing between batches.
    pub period: Duration,
    /// Values enqueued per batch.
    pub batch: usize,
    /// Total values to issue over the run.
    pub total: usize,
    /// First value of the stream.
    pub base: Val,
}

impl Workload {
    /// A steady stream: `total` values in batches of `batch` every
    /// `period`, starting 20 ms after boot, values from 1000.
    #[must_use]
    pub fn steady(total: usize, batch: usize, period: Duration) -> Self {
        Workload {
            start: Duration::from_millis(20),
            period,
            batch,
            total,
            base: 1000,
        }
    }
}

/// Runs a [`SlotPipeline`] inside the simulator.
pub struct PipelineProcess {
    pipe: SlotPipeline<Val>,
    tick: Duration,
    workload: Option<Workload>,
    issued: usize,
    /// Caller-owned output buffer reused across every pipeline call.
    out: Vec<PipeOutput<Val>>,
}

impl PipelineProcess {
    /// Wraps `pipe`, ticking every `tick` local-time units.
    #[must_use]
    pub fn new(pipe: SlotPipeline<Val>, tick: Duration) -> Self {
        assert!(!tick.is_zero(), "tick period must be positive");
        PipelineProcess {
            pipe,
            tick,
            workload: None,
            issued: 0,
            out: Vec::new(),
        }
    }

    /// Installs the client-load driver (meaningful on the proposer; a
    /// non-proposer pipeline queues but never opens slots).
    #[must_use]
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Read access to the wrapped pipeline (log inspection).
    #[must_use]
    pub fn pipeline(&self) -> &SlotPipeline<Val> {
        &self.pipe
    }

    /// Drains the output buffer of the call that just ran into
    /// simulator effects.
    fn apply(&mut self, ctx: &mut Ctx<'_, PipelineMsg, PipelineObs>) {
        for o in self.out.drain(..) {
            match o {
                PipeOutput::Broadcast(msg) => ctx.broadcast(msg),
                PipeOutput::Send(to, msg) => ctx.send(to, msg),
                PipeOutput::WakeAt(t) => ctx.set_timer_at(t, PIPE_TOKEN_WAKE),
                PipeOutput::Event(e) => ctx.observe(e),
            }
        }
    }

    /// Issues the next workload batch; returns whether more remain.
    fn issue_batch(&mut self, ctx: &mut Ctx<'_, PipelineMsg, PipelineObs>) -> bool {
        let Some(w) = self.workload else {
            return false;
        };
        let remaining = w.total.saturating_sub(self.issued);
        if remaining == 0 {
            return false;
        }
        for i in 0..w.batch.min(remaining) {
            self.pipe.enqueue(w.base + (self.issued + i) as Val);
        }
        self.issued += w.batch.min(remaining);
        self.pipe.pump(ctx.now(), &mut self.out);
        self.apply(ctx);
        self.issued < w.total
    }
}

impl Process<PipelineMsg, PipelineObs> for PipelineProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_, PipelineMsg, PipelineObs>) {
        ctx.set_timer_after(self.tick, PIPE_TOKEN_TICK);
        if let Some(w) = self.workload {
            ctx.set_timer_after(w.start, PIPE_TOKEN_WORKLOAD);
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, PipelineMsg, PipelineObs>,
        from: NodeId,
        msg: &PipelineMsg,
    ) {
        let now = ctx.now();
        self.pipe.on_message(now, from, msg, &mut self.out);
        self.apply(ctx);
    }

    fn on_message_batch(
        &mut self,
        ctx: &mut Ctx<'_, PipelineMsg, PipelineObs>,
        batch: &[(NodeId, std::sync::Arc<PipelineMsg>)],
    ) {
        // A coalesced wave: same-slot runs reach each engine's
        // triplet-table batch path in one call.
        let now = ctx.now();
        self.pipe.on_wave(now, batch, &mut self.out);
        self.apply(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, PipelineMsg, PipelineObs>, token: u64) {
        match token {
            PIPE_TOKEN_TICK => {
                self.pipe.on_tick(ctx.now(), &mut self.out);
                self.apply(ctx);
                ctx.set_timer_after(self.tick, PIPE_TOKEN_TICK);
            }
            PIPE_TOKEN_WAKE => {
                self.pipe.on_tick(ctx.now(), &mut self.out);
                self.apply(ctx);
            }
            PIPE_TOKEN_WORKLOAD if self.issue_batch(ctx) => {
                let period = self.workload.expect("issued from a workload").period;
                ctx.set_timer_after(period, PIPE_TOKEN_WORKLOAD);
            }
            _ => {}
        }
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, PipelineMsg, PipelineObs>) {
        // The self-re-arming tick chain may have died during the
        // outage: cancel any survivor, catch up once, re-arm. The
        // workload chain gets the same treatment so a recovering
        // proposer resumes serving its stream.
        ctx.cancel_timer(PIPE_TOKEN_TICK);
        self.pipe.on_tick(ctx.now(), &mut self.out);
        self.apply(ctx);
        ctx.set_timer_after(self.tick, PIPE_TOKEN_TICK);
        if let Some(w) = self.workload {
            if self.issued < w.total {
                ctx.cancel_timer(PIPE_TOKEN_WORKLOAD);
                ctx.set_timer_after(w.period, PIPE_TOKEN_WORKLOAD);
            }
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// A pipeline cluster wired into a live simulation: `n` correct
/// [`PipelineProcess`] nodes (node 0 is the proposer and carries the
/// workload), drifting clocks, jittered or fixed links — the pipeline
/// analogue of [`crate::ScenarioBuilder`].
pub struct PipelineScenario {
    sim: Simulation<PipelineMsg, PipelineObs>,
    n: usize,
}

impl PipelineScenario {
    /// Builds and boots the cluster. `pipe_cfg` configures every node's
    /// multiplexer (same window/retry/catch-up policy cluster-wide);
    /// `workload` is installed on the proposer only.
    #[must_use]
    pub fn new(
        cfg: &ScenarioConfig,
        pipe_cfg: &PipelineConfig,
        workload: Workload,
        wave_mode: WaveMode,
    ) -> Self {
        let params = cfg.params().expect("valid scenario config");
        // Same clock derivation as ScenarioBuilder: a dedicated RNG so
        // the simulation seed still drives delays/adversaries alone.
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5ca1_ab1e);
        let mut builder = SimBuilder::new(cfg.seed)
            .link(LinkConfig::uniform(cfg.actual_min, cfg.actual_max))
            .wave_mode(wave_mode)
            .tagger(SlotMsg::tag);
        let skew = cfg.clock_skew_max.as_nanos().max(1);
        for i in 0..cfg.n {
            let id = NodeId::new(i as u32);
            let offset = ssbyz_types::LocalTime::from_nanos(rng.gen_range(0..skew));
            let rate = rng.gen_range(-(cfg.rho_ppm as i32)..=cfg.rho_ppm as i32);
            let clock = DriftClock::new(RealTime::ZERO, offset, rate);
            let pipe = SlotPipeline::new(id, params, pipe_cfg.clone());
            let mut process = PipelineProcess::new(pipe, cfg.tick);
            if id == pipe_cfg.proposer {
                process = process.with_workload(workload);
            }
            builder = builder.node(Box::new(process), clock);
        }
        PipelineScenario {
            sim: builder.build(),
            n: cfg.n,
        }
    }

    /// Read access to the underlying simulation.
    #[must_use]
    pub fn sim(&self) -> &Simulation<PipelineMsg, PipelineObs> {
        &self.sim
    }

    /// Mutable access (fault injection, link blocks, crash control).
    pub fn sim_mut(&mut self) -> &mut Simulation<PipelineMsg, PipelineObs> {
        &mut self.sim
    }

    /// Runs until the given real time.
    pub fn run_until(&mut self, t: RealTime) {
        self.sim.run_until(t);
    }

    /// Per-node committed logs, reconstructed from the in-order
    /// [`PipeEvent::Committed`] observation stream.
    #[must_use]
    pub fn committed_logs(&self) -> Vec<Vec<(u64, Val)>> {
        let mut logs: Vec<Vec<(u64, Val)>> = vec![Vec::new(); self.n];
        for obs in self.sim.observations() {
            if let PipeEvent::Committed { slot, value } = &obs.event {
                logs[obs.node.index()].push((*slot, **value));
            }
        }
        logs
    }

    /// Total decisions committed across the cluster (sum of per-node
    /// committed-prefix lengths — the sustained-throughput numerator).
    #[must_use]
    pub fn total_commits(&self) -> usize {
        self.committed_logs().iter().map(Vec::len).sum()
    }

    /// Checks the replicated-state-machine invariants over the
    /// committed logs of `nodes`: each log is gap-free and in slot
    /// order (no slot skipped), and any two logs agree on their common
    /// prefix. Returns the violations found (empty = healthy).
    #[must_use]
    pub fn prefix_violations(&self, nodes: &[NodeId]) -> Vec<String> {
        let logs = self.committed_logs();
        let mut violations = Vec::new();
        for &node in nodes {
            let log = &logs[node.index()];
            for (i, (slot, _)) in log.iter().enumerate() {
                if *slot != i as u64 {
                    violations.push(format!(
                        "{node:?}: commit #{i} is slot {slot} (slot skipped or reordered)"
                    ));
                    break;
                }
            }
        }
        for w in nodes.windows(2) {
            let (a, b) = (w[0], w[1]);
            let la = &logs[a.index()];
            let lb = &logs[b.index()];
            let common = la.len().min(lb.len());
            if la[..common] != lb[..common] {
                violations.push(format!(
                    "{a:?} and {b:?} diverge within their common prefix"
                ));
            }
        }
        violations
    }
}
