//! The pipeline serving layer: a [`SlotPipeline`] per node inside the
//! simulator, driven by a continuous client [`Workload`], with per-node
//! committed-log extraction for the replicated-log check
//! ([`crate::checks::check_pipeline_logs`]).
//!
//! [`PipelineProcess`] is the same simulator [`Driver`] as
//! [`EngineProcess`], around a [`SlotPipeline`] instead of an engine:
//! same tick and wake timers, same wave dispatch (through
//! [`SlotPipeline::on_wave`], so receiver-side coalescing reaches the
//! per-slot engines' triplet-table batch path unchanged), plus the
//! workload's own timer.
//!
//! [`EngineProcess`]: crate::EngineProcess

use ssbyz_core::{PipeEvent, PipeOutput, PipelineConfig, SlotMsg, SlotPipeline};
use ssbyz_simnet::{Ctx, LinkConfig, SimBuilder, Simulation, WaveMode};
use ssbyz_types::{Duration, NodeId, RealTime};

use crate::adapter::{Client, Driver};
use crate::scenario::{ScenarioConfig, Val};

/// The pipeline scenarios' concrete message type.
pub type PipelineMsg = SlotMsg<Val>;
/// The pipeline scenarios' concrete observation type.
pub type PipelineObs = PipeEvent<Val>;

/// Timer token: the workload driver's next enqueue batch (the driver's
/// own tick and wake timers are [`crate::TOKEN_TICK`] and
/// [`crate::TOKEN_WAKE`]).
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

/// Runs a [`SlotPipeline`] inside the simulator: the [`Driver`], plus
/// the client workload's batch timer ([`PIPE_TOKEN_WORKLOAD`]).
pub type PipelineProcess = Driver<SlotPipeline<Val>, Stream>;

/// A [`PipelineProcess`]'s client: the installed workload, if any, and
/// how many of its values were issued.
pub struct Stream {
    workload: Option<Workload>,
    issued: usize,
}

impl PipelineProcess {
    /// Wraps `pipe`, ticking every `tick` local-time units.
    #[must_use]
    pub fn new(pipe: SlotPipeline<Val>, tick: Duration) -> Self {
        let stream = Stream {
            workload: None,
            issued: 0,
        };
        Driver::with_client(pipe, tick, stream)
    }

    /// Installs the client-load driver (meaningful on the proposer; a
    /// non-proposer pipeline queues but never opens slots).
    #[must_use]
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.client.workload = Some(workload);
        self
    }

    /// Read access to the wrapped pipeline (log inspection).
    #[must_use]
    pub fn pipeline(&self) -> &SlotPipeline<Val> {
        &self.machine
    }
}

impl Client<SlotPipeline<Val>> for Stream {
    type Obs = PipelineObs;

    fn start(&self, ctx: &mut Ctx<'_, PipelineMsg, PipelineObs>) {
        if let Some(w) = self.workload {
            ctx.set_timer_after(w.start, PIPE_TOKEN_WORKLOAD);
        }
    }

    /// Issues the next workload batch; asks again while values remain.
    fn fire(
        &mut self,
        pipe: &mut SlotPipeline<Val>,
        out: &mut Vec<PipeOutput<Val>>,
        ctx: &mut Ctx<'_, PipelineMsg, PipelineObs>,
        token: u64,
    ) -> Option<Duration> {
        let w = self.workload.filter(|_| token == PIPE_TOKEN_WORKLOAD)?;
        let remaining = w.total.saturating_sub(self.issued);
        if remaining == 0 {
            return None;
        }
        for i in 0..w.batch.min(remaining) {
            pipe.enqueue(w.base + (self.issued + i) as Val);
        }
        self.issued += w.batch.min(remaining);
        pipe.pump(ctx.now(), out);
        (self.issued < w.total).then_some(w.period)
    }

    /// The workload chain gets the tick chain's treatment, so a
    /// recovering proposer resumes serving its stream.
    fn recover(&self, ctx: &mut Ctx<'_, PipelineMsg, PipelineObs>) {
        if let Some(w) = self.workload.filter(|w| self.issued < w.total) {
            ctx.cancel_timer(PIPE_TOKEN_WORKLOAD);
            ctx.set_timer_after(w.period, PIPE_TOKEN_WORKLOAD);
        }
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
        let mut rng = cfg.clock_rng();
        let mut builder = SimBuilder::new(cfg.seed)
            .link(LinkConfig::uniform(cfg.actual_min, cfg.actual_max))
            .wave_mode(wave_mode)
            .tagger(SlotMsg::tag);
        for i in 0..cfg.n {
            let id = NodeId::new(i as u32);
            let clock = cfg.drifting_clock(&mut rng, None);
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
}
