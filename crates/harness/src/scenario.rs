//! Scenario construction and result extraction.
//!
//! A scenario wires `n` nodes (correct engines, scrambled engines or
//! Byzantine strategies) into the simulator with per-node drifting clocks,
//! runs it, and distills the observation log into [`DecisionRecord`]s with
//! the paper's `rt(τ)` mapping already applied — ready for the property
//! checkers in [`crate::checks`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssbyz_adversary::{u64_corruptor, u64_injector, RngEntropy};
use ssbyz_core::corrupt::ScrambleConfig;
use ssbyz_core::{Engine, Event, Msg, Params};
use ssbyz_simnet::{
    DriftClock, LinkConfig, Metrics, Process, SimBuilder, Simulation, StormConfig, WaveMode,
};
use ssbyz_types::{ConfigError, Duration, LocalTime, NodeId, RealTime};

use crate::adapter::{EngineProcess, NodeEvent};

/// The concrete value type used by scenarios (the protocol itself is
/// generic; the harness fixes `u64` for uniform tooling).
pub type Val = u64;
/// The concrete message type of scenario simulations.
pub type ScenarioMsg = Msg<Val>;
/// The concrete process trait object of scenario simulations.
pub type ScenarioProcess = Box<dyn Process<ScenarioMsg, NodeEvent<Val>>>;

/// Timing and membership configuration of a scenario.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// Membership size.
    pub n: usize,
    /// Fault budget.
    pub f: usize,
    /// Simulation seed (drives delays, drift, adversaries, scrambles).
    pub seed: u64,
    /// The *assumed* worst-case network delay δ (enters `d` and Φ).
    pub delta: Duration,
    /// The assumed processing bound π.
    pub pi: Duration,
    /// Drift bound ρ in ppm.
    pub rho_ppm: u32,
    /// Actual link delay range (must fit within δ for a correct network).
    pub actual_min: Duration,
    /// Upper end of the actual link delays.
    pub actual_max: Duration,
    /// Engine tick period (defaults to `d`).
    pub tick: Duration,
    /// Max random clock boot-reading offset (models lost synchrony).
    pub clock_skew_max: Duration,
}

impl ScenarioConfig {
    /// A sensible default configuration: δ = 9 ms, π = 1 ms, ρ = 100 ppm
    /// (`d` ≈ 10 ms), actual delays in `[0.5 ms, 9 ms]`, random clock
    /// offsets up to 1 s.
    #[must_use]
    pub fn new(n: usize, f: usize) -> Self {
        let delta = Duration::from_millis(9);
        let pi = Duration::from_millis(1);
        ScenarioConfig {
            n,
            f,
            seed: 0,
            delta,
            pi,
            rho_ppm: 100,
            actual_min: Duration::from_micros(500),
            actual_max: delta,
            tick: Duration::from_millis(10),
            clock_skew_max: Duration::from_secs(1),
        }
    }

    /// Overrides the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the actual link delays (for the message-driven speed
    /// experiments, E5).
    #[must_use]
    pub fn with_actual_delays(mut self, min: Duration, max: Duration) -> Self {
        self.actual_min = min;
        self.actual_max = max;
        self
    }

    /// Derives the protocol constants.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] from [`Params::new`].
    pub fn params(&self) -> Result<Params, ConfigError> {
        Params::new(self.n, self.f, self.delta, self.pi, self.rho_ppm)
    }
}

/// Per-node role in a scenario.
enum Role {
    /// A correct engine with planned initiations.
    Correct { initiations: Vec<(Duration, Val)> },
    /// A correct engine whose state is scrambled before start (transient
    /// fault victim).
    Scrambled { initiations: Vec<(Duration, Val)> },
    /// A custom (usually Byzantine) process.
    Custom(ScenarioProcess),
}

/// Builder for a [`RunningScenario`].
pub struct ScenarioBuilder {
    cfg: ScenarioConfig,
    params: Params,
    roles: Vec<Role>,
    storm: Option<StormConfig>,
    ideal_clocks: bool,
    boot_readings: Option<Vec<LocalTime>>,
    wave_mode: WaveMode,
}

impl ScenarioBuilder {
    /// Starts a builder.
    ///
    /// # Panics
    ///
    /// Panics if the configuration violates `n > 3f` (use
    /// [`ScenarioConfig::params`] to validate fallibly).
    #[must_use]
    pub fn new(cfg: ScenarioConfig) -> Self {
        let params = cfg.params().expect("valid scenario config");
        ScenarioBuilder {
            cfg,
            params,
            roles: Vec::new(),
            storm: None,
            ideal_clocks: false,
            boot_readings: None,
            wave_mode: WaveMode::default(),
        }
    }

    /// Selects the simulator's receiver-side wave coalescing mode — the
    /// A/B parity tests run the same scenario coalesced and per-message
    /// and require equivalent results.
    #[must_use]
    pub fn wave_mode(mut self, mode: WaveMode) -> Self {
        self.wave_mode = mode;
        self
    }

    /// The derived protocol constants.
    #[must_use]
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Adds a correct node.
    #[must_use]
    pub fn correct(mut self) -> Self {
        self.roles.push(Role::Correct {
            initiations: Vec::new(),
        });
        self
    }

    /// Adds a correct node that will initiate `value` at local offset
    /// `offset` after start.
    #[must_use]
    pub fn correct_general(mut self, offset: Duration, value: Val) -> Self {
        self.roles.push(Role::Correct {
            initiations: vec![(offset, value)],
        });
        self
    }

    /// Adds a correct node with several planned initiations.
    #[must_use]
    pub fn correct_with_initiations(mut self, initiations: Vec<(Duration, Val)>) -> Self {
        self.roles.push(Role::Correct { initiations });
        self
    }

    /// Adds a correct node whose state is scrambled at boot.
    #[must_use]
    pub fn scrambled(mut self) -> Self {
        self.roles.push(Role::Scrambled {
            initiations: Vec::new(),
        });
        self
    }

    /// Adds a scrambled node with planned initiations.
    #[must_use]
    pub fn scrambled_general(mut self, offset: Duration, value: Val) -> Self {
        self.roles.push(Role::Scrambled {
            initiations: vec![(offset, value)],
        });
        self
    }

    /// Adds a custom (Byzantine) process.
    #[must_use]
    pub fn byzantine(mut self, p: ScenarioProcess) -> Self {
        self.roles.push(Role::Custom(p));
        self
    }

    /// Installs a transient-fault storm with the standard corruptor and
    /// injector.
    #[must_use]
    pub fn storm(mut self, storm: StormConfig) -> Self {
        self.storm = Some(storm);
        self
    }

    /// Uses ideal (zero-offset, zero-drift) clocks — useful when a test
    /// needs exact local-time reasoning.
    #[must_use]
    pub fn ideal_clocks(mut self) -> Self {
        self.ideal_clocks = true;
        self
    }

    /// Pins each node's boot clock reading (e.g. near `u64::MAX` to
    /// exercise local-time wrap-around mid-run). Drift stays randomized.
    #[must_use]
    pub fn with_boot_readings(mut self, readings: Vec<LocalTime>) -> Self {
        self.boot_readings = Some(readings);
        self
    }

    /// Finalizes into a running scenario.
    ///
    /// # Panics
    ///
    /// Panics unless exactly `n` roles were added.
    #[must_use]
    pub fn build(self) -> RunningScenario {
        assert_eq!(
            self.roles.len(),
            self.cfg.n,
            "scenario must define exactly n nodes"
        );
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x5ca1_ab1e);
        let mut correct = Vec::new();
        let mut builder = SimBuilder::new(self.cfg.seed)
            .link(LinkConfig::uniform(
                self.cfg.actual_min,
                self.cfg.actual_max,
            ))
            .wave_mode(self.wave_mode)
            .tagger(Msg::tag);
        if let Some(storm) = self.storm {
            builder = builder
                .storm(storm)
                .corruptor(u64_corruptor(self.cfg.n))
                .injector(u64_injector(64));
        }
        let skew = self.cfg.clock_skew_max.as_nanos().max(1);
        for (i, role) in self.roles.into_iter().enumerate() {
            let id = NodeId::new(i as u32);
            let clock = if let Some(readings) = &self.boot_readings {
                let rate = rng.gen_range(-(self.cfg.rho_ppm as i32)..=self.cfg.rho_ppm as i32);
                DriftClock::new(RealTime::ZERO, readings[i], rate)
            } else if self.ideal_clocks {
                DriftClock::ideal()
            } else {
                let offset = LocalTime::from_nanos(rng.gen_range(0..skew));
                let rate = rng.gen_range(-(self.cfg.rho_ppm as i32)..=self.cfg.rho_ppm as i32);
                DriftClock::new(RealTime::ZERO, offset, rate)
            };
            let process: ScenarioProcess = match role {
                Role::Correct { initiations } => {
                    let mut p = EngineProcess::new(Engine::new(id, self.params), self.cfg.tick);
                    for (off, v) in initiations {
                        p = p.with_initiation(off, v);
                    }
                    correct.push(id);
                    Box::new(p)
                }
                Role::Scrambled { initiations } => {
                    let mut p = EngineProcess::new(Engine::new(id, self.params), self.cfg.tick);
                    for (off, v) in initiations {
                        p = p.with_initiation(off, v);
                    }
                    let boot_local = clock.local_at(RealTime::ZERO);
                    let mut entropy = RngEntropy(&mut rng);
                    p.engine_mut().scramble(
                        boot_local,
                        &ScrambleConfig::default(),
                        &mut entropy,
                        &mut |e| e.next_u64() % 64,
                    );
                    correct.push(id);
                    Box::new(p)
                }
                Role::Custom(p) => p,
            };
            builder = builder.node(process, clock);
        }
        RunningScenario {
            sim: builder.build(),
            params: self.params,
            correct,
        }
    }
}

/// One decision (or abort) extracted from a run, with real-time mappings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionRecord {
    /// The deciding node.
    pub node: NodeId,
    /// The General of the instance.
    pub general: NodeId,
    /// `Some(m)` for a decide, `None` for ⊥.
    pub value: Option<Val>,
    /// Local decision time `τq`.
    pub local_at: LocalTime,
    /// Real decision time `rt(τq)`.
    pub real_at: RealTime,
    /// The anchor `τ_G^q`.
    pub tau_g_local: LocalTime,
    /// `rt(τ_G^q)`.
    pub tau_g_real: RealTime,
}

/// One I-accept extracted from a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IaRecord {
    /// The accepting node.
    pub node: NodeId,
    /// The General.
    pub general: NodeId,
    /// The accepted value.
    pub value: Val,
    /// The anchor `τ_G^q`.
    pub tau_g_local: LocalTime,
    /// `rt(τ_G^q)`.
    pub tau_g_real: RealTime,
    /// Real time of the accept itself.
    pub real_at: RealTime,
}

/// Everything a property checker needs about one run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Protocol constants of the run.
    pub params: Params,
    /// Ids of the correct nodes.
    pub correct: Vec<NodeId>,
    /// All decides/aborts, in emission order.
    pub decisions: Vec<DecisionRecord>,
    /// All I-accepts, in emission order.
    pub iaccepts: Vec<IaRecord>,
    /// Refused initiations (value, node, real time).
    pub refused: Vec<(NodeId, Val, RealTime)>,
    /// ``[IG3]`` failure detections.
    pub failures: Vec<(NodeId, Val, RealTime)>,
    /// Simulator counters.
    pub metrics: Metrics,
}

impl ScenarioResult {
    /// Decisions (excluding aborts) for `general`.
    #[must_use]
    pub fn decides_for(&self, general: NodeId) -> Vec<&DecisionRecord> {
        self.decisions
            .iter()
            .filter(|d| d.general == general && d.value.is_some())
            .collect()
    }

    /// Aborts (⊥ returns) for `general`.
    #[must_use]
    pub fn aborts_for(&self, general: NodeId) -> Vec<&DecisionRecord> {
        self.decisions
            .iter()
            .filter(|d| d.general == general && d.value.is_none())
            .collect()
    }

    /// The set of distinct decided values for `general`.
    #[must_use]
    pub fn decided_values(&self, general: NodeId) -> Vec<Val> {
        let mut vals: Vec<Val> = self
            .decisions
            .iter()
            .filter(|d| d.general == general)
            .filter_map(|d| d.value)
            .collect();
        vals.sort_unstable();
        vals.dedup();
        vals
    }

    /// First decision record of `node` for `general`, if any.
    #[must_use]
    pub fn decision_of(&self, node: NodeId, general: NodeId) -> Option<&DecisionRecord> {
        self.decisions
            .iter()
            .find(|d| d.node == node && d.general == general)
    }
}

/// A scenario wired into a live simulation.
pub struct RunningScenario {
    sim: Simulation<ScenarioMsg, NodeEvent<Val>>,
    params: Params,
    correct: Vec<NodeId>,
}

impl RunningScenario {
    /// The protocol constants.
    #[must_use]
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Ids of the correct nodes.
    #[must_use]
    pub fn correct(&self) -> &[NodeId] {
        &self.correct
    }

    /// Mutable access to the underlying simulation (storm control, link
    /// blocks, down-time injection, external messages).
    pub fn sim_mut(&mut self) -> &mut Simulation<ScenarioMsg, NodeEvent<Val>> {
        &mut self.sim
    }

    /// Read access to the underlying simulation.
    #[must_use]
    pub fn sim(&self) -> &Simulation<ScenarioMsg, NodeEvent<Val>> {
        &self.sim
    }

    /// Runs until the given real time.
    pub fn run_until(&mut self, t: RealTime) {
        self.sim.run_until(t);
    }

    /// Runs for a real-time span.
    pub fn run_for(&mut self, span: Duration) {
        self.sim.run_for(span);
    }

    /// Extracts the distilled result (convert local times to real via each
    /// node's clock).
    #[must_use]
    pub fn result(&self) -> ScenarioResult {
        let mut decisions = Vec::new();
        let mut iaccepts = Vec::new();
        let mut refused = Vec::new();
        let mut failures = Vec::new();
        for obs in self.sim.observations() {
            let clock = self.sim.clock(obs.node);
            match &obs.event {
                NodeEvent::Core(Event::Decided {
                    general,
                    value,
                    tau_g,
                    at,
                }) => decisions.push(DecisionRecord {
                    node: obs.node,
                    general: *general,
                    value: Some(**value),
                    local_at: *at,
                    real_at: obs.real,
                    tau_g_local: *tau_g,
                    tau_g_real: clock.real_of_local(*tau_g),
                }),
                NodeEvent::Core(Event::Aborted { general, tau_g, at }) => {
                    decisions.push(DecisionRecord {
                        node: obs.node,
                        general: *general,
                        value: None,
                        local_at: *at,
                        real_at: obs.real,
                        tau_g_local: *tau_g,
                        tau_g_real: clock.real_of_local(*tau_g),
                    });
                }
                NodeEvent::Core(Event::IAccepted {
                    general,
                    value,
                    tau_g,
                }) => iaccepts.push(IaRecord {
                    node: obs.node,
                    general: *general,
                    value: **value,
                    tau_g_local: *tau_g,
                    tau_g_real: clock.real_of_local(*tau_g),
                    real_at: obs.real,
                }),
                NodeEvent::Core(Event::InitiationFailed { value, .. }) => {
                    failures.push((obs.node, **value, obs.real));
                }
                NodeEvent::InitiateRefused { value, .. } => {
                    refused.push((obs.node, *value, obs.real));
                }
            }
        }
        ScenarioResult {
            params: self.params,
            correct: self.correct.clone(),
            decisions,
            iaccepts,
            refused,
            failures,
            metrics: self.sim.metrics().clone(),
        }
    }
}
