//! # `ssbyz-harness` — scenarios, adapters and property checkers
//!
//! The glue between the sans-io protocol engine (`ssbyz-core`), the
//! deterministic simulator (`ssbyz-simnet`) and the adversary library:
//!
//! * [`EngineProcess`], [`PipelineProcess`] and [`pulse::PulseNode`] run
//!   an engine, a slot pipeline or the pulse construction inside the
//!   simulator, through one driver;
//! * [`ScenarioBuilder`] wires correct / scrambled / Byzantine nodes with
//!   drifting clocks, storms and planned initiations;
//! * [`checks`] states the paper's properties (Agreement, Validity,
//!   Timeliness 1–4, [IA-1]/[IA-4]) as machine-checked predicates over a
//!   [`ScenarioResult`];
//! * [`experiments`] drives the E1–E11 reproduction experiments and
//!   renders their tables, for the `experiments` example, the benchmark
//!   and the integration tests;
//! * [`faults`] scripts mid-run fault bursts ([`FaultSchedule`]) and
//!   measures self-stabilization and containment ([`run_campaign`],
//!   [`StabilizationReport`]) — see `docs/ROBUSTNESS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod checks;
pub mod experiments;
pub mod faults;
pub mod pipeline;
pub mod pulse;
pub mod scenario;

pub use adapter::{EngineProcess, NodeEvent, TOKEN_INITIATE_BASE, TOKEN_TICK, TOKEN_WAKE};
pub use checks::Violations;
pub use faults::{
    run_campaign, BurstReport, CampaignFamily, Fault, FaultSchedule, StabilizationReport,
    TimedFault,
};
pub use pipeline::{PipelineProcess, PipelineScenario, Workload, PIPE_TOKEN_WORKLOAD};
pub use scenario::{
    DecisionRecord, IaRecord, RunningScenario, ScenarioBuilder, ScenarioConfig, ScenarioResult, Val,
};
