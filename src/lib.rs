//! # `ssbyz` — Self-stabilizing Byzantine Agreement
//!
//! A comprehensive Rust implementation of *"Self-stabilizing Byzantine
//! Agreement"* (Ariel Daliot & Danny Dolev, PODC 2006): Byzantine
//! agreement that converges from an **arbitrary state** — corrupted
//! variables, bogus in-flight messages, no synchrony among the correct
//! nodes — once the system is coherent (`n > 3f`, bounded message delay),
//! while tolerating the permanent presence of Byzantine faults.
//!
//! This facade re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `ssbyz-core` | `Initiator-Accept`, `msgd-broadcast`, `ss-Byz-Agree`, the per-node [`Engine`], the slot pipeline, and the `SansIo` seam both present to a host |
//! | [`simnet`] | `ssbyz-simnet` | deterministic simulator: drifting clocks, bounded-delay links, fault storms |
//! | [`adversary`] | `ssbyz-adversary` | Byzantine strategies & transient-fault tooling |
//! | [`baseline`] | `ssbyz-baseline` | time-driven lock-step comparator (TPS-87 style) |
//! | [`pulse`] | `ssbyz-pulse` | pulse synchronization built atop the agreement |
//! | [`runtime`] | `ssbyz-runtime` | one threaded wall-clock host for both machines: `Cluster` (engines) and `PipelineCluster` (slot pipelines) |
//! | [`wire`] | `ssbyz-wire` | authenticated binary codec, MAC'd framing, TCP readiness-loop reactor, the payload-generic `Transport` seam |
//! | [`harness`] | `ssbyz-harness` | the one simulator driver for both machines, scenarios, property checkers, experiment drivers |
//!
//! ## Quickstart (deterministic simulation)
//!
//! ```
//! use ssbyz::harness::{ScenarioBuilder, ScenarioConfig};
//! use ssbyz::{Duration, NodeId, RealTime};
//!
//! // 7 nodes tolerating 2 Byzantine; node 0 is a correct General that
//! // proposes value 42 shortly after boot.
//! let cfg = ScenarioConfig::new(7, 2).with_seed(1);
//! let params = cfg.params()?;
//! let mut scenario = ScenarioBuilder::new(cfg)
//!     .correct_general(params.d() * 4u64, 42)
//!     .correct().correct().correct().correct().correct().correct()
//!     .build();
//! scenario.run_until(RealTime::ZERO + params.delta_agr() + params.d() * 30u64);
//! let result = scenario.result();
//! assert_eq!(result.decided_values(NodeId::new(0)), vec![42]);
//! assert_eq!(result.decides_for(NodeId::new(0)).len(), 7);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Quickstart (threads, wall clock)
//!
//! ```no_run
//! use ssbyz::core::Params;
//! use ssbyz::runtime::{Cluster, RuntimeConfig};
//! use ssbyz::{Duration, NodeId};
//!
//! let params = Params::from_d(4, 1, Duration::from_millis(20), 0)?;
//! let cluster: Cluster<u64> = Cluster::spawn(params, RuntimeConfig::default());
//! cluster.initiate(NodeId::new(0), 7)?;
//! cluster.wait_for_decisions(4, std::time::Duration::from_secs(5))?;
//! cluster.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ssbyz_adversary as adversary;
pub use ssbyz_baseline as baseline;
pub use ssbyz_core as core;
pub use ssbyz_harness as harness;
pub use ssbyz_pulse as pulse;
pub use ssbyz_runtime as runtime;
pub use ssbyz_simnet as simnet;
pub use ssbyz_wire as wire;

pub use ssbyz_core::{Engine, Event, Msg, Output, Params};
pub use ssbyz_types::{
    ConfigError, DenseNodeMap, Duration, LocalTime, NodeBitSet, NodeId, RealTime, Value,
};
