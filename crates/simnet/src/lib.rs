//! # `ssbyz-simnet` — deterministic distributed-system simulator
//!
//! The substrate on which the `ssbyz` protocol stack is evaluated. It
//! models exactly the system of the paper (§2):
//!
//! * `n` nodes, each with a **drifting local clock** ([`DriftClock`],
//!   bounded rate deviation ρ, arbitrary boot reading that may wrap);
//! * an **authenticated, bounded-delay network** ([`LinkConfig`]):
//!   delivery within `[δ_min, δ]`, sender identity unforgeable by nodes;
//! * **transient-failure storms** ([`StormConfig`]): for a configured
//!   period the network drops, corrupts, duplicates, delays arbitrarily
//!   and fabricates messages with forged identities — afterwards it is
//!   non-faulty again, which is the moment self-stabilization is measured
//!   from.
//!
//! The simulation is a seeded discrete-event loop: identical seeds yield
//! identical executions, so every timing property of the paper can be
//! checked bit-for-bit reproducibly. Processes ([`Process`]) only ever
//! observe *local* time; real time exists solely for the harness (the
//! paper's `rt(τ)` mapping is [`DriftClock::real_of_local`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod network;
mod process;
mod sim;

/// The shared hierarchical timer-wheel scheduler (re-exported from
/// `ssbyz-sched`): the event queue under this simulator and the
/// `ssbyz-runtime` router, plus the retained `BinaryHeap` golden model
/// the equivalence property tests compare against.
pub use ssbyz_sched as sched;

pub use clock::{DriftClock, PPM};
pub use network::{LinkBlock, LinkConfig, Partition, StormConfig};
pub use process::{Ctx, Process};
pub use sim::{Corruptor, Injector, Metrics, Observation, SimBuilder, Simulation, WaveMode};
