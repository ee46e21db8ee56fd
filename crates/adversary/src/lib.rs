//! # `ssbyz-adversary` — Byzantine strategies and transient-fault tooling
//!
//! Everything needed to attack `ss-Byz-Agree` the way the paper's fault
//! model allows:
//!
//! * **Byzantine Generals** — [`TwoFacedGeneral`] (split values),
//!   [`SpamGeneral`] (rate-violating initiations), [`StaggeredGeneral`]
//!   (same value at wildly different times), [`SilentNode`].
//! * **Byzantine followers** — [`GarbageNode`] (random well-formed junk),
//!   [`EchoForger`] / [`IaForger`] (forged relay stages, the attacks
//!   against unforgeability [IA-2]/[TPS-2]), and [`QuorumStalker`] (an
//!   adaptive attacker that aims forgeries at the quietest — i.e.
//!   recovering — nodes; the engine of the fault campaign's
//!   adaptive-storm family).
//! * **Transient faults** — message [`u64_corruptor`]s and spurious
//!   [`u64_injector`]s for the simulator's storm phase. (The core
//!   crate's engine-state scramble takes any `FnMut() -> u64` as its
//!   entropy, so an RNG needs no adapter.)
//!
//! All strategies are deterministic given the simulation seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generals;
mod nodes;
mod storm;

pub use generals::{PartialGeneral, SilentNode, SpamGeneral, StaggeredGeneral, TwoFacedGeneral};
pub use nodes::{EchoForger, GarbageNode, IaForger, QuorumStalker};
pub use storm::{u64_corruptor, u64_injector};
