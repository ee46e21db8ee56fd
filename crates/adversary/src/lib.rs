//! # `ssbyz-adversary` — Byzantine strategies
//!
//! Everything needed to attack `ss-Byz-Agree` the way the paper's fault
//! model allows:
//!
//! * **Byzantine Generals** — [`TwoFacedGeneral`] (split values),
//!   [`SpamGeneral`] (rate-violating initiations), [`StaggeredGeneral`]
//!   (same value at wildly different times), [`PartialGeneral`] (a
//!   subset of receivers), [`SilentNode`].
//! * **Byzantine followers** — [`GarbageNode`] (random well-formed junk),
//!   [`EchoForger`] / [`IaForger`] (forged relay stages, the attacks
//!   against unforgeability [IA-2]/[TPS-2]), and [`QuorumStalker`] (an
//!   adaptive attacker that aims forgeries at the quietest — i.e.
//!   recovering — nodes; the engine of the fault campaign's
//!   adaptive-storm family).
//!
//! Each strategy is a [`SansIo`](ssbyz_core::SansIo) machine, as a
//! correct node is, so any host that drives the seam can run it. It
//! strikes on its own [`Cadence`], armed by the host's boot tick. The
//! strategies that draw randomness carry their own seeded RNG, so a run
//! is reproducible from their seeds whatever hosts it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::convert::Infallible;

use ssbyz_core::{Effect, Msg};
use ssbyz_types::{Duration, LocalTime};

/// The effects a strategy leaves for its host: messages and wakes, never
/// an event.
type Out<V> = Vec<Effect<Msg<V>, Infallible>>;

/// Implements `SansIo` for striking strategies: a tick that the
/// strategy's `cadence` finds due calls its
/// `strike(&mut self, out: &mut Out<V>)`, then arms the next wake.
/// Deliveries are ignored, unless the strategy is named as
/// `Name(method)`: then each sender goes to `method`.
macro_rules! striking {
    ($($name:ident $(($hear:ident))?),+) => {$(
        impl<V: Value> SansIo for $name<V> {
            type Msg = Msg<V>;
            type Event = Infallible;
            type Buf = Out<V>;

            fn deliver(&mut self, _: LocalTime, _from: NodeId, _: &Msg<V>, _: &mut Out<V>) {
                $(self.$hear(_from);)?
            }

            fn tick(&mut self, now: LocalTime, out: &mut Out<V>) {
                let (strike, wake) = self.cadence.poll(now);
                if strike {
                    self.strike(out);
                }
                out.extend(wake.map(Effect::WakeAt));
            }

            fn drain(out: &mut Out<V>) -> impl Iterator<Item = Effect<Msg<V>, Infallible>> + '_ {
                out.drain(..)
            }
        }
    )+};
}

mod generals;
mod nodes;

pub use generals::{PartialGeneral, SilentNode, SpamGeneral, StaggeredGeneral, TwoFacedGeneral};
pub use nodes::{EchoForger, GarbageNode, IaForger, QuorumStalker};

/// A fixed strike schedule on the local clock: the first strike `first`
/// after the boot tick, then one `gap` after each strike, `strikes` in
/// all. Each re-arm counts from the tick that struck, so a strike a host
/// ticks late (a node back from a crash) delays the ones after it.
#[derive(Debug, Clone, Copy)]
pub struct Cadence {
    first: Duration,
    gap: Duration,
    left: u32,
    next: Option<LocalTime>,
}

impl Cadence {
    /// A schedule of `strikes` strikes.
    #[must_use]
    pub const fn new(first: Duration, gap: Duration, strikes: u32) -> Self {
        Cadence {
            first,
            gap,
            left: strikes,
            next: None,
        }
    }

    /// A schedule that keeps striking (`u32::MAX` strikes).
    #[must_use]
    pub const fn endless(first: Duration, gap: Duration) -> Self {
        Self::new(first, gap, u32::MAX)
    }

    /// Polls the schedule at `now`: whether a strike is due, and the wake
    /// the host must honour after the strike's messages. The first poll is
    /// the boot tick: it arms the first strike. Each strike arms the next,
    /// if any is left.
    pub fn poll(&mut self, now: LocalTime) -> (bool, Option<LocalTime>) {
        let after = match self.next {
            None => self.first,
            Some(next) if self.left > 0 && now.is_at_or_after(next) => {
                self.left -= 1;
                self.gap
            }
            Some(_) => return (false, None),
        };
        let strike = self.next.is_some();
        if self.left == 0 {
            return (strike, None);
        }
        let next = now + after;
        self.next = Some(next);
        (strike, Some(next))
    }
}
