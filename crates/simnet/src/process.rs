//! The process abstraction: what a simulated node can see and do.

use std::any::Any;
use std::sync::Arc;

use ssbyz_types::{Duration, LocalTime, NodeId};

/// Everything a process may do during one event handler invocation.
///
/// A process only ever sees **local time**; the simulator translates to and
/// from real time through the node's drifting clock, exactly as the paper's
/// model prescribes.
pub struct Ctx<'a, M, O> {
    pub(crate) me: NodeId,
    pub(crate) n: usize,
    pub(crate) now_local: LocalTime,
    pub(crate) outbox: &'a mut Vec<Effect<M, O>>,
    pub(crate) rng_words: &'a mut dyn FnMut() -> u64,
}

/// Side effects queued by a process, executed by the simulator after the
/// handler returns.
#[derive(Debug)]
pub(crate) enum Effect<M, O> {
    Send { to: NodeId, msg: M },
    Broadcast { msg: M },
    TimerAtLocal { at: LocalTime, token: u64 },
    TimerAfter { after: Duration, token: u64 },
    CancelTimer { token: u64 },
    Observe(O),
}

impl<'a, M, O> Ctx<'a, M, O> {
    /// This node's identity.
    #[must_use]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Number of nodes in the system.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The node's current local-clock reading.
    #[must_use]
    pub fn now(&self) -> LocalTime {
        self.now_local
    }

    /// Sends `msg` to a single node (authenticated as coming from `me`).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push(Effect::Send { to, msg });
    }

    /// Sends `msg` to **all** nodes, including `me` (the paper's
    /// "send to all").
    pub fn broadcast(&mut self, msg: M) {
        self.outbox.push(Effect::Broadcast { msg });
    }

    /// Schedules `on_timer(token)` at local time `at` (fires immediately
    /// if `at` is already past).
    ///
    /// Timers are identified by `(token, due time)`: scheduling one
    /// identical to a timer already pending is a no-op, so re-emitting
    /// the same deadline never accumulates duplicate queue entries.
    pub fn set_timer_at(&mut self, at: LocalTime, token: u64) {
        self.outbox.push(Effect::TimerAtLocal { at, token });
    }

    /// Schedules `on_timer(token)` after a local-clock span (same
    /// `(token, due time)` identity as [`Ctx::set_timer_at`]).
    pub fn set_timer_after(&mut self, after: Duration, token: u64) {
        self.outbox.push(Effect::TimerAfter { after, token });
    }

    /// Cancels **all** pending timers of this node carrying `token`.
    ///
    /// The scheduler removes the entries in place (O(1) per timer on the
    /// wheel) — rescheduling via cancel + set keeps queue occupancy
    /// bounded by live timers instead of leaving stale entries to be
    /// filtered at pop.
    pub fn cancel_timer(&mut self, token: u64) {
        self.outbox.push(Effect::CancelTimer { token });
    }

    /// Emits an observation record for harnesses and property checkers.
    pub fn observe(&mut self, obs: O) {
        self.outbox.push(Effect::Observe(obs));
    }

    /// Deterministic per-simulation entropy (used by Byzantine strategies).
    pub fn rand_u64(&mut self) -> u64 {
        (self.rng_words)()
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    pub fn rand_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        self.rand_u64() % bound
    }
}

/// A simulated node.
///
/// Handlers are invoked with a [`Ctx`] scoped to the node's own clock.
/// Implementations must be deterministic given the same inputs and
/// `rand_u64` draws — the whole simulation is then reproducible from its
/// seed.
pub trait Process<M, O>: Send {
    /// Called once when the simulation starts (schedule initial timers
    /// here).
    fn on_start(&mut self, ctx: &mut Ctx<'_, M, O>);

    /// Called when an authenticated message from `from` is delivered.
    ///
    /// The payload arrives by reference: broadcast fan-out shares one
    /// `Arc`-held message among all destinations, so a process that needs
    /// ownership clones explicitly — and one that drops or filters the
    /// message (the common case under load) never pays for a deep copy.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M, O>, from: NodeId, msg: &M);

    /// Called with a coalesced **wave**: every same-instant delivery
    /// destined for this node, in arrival order, as one handler
    /// invocation. The simulator routes through this entry point when
    /// receiver-side coalescing is active (`WaveMode::Coalesced` on a
    /// draw-free instant); each `Arc` clone in the batch is a reference
    /// bump on the broadcast-shared payload, never a deep copy.
    ///
    /// The default implementation loops [`Process::on_message`] per
    /// arrival, so existing processes keep their exact behavior;
    /// override it only to exploit the batch (the engine adapter feeds
    /// the whole wave into one triplet-table pass).
    ///
    /// Determinism contract: a handler reachable from this path must not
    /// draw `rand_u64`/`rand_below` — the simulator's coalescing gate
    /// assumes delivery handlers leave the seeded RNG stream untouched
    /// (timers are where the adversary strategies draw).
    fn on_message_batch(&mut self, ctx: &mut Ctx<'_, M, O>, batch: &[(NodeId, Arc<M>)]) {
        for (from, msg) in batch {
            self.on_message(ctx, *from, msg);
        }
    }

    /// Called when a previously scheduled timer fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M, O>, token: u64);

    /// Called when the node comes back up after a crash (scheduled
    /// recovery or explicit `recover_node`). Any timer that fired while
    /// the node was down was silently dropped — periodic self-re-arming
    /// timers are dead by now, so implementations should re-arm them
    /// here. The default does nothing (a stateless process needs no
    /// resurrection).
    fn on_recover(&mut self, _ctx: &mut Ctx<'_, M, O>) {}

    /// Downcast hook for harness-level fault injection (e.g. scrambling a
    /// wrapped engine mid-run). Implementations that want to be reachable
    /// return `Some(self)`; the default opts out.
    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        None
    }
}
