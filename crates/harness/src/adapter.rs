//! Adapter between a sans-io machine ([`SansIo`]) and the simulator's
//! [`Process`] interface: one [`Driver`] runs the tick chain, the
//! `WakeAt` timers, wave dispatch, the crash-recovery re-arm and output
//! routing for every machine, plus one [`Client`] timer chain.
//! [`EngineProcess`] is that driver around an [`Engine`] with planned
//! initiations; [`crate::PipelineProcess`] is the same driver around a
//! slot pipeline with its client workload; [`Driver::bare`] hosts a
//! Byzantine strategy or the lock-step baseline, which need no client.

use std::convert::Infallible;
use std::marker::PhantomData;
use std::sync::Arc;

use ssbyz_core::{Effect, Engine, Event, InitiateError, Msg, Outbox, SansIo};
use ssbyz_simnet::{Ctx, Process};
use ssbyz_types::{Duration, NodeId, Value};

/// Observations emitted by an [`EngineProcess`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeEvent<V> {
    /// A core protocol event.
    Core(Event<V>),
    /// A planned initiation was refused by the Sending Validity Criteria.
    InitiateRefused {
        /// The value whose initiation was refused.
        value: V,
        /// Why.
        error: InitiateError,
    },
}

impl<V> From<Event<V>> for NodeEvent<V> {
    fn from(e: Event<V>) -> Self {
        NodeEvent::Core(e)
    }
}

/// A Byzantine strategy observes nothing.
impl<V> From<Infallible> for NodeEvent<V> {
    fn from(never: Infallible) -> Self {
        match never {}
    }
}

/// Timer token: periodic machine tick.
pub const TOKEN_TICK: u64 = 0;
/// Timer token: precise machine wake-up (deadlines, retries).
pub const TOKEN_WAKE: u64 = 1;
/// Timer tokens at or above this value are planned initiations.
pub const TOKEN_INITIATE_BASE: u64 = 1_000;

/// The timers a simulated node adds to its [`Driver`]'s own.
pub trait Client<S: SansIo>: Send + 'static {
    /// What the node observes: the machine's events, and the client's.
    type Obs: From<S::Event>;

    /// Arms the client's first timers, after the driver's tick. The
    /// default arms none.
    fn start(&self, _ctx: &mut Ctx<'_, S::Msg, Self::Obs>) {}

    /// A timer other than [`TOKEN_TICK`]/[`TOKEN_WAKE`] fired. The
    /// effects the call leaves in `buf` are routed next; a returned span
    /// then re-arms `token`.
    fn fire(
        &mut self,
        _machine: &mut S,
        _buf: &mut S::Buf,
        _ctx: &mut Ctx<'_, S::Msg, Self::Obs>,
        _token: u64,
    ) -> Option<Duration> {
        None
    }

    /// Re-arms the client's timers after a crash, after the driver's.
    fn recover(&self, _ctx: &mut Ctx<'_, S::Msg, Self::Obs>) {}
}

/// Runs a [`SansIo`] machine inside the simulator: translates
/// deliveries and timers into machine calls, and the machine's effects
/// into sends, timers and observations.
///
/// The driver ticks the machine once at boot, then keeps a periodic tick
/// (every `tick`; scenarios default to 10 ms, just under their `d`) so
/// cleanup and deadline blocks run even when no messages arrive, and
/// honours each `WakeAt` with a [`TOKEN_WAKE`] timer. It owns one pooled
/// output buffer for the life of the node, so a suppressed delivery
/// under Byzantine spam performs zero heap allocations.
pub struct Driver<S: SansIo, C> {
    pub(crate) machine: S,
    buf: S::Buf,
    tick: Duration,
    pub(crate) client: C,
}

impl<S: SansIo, C> Driver<S, C> {
    pub(crate) fn with_client(machine: S, tick: Duration, client: C) -> Self {
        assert!(!tick.is_zero(), "tick period must be positive");
        Driver {
            machine,
            buf: S::Buf::default(),
            tick,
            client,
        }
    }

    /// Routes the effects of the machine call that just ran.
    fn apply<O: From<S::Event>>(&mut self, ctx: &mut Ctx<'_, S::Msg, O>) {
        for effect in S::drain(&mut self.buf) {
            match effect {
                Effect::Broadcast(msg) => ctx.broadcast(msg),
                Effect::Send(to, msg) => ctx.send(to, msg),
                Effect::WakeAt(at) => ctx.set_timer_at(at, TOKEN_WAKE),
                Effect::Event(e) => ctx.observe(e.into()),
            }
        }
    }
}

impl<S, C> Process<S::Msg, C::Obs> for Driver<S, C>
where
    S: SansIo + Send + 'static,
    S::Buf: Send,
    C: Client<S>,
{
    fn on_start(&mut self, ctx: &mut Ctx<'_, S::Msg, C::Obs>) {
        ctx.set_timer_after(self.tick, TOKEN_TICK);
        self.machine.tick(ctx.now(), &mut self.buf);
        self.apply(ctx);
        self.client.start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, S::Msg, C::Obs>, from: NodeId, msg: &S::Msg) {
        // Broadcast payloads are Arc-shared by the simulator; the machine
        // clones the embedded value only where it stores it.
        self.machine.deliver(ctx.now(), from, msg, &mut self.buf);
        self.apply(ctx);
    }

    fn on_message_batch(
        &mut self,
        ctx: &mut Ctx<'_, S::Msg, C::Obs>,
        wave: &[(NodeId, Arc<S::Msg>)],
    ) {
        // A coalesced wave: all same-instant arrivals enter the machine
        // in one call, which walks each triplet table once per key.
        self.machine.deliver_wave(ctx.now(), wave, &mut self.buf);
        self.apply(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, S::Msg, C::Obs>, token: u64) {
        if token == TOKEN_TICK || token == TOKEN_WAKE {
            self.machine.tick(ctx.now(), &mut self.buf);
            self.apply(ctx);
            if token == TOKEN_TICK {
                ctx.set_timer_after(self.tick, TOKEN_TICK);
            }
        } else {
            let again = self
                .client
                .fire(&mut self.machine, &mut self.buf, ctx, token);
            self.apply(ctx);
            if let Some(after) = again {
                ctx.set_timer_after(after, token);
            }
        }
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, S::Msg, C::Obs>) {
        // Any timer that fired during the outage was dropped, so the
        // self-re-arming tick chain may be dead. Cancel whatever survived
        // (a tick scheduled just before the crash would otherwise
        // double-chain with the one armed here), run one tick now —
        // cleanup and deadline blocks catch up — and re-arm.
        ctx.cancel_timer(TOKEN_TICK);
        self.machine.tick(ctx.now(), &mut self.buf);
        self.apply(ctx);
        ctx.set_timer_after(self.tick, TOKEN_TICK);
        self.client.recover(ctx);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// A [`Driver`]'s client for a machine with no timers of its own beyond
/// its wakes: a Byzantine strategy, or the lock-step baseline. `O` is
/// what the node observes.
pub struct Bare<O>(PhantomData<fn() -> O>);

impl<S: SansIo, O> Driver<S, Bare<O>> {
    /// Hosts `machine`, ticking every `tick`.
    #[must_use]
    pub fn bare(machine: S, tick: Duration) -> Self {
        Driver::with_client(machine, tick, Bare(PhantomData))
    }
}

impl<S: SansIo, O: From<S::Event> + 'static> Client<S> for Bare<O> {
    type Obs = O;
}

/// Runs an [`Engine`] inside the simulator: the [`Driver`], plus
/// planned initiations on timer tokens from [`TOKEN_INITIATE_BASE`].
pub type EngineProcess<V> = Driver<Engine<V>, Planned<V>>;

/// An [`EngineProcess`]'s client: initiations at local-time offsets
/// from process start.
pub struct Planned<V>(Vec<(Duration, V)>);

impl<V: Value> EngineProcess<V> {
    /// Wraps `engine`, ticking every `tick` local-time units.
    #[must_use]
    pub fn new(engine: Engine<V>, tick: Duration) -> Self {
        Driver::with_client(engine, tick, Planned(Vec::new()))
    }

    /// Schedules an initiation of `value` at `offset` after process start
    /// (on the node's local clock). Refusals are observed as
    /// [`NodeEvent::InitiateRefused`].
    #[must_use]
    pub fn with_initiation(mut self, offset: Duration, value: V) -> Self {
        self.client.0.push((offset, value));
        self
    }

    /// Access to the wrapped engine (e.g. to scramble it before the
    /// simulation starts).
    pub fn engine_mut(&mut self) -> &mut Engine<V> {
        &mut self.machine
    }

    /// Read access to the wrapped engine.
    #[must_use]
    pub fn engine(&self) -> &Engine<V> {
        &self.machine
    }

    /// Read access to the pooled outbox (capacity introspection for the
    /// reuse regression tests).
    #[must_use]
    pub fn outbox(&self) -> &Outbox<V> {
        &self.buf
    }
}

impl<V: Value> Client<Engine<V>> for Planned<V> {
    type Obs = NodeEvent<V>;

    fn start(&self, ctx: &mut Ctx<'_, Msg<V>, NodeEvent<V>>) {
        for (i, (offset, _)) in self.0.iter().enumerate() {
            ctx.set_timer_after(*offset, TOKEN_INITIATE_BASE + i as u64);
        }
    }

    fn fire(
        &mut self,
        engine: &mut Engine<V>,
        outbox: &mut Outbox<V>,
        ctx: &mut Ctx<'_, Msg<V>, NodeEvent<V>>,
        token: u64,
    ) -> Option<Duration> {
        let idx = token.checked_sub(TOKEN_INITIATE_BASE)?;
        let (_, value) = self.0.get(usize::try_from(idx).ok()?)?.clone();
        // A refused initiation leaves the outbox empty.
        if let Err(error) = engine.initiate(ctx.now(), value.clone(), outbox) {
            ctx.observe(NodeEvent::InitiateRefused { value, error });
        }
        None
    }
}
