//! Adapter between the sans-io [`Engine`] and the simulator's
//! [`Process`] interface.

use ssbyz_core::{Engine, Event, InitiateError, Msg, Outbox, Output};
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

/// Timer token: periodic engine tick.
pub const TOKEN_TICK: u64 = 0;
/// Timer token: precise engine wake-up (deadlines).
pub const TOKEN_WAKE: u64 = 1;
/// Timer tokens at or above this value are planned initiations.
pub const TOKEN_INITIATE_BASE: u64 = 1_000;

/// Runs an [`Engine`] inside the simulator: translates deliveries and
/// timers into engine calls, and engine outputs into sends, timers and
/// observations.
///
/// The process drives a periodic tick (default `d`) so cleanup and
/// deadline blocks run even when no messages arrive; precise `WakeAt`
/// requests from the engine are honored with dedicated timers.
///
/// The process owns one pooled [`Outbox`] for the life of the node: the
/// edge buffers (the simulator's `scratch_outbox`) and the engine's
/// dispatch arena are now pooled end to end, so a suppressed delivery
/// under Byzantine spam performs zero heap allocations.
pub struct EngineProcess<V: Value> {
    engine: Engine<V>,
    outbox: Outbox<V>,
    tick: Duration,
    /// Planned initiations: local-time offsets from process start.
    planned: Vec<(Duration, V)>,
}

impl<V: Value> EngineProcess<V> {
    /// Wraps `engine`, ticking every `tick` local-time units.
    #[must_use]
    pub fn new(engine: Engine<V>, tick: Duration) -> Self {
        assert!(!tick.is_zero(), "tick period must be positive");
        EngineProcess {
            engine,
            outbox: Outbox::new(),
            tick,
            planned: Vec::new(),
        }
    }

    /// Schedules an initiation of `value` at `offset` after process start
    /// (on the node's local clock). Refusals are observed as
    /// [`NodeEvent::InitiateRefused`].
    #[must_use]
    pub fn with_initiation(mut self, offset: Duration, value: V) -> Self {
        self.planned.push((offset, value));
        self
    }

    /// Access to the wrapped engine (e.g. to scramble it before the
    /// simulation starts).
    pub fn engine_mut(&mut self) -> &mut Engine<V> {
        &mut self.engine
    }

    /// Read access to the wrapped engine.
    #[must_use]
    pub fn engine(&self) -> &Engine<V> {
        &self.engine
    }

    /// Read access to the pooled outbox (capacity introspection for the
    /// reuse regression tests).
    #[must_use]
    pub fn outbox(&self) -> &Outbox<V> {
        &self.outbox
    }

    /// Drains the outbox of the engine call that just ran into simulator
    /// effects.
    fn apply(&mut self, ctx: &mut Ctx<'_, Msg<V>, NodeEvent<V>>) {
        for o in self.outbox.drain() {
            match o {
                Output::Broadcast(msg) => ctx.broadcast(msg),
                Output::WakeAt(t) => ctx.set_timer_at(t, TOKEN_WAKE),
                Output::Event(e) => ctx.observe(NodeEvent::Core(e)),
            }
        }
    }
}

impl<V: Value> Process<Msg<V>, NodeEvent<V>> for EngineProcess<V> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg<V>, NodeEvent<V>>) {
        ctx.set_timer_after(self.tick, TOKEN_TICK);
        for (i, (offset, _)) in self.planned.iter().enumerate() {
            ctx.set_timer_after(*offset, TOKEN_INITIATE_BASE + i as u64);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg<V>, NodeEvent<V>>, from: NodeId, msg: &Msg<V>) {
        // Broadcast payloads are Arc-shared by the simulator; the by-ref
        // engine path clones the embedded value only where it is stored,
        // and the pooled outbox keeps the dispatch allocation-free.
        self.engine
            .on_message_ref(ctx.now(), from, msg, &mut self.outbox);
        self.apply(ctx);
    }

    fn on_message_batch(
        &mut self,
        ctx: &mut Ctx<'_, Msg<V>, NodeEvent<V>>,
        batch: &[(NodeId, std::sync::Arc<Msg<V>>)],
    ) {
        // A coalesced wave: all same-instant arrivals enter the engine in
        // one call, which groups them by key and walks the triplet table
        // once per key instead of once per message.
        self.engine.on_wave_ref(ctx.now(), batch, &mut self.outbox);
        self.apply(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg<V>, NodeEvent<V>>, token: u64) {
        match token {
            TOKEN_TICK => {
                self.engine.on_tick(ctx.now(), &mut self.outbox);
                self.apply(ctx);
                ctx.set_timer_after(self.tick, TOKEN_TICK);
            }
            TOKEN_WAKE => {
                self.engine.on_tick(ctx.now(), &mut self.outbox);
                self.apply(ctx);
            }
            t if t >= TOKEN_INITIATE_BASE => {
                let idx = (t - TOKEN_INITIATE_BASE) as usize;
                if let Some((_, value)) = self.planned.get(idx).cloned() {
                    match self
                        .engine
                        .initiate(ctx.now(), value.clone(), &mut self.outbox)
                    {
                        Ok(()) => self.apply(ctx),
                        Err(error) => ctx.observe(NodeEvent::InitiateRefused { value, error }),
                    }
                }
            }
            _ => {}
        }
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, Msg<V>, NodeEvent<V>>) {
        // Any timer that fired during the outage was dropped, so the
        // self-re-arming tick chain may be dead. Cancel whatever survived
        // (a pending tick scheduled just before the crash would otherwise
        // double-chain with the one armed here), run one tick immediately
        // — cleanup and deadline blocks catch up — and re-arm.
        ctx.cancel_timer(TOKEN_TICK);
        self.engine.on_tick(ctx.now(), &mut self.outbox);
        self.apply(ctx);
        ctx.set_timer_after(self.tick, TOKEN_TICK);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}
