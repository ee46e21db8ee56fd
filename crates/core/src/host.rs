//! The host seam: what a node's host — the simulator adapter or a
//! runtime thread — needs from a sans-io protocol machine.
//!
//! In the paper a node is driven only by message arrivals and local
//! timeouts. [`SansIo`] names exactly that for [`Engine`],
//! [`SlotPipeline`] and every other simulated node (the pulse layer, the
//! Byzantine strategies, the lock-step baseline), so each host loop is
//! written once: deliver a message or a same-instant wave, tick, then
//! drain the call's outputs as [`Effect`]s in emission order (each call
//! clears the last call's).
//!
//! Every host ticks each machine once at boot, before any delivery, and
//! then periodically and at each [`Effect::WakeAt`]. A machine with a
//! schedule of its own arms it from that boot tick.

use std::sync::Arc;

use ssbyz_types::{LocalTime, NodeId, Value};

use crate::engine::{Engine, Event, Output};
use crate::message::Msg;
use crate::outbox::Outbox;
use crate::pipeline::{PipeEvent, PipeOutput, SlotMsg, SlotPipeline};

/// One output of a [`SansIo`] call, as its host executes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect<M, E> {
    /// Send to every node, own copy included.
    Broadcast(M),
    /// Send to one node.
    Send(NodeId, M),
    /// Call [`SansIo::tick`] at this local time, besides the boot tick
    /// and the periodic one.
    WakeAt(LocalTime),
    /// An observable event.
    Event(E),
}

/// A node's protocol state machine, as its host drives it.
pub trait SansIo {
    /// The wire message.
    type Msg;
    /// The observable event.
    type Event;
    /// The caller-owned output buffer, reused across calls.
    type Buf: Default;

    /// Feeds one authenticated message from `from`.
    fn deliver(&mut self, now: LocalTime, from: NodeId, msg: &Self::Msg, buf: &mut Self::Buf);

    /// Feeds a wave: every message arrived at `now`, in arrival order.
    /// The default delivers them one by one.
    fn deliver_wave(
        &mut self,
        now: LocalTime,
        wave: &[(NodeId, Arc<Self::Msg>)],
        buf: &mut Self::Buf,
    ) {
        for (from, msg) in wave {
            self.deliver(now, *from, msg, buf);
        }
    }

    /// Runs the deadlines, cleanup and retries due by `now`.
    fn tick(&mut self, now: LocalTime, buf: &mut Self::Buf);

    /// Drains the outputs of the last call, in emission order.
    fn drain(buf: &mut Self::Buf) -> impl Iterator<Item = Effect<Self::Msg, Self::Event>> + '_;
}

impl<V: Value> SansIo for Engine<V> {
    type Msg = Msg<V>;
    type Event = Event<V>;
    type Buf = Outbox<V>;

    fn deliver(&mut self, now: LocalTime, from: NodeId, msg: &Msg<V>, buf: &mut Outbox<V>) {
        self.on_message_ref(now, from, msg, buf);
    }

    fn deliver_wave(
        &mut self,
        now: LocalTime,
        wave: &[(NodeId, Arc<Msg<V>>)],
        buf: &mut Outbox<V>,
    ) {
        self.on_wave_ref(now, wave, buf);
    }

    fn tick(&mut self, now: LocalTime, buf: &mut Outbox<V>) {
        self.on_tick(now, buf);
    }

    fn drain(buf: &mut Outbox<V>) -> impl Iterator<Item = Effect<Msg<V>, Event<V>>> + '_ {
        buf.drain().map(|o| match o {
            Output::Broadcast(msg) => Effect::Broadcast(msg),
            Output::WakeAt(at) => Effect::WakeAt(at),
            Output::Event(e) => Effect::Event(e),
        })
    }
}

impl<V: Value> SansIo for SlotPipeline<V> {
    type Msg = SlotMsg<V>;
    type Event = PipeEvent<V>;
    type Buf = Vec<PipeOutput<V>>;

    fn deliver(&mut self, now: LocalTime, from: NodeId, msg: &SlotMsg<V>, buf: &mut Self::Buf) {
        self.on_message(now, from, msg, buf);
    }

    fn deliver_wave(
        &mut self,
        now: LocalTime,
        wave: &[(NodeId, Arc<SlotMsg<V>>)],
        buf: &mut Self::Buf,
    ) {
        self.on_wave(now, wave, buf);
    }

    fn tick(&mut self, now: LocalTime, buf: &mut Self::Buf) {
        self.on_tick(now, buf);
    }

    fn drain(buf: &mut Self::Buf) -> impl Iterator<Item = Effect<SlotMsg<V>, PipeEvent<V>>> + '_ {
        buf.drain(..).map(|o| match o {
            PipeOutput::Broadcast(msg) => Effect::Broadcast(msg),
            PipeOutput::Send(to, msg) => Effect::Send(to, msg),
            PipeOutput::WakeAt(at) => Effect::WakeAt(at),
            PipeOutput::Event(e) => Effect::Event(e),
        })
    }
}
