//! # `ssbyz-sched` — the shared event scheduler
//!
//! Both executors of the protocol stack are timeout machines: the
//! deterministic simulator (`ssbyz-simnet`) schedules message deliveries,
//! engine ticks and precise `WakeAt` deadlines on one global queue, and
//! the threaded runtime (`ssbyz-runtime`) delays in-flight messages in a
//! router thread. Before this crate both paid an O(log E) `BinaryHeap`
//! push per event — and `WakeAt` rescheduling left stale entries to be
//! filtered at pop, so a corrupted initial timer state (the
//! self-stabilizing setting's starting point) could keep the queue
//! arbitrarily large.
//!
//! [`TimerWheel`] replaces the heap with a hierarchical timer wheel:
//! fixed-size levels bucketed by power-of-two horizons, entries stored
//! inline in pooled bucket chunks, O(1) insert, and a far-future
//! overflow level so no due time is ever rejected. Pop order is
//! **exactly** the heap's `(due, seq)` order — FIFO within a tick — so
//! simulation traces are bit-identical to the heap scheduler they
//! replace; `crates/simnet/tests/sched_equivalence.rs` proves this
//! against the heap implementation, kept there as the golden model.
//!
//! A [`TimerHandle`] is the entry's `(due, seq)`. The due alone names
//! the one bucket the entry can be in, so cancel scans that bucket and
//! removes the entry in place: occupancy always equals the live count.
//! The scan is linear in the bucket, which suffices because cancels are
//! rare next to inserts and pops — the simulator cancels only timers a
//! node re-arms (rescheduled deadlines, a recovery, a scramble), and the
//! runtime's delay router never cancels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod wheel;

pub use wheel::TimerWheel;

/// An expired queue entry, in global `(due, seq)` order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expired<T> {
    /// Absolute due time in nanoseconds.
    pub due: u64,
    /// Insertion sequence number (the FIFO tie-break within a due time).
    pub seq: u64,
    /// The scheduled payload.
    pub payload: T,
}

/// A handle naming one scheduled entry, used to cancel it.
///
/// A handle is the entry's `(due, seq)` key. A queue never repeats a
/// seq, so a handle kept after its entry fired (or was cancelled) is
/// *stale* and cancels nothing. A caller that keys its entries by due
/// already may keep only the seq and rebuild the handle with
/// [`TimerHandle::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle {
    pub(crate) due: u64,
    pub(crate) seq: u64,
}

impl TimerHandle {
    /// The handle of the entry due at `due` with insertion number `seq`.
    #[must_use]
    pub fn new(due: u64, seq: u64) -> Self {
        TimerHandle { due, seq }
    }

    /// The entry's insertion number.
    #[must_use]
    pub fn seq(self) -> u64 {
        self.seq
    }
}

/// A monotone event queue ordered by `(due, seq)` with cancellation: the
/// surface the simulator and the benchmark drive [`TimerWheel`] through.
///
/// `peek_due`/`pop` take `&mut self` because an implementation may
/// reorganise internal state while locating the minimum (the wheel
/// cascades levels).
pub trait EventQueue<T> {
    /// Schedules `payload` at absolute time `due` (nanoseconds). Entries
    /// inserted with equal `due` pop in insertion (FIFO) order.
    fn insert(&mut self, due: u64, payload: T) -> TimerHandle;

    /// Cancels a previously inserted entry. Returns `false` if the
    /// handle is stale (already fired or cancelled).
    fn cancel(&mut self, handle: TimerHandle) -> bool;

    /// The due time of the next entry, if any.
    fn peek_due(&mut self) -> Option<u64>;

    /// Removes and returns the globally next entry by `(due, seq)`.
    fn pop(&mut self) -> Option<Expired<T>>;

    /// Number of live (not cancelled, not fired) entries.
    fn len(&self) -> usize;

    /// Whether no live entries remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of physical entries held, **including** cancelled garbage
    /// not yet reclaimed. For the wheel this equals [`EventQueue::len`]
    /// (cancellation removes the entry in place); a lazily-cancelling heap
    /// exceeds `len` by the tombstones awaiting filtering at pop.
    fn occupancy(&self) -> usize;
}
