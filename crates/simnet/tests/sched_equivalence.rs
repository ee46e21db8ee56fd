//! Golden-equivalence property tests for the scheduler: the hierarchical
//! [`TimerWheel`] must produce **bit-identical** pop streams to
//! [`ReferenceQueue`], the `BinaryHeap` scheduler it replaced, kept here
//! as the golden model, over random insert / cancel / advance
//! interleavings — including far-future due times that land in the
//! overflow level and cursor wrap-around across level frames. This is
//! what makes the wheel a drop-in replacement: simulation traces under it
//! are event-for-event identical to the heap scheduler it replaced.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet};

use proptest::prelude::*;
use ssbyz_simnet::sched::{EventQueue, Expired, TimerHandle, TimerWheel};

/// A heap entry, ordered by `(due, seq)` alone.
struct Scheduled<T> {
    due: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T> Eq for Scheduled<T> {}
impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// The event queue `ssbyz-simnet` and the `ssbyz-runtime` router used
/// before the timer wheel: a min-heap on `(due, seq)`, with the old lazy
/// cancellation — a tombstone set, dead entries filtered at pop. That
/// keeps the model honest about the failure mode the wheel eliminates:
/// `occupancy` grows with every cancelled-but-unpopped entry. Its handle
/// is the entry's seq, unique and never reused.
struct ReferenceQueue<T> {
    heap: BinaryHeap<Reverse<Scheduled<T>>>,
    /// Seqs of live (inserted, neither popped nor cancelled) entries.
    pending: HashSet<u64>,
    /// Seqs cancelled but still buried in the heap.
    tombstones: HashSet<u64>,
    seq: u64,
}

impl<T> ReferenceQueue<T> {
    fn new() -> Self {
        ReferenceQueue {
            heap: BinaryHeap::new(),
            pending: HashSet::new(),
            tombstones: HashSet::new(),
            seq: 0,
        }
    }

    fn insert(&mut self, due: u64, payload: T) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { due, seq, payload }));
        self.pending.insert(seq);
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        // Lazy: the entry stays in the heap until pop walks past it.
        self.pending.remove(&seq) && self.tombstones.insert(seq)
    }

    /// Drops tombstoned entries sitting at the top of the heap.
    fn skim(&mut self) {
        while let Some(Reverse(head)) = self.heap.peek() {
            if !self.tombstones.remove(&head.seq) {
                break;
            }
            self.heap.pop();
        }
    }

    fn peek_due(&mut self) -> Option<u64> {
        self.skim();
        self.heap.peek().map(|Reverse(head)| head.due)
    }

    fn pop(&mut self) -> Option<Expired<T>> {
        self.skim();
        let Reverse(head) = self.heap.pop()?;
        self.pending.remove(&head.seq);
        Some(Expired {
            due: head.due,
            seq: head.seq,
            payload: head.payload,
        })
    }

    fn len(&self) -> usize {
        self.pending.len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Includes tombstoned garbage — the cost the wheel avoids.
    fn occupancy(&self) -> usize {
        self.heap.len()
    }
}

#[test]
fn fifo_within_equal_due() {
    let mut q: ReferenceQueue<&str> = ReferenceQueue::new();
    q.insert(10, "a");
    q.insert(5, "b");
    q.insert(10, "c");
    let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
    assert_eq!(order, ["b", "a", "c"]);
}

#[test]
fn cancel_is_lazy_but_invisible() {
    let mut q: ReferenceQueue<u32> = ReferenceQueue::new();
    let h = q.insert(10, 1);
    q.insert(20, 2);
    assert!(q.cancel(h));
    assert!(!q.cancel(h));
    assert_eq!(q.len(), 1);
    assert_eq!(q.occupancy(), 2, "tombstone still buried");
    assert_eq!(q.peek_due(), Some(20));
    assert_eq!(q.pop().map(|e| e.payload), Some(2));
    assert!(q.pop().is_none());
}

/// Both queues driven in lockstep; every observable must agree.
struct Pair {
    wheel: TimerWheel<u32>,
    heap: ReferenceQueue<u32>,
    /// Parallel handles for the same logical entry (incl. consumed ones,
    /// to exercise stale-handle cancels).
    handles: Vec<(TimerHandle, u64)>,
}

impl Pair {
    fn new(tick_shift: u32) -> Self {
        Pair {
            wheel: TimerWheel::with_tick_shift(tick_shift),
            heap: ReferenceQueue::new(),
            handles: Vec::new(),
        }
    }

    fn insert(&mut self, due: u64, payload: u32) {
        self.insert_unchecked(due, payload);
        self.check();
    }

    /// Inserts without the peeking `check`, so a burst lands in one
    /// piece before anything settles.
    fn insert_unchecked(&mut self, due: u64, payload: u32) {
        let hw = self.wheel.insert(due, payload);
        let hh = self.heap.insert(due, payload);
        self.handles.push((hw, hh));
    }

    fn cancel(&mut self, pick: usize) {
        if self.handles.is_empty() {
            return;
        }
        let (hw, hh) = self.handles[pick % self.handles.len()];
        let cw = self.wheel.cancel(hw);
        let ch = self.heap.cancel(hh);
        assert_eq!(cw, ch, "cancel outcome diverged for handle {pick}");
        self.check();
    }

    fn pop(&mut self) -> Option<Expired<u32>> {
        let w = self.wheel.pop();
        let h = self.heap.pop();
        assert_eq!(w, h, "pop stream diverged");
        self.check();
        w
    }

    fn check(&mut self) {
        assert_eq!(self.wheel.len(), self.heap.len(), "live count diverged");
        assert_eq!(self.wheel.peek_due(), self.heap.peek_due(), "head diverged");
        assert_eq!(self.wheel.is_empty(), self.heap.is_empty());
        assert_eq!(
            self.wheel.occupancy(),
            self.wheel.len(),
            "the wheel must never carry cancelled garbage"
        );
    }

    fn drain(&mut self) {
        while self.pop().is_some() {}
        assert_eq!(self.wheel.len(), 0);
    }
}

/// Spreads a raw delta over wildly different magnitudes so cases hit the
/// near buffer, every wheel level, and the overflow map: the low 2 bits
/// select a band, the rest scale within it.
fn shape_delta(raw: u64) -> u64 {
    match raw & 3 {
        0 => (raw >> 2) % 1_000,                      // same-tick / near
        1 => (raw >> 2) % 5_000_000,                  // low levels
        2 => (raw >> 2) % (1 << 40),                  // high levels
        _ => (1 << 50) + (raw >> 2) % (u64::MAX / 4), // overflow territory
    }
}

/// The fixed-delay instant shape: a peek moves the cursor to the next
/// occupied tick, then a burst of 4096 entries lands behind it before
/// anything pops, and cancels hit entries both before and after they
/// are merged into the sorted head buffer.
#[test]
fn behind_cursor_burst_matches_heap() {
    let mut pair = Pair::new(11);
    pair.insert(1_000_000, 0);
    for i in 1..=4096u32 {
        pair.insert_unchecked(600_000 + u64::from(i % 3), i);
    }
    // The first cancel finds its entry unmerged; its `check` merges the
    // rest, so the next two cancel from the sorted buffer.
    for pick in [4096, 17, 2048] {
        pair.cancel(pick);
    }
    pair.insert(600_001, 4097);
    for _ in 0..100 {
        pair.pop();
    }
    pair.cancel(3); // popped first: stale on both sides
    pair.drain();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// The main interleaving property: random inserts (all magnitudes),
    /// cancels (live, repeated and stale), and batched pops that advance
    /// simulated time.
    #[test]
    fn wheel_matches_heap_on_random_interleavings(
        tick_shift in 0u32..18,
        ops in prop::collection::vec((0u32..10, any::<u64>(), 0usize..64), 1..200),
    ) {
        let mut pair = Pair::new(tick_shift);
        let mut now = 0u64;
        let mut payload = 0u32;
        for (op, raw, pick) in ops {
            match op {
                // Insert relative to the last popped time, like a
                // dispatch loop scheduling follow-up events.
                0..=5 => {
                    payload += 1;
                    pair.insert(now.saturating_add(shape_delta(raw)), payload);
                }
                // Cancel some handle — possibly one already consumed.
                6 | 7 => pair.cancel(pick),
                // Advance: pop a small batch, moving `now` forward.
                _ => {
                    for _ in 0..(pick % 8 + 1) {
                        match pair.pop() {
                            Some(e) => now = now.max(e.due),
                            None => break,
                        }
                    }
                }
            }
        }
        pair.drain();
    }

    /// Dense same-due bursts: FIFO within a due time must match exactly
    /// (this is where a heap's (due, seq) tie-break matters most).
    #[test]
    fn wheel_matches_heap_on_fifo_bursts(
        dues in prop::collection::vec(0u64..50_000, 2..120),
        tick_shift in 4u32..16,
    ) {
        let mut pair = Pair::new(tick_shift);
        for (i, due) in dues.iter().enumerate() {
            // Duplicate each due: same-key entries must pop in insertion
            // order on both sides.
            pair.insert(*due, i as u32 * 2);
            pair.insert(*due, i as u32 * 2 + 1);
        }
        pair.drain();
    }

    /// Far-future coverage: everything starts in the overflow map (or the
    /// top level) and must migrate down through every level as pops
    /// advance the cursor across frame wrap-arounds.
    #[test]
    fn wheel_matches_heap_across_overflow_and_wraparound(
        deltas in prop::collection::vec((any::<u64>(), 0u32..4), 2..80),
    ) {
        // tick_shift 0 ⇒ horizon 2^36 ns: huge dues overflow readily and
        // small steps cross level-frame boundaries (cursor wrap) often.
        let mut pair = Pair::new(0);
        let mut payload = 0u32;
        let mut now = 0u64;
        for (raw, kind) in deltas {
            payload += 1;
            let due = match kind {
                // Cluster just below and above one frame boundary.
                0 => (1u64 << 36) - 16 + raw % 32,
                // Multi-frame strides.
                1 => now.saturating_add((raw % 8) << 36),
                // Deep overflow.
                2 => (1u64 << 52).saturating_add(raw % (1 << 53)),
                // Near the cursor.
                _ => now.saturating_add(raw % 1_024),
            };
            pair.insert(due, payload);
            if payload.is_multiple_of(3) {
                if let Some(e) = pair.pop() {
                    now = now.max(e.due);
                }
            }
        }
        pair.drain();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Large ticks: 128–1 024 entries land in one level-0 tick before
    /// anything settles, so the cursor's arrival sorts the whole tick at
    /// once (the in-place path taken while the head buffer is empty).
    /// Dues are random within the tick or, for a drawn share, all equal,
    /// where only seqs order them. Mid-tick, pops advance through it,
    /// cancels hit entries inside it (and stale ones), and inserts land
    /// behind the cursor — one at a time or as a 128-entry equal-due
    /// burst — and merge into the partly drained head buffer, or sort
    /// alone once it is empty.
    #[test]
    fn wheel_matches_heap_on_large_ticks(
        tick_shift in 4u32..14,
        size in 128usize..=1024,
        equal_share in 0u64..5,
        raws in prop::collection::vec(any::<u64>(), 1024),
        ops in prop::collection::vec((0u32..7, any::<u64>(), 0usize..1_200), 1..120),
    ) {
        let mut pair = Pair::new(tick_shift);
        let tick = 1u64 << tick_shift;
        // Ahead of the cursor, so the tick sits in a bucket until the
        // first peek cascades it.
        let base = 100 * tick;
        let mut payload = 0u32;
        for &raw in &raws[..size] {
            let due = if raw % 4 < equal_share { base + tick / 2 } else { base + raw % tick };
            payload += 1;
            pair.insert_unchecked(due, payload);
        }
        pair.check();
        let mut now = base;
        for (op, raw, pick) in ops {
            match op {
                0 | 1 => {
                    for _ in 0..(pick % 64 + 1) {
                        match pair.pop() {
                            Some(e) => now = now.max(e.due),
                            None => break,
                        }
                    }
                }
                2 | 3 => pair.cancel(pick),
                // Behind the cursor: at, just before or just after the
                // last popped due.
                4 => {
                    payload += 1;
                    pair.insert((now + raw % 3).saturating_sub(raw % 2), payload);
                }
                5 => {
                    let due = now.saturating_sub(raw % tick);
                    for _ in 0..128 {
                        payload += 1;
                        pair.insert_unchecked(due, payload);
                    }
                    pair.check();
                }
                _ => {
                    payload += 1;
                    pair.insert(now.saturating_add(shape_delta(raw)), payload);
                }
            }
        }
        pair.drain();
    }
}

/// The stale-entry regression the wheel exists to fix, at the queue
/// level: a reschedule-heavy workload (cancel + reinsert, never popping)
/// keeps wheel occupancy exactly at the live-timer count, while the old
/// heap's lazy cancellation accumulates a tombstone per reschedule.
#[test]
fn rescheduling_leaves_no_garbage_in_the_wheel() {
    const NODES: usize = 32;
    const ROUNDS: usize = 200;
    let mut wheel: TimerWheel<u32> = TimerWheel::with_tick_shift(10);
    let mut heap: ReferenceQueue<u32> = ReferenceQueue::new();
    let mut handles: Vec<(TimerHandle, u64)> = (0..NODES)
        .map(|i| {
            let due = 1_000_000 + i as u64;
            (wheel.insert(due, i as u32), heap.insert(due, i as u32))
        })
        .collect();
    for round in 1..=ROUNDS {
        for (i, hs) in handles.iter_mut().enumerate() {
            assert!(wheel.cancel(hs.0));
            assert!(heap.cancel(hs.1));
            let due = 1_000_000 + (round * 1_000 + i) as u64;
            *hs = (wheel.insert(due, i as u32), heap.insert(due, i as u32));
        }
        assert_eq!(
            wheel.occupancy(),
            NODES,
            "wheel occupancy must stay O(nodes) after {round} reschedule rounds"
        );
    }
    assert_eq!(wheel.len(), NODES);
    // The heap, by contrast, still physically holds every tombstone.
    assert_eq!(heap.len(), NODES);
    assert_eq!(heap.occupancy(), NODES * (ROUNDS + 1));
}

/// A batched-broadcast-shaped wheel payload: the simulator schedules a
/// draw-free broadcast as one entry for all its destinations, so wheel
/// entries carry a destination bitmap next to the shared payload instead
/// of a bare id. The scheduler is payload-generic — this pins that the batch
/// shape (a wider, non-`Copy` payload with interior structure) changes
/// neither pop order nor cancellation behaviour, wheel vs reference
/// heap, bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BatchEntry {
    from: u8,
    /// Two bitmap words — enough for 128 destinations.
    dests: [u64; 2],
    payload_tag: u64,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random insert/cancel/advance interleavings over batch-shaped
    /// entries: the `(due, seq, payload)` pop streams must be identical.
    #[test]
    fn wheel_matches_heap_with_batch_entries(
        tick_shift in 4u32..16,
        ops in prop::collection::vec((0u32..8, any::<u64>(), 0usize..32), 1..150),
    ) {
        let mut wheel: TimerWheel<BatchEntry> = TimerWheel::with_tick_shift(tick_shift);
        let mut heap: ReferenceQueue<BatchEntry> = ReferenceQueue::new();
        let mut handles: Vec<(TimerHandle, u64)> = Vec::new();
        let mut now = 0u64;
        let mut tag = 0u64;
        for (op, raw, pick) in ops {
            match op {
                0..=4 => {
                    tag += 1;
                    let e = BatchEntry {
                        from: (raw % 64) as u8,
                        dests: [raw.rotate_left(17), raw.rotate_right(9)],
                        payload_tag: tag,
                    };
                    let due = now.saturating_add(raw % 40_000);
                    let hw = wheel.insert(due, e.clone());
                    let hh = heap.insert(due, e);
                    handles.push((hw, hh));
                }
                5 | 6 => {
                    if !handles.is_empty() {
                        let (hw, hh) = handles[pick % handles.len()];
                        assert_eq!(wheel.cancel(hw), heap.cancel(hh));
                    }
                }
                _ => {
                    for _ in 0..(pick % 6 + 1) {
                        let w = wheel.pop();
                        let h = heap.pop();
                        assert_eq!(w, h, "batch-entry pop stream diverged");
                        match w {
                            Some(e) => now = now.max(e.due),
                            None => break,
                        }
                    }
                }
            }
            assert_eq!(wheel.len(), heap.len());
            assert_eq!(wheel.peek_due(), heap.peek_due());
        }
        loop {
            let w = wheel.pop();
            let h = heap.pop();
            assert_eq!(w, h);
            if w.is_none() {
                break;
            }
        }
    }
}
