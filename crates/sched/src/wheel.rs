//! The hierarchical timer wheel.

use std::collections::BTreeMap;

use crate::{EventQueue, Expired, TimerHandle};

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level — 64, so one `u64` occupancy bitmap per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels; horizons beyond `tick · 64^6` overflow.
const LEVELS: usize = 6;
/// Entries per bucket chunk.
const CHUNK: usize = 32;
/// Null chunk link.
const NIL: u32 = u32::MAX;

/// One scheduled entry, stored inline wherever it lives.
struct Item<T> {
    due: u64,
    seq: u64,
    payload: T,
}

impl<T> Item<T> {
    fn key(&self) -> (u64, u64) {
        (self.due, self.seq)
    }
}

/// Up to [`CHUNK`] entries of one bucket, linked to the bucket's older
/// chunks. Every chunk of a bucket but its head is full.
struct Chunk<T> {
    items: Vec<Item<T>>,
    next: u32,
}

/// A hierarchical timer wheel over absolute nanosecond due times.
///
/// # Geometry
///
/// Level 0 buckets time into `2^tick_shift`-nanosecond ticks, one slot
/// per tick across a 64-tick frame; each higher level widens the slot by
/// 64×, so six levels cover a horizon of `2^(tick_shift + 36)` ns (the
/// default `tick_shift = 14` ⇒ 16.4 µs ticks, ~13 days). Entries beyond
/// the horizon live in a far-future overflow map and are batch-migrated
/// into the wheel when the cursor reaches their frame.
///
/// Entries are stored inline as `(due, seq, payload)`. A bucket is a
/// chain of fixed-size chunks drawn from one pool shared by all
/// buckets, so a wheel with nothing scheduled holds no buffers, and a
/// bucket costs at most one partly filled chunk. Insert is O(1) inside
/// the horizon. Cancel scans the one bucket the entry's due names.
///
/// # Determinism
///
/// Pop order is globally ascending `(due, seq)` — identical to a
/// min-heap over the same keys, hence bit-identical event traces. The
/// argument: the *near buffer* and the unsorted *late buffer* together
/// hold exactly the entries at or before the cursor tick; every wheel
/// entry is on a strictly later tick than the cursor, and every overflow
/// entry is in a strictly later top-level frame than every wheel entry.
/// Before the head is read, `late` is merged into `near` with one sort
/// by `(due, seq)` (or, when `near` is empty, sorted in place: the keys
/// are unique, so an unstable sort gives the same order); when both are
/// empty, the cursor advances to the next occupied tick and that level-0
/// slot (one tick wide) becomes `late`.
/// So the head of the near buffer is always the global minimum.
///
/// The same invariant locates every entry from its due alone: at or
/// before the cursor tick it is in `near` or `late`; otherwise its level
/// is the highest 6-bit group in which its tick differs from the
/// cursor's (or the overflow map past the last level). The cursor only
/// moves to the next occupied slot or cascades one, and neither changes
/// that group for an entry it does not move.
pub struct TimerWheel<T> {
    tick_shift: u32,
    /// Cursor tick: `near` and `late` hold all entries with
    /// `due >> tick_shift` at or below this.
    cur: u64,
    seq: u64,
    /// Sorted by `(due, seq)` **descending** — pop takes from the back.
    near: Vec<Item<T>>,
    /// Entries placed at or before the cursor tick since the last
    /// merge, in no particular order.
    late: Vec<Item<T>>,
    /// Head chunk of each bucket.
    heads: [[u32; SLOTS]; LEVELS],
    /// Per-level slot-occupancy bitmaps.
    bitmap: [u64; LEVELS],
    /// Every chunk ever drawn; the unused ones are listed in `spare`,
    /// empty with their capacity kept.
    chunks: Vec<Chunk<T>>,
    spare: Vec<u32>,
    /// Far-future entries keyed by `(due, seq)`.
    overflow: BTreeMap<(u64, u64), T>,
    live: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    /// A wheel with the default 2^14 ns (16.4 µs) tick.
    #[must_use]
    pub fn new() -> Self {
        TimerWheel::with_tick_shift(14)
    }

    /// A wheel whose level-0 tick is `2^tick_shift` nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `tick_shift >= 64`.
    #[must_use]
    pub fn with_tick_shift(tick_shift: u32) -> Self {
        assert!(tick_shift < 64, "tick_shift must leave room for ticks");
        TimerWheel {
            tick_shift,
            cur: 0,
            seq: 0,
            near: Vec::new(),
            late: Vec::new(),
            heads: [[NIL; SLOTS]; LEVELS],
            bitmap: [0; LEVELS],
            chunks: Vec::new(),
            spare: Vec::new(),
            overflow: BTreeMap::new(),
            live: 0,
        }
    }

    /// A wheel scaled to a workload horizon hint (e.g. the network's
    /// `d`/`δ` bound): the tick is chosen so one 64-slot level-0 frame
    /// spans roughly `span_ns`, clamped to [2^10, 2^20] ns ticks.
    #[must_use]
    pub fn for_span_hint(span_ns: u64) -> Self {
        let per_slot = (span_ns >> SLOT_BITS).max(1);
        let shift = (63 - per_slot.leading_zeros()).clamp(10, 20);
        TimerWheel::with_tick_shift(shift)
    }

    /// The configured level-0 tick, in nanoseconds.
    #[must_use]
    pub fn tick_ns(&self) -> u64 {
        1 << self.tick_shift
    }

    /// The `(level, slot)` of a tick strictly after the cursor's, or
    /// `None` past the horizon (the overflow map).
    fn bucket(&self, ticks: u64) -> Option<(usize, usize)> {
        debug_assert!(ticks > self.cur);
        let group = (63 - (ticks ^ self.cur).leading_zeros()) / SLOT_BITS;
        let slot = (ticks >> (SLOT_BITS * group)) & (SLOTS as u64 - 1);
        (group < LEVELS as u32).then_some((group as usize, slot as usize))
    }

    /// Puts `item` where its due places it relative to the cursor.
    fn place(&mut self, item: Item<T>) {
        let ticks = item.due >> self.tick_shift;
        if ticks <= self.cur {
            self.late.push(item);
        } else if let Some((level, slot)) = self.bucket(ticks) {
            self.push_bucket(level, slot, item);
        } else {
            self.overflow.insert(item.key(), item.payload);
        }
    }

    fn push_bucket(&mut self, level: usize, slot: usize, item: Item<T>) {
        let mut head = self.heads[level][slot];
        if head == NIL || self.chunks[head as usize].items.len() == CHUNK {
            let fresh = self.spare.pop().unwrap_or_else(|| {
                self.chunks.push(Chunk {
                    items: Vec::with_capacity(CHUNK),
                    next: NIL,
                });
                u32::try_from(self.chunks.len() - 1).expect("chunk pool exceeds u32")
            });
            self.chunks[fresh as usize].next = head;
            self.heads[level][slot] = fresh;
            self.bitmap[level] |= 1 << slot;
            head = fresh;
        }
        self.chunks[head as usize].items.push(item);
    }

    /// Removes the entry `seq` from bucket `(level, slot)`. The head
    /// chunk's last entry fills the gap, so the other chunks stay full.
    fn bucket_remove(&mut self, level: usize, slot: usize, seq: u64) -> bool {
        let head = self.heads[level][slot];
        let mut c = head;
        let (c, i) = loop {
            if c == NIL {
                return false;
            }
            let chunk = &self.chunks[c as usize];
            if let Some(i) = chunk.items.iter().position(|e| e.seq == seq) {
                break (c, i);
            }
            c = chunk.next;
        };
        if c == head {
            self.chunks[head as usize].items.swap_remove(i);
        } else {
            let last = self.chunks[head as usize].items.pop();
            self.chunks[c as usize].items[i] = last.expect("a bucket's head chunk is never empty");
        }
        if self.chunks[head as usize].items.is_empty() {
            let next = self.chunks[head as usize].next;
            self.heads[level][slot] = next;
            self.spare.push(head);
            if next == NIL {
                self.bitmap[level] &= !(1u64 << slot);
            }
        }
        true
    }

    /// Empties bucket `(level, slot)`, re-placing its entries against the
    /// cursor (a level-0 bucket is the cursor tick: all of it goes to
    /// `late`), and returns its chunks to the pool.
    fn cascade(&mut self, level: usize, slot: usize) {
        let mut c = std::mem::replace(&mut self.heads[level][slot], NIL);
        self.bitmap[level] &= !(1u64 << slot);
        while c != NIL {
            let chunk = &mut self.chunks[c as usize];
            let next = chunk.next;
            if level == 0 {
                self.late.append(&mut chunk.items);
            } else {
                let mut items = std::mem::take(&mut chunk.items);
                for item in items.drain(..) {
                    self.place(item);
                }
                self.chunks[c as usize].items = items;
            }
            self.spare.push(c);
            c = next;
        }
    }

    /// Occupied slots of `level` strictly after the cursor's slot index
    /// within the current frame.
    fn slots_ahead(&self, level: usize) -> u64 {
        let cursor = ((self.cur >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as u32;
        self.bitmap[level] & u64::MAX.checked_shl(cursor + 1).unwrap_or(0)
    }

    /// Advances the cursor to the next occupied tick and moves that
    /// tick's entries into `late`. Called with `near` and `late` empty.
    fn refill(&mut self) {
        debug_assert!(self.near.is_empty() && self.late.is_empty());
        while self.late.is_empty() {
            if let Some(level) = (0..LEVELS).find(|&l| self.slots_ahead(l) != 0) {
                // Move the cursor to the start of the level's next
                // occupied slot and cascade that slot one level down (or
                // into `late`, for what is due at the new cursor tick).
                let slot = u64::from(self.slots_ahead(level).trailing_zeros());
                let scale = SLOT_BITS * level as u32;
                self.cur = (((self.cur >> scale) & !(SLOTS as u64 - 1)) | slot) << scale;
                self.cascade(level, slot as usize);
                continue;
            }
            // Wheel exhausted: migrate the next overflow frame in.
            let Some((&(due, _), _)) = self.overflow.first_key_value() else {
                return;
            };
            self.cur = due >> self.tick_shift;
            let frame_shift = SLOT_BITS * LEVELS as u32;
            while let Some(entry) = self.overflow.first_entry() {
                let (due, seq) = *entry.key();
                if ((due >> self.tick_shift) ^ self.cur) >> frame_shift != 0 {
                    break;
                }
                let payload = entry.remove();
                self.place(Item { due, seq, payload });
            }
        }
    }

    /// Makes the back of `near` the global minimum, if anything is
    /// scheduled.
    fn settle(&mut self) {
        if self.near.is_empty() && self.late.is_empty() {
            self.refill();
        }
        if self.late.is_empty() {
            return;
        }
        if self.near.is_empty() {
            // A fresh tick (or a burst behind a drained cursor): sort it
            // in place. `(due, seq)` keys are unique, so the unstable
            // sort gives the stable sort's order without its scratch
            // buffer; the swap keeps both buffers' capacity.
            std::mem::swap(&mut self.near, &mut self.late);
            self.near
                .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
        } else {
            // `near` is one descending run and `late` is mostly ascending
            // seqs, so the stable sort merges two runs in linear time.
            self.near.append(&mut self.late);
            self.near.sort_by_key(|e| std::cmp::Reverse(e.key()));
        }
    }
}

impl<T> EventQueue<T> for TimerWheel<T> {
    fn insert(&mut self, due: u64, payload: T) -> TimerHandle {
        let seq = self.seq;
        self.seq += 1;
        self.live += 1;
        self.place(Item { due, seq, payload });
        TimerHandle { due, seq }
    }

    fn cancel(&mut self, handle: TimerHandle) -> bool {
        let TimerHandle { due, seq } = handle;
        let ticks = due >> self.tick_shift;
        let found = if ticks <= self.cur {
            if let Ok(i) = self.near.binary_search_by(|e| (due, seq).cmp(&e.key())) {
                self.near.remove(i);
                true
            } else if let Some(i) = self.late.iter().position(|e| e.seq == seq) {
                self.late.swap_remove(i);
                true
            } else {
                false
            }
        } else if let Some((level, slot)) = self.bucket(ticks) {
            self.bucket_remove(level, slot, seq)
        } else {
            self.overflow.remove(&(due, seq)).is_some()
        };
        self.live -= usize::from(found);
        found
    }

    fn peek_due(&mut self) -> Option<u64> {
        self.settle();
        self.near.last().map(|e| e.due)
    }

    fn pop(&mut self) -> Option<Expired<T>> {
        self.settle();
        let Item { due, seq, payload } = self.near.pop()?;
        self.live -= 1;
        Some(Expired { due, seq, payload })
    }

    fn len(&self) -> usize {
        self.live
    }

    fn occupancy(&self) -> usize {
        // Cancellation removes the entry in place: no garbage, ever.
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(q: &mut TimerWheel<T>) -> Vec<(u64, u64, T)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.due, e.seq, e.payload));
        }
        out
    }

    #[test]
    fn pops_in_due_then_fifo_order() {
        let mut q: TimerWheel<&str> = TimerWheel::with_tick_shift(4);
        q.insert(500, "b");
        q.insert(20, "a");
        q.insert(500, "c"); // same due as "b" — FIFO after it
        q.insert(1_000_000, "d");
        let got = drain(&mut q);
        let labels: Vec<&str> = got.iter().map(|(_, _, p)| *p).collect();
        assert_eq!(labels, ["a", "b", "c", "d"]);
        assert!(got.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    }

    #[test]
    fn same_tick_different_due_sorts_by_due() {
        // tick = 2^10: 100 and 900 share a level-0 slot but must pop in
        // due order regardless of insertion order.
        let mut q: TimerWheel<u32> = TimerWheel::with_tick_shift(10);
        q.insert(900, 1);
        q.insert(100, 2);
        let got = drain(&mut q);
        assert_eq!(got, vec![(100, 1, 2), (900, 0, 1)]);
    }

    #[test]
    fn cancel_removes_from_every_location() {
        let mut q: TimerWheel<u32> = TimerWheel::with_tick_shift(4);
        let near = q.insert(1, 0); // tick 0 == cursor → late buffer
        let low = q.insert(100, 1); // level 0
        let high = q.insert(1 << 20, 2); // higher level
        let far = q.insert(u64::MAX / 2, 3); // overflow
        let keep = q.insert(200, 4);
        assert_eq!(q.len(), 5);
        for h in [near, low, high, far] {
            assert!(q.cancel(h));
            assert!(!q.cancel(h), "second cancel must be stale");
        }
        assert_eq!(q.len(), 1);
        assert_eq!(q.occupancy(), 1);
        let got = drain(&mut q);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].2, 4);
        assert!(!q.cancel(keep), "fired handle is stale");
    }

    #[test]
    fn stale_handle_never_matches_a_later_entry_at_the_same_due() {
        let mut q: TimerWheel<u32> = TimerWheel::with_tick_shift(4);
        let h1 = q.insert(100, 1);
        assert!(q.cancel(h1));
        let h2 = q.insert(100, 2); // same bucket, same due
        assert!(!q.cancel(h1), "the seq names the cancelled entry only");
        assert!(q.cancel(h2));
        assert!(q.is_empty());
    }

    #[test]
    fn behind_cursor_burst_pops_in_order() {
        // Peeking prefetches the tick of due 5_000 (cursor moves past
        // 1_000's tick); 4096 entries then land behind the cursor, at one
        // due before it, and must still pop first, FIFO.
        let mut q: TimerWheel<u32> = TimerWheel::with_tick_shift(6);
        q.insert(5_000, u32::MAX);
        assert_eq!(q.peek_due(), Some(5_000));
        for i in 0..4096 {
            q.insert(1_000, i);
        }
        q.insert(5_000, 4096);
        let got = drain(&mut q);
        assert_eq!(got.len(), 4098);
        assert!(got.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        let payloads: Vec<u32> = got.iter().map(|e| e.2).collect();
        let want: Vec<u32> = (0..4096).chain([u32::MAX, 4096]).collect();
        assert_eq!(payloads, want);
    }

    #[test]
    fn cancel_in_late_and_near_buffers() {
        let mut q: TimerWheel<u32> = TimerWheel::with_tick_shift(6);
        q.insert(5_000, 0);
        q.insert(5_010, 1);
        assert_eq!(q.peek_due(), Some(5_000)); // both now in `near`
        let merged = q.insert(5_005, 2); // behind the cursor: `late`
        let unmerged = q.insert(5_001, 3);
        assert!(q.cancel(unmerged), "unmerged entry cancels from `late`");
        assert_eq!(q.peek_due(), Some(5_000)); // merges `late` into `near`
        assert!(q.cancel(merged), "merged entry cancels from `near`");
        let payloads: Vec<u32> = drain(&mut q).iter().map(|e| e.2).collect();
        assert_eq!(payloads, [0, 1]);
    }

    #[test]
    fn cancel_in_a_multi_chunk_bucket() {
        // tick = 2^10: dues 100_000 .. 100_000 + 2·CHUNK + 5 share one
        // bucket of three chunks, the head one holding five entries.
        let mut q: TimerWheel<u64> = TimerWheel::with_tick_shift(10);
        let n = 2 * CHUNK as u64 + 5;
        let handles: Vec<TimerHandle> = (0..n).map(|i| q.insert(100_000 + i, i)).collect();
        // The only entry of its bucket.
        let lone = q.insert(900_000, n);
        // The tail, then entries of older (full) chunks, until the head
        // chunk's five entries are used up and the chunk goes back to
        // the pool.
        let cancelled = [n - 1, 3, CHUNK as u64 + 7, 0, n - 2, 1];
        for &i in &cancelled {
            assert!(q.cancel(handles[i as usize]));
            assert!(!q.cancel(handles[i as usize]));
        }
        assert_eq!(q.spare.len(), 1);
        assert!(q.cancel(lone));
        assert_eq!(q.spare.len(), 2);
        assert_eq!(q.occupancy(), (n - 6) as usize);
        let got: Vec<u64> = drain(&mut q).iter().map(|e| e.2).collect();
        let want: Vec<u64> = (0..n).filter(|i| !cancelled.contains(i)).collect();
        assert_eq!(got, want);
        for h in handles {
            assert!(!q.cancel(h), "popped and cancelled handles cancel nothing");
        }
    }

    #[test]
    fn interleaved_insert_and_pop_stays_ordered() {
        let mut q: TimerWheel<u64> = TimerWheel::with_tick_shift(6);
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut step = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            rng >> 33
        };
        let mut last = (0u64, 0u64);
        let mut now = 0u64;
        for round in 0..2_000u64 {
            let due = now + step() % 100_000;
            q.insert(due, round);
            if round % 3 == 0 {
                if let Some(e) = q.pop() {
                    assert!((e.due, e.seq) > last, "order violated at {round}");
                    assert!(e.due >= now, "time went backwards");
                    last = (e.due, e.seq);
                    now = e.due;
                }
            }
        }
        let rest = drain(&mut q);
        for e in rest {
            assert!((e.0, e.1) > last);
            last = (e.0, e.1);
        }
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn overflow_entries_migrate_into_the_wheel() {
        let mut q: TimerWheel<u32> = TimerWheel::with_tick_shift(0);
        // With tick 1ns and 6 levels the horizon is 2^36 ns.
        let horizon = 1u64 << 36;
        q.insert(horizon + 5, 1);
        q.insert(horizon + 1, 2);
        q.insert(3 * horizon + 7, 3);
        q.insert(10, 4);
        let got = drain(&mut q);
        let payloads: Vec<u32> = got.iter().map(|e| e.2).collect();
        assert_eq!(payloads, [4, 2, 1, 3]);
    }

    #[test]
    fn empty_queue_behaves() {
        let mut q: TimerWheel<u32> = TimerWheel::new();
        assert_eq!(q.peek_due(), None);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
        assert_eq!(q.occupancy(), 0);
    }
}
