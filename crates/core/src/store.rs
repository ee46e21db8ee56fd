//! Timestamped, self-decaying state containers.
//!
//! Self-stabilization hinges on *every* piece of protocol state carrying a
//! timestamp and decaying: after a transient fault a node may hold
//! arbitrary variables — including timestamps in the future — and the paper
//! requires that "each time-stamped entry that is clearly wrong, with
//! respect to the current clock reading of τq, is removed" (§4). The
//! containers here implement exactly that discipline:
//!
//! * [`ArrivalLog`] — per-sender message-arrival times with sliding-window
//!   quorum queries (used by the `Initiator-Accept` interval tests).
//! * [`StampSlab`] — a free-listed arena of fixed strides, each holding
//!   a caller's header words and latest-arrival stamp logs
//!   ([`StampLog`]) over the membership: the cumulative (untimed)
//!   `msgd-broadcast` counts.
//! * [`TimedVar`] — a variable with a change history, answering *"what was
//!   the value at τq − d?"* (needed by line K1 of `Initiator-Accept`).
//!
//! Each container can also lower a `Due` to the earliest instant its
//! decay could change it, which lets the engine's periodic cleanup skip
//! everything that cannot expire yet.

use std::collections::VecDeque;
use std::fmt;

use ssbyz_types::{Duration, LocalTime, NodeBitSet, NodeId};

/// Fixed-size inline buffer of one sender's recent arrival times, oldest
/// first in insertion order. Eight `LocalTime`s fit one cache line, so a
/// whole per-sender history is inspected without touching the heap.
#[derive(Clone, Copy)]
struct ArrivalSlot {
    times: [LocalTime; ArrivalLog::MAX_PER_SENDER],
    len: u8,
    /// Whether the retained arrivals are in non-decreasing time order —
    /// true on the monotone recording path (the overwhelmingly common
    /// case), cleared when an out-of-order stamp (replayed delivery or
    /// corruption-harness injection) lands. A sorted slot answers
    /// "latest in-window arrival" from the tail in O(1) instead of
    /// scanning all retained times.
    sorted: bool,
    /// The owning log's recency index: the next `[NEWER, OLDER]` senders.
    links: [u32; 2],
}

/// The recency index's sentinel: no sender. Its `OLDER` link is the
/// newest sender, its `NEWER` link the oldest.
const NIL: u32 = u32::MAX;
const NEWER: usize = 0;
const OLDER: usize = 1;

/// Half the local-clock range: wrap-around intervals are exact below it.
const HALF: Duration = Duration::from_nanos(1 << 63);

impl PartialEq for ArrivalSlot {
    fn eq(&self, other: &Self) -> bool {
        // Only the live prefix counts: `retain` compacts in place and
        // leaves stale values beyond `len`.
        self.times() == other.times()
    }
}

impl Eq for ArrivalSlot {}

impl Default for ArrivalSlot {
    fn default() -> Self {
        ArrivalSlot {
            times: [LocalTime::ZERO; ArrivalLog::MAX_PER_SENDER],
            len: 0,
            sorted: true,
            links: [NIL; 2],
        }
    }
}

impl ArrivalSlot {
    #[inline]
    fn times(&self) -> &[LocalTime] {
        &self.times[..usize::from(self.len)]
    }

    /// Appends `t`, evicting the oldest retained arrival when full.
    ///
    /// The slot stays sorted while each push follows the newest stamp and
    /// lands less than half the clock past the oldest one: stamps that
    /// span half the clock or more have no wrap-around order, so the
    /// scan answers for them.
    #[inline]
    fn push(&mut self, t: LocalTime) {
        let len = usize::from(self.len);
        if len == 0 {
            self.sorted = true;
        } else {
            self.sorted &= t.is_at_or_after(self.times[len - 1]) && t.since(self.times[0]) < HALF;
        }
        if len == ArrivalLog::MAX_PER_SENDER {
            self.times.copy_within(1.., 0);
            self.times[len - 1] = t;
        } else {
            self.times[len] = t;
            self.len += 1;
        }
    }

    #[inline]
    fn contains(&self, t: LocalTime) -> bool {
        self.times().contains(&t)
    }

    /// In-place retain preserving insertion order.
    fn retain(&mut self, mut keep: impl FnMut(LocalTime) -> bool) {
        let mut kept = 0usize;
        for i in 0..usize::from(self.len) {
            let t = self.times[i];
            if keep(t) {
                self.times[kept] = t;
                kept += 1;
            }
        }
        self.len = kept as u8;
    }

    /// Any retained arrival inside the window? Checks the most recent
    /// insertion first — on the hot path (monotone recording) that is the
    /// arrival most likely to still be in the window.
    #[inline]
    fn any_in_window(&self, now: LocalTime, window: Duration) -> bool {
        let len = usize::from(self.len);
        if len == 0 {
            return false;
        }
        if in_window(self.times[len - 1], now, window) {
            return true;
        }
        if self.sorted {
            // The newest entry missed; the answer is decided by the most
            // recent entry not in the future of the queried instant
            // (everything below it is older still).
            for t in self.times[..len - 1].iter().rev() {
                if t.is_after(now) {
                    continue;
                }
                return in_window(*t, now, window);
            }
            return false;
        }
        self.times[..len - 1]
            .iter()
            .any(|t| in_window(*t, now, window))
    }

    /// Distance (`now − t`, in nanos) of this sender's most recent
    /// arrival inside `[now − window, now]`, or `None` if no retained
    /// arrival is in the window. A sorted slot answers from its tail
    /// without scanning; an unsorted one takes the exact minimum over all
    /// retained times. The two agree because a sorted slot's stamps span
    /// less than half the clock ([`ArrivalSlot::push`]): the newest one
    /// not after `now` is then the nearest.
    #[inline]
    fn latest_dist(&self, now: LocalTime, window: Duration) -> Option<u64> {
        let times = self.times();
        if self.sorted {
            for t in times.iter().rev() {
                if t.is_after(now) {
                    continue; // future of the queried instant
                }
                let dist = now.since(*t).as_nanos();
                return if dist <= window.as_nanos() {
                    Some(dist)
                } else {
                    None
                };
            }
            None
        } else {
            times
                .iter()
                .filter(|t| in_window(**t, now, window))
                .map(|t| now.since(*t).as_nanos())
                .min()
        }
    }
}

/// Arrival times of one message type, per authenticated sender.
///
/// Stores up to [`ArrivalLog::MAX_PER_SENDER`] recent arrival times per
/// sender (a correct node may legitimately resend; a Byzantine one may
/// spam — the cap bounds memory). All queries are phrased over the local
/// clock of the owning node and use wrap-safe interval arithmetic.
///
/// Internally the log is **dense**: a flat `Vec` of inline time buffers
/// indexed by [`NodeId::index`], plus a [`NodeBitSet`] of senders holding
/// at least one arrival. The set and its population count are maintained
/// incrementally on [`ArrivalLog::record`] / [`ArrivalLog::prune`], so
/// [`ArrivalLog::distinct_total`] is O(1) and the windowed quorum queries
/// scan contiguous memory guided by set bits instead of walking a
/// `BTreeMap` (`crates/core/tests/store_equivalence.rs` keeps the
/// tree-based model it replaced, and holds the two to identical answers).
///
/// The L1–L4 query of `Initiator-Accept`'s hot path
/// ([`ArrivalLog::kth_latest_with_inner_count`]) walks a **recency
/// index** instead, newest-first to the window edge: the occupied
/// senders, linked through their slots by newest arrival. Writes out of
/// order turn it off until the log empties or is cleared.
///
/// # Example
///
/// ```
/// use ssbyz_core::store::ArrivalLog;
/// use ssbyz_types::{Duration, LocalTime, NodeId};
///
/// let mut log = ArrivalLog::new();
/// let t0 = LocalTime::from_nanos(1_000);
/// log.record(t0, NodeId::new(1));
/// log.record(t0 + Duration::from_nanos(5), NodeId::new(2));
/// let now = t0 + Duration::from_nanos(10);
/// assert_eq!(log.distinct_in_window(now, Duration::from_nanos(10)), 2);
/// assert_eq!(log.distinct_in_window(now, Duration::from_nanos(5)), 1);
/// ```
#[derive(Clone)]
pub struct ArrivalLog {
    slots: Vec<ArrivalSlot>,
    occupied: NodeBitSet,
    /// The sentinel's links. The index is exact when it links every
    /// occupied sender (each slot's last arrival then is its newest, and
    /// all lie in `[floor, floor + HALF)`), off when empty but the log is not.
    ends: [u32; 2],
    floor: LocalTime,
}

impl Default for ArrivalLog {
    fn default() -> Self {
        ArrivalLog {
            slots: Vec::new(),
            occupied: NodeBitSet::default(),
            ends: [NIL; 2],
            floor: LocalTime::ZERO,
        }
    }
}

impl fmt::Debug for ArrivalLog {
    // Each occupied sender's retained stamps: the recency index is
    // derived state, and what a slot keeps past its length (or a sender
    // without arrivals) is not state at all, so a cleared log renders
    // as a new one.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.occupied.iter().map(|s| {
                let slot = &self.slots[s.index()];
                (s, (slot.times(), slot.sorted))
            }))
            .finish()
    }
}

impl ArrivalLog {
    /// Cap on retained arrival times per sender.
    pub const MAX_PER_SENDER: usize = 8;

    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an arrival from `sender` at local time `now`.
    ///
    /// Duplicate timestamps for the same sender are collapsed — wherever
    /// they sit in the retained history, not just at the most recent slot,
    /// so an out-of-order duplicate (replayed delivery) cannot inflate the
    /// per-sender history. The log keeps the most recently recorded
    /// [`ArrivalLog::MAX_PER_SENDER`] arrivals.
    pub fn record(&mut self, now: LocalTime, sender: NodeId) {
        // The index stays exact if it is, and `now` follows its arrivals.
        let follows = match self.ends[OLDER] {
            NIL => self.occupied.is_empty(),
            newest => now.is_at_or_after(self.last(newest)) && now.since(self.floor) < HALF,
        };
        let slot = self.slot_mut(sender);
        if slot.contains(now) {
            return;
        }
        let linked = slot.len > 0;
        slot.push(now);
        self.occupied.insert(sender);
        if !follows {
            self.ends = [NIL; 2];
            return;
        }
        let s = sender.index() as u32;
        if self.ends[OLDER] == NIL {
            self.floor = now;
        } else if linked {
            self.unlink(s);
        }
        self.link_newest(s);
    }

    /// Drops arrivals older than `retention` and arrivals stamped in the
    /// future of `now` (bogus state from a transient fault).
    pub fn prune(&mut self, now: LocalTime, retention: Duration) {
        let exact = self.index_exact_at(now);
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.len == 0 {
                continue;
            }
            slot.retain(|t| !t.is_after(now) && now.since(t) <= retention);
            if slot.len == 0 {
                self.occupied.remove(NodeId::new(i as u32));
            }
        }
        if !exact {
            // The list may link emptied senders: drop it until the log
            // empties or is cleared.
            self.ends = [NIL; 2];
            return;
        }
        // Nothing was in the future: the emptied senders are the oldest.
        while self.ends[NEWER] != NIL && self.slots[self.ends[NEWER] as usize].len == 0 {
            self.unlink(self.ends[NEWER]);
        }
    }

    /// Number of distinct senders with at least one arrival in
    /// `[now − window, now]`.
    #[must_use]
    pub fn distinct_in_window(&self, now: LocalTime, window: Duration) -> usize {
        self.occupied
            .iter()
            .filter(|s| self.slots[s.index()].any_in_window(now, window))
            .count()
    }

    /// Number of distinct senders with any retained arrival (used for the
    /// cumulative, untimed counts of block N). O(1): the count is
    /// maintained incrementally on record/prune.
    #[must_use]
    pub fn distinct_total(&self) -> usize {
        self.occupied.count()
    }

    /// The senders with an arrival in `[now − window, now]`, ascending.
    pub fn senders_in_window(
        &self,
        now: LocalTime,
        window: Duration,
    ) -> impl Iterator<Item = NodeId> + '_ {
        self.occupied
            .iter()
            .filter(move |s| self.slots[s.index()].any_in_window(now, window))
    }

    /// For the shortest-suffix-window test of line L1: considering each
    /// sender's **latest** arrival within `[now − window, now]`, returns
    /// the `k`-th most recent of those (1-based). `Some(t)` means the
    /// suffix `[t, now]` contains arrivals from ≥ `k` distinct senders and
    /// no shorter suffix does.
    #[must_use]
    pub fn kth_latest_in_window(
        &self,
        now: LocalTime,
        window: Duration,
        k: usize,
    ) -> Option<LocalTime> {
        if k == 0 {
            return None;
        }
        // Allocation-free selection (this runs on every quorum
        // evaluation): rank senders by the distance from `now` of their
        // most recent in-window arrival and take the k-th smallest. The
        // distances live in a stack buffer sized for any realistic
        // membership and are selected with an in-place unstable sort; a
        // membership larger than the buffer falls back to a slower
        // batched scan that still never touches the heap.
        const INLINE: usize = 128;
        let latest_dist =
            |s: NodeId| -> Option<u64> { self.slots[s.index()].latest_dist(now, window) };
        let mut buf = [0u64; INLINE];
        let mut len = 0usize;
        let mut overflow = false;
        for s in self.occupied.iter() {
            let Some(dist) = latest_dist(s) else { continue };
            if len < INLINE {
                buf[len] = dist;
                len += 1;
            } else {
                overflow = true;
                break;
            }
        }
        if !overflow {
            if len < k {
                return None;
            }
            let (_, kth, _) = buf[..len].select_nth_unstable(k - 1);
            return Some(now - Duration::from_nanos(*kth));
        }
        // Fallback: find the k-th smallest distance by consuming equal
        // distances in batches, O(k·n) worst case.
        let mut consumed = 0usize;
        // Distances at or below `bound` have already been counted.
        let mut bound: Option<u64> = None;
        loop {
            let mut best: Option<u64> = None;
            let mut count = 0usize;
            for s in self.occupied.iter() {
                let Some(dist) = latest_dist(s) else { continue };
                if bound.is_some_and(|b| dist <= b) {
                    continue;
                }
                match best {
                    None => {
                        best = Some(dist);
                        count = 1;
                    }
                    Some(b) if dist < b => {
                        best = Some(dist);
                        count = 1;
                    }
                    Some(b) if dist == b => count += 1,
                    Some(_) => {}
                }
            }
            let dist = best?;
            if consumed + count >= k {
                return Some(now - Duration::from_nanos(dist));
            }
            consumed += count;
            bound = Some(dist);
        }
    }

    /// One-pass fusion of [`ArrivalLog::kth_latest_in_window`]`(now,
    /// outer, k)` with [`ArrivalLog::distinct_in_window`]`(now, inner)`
    /// for **nested** windows (`inner ≤ outer`) — exactly the pair of
    /// support-log queries lines L1–L4 of `Initiator-Accept` issue on
    /// every delivery. Returns `(kth_latest, inner_count)`, bit-identical
    /// to the two separate calls, from an exact recency index if any.
    #[must_use]
    pub fn kth_latest_with_inner_count(
        &self,
        now: LocalTime,
        outer: Duration,
        k: usize,
        inner: Duration,
    ) -> (Option<LocalTime>, usize) {
        debug_assert!(inner <= outer, "windows must nest");
        let inner_nanos = inner.as_nanos();
        if self.index_exact_at(now) {
            let (mut seen, mut kth, mut inner_count) = (0usize, None, 0usize);
            for dist in self.recency(now) {
                if dist > outer.as_nanos() || (dist > inner_nanos && seen >= k) {
                    break;
                }
                inner_count += usize::from(dist <= inner_nanos);
                seen += 1;
                if seen == k {
                    kth = Some(now - Duration::from_nanos(dist));
                }
            }
            return (kth, inner_count);
        }
        // A sender's most recent outer-window arrival decides the inner
        // membership too: the minimum distance is ≤ inner iff any is.
        let mut inner_count = 0;
        for s in self.occupied.iter() {
            let dist = self.slots[s.index()].latest_dist(now, outer);
            inner_count += usize::from(dist.is_some_and(|d| d <= inner_nanos));
        }
        (self.kth_latest_in_window(now, outer, k), inner_count)
    }

    /// One-pass fusion of two **nested** [`ArrivalLog::distinct_in_window`]
    /// queries (`inner ≤ outer`): returns `(outer_count, inner_count)` —
    /// the pair of approve-log queries lines M1–M4 issue on every
    /// delivery. Bit-identical to the two separate calls.
    #[must_use]
    pub fn distinct_in_nested_windows(
        &self,
        now: LocalTime,
        outer: Duration,
        inner: Duration,
    ) -> (usize, usize) {
        debug_assert!(inner <= outer, "windows must nest");
        let mut outer_count = 0usize;
        let mut inner_count = 0usize;
        for s in self.occupied.iter() {
            let mut hit_outer = false;
            // Newest-first: on the hot path (monotone recording) the most
            // recent arrival is the one most likely inside the windows.
            for t in self.slots[s.index()].times().iter().rev() {
                if in_window(*t, now, inner) {
                    inner_count += 1;
                    hit_outer = true;
                    break;
                }
                if !hit_outer && in_window(*t, now, outer) {
                    hit_outer = true;
                }
            }
            outer_count += usize::from(hit_outer);
        }
        (outer_count, inner_count)
    }

    /// Whether `sender` has an arrival within `[now − window, now]`.
    #[must_use]
    pub fn sender_in_window(&self, now: LocalTime, window: Duration, sender: NodeId) -> bool {
        self.slots
            .get(sender.index())
            .is_some_and(|slot| slot.any_in_window(now, window))
    }

    /// Whether the log holds no arrivals at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.occupied.is_empty()
    }

    /// Removes everything (keeps allocations for reuse).
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.len = 0;
        }
        self.occupied.clear();
        self.ends = [NIL; 2];
    }

    /// Inserts a raw (possibly bogus) arrival — used only by the
    /// state-corruption harness to model transient faults.
    pub fn inject_raw(&mut self, sender: NodeId, t: LocalTime) {
        self.slot_mut(sender).push(t);
        self.occupied.insert(sender);
        self.ends = [NIL; 2];
    }

    /// Lowers `due` to the first instant [`ArrivalLog::prune`] with this
    /// `retention` would drop a retained arrival.
    pub(crate) fn lower_due(&self, retention: Duration, due: &mut Due) {
        for s in self.occupied.iter() {
            for &t in self.slots[s.index()].times() {
                due.lower(t + retention);
            }
        }
    }

    fn slot_mut(&mut self, sender: NodeId) -> &mut ArrivalSlot {
        if sender.index() >= self.slots.len() {
            self.slots
                .resize_with(sender.index() + 1, ArrivalSlot::default);
        }
        &mut self.slots[sender.index()]
    }

    /// The last arrival recorded for sender index `s`.
    fn last(&self, s: u32) -> LocalTime {
        let slot = &self.slots[s as usize];
        slot.times[usize::from(slot.len) - 1]
    }

    /// Whether the index answers at `now`: with `now` at or after `floor`
    /// and the newest arrival, `now.since` measures every retained arrival
    /// exactly and in index order, so a sender's newest decides its windows.
    fn index_exact_at(&self, now: LocalTime) -> bool {
        match self.ends[OLDER] {
            NIL => self.occupied.is_empty(),
            newest => !(self.last(newest).is_after(now) || self.floor.is_after(now)),
        }
    }

    /// The index newest-first, as each sender's `now − newest arrival`.
    fn recency(&self, now: LocalTime) -> impl Iterator<Item = u64> + '_ {
        let mut s = self.ends[OLDER];
        std::iter::from_fn(move || {
            (s != NIL).then(|| {
                let t = self.last(s);
                s = self.slots[s as usize].links[OLDER];
                now.since(t).as_nanos()
            })
        })
    }

    /// The link of `s` toward `dir`; of the sentinel for [`NIL`].
    fn link(&mut self, s: u32, dir: usize) -> &mut u32 {
        match s {
            NIL => &mut self.ends[dir],
            s => &mut self.slots[s as usize].links[dir],
        }
    }

    fn unlink(&mut self, s: u32) {
        let [newer, older] = self.slots[s as usize].links;
        *self.link(newer, OLDER) = older;
        *self.link(older, NEWER) = newer;
    }

    /// Links `s` at the newest end.
    fn link_newest(&mut self, s: u32) {
        let older = self.ends[OLDER];
        self.slots[s as usize].links = [NIL, older];
        *self.link(older, NEWER) = s;
        self.ends[OLDER] = s;
    }
}

impl PartialEq for ArrivalLog {
    fn eq(&self, other: &Self) -> bool {
        // Semantic equality: same senders with identical retained
        // histories; backing-vector capacity is irrelevant.
        self.occupied == other.occupied
            && self
                .occupied
                .iter()
                .all(|s| self.slots[s.index()] == other.slots[s.index()])
    }
}

impl Eq for ArrivalLog {}

/// A free-listed arena of fixed-size **strides**, one per tracked record,
/// each holding `HEADER` owner-defined words and `ROWS` latest-stamp logs
/// over the senders `0..n` — the flat store behind the `msgd-broadcast`
/// triplets (paper Fig. 3 asks only "how many distinct senders so far",
/// then lets the evidence decay).
///
/// One stride is [`StampSlab::stride_words`]`(n)` `u64` words, laid out
///
/// ```text
/// [ header: HEADER | counts: ROWS | occupancy: ROWS × ⌈n/64⌉ | stamps: ROWS × n ]
/// ```
///
/// so the header and every log's distinct count sit together at the head
/// of the stride, and recording an arrival is index arithmetic on one
/// block: no allocation, no pointer to chase. [`StampSlab::alloc`] hands out a
/// stride whose header, counts and occupancy are zero (a reused stride's
/// old stamps stay behind, unread: a stamp counts only where its
/// occupancy bit is set); [`StampSlab::release`] and [`StampSlab::clear`]
/// keep the arena for reuse.
///
/// Each log, seen through [`StampLog`] / [`StampLogMut`], keeps one
/// latest stamp per sender: a newer record overwrites the sender's stamp.
/// On a monotone clock [`StampLog::distinct_total`] and
/// [`StampLog::is_empty`] equal [`ArrivalLog`]'s after any
/// `record`/`record_wave`/`prune` interleaving; when stamps go backwards
/// (`inject_raw`, a clock jump) the membership is a subset of
/// [`ArrivalLog`]'s, and no sender outlives the prune retention past its
/// last stamp (`store_equivalence.rs`).
///
/// # Example
///
/// ```
/// use ssbyz_core::store::StampSlab;
/// use ssbyz_types::{Duration, LocalTime, NodeId};
///
/// let mut slab: StampSlab<0, 1> = StampSlab::new(4, 16);
/// let i = slab.alloc();
/// let t0 = LocalTime::from_nanos(1_000);
/// let mut log = slab.log_mut(i, 0);
/// log.record(t0, NodeId::new(1));
/// log.record(t0 + Duration::from_nanos(5), NodeId::new(1)); // resend
/// log.record(t0 + Duration::from_nanos(5), NodeId::new(2));
/// assert_eq!(slab.log(i, 0).distinct_total(), 2);
/// slab.log_mut(i, 0).prune(t0 + Duration::from_nanos(50), Duration::from_nanos(10));
/// assert!(slab.log(i, 0).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct StampSlab<const HEADER: usize, const ROWS: usize> {
    n: usize,
    /// Occupancy words per log: `⌈n/64⌉`.
    words: usize,
    stride: usize,
    /// Strides the arena grows to before it grows one stride at a time.
    max_strides: usize,
    arena: Vec<u64>,
    /// Released strides, reused last-in first-out.
    free: Vec<u32>,
}

impl<const HEADER: usize, const ROWS: usize> StampSlab<HEADER, ROWS> {
    /// Creates an empty slab for the senders `0..n`.
    ///
    /// The arena grows by half its strides (at least one), stopping once
    /// at `n` strides — one record per member, the population a correct
    /// General's round opens at every node — and never past `max_strides`
    /// strides, so a caller that keeps at most `max_strides` strides live
    /// never holds more than `max_strides ×`
    /// [`StampSlab::stride_words`]`(n)` words. Growing by half rather
    /// than doubling keeps the unused tail small where many small slabs
    /// live at once.
    #[must_use]
    pub fn new(n: usize, max_strides: usize) -> Self {
        StampSlab {
            n,
            words: n.div_ceil(64),
            stride: Self::stride_words(n),
            max_strides,
            arena: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Words in one stride: `HEADER + ROWS·(1 + ⌈n/64⌉ + n)`.
    #[must_use]
    pub const fn stride_words(n: usize) -> usize {
        HEADER + ROWS * (1 + n.div_ceil(64) + n)
    }

    /// Hands out a stride with a zero header, zero counts and no sender.
    pub fn alloc(&mut self) -> u32 {
        if let Some(i) = self.free.pop() {
            let base = i as usize * self.stride;
            let clean = HEADER + ROWS * (1 + self.words);
            self.arena[base..base + clean].fill(0);
            return i;
        }
        let len = self.arena.len();
        if len + self.stride > self.arena.capacity() {
            let have = len / self.stride;
            let mut want = have + (have / 2).max(1);
            if have < self.n {
                want = want.min(self.n);
            }
            let want = want.min(self.max_strides).max(have + 1);
            self.arena.reserve_exact((want - have) * self.stride);
        }
        self.arena.resize(len + self.stride, 0);
        (len / self.stride) as u32
    }

    /// Returns stride `i` to the free list.
    pub fn release(&mut self, i: u32) {
        self.free.push(i);
    }

    /// Releases every stride, keeping the arena.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.free.clear();
    }

    /// Strides handed out and not released.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arena.len() / self.stride - self.free.len()
    }

    /// Whether no stride is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes the arena holds.
    #[must_use]
    pub fn arena_bytes(&self) -> usize {
        self.arena.capacity() * std::mem::size_of::<u64>()
    }

    /// Stride `i`'s header words.
    #[must_use]
    pub fn header(&self, i: u32) -> &[u64; HEADER] {
        self.arena[i as usize * self.stride..]
            .first_chunk()
            .expect("a live stride")
    }

    /// Stride `i`'s header words, writable.
    pub fn header_mut(&mut self, i: u32) -> &mut [u64; HEADER] {
        self.arena[i as usize * self.stride..]
            .first_chunk_mut()
            .expect("a live stride")
    }

    /// Log `row` of stride `i`.
    #[must_use]
    pub fn log(&self, i: u32, row: usize) -> StampLog<'_> {
        let (n, w) = (self.n, self.words);
        let s = &self.arena[i as usize * self.stride..][..self.stride];
        let (head, body) = s.split_at(HEADER + ROWS);
        let (occupied, stamps) = body.split_at(ROWS * w);
        StampLog {
            count: head[HEADER + row],
            occupied: &occupied[row * w..][..w],
            stamps: &stamps[row * n..][..n],
        }
    }

    /// Log `row` of stride `i`, writable.
    pub fn log_mut(&mut self, i: u32, row: usize) -> StampLogMut<'_> {
        let (n, w) = (self.n, self.words);
        let s = &mut self.arena[i as usize * self.stride..][..self.stride];
        let (head, body) = s.split_at_mut(HEADER + ROWS);
        let (occupied, stamps) = body.split_at_mut(ROWS * w);
        StampLogMut {
            count: &mut head[HEADER + row],
            occupied: &mut occupied[row * w..][..w],
            stamps: &mut stamps[row * n..][..n],
        }
    }
}

/// One latest-stamp log of a [`StampSlab`] stride, read-only.
#[derive(Debug, Clone, Copy)]
pub struct StampLog<'a> {
    count: u64,
    occupied: &'a [u64],
    /// Latest stamp per sender; meaningful only where `occupied`.
    stamps: &'a [u64],
}

impl StampLog<'_> {
    /// Number of distinct senders with a retained arrival. O(1).
    #[must_use]
    pub fn distinct_total(&self) -> usize {
        self.count as usize
    }

    /// Whether the log holds no arrivals at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The retained `(sender, stamp)` pairs, ascending by sender.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, LocalTime)> + '_ {
        occupied_senders(self.occupied)
            .map(|s| (NodeId::new(s as u32), LocalTime::from_nanos(self.stamps[s])))
    }

    /// Lowers `due` to the first instant [`StampLogMut::prune`] with this
    /// `retention` would drop a sender.
    pub(crate) fn lower_due(&self, retention: Duration, due: &mut Due) {
        for (_, t) in self.iter() {
            due.lower(t + retention);
        }
    }
}

/// One latest-stamp log of a [`StampSlab`] stride, writable.
#[derive(Debug)]
pub struct StampLogMut<'a> {
    count: &'a mut u64,
    occupied: &'a mut [u64],
    stamps: &'a mut [u64],
}

impl StampLogMut<'_> {
    /// Records an arrival from `sender` (below the slab's `n`) at local
    /// time `now`.
    pub fn record(&mut self, now: LocalTime, sender: NodeId) {
        let s = sender.index();
        self.stamps[s] = now.as_nanos();
        let (word, bit) = (&mut self.occupied[s / 64], 1u64 << (s % 64));
        *self.count += u64::from(*word & bit == 0);
        *word |= bit;
    }

    /// Bulk [`StampLogMut::record`]: one same-instant arrival per listed
    /// sender (the echo-wave path).
    pub fn record_wave(&mut self, now: LocalTime, senders: &[NodeId]) {
        for &s in senders {
            self.record(now, s);
        }
    }

    /// Drops senders whose stamp is older than `retention` or lies in the
    /// future of `now` (bogus state from a transient fault).
    pub fn prune(&mut self, now: LocalTime, retention: Duration) {
        for (w, word) in self.occupied.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let t = LocalTime::from_nanos(self.stamps[w * 64 + b]);
                if !in_window(t, now, retention) {
                    *word &= !(1u64 << b);
                    *self.count -= 1;
                }
            }
        }
    }

    /// Inserts a raw (possibly bogus) arrival — used only by the
    /// state-corruption harness to model transient faults.
    pub fn inject_raw(&mut self, sender: NodeId, t: LocalTime) {
        self.record(t, sender);
    }
}

/// Indices of the set bits of an occupancy row, ascending.
fn occupied_senders(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + b
            })
        })
    })
}

fn in_window(t: LocalTime, now: LocalTime, window: Duration) -> bool {
    !t.is_after(now) && now.since(t) <= window
}

/// A protocol variable with a bounded change history.
///
/// Line K1 of `Initiator-Accept` asks whether `last(G, m)` *was* unset `d`
/// time units ago; the paper notes "it is assumed that the data structure
/// reflects that information" (§4). [`TimedVar`] records each change so the
/// past value can be queried, and prunes history beyond a horizon.
///
/// # Example
///
/// ```
/// use ssbyz_core::store::TimedVar;
/// use ssbyz_types::{Duration, LocalTime};
///
/// let mut v: TimedVar<u32> = TimedVar::new();
/// let t = LocalTime::from_nanos(100);
/// v.set(t, 7);
/// assert_eq!(v.get(), Some(&7));
/// // At t − 1 the variable was still unset:
/// assert_eq!(v.at(t - Duration::from_nanos(1)), None);
/// assert_eq!(v.at(t + Duration::from_nanos(1)), Some(&7));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedVar<T> {
    /// Change log, oldest first: `(when, new_value)`.
    history: VecDeque<(LocalTime, Option<T>)>,
}

impl<T> Default for TimedVar<T> {
    fn default() -> Self {
        TimedVar {
            history: VecDeque::new(),
        }
    }
}

impl<T: Clone> TimedVar<T> {
    /// Creates an unset variable with empty history.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the variable to `v` at local time `at`.
    pub fn set(&mut self, at: LocalTime, v: T) {
        self.push(at, Some(v));
    }

    /// Clears the variable (to ⊥) at local time `at`.
    pub fn clear(&mut self, at: LocalTime) {
        if self.get().is_some() {
            self.push(at, None);
        }
    }

    fn push(&mut self, at: LocalTime, v: Option<T>) {
        // Collapse same-instant changes: the last write wins.
        if let Some((t, slot)) = self.history.back_mut() {
            if *t == at {
                *slot = v;
                return;
            }
        }
        self.history.push_back((at, v));
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> Option<&T> {
        self.history.back().and_then(|(_, v)| v.as_ref())
    }

    /// The time of the most recent change (set *or* clear).
    #[must_use]
    pub fn last_change(&self) -> Option<LocalTime> {
        self.history.back().map(|(t, _)| *t)
    }

    /// The value at local time `t`: the value written by the latest change
    /// at or before `t`. Returns `None` (⊥) if no change had happened yet.
    #[must_use]
    pub fn at(&self, t: LocalTime) -> Option<&T> {
        self.history
            .iter()
            .rev()
            .find(|(when, _)| t.is_at_or_after(*when))
            .and_then(|(_, v)| v.as_ref())
    }

    /// Drops history entries older than `horizon`, keeping at least the
    /// most recent change so the current value survives. Entries stamped in
    /// the future of `now` are dropped entirely (transient-fault residue) —
    /// if the *current* value has a future stamp the variable resets to ⊥.
    pub fn prune(&mut self, now: LocalTime, horizon: Duration) {
        self.history.retain(|(t, _)| !t.is_after(now));
        // Entry 0 is superseded at its successor's stamp; drop it once
        // that stamp is beyond the horizon (no query reaches back past
        // it) — the same rule `compact_history` applies with a tighter
        // lookback.
        self.compact_history(now, horizon);
        if let Some(&(t, _)) = self.history.front() {
            if self.history.len() == 1 && now.since(t) > horizon && self.history[0].1.is_none() {
                self.history.clear();
            }
        }
    }

    /// Drops *superseded* history entries whose successor entry is itself
    /// older than `lookback` — lossless for [`TimedVar::get`] and for
    /// [`TimedVar::at`]`(q)` with `q ≥ now − lookback`, which is the only
    /// history query the protocol issues (line K1 looks back exactly `d`).
    ///
    /// This bounds hot-path history growth: the `last(G, m)` guard is
    /// re-stamped on every quorum evaluation, so under Byzantine spam the
    /// change log would otherwise accumulate one entry per delivery until
    /// the (much longer) value-expiry horizon of [`TimedVar::prune`].
    pub fn compact_history(&mut self, now: LocalTime, lookback: Duration) {
        while self.history.len() > 1 {
            let (t, _) = self.history[1];
            if !t.is_after(now) && now.since(t) > lookback {
                self.history.pop_front();
            } else {
                break;
            }
        }
    }

    /// Whether the variable has never been written (or fully decayed).
    #[must_use]
    pub fn is_fresh(&self) -> bool {
        self.history.is_empty()
    }

    /// Drops the whole history, as if never written (keeps the
    /// allocation).
    pub(crate) fn forget(&mut self) {
        self.history.clear();
    }

    /// Force-writes raw history — used only by the state-corruption
    /// harness to model transient faults.
    pub fn inject_raw(&mut self, at: LocalTime, v: Option<T>) {
        self.history.push_back((at, v));
    }
}

impl TimedVar<LocalTime> {
    /// Decays a guard whose value is a local time (the `last(G)` and
    /// `last(G, m)` cleanup of Fig. 2): clears it once the value is older
    /// than `expiry`, then drops the history no query reaches — changes
    /// superseded more than `lookback` ago, and a cleared variable that has
    /// been ⊥ for `expiry + lookback`.
    pub(crate) fn expire(&mut self, now: LocalTime, expiry: Duration, lookback: Duration) {
        if self
            .get()
            .is_some_and(|v| v.is_after(now) || now.since(*v) > expiry)
        {
            self.clear(now);
        }
        self.prune(now, expiry + lookback);
        self.compact_history(now, lookback);
    }

    /// Lowers `due` to the first instant [`TimedVar::expire`] with the same
    /// spans would change the variable.
    pub(crate) fn lower_due(&self, expiry: Duration, lookback: Duration, due: &mut Due) {
        if let Some(&(t, _)) = self.history.get(1) {
            due.lower(t + lookback);
        }
        match self.history.back() {
            Some(&(_, Some(v))) => due.lower(v + expiry),
            Some(&(t, None)) if self.history.len() == 1 => due.lower(t + expiry + lookback),
            _ => {}
        }
    }
}

/// A lower bound on the earliest local time at which a structure's
/// cleanup could change anything — what lets the periodic decay pass walk
/// only the structures that are due.
///
/// Every write lowers it: a stamp `t` kept for `horizon` lowers it to
/// `t + horizon`. A write that leaves dormant or removable state, drops
/// value references or stamps the future sets it to [`Due::Now`]. A full
/// cleanup walk recomputes it exactly. The bound assumes no stamp lies in
/// the future of the instant it is checked at; the engine walks
/// everything when its clock runs backwards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Due {
    /// Nothing held can expire.
    #[default]
    Never,
    /// Nothing can expire before this instant.
    At(LocalTime),
    /// The next pass must walk.
    Now,
}

impl Due {
    /// Lowers the bound to `at`.
    pub(crate) fn lower(&mut self, at: LocalTime) {
        match *self {
            Due::At(cur) if !cur.is_after(at) => {}
            Due::Now => {}
            _ => *self = Due::At(at),
        }
    }

    /// Whether a pass at `now` must walk.
    pub(crate) fn reached(self, now: LocalTime) -> bool {
        match self {
            Due::Never => false,
            Due::At(at) => now.is_at_or_after(at),
            Due::Now => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> LocalTime {
        LocalTime::from_nanos(n)
    }
    fn dur(n: u64) -> Duration {
        Duration::from_nanos(n)
    }
    fn id(n: u32) -> NodeId {
        NodeId::new(n)
    }

    #[test]
    fn arrival_log_distinct_window() {
        let mut log = ArrivalLog::new();
        log.record(t(100), id(1));
        log.record(t(110), id(2));
        log.record(t(120), id(2)); // resend collapses to same sender
        assert_eq!(log.distinct_in_window(t(120), dur(20)), 2);
        assert_eq!(log.distinct_in_window(t(120), dur(5)), 1);
        assert_eq!(log.distinct_total(), 2);
    }

    #[test]
    fn arrival_log_dedupes_same_instant() {
        let mut log = ArrivalLog::new();
        log.record(t(100), id(1));
        log.record(t(100), id(1));
        assert_eq!(log.distinct_total(), 1);
        assert_eq!(log.kth_latest_in_window(t(100), dur(10), 1), Some(t(100)));
    }

    #[test]
    fn arrival_log_equality_ignores_stale_slot_tails() {
        // Regression: retain() compacts in place, leaving stale values
        // beyond `len`; equality must compare only the live prefix.
        let mut a = ArrivalLog::new();
        a.record(t(10), id(1));
        a.record(t(20), id(1));
        a.prune(t(25), dur(5)); // drops t(10), leaves a stale tail entry
        let mut b = ArrivalLog::new();
        b.record(t(20), id(1));
        assert_eq!(a, b);
        b.record(t(21), id(1));
        assert_ne!(a, b);
    }

    #[test]
    fn arrival_log_collapses_out_of_order_duplicates() {
        // Regression: a duplicate timestamp that is *not* the most recent
        // retained arrival (an out-of-order replay) must also collapse,
        // instead of occupying a second history slot.
        let mut log = ArrivalLog::new();
        log.record(t(100), id(1));
        log.record(t(150), id(1));
        log.record(t(100), id(1)); // replayed duplicate, not at the back
                                   // Exactly two retained arrivals: fill the remaining capacity and
                                   // check the oldest surviving arrival is t(100), which would have
                                   // been evicted one record earlier if the duplicate had been kept.
        for i in 0..(ArrivalLog::MAX_PER_SENDER as u64 - 2) {
            log.record(t(200 + i), id(1));
        }
        assert!(log.sender_in_window(t(200), dur(100), id(1)));
        assert_eq!(log.kth_latest_in_window(t(205), dur(200), 1), Some(t(205)));
        // t(100) still present: the suffix window reaching back to it
        // counts the sender, and one more record evicts it.
        assert!(log.sender_in_window(t(100), dur(0), id(1)));
        log.record(t(300), id(1));
        assert!(!log.sender_in_window(t(100), dur(0), id(1)));
        assert!(log.sender_in_window(t(150), dur(0), id(1)));
    }

    #[test]
    fn arrival_log_caps_per_sender() {
        let mut log = ArrivalLog::new();
        for i in 0..(ArrivalLog::MAX_PER_SENDER as u64 + 5) {
            log.record(t(100 + i), id(1));
        }
        // Oldest arrivals dropped; the sender is still present.
        assert_eq!(log.distinct_total(), 1);
        assert!(log.sender_in_window(t(112), dur(0), id(1)));
        // The very first arrival (t=100) was evicted by the cap.
        assert!(!log.sender_in_window(t(100), dur(0), id(1)));
    }

    #[test]
    fn arrival_log_prunes_old_and_future() {
        let mut log = ArrivalLog::new();
        log.record(t(100), id(1));
        log.inject_raw(id(2), t(5_000)); // future stamp (transient residue)
        log.inject_raw(id(3), t(1)); // ancient
        log.prune(t(150), dur(60));
        assert_eq!(log.distinct_total(), 1);
        assert!(log.sender_in_window(t(150), dur(60), id(1)));
    }

    #[test]
    fn kth_latest_orders_by_recency() {
        let mut log = ArrivalLog::new();
        log.record(t(100), id(1));
        log.record(t(110), id(2));
        log.record(t(130), id(3));
        let now = t(140);
        assert_eq!(log.kth_latest_in_window(now, dur(50), 1), Some(t(130)));
        assert_eq!(log.kth_latest_in_window(now, dur(50), 2), Some(t(110)));
        assert_eq!(log.kth_latest_in_window(now, dur(50), 3), Some(t(100)));
        assert_eq!(log.kth_latest_in_window(now, dur(50), 4), None);
        // Window excludes id(1)'s arrival:
        assert_eq!(log.kth_latest_in_window(now, dur(35), 3), None);
    }

    #[test]
    fn kth_latest_uses_latest_per_sender() {
        let mut log = ArrivalLog::new();
        log.record(t(100), id(1));
        log.record(t(120), id(1)); // same sender, later
        log.record(t(110), id(2));
        let now = t(125);
        // id(1)'s representative is its latest in-window arrival (120).
        assert_eq!(log.kth_latest_in_window(now, dur(30), 1), Some(t(120)));
        assert_eq!(log.kth_latest_in_window(now, dur(30), 2), Some(t(110)));
    }

    #[test]
    fn senders_in_window_lists() {
        let mut log = ArrivalLog::new();
        log.record(t(100), id(4));
        log.record(t(105), id(2));
        let got: Vec<_> = log.senders_in_window(t(110), dur(10)).collect();
        assert_eq!(got, vec![id(2), id(4)]); // BTreeMap order
    }

    #[test]
    fn arrival_log_wraps() {
        let mut log = ArrivalLog::new();
        let near = LocalTime::from_nanos(u64::MAX - 2);
        log.record(near, id(1));
        let now = near + dur(10);
        assert!(log.sender_in_window(now, dur(10), id(1)));
        assert_eq!(log.distinct_in_window(now, dur(10)), 1);
    }

    #[test]
    fn timed_var_set_clear_at() {
        let mut v: TimedVar<u8> = TimedVar::new();
        assert!(v.is_fresh());
        assert_eq!(v.at(t(50)), None);
        v.set(t(100), 1);
        v.set(t(200), 2);
        v.clear(t(300));
        assert_eq!(v.get(), None);
        assert_eq!(v.at(t(99)), None);
        assert_eq!(v.at(t(100)), Some(&1));
        assert_eq!(v.at(t(150)), Some(&1));
        assert_eq!(v.at(t(250)), Some(&2));
        assert_eq!(v.at(t(300)), None);
        assert_eq!(v.last_change(), Some(t(300)));
    }

    #[test]
    fn timed_var_same_instant_last_write_wins() {
        let mut v: TimedVar<u8> = TimedVar::new();
        v.set(t(100), 1);
        v.set(t(100), 2);
        assert_eq!(v.get(), Some(&2));
        assert_eq!(v.at(t(100)), Some(&2));
    }

    #[test]
    fn timed_var_clear_on_fresh_is_noop() {
        let mut v: TimedVar<u8> = TimedVar::new();
        v.clear(t(100));
        assert!(v.is_fresh());
    }

    #[test]
    fn timed_var_prune_keeps_current() {
        let mut v: TimedVar<u8> = TimedVar::new();
        v.set(t(100), 1);
        v.set(t(200), 2);
        v.prune(t(10_000), dur(50));
        // History collapsed, but the current value survives.
        assert_eq!(v.get(), Some(&2));
    }

    #[test]
    fn timed_var_prune_drops_future_residue() {
        let mut v: TimedVar<u8> = TimedVar::new();
        v.inject_raw(t(9_999), Some(7)); // future stamp
        v.prune(t(100), dur(50));
        assert_eq!(v.get(), None);
        assert!(v.is_fresh());
    }

    #[test]
    fn timed_var_prune_drops_stale_bottom() {
        let mut v: TimedVar<u8> = TimedVar::new();
        v.set(t(100), 1);
        v.clear(t(150));
        v.prune(t(10_000), dur(50));
        // A long-cleared variable decays back to fresh.
        assert!(v.is_fresh());
    }

    /// `lower_due` is tight for `expire`: a stamp expires once it is
    /// *more* than its span old, so the call at the bound leaves the
    /// variable alone and the next nanosecond changes it — through the
    /// history compaction, the value expiry and the final ⊥ removal.
    #[test]
    fn timed_var_due_is_tight_for_expire() {
        let (expiry, lookback) = (dur(100), dur(20));
        let mut v: TimedVar<LocalTime> = TimedVar::new();
        v.set(t(1_000), t(1_000));
        v.set(t(1_010), t(1_010));
        let mut changes = Vec::new();
        for _ in 0..4 {
            let mut due = Due::Never;
            v.lower_due(expiry, lookback, &mut due);
            let Due::At(at) = due else { break };
            let before = v.clone();
            v.expire(at, expiry, lookback);
            assert_eq!(v, before, "changed at {at:?}");
            v.expire(at + dur(1), expiry, lookback);
            assert_ne!(v, before, "unchanged past {at:?}");
            changes.push(at.as_nanos());
        }
        // Compaction at 1010 + 20, value expiry at 1010 + 100, compaction
        // of the clear at 1111 + 20, ⊥ removal at 1111 + 120.
        assert_eq!(changes, [1_030, 1_110, 1_131, 1_231]);
        assert!(v.is_fresh());
    }

    #[test]
    fn due_lowers_and_is_reached() {
        let mut due = Due::Never;
        assert!(!due.reached(t(0)));
        due.lower(t(50));
        due.lower(t(70));
        assert_eq!(due, Due::At(t(50)));
        assert!(!due.reached(t(49)) && due.reached(t(50)));
        due = Due::Now;
        due.lower(t(10));
        assert!(due.reached(t(0)));
        // Across the wrap the earlier instant still wins.
        let mut wrapped = Due::At(LocalTime::from_nanos(5));
        wrapped.lower(LocalTime::from_nanos(u64::MAX - 5));
        assert_eq!(wrapped, Due::At(LocalTime::from_nanos(u64::MAX - 5)));
    }

    #[test]
    fn timed_var_wrap_query() {
        let mut v: TimedVar<u8> = TimedVar::new();
        let near = LocalTime::from_nanos(u64::MAX - 5);
        v.set(near, 1);
        let after_wrap = near + dur(20);
        assert_eq!(v.at(after_wrap), Some(&1));
        assert_eq!(v.at(near - dur(1)), None);
    }
}
