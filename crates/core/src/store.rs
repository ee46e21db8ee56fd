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
//! * [`StampLog`] — one latest-arrival stamp per sender, for the
//!   cumulative (untimed) `msgd-broadcast` counts.
//! * [`TimedVar`] — a variable with a change history, answering *"what was
//!   the value at τq − d?"* (needed by line K1 of `Initiator-Accept`).

use std::collections::VecDeque;

use ssbyz_types::{Duration, LocalTime, NodeBitSet, NodeId};

/// Fixed-size inline buffer of one sender's recent arrival times, oldest
/// first in insertion order. Eight `LocalTime`s fit one cache line, so a
/// whole per-sender history is inspected without touching the heap.
#[derive(Debug, Clone, Copy)]
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
}

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
        }
    }
}

impl ArrivalSlot {
    #[inline]
    fn times(&self) -> &[LocalTime] {
        &self.times[..usize::from(self.len)]
    }

    /// Appends `t`, evicting the oldest retained arrival when full.
    #[inline]
    fn push(&mut self, t: LocalTime) {
        let len = usize::from(self.len);
        if len == 0 {
            self.sorted = true;
        } else {
            self.sorted &= t.is_at_or_after(self.times[len - 1]);
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
    /// retained times — identical results either way.
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
/// `BTreeMap` (see `reference::ReferenceArrivalLog` for the tree-based
/// model it replaced).
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
#[derive(Debug, Clone, Default)]
pub struct ArrivalLog {
    slots: Vec<ArrivalSlot>,
    occupied: NodeBitSet,
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
        let slot = self.slot_mut(sender);
        if slot.contains(now) {
            return;
        }
        slot.push(now);
        self.occupied.insert(sender);
    }

    /// Drops arrivals older than `retention` and arrivals stamped in the
    /// future of `now` (bogus state from a transient fault).
    pub fn prune(&mut self, now: LocalTime, retention: Duration) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.len == 0 {
                continue;
            }
            slot.retain(|t| !t.is_after(now) && now.since(t) <= retention);
            if slot.len == 0 {
                self.occupied.remove(NodeId::new(i as u32));
            }
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
    /// to the two separate calls, for half the slot scans.
    #[must_use]
    pub fn kth_latest_with_inner_count(
        &self,
        now: LocalTime,
        outer: Duration,
        k: usize,
        inner: Duration,
    ) -> (Option<LocalTime>, usize) {
        debug_assert!(inner <= outer, "windows must nest");
        const INLINE: usize = 128;
        let inner_nanos = inner.as_nanos();
        let latest_dist =
            |s: NodeId| -> Option<u64> { self.slots[s.index()].latest_dist(now, outer) };
        let mut buf = [0u64; INLINE];
        let mut len = 0usize;
        let mut overflow = false;
        let mut inner_count = 0usize;
        for s in self.occupied.iter() {
            let Some(dist) = latest_dist(s) else { continue };
            // The sender's most recent outer-window arrival decides the
            // inner membership too: an arrival inside the inner window is
            // inside the outer one, so the minimum distance is ≤ inner iff
            // any arrival is.
            if dist <= inner_nanos {
                inner_count += 1;
            }
            if len < INLINE {
                buf[len] = dist;
                len += 1;
            } else {
                // Keep scanning for the inner count; the k-th selection
                // falls back to the batched scan below.
                overflow = true;
            }
        }
        let kth = if k == 0 {
            None
        } else if !overflow {
            if len < k {
                None
            } else {
                let (_, kth, _) = buf[..len].select_nth_unstable(k - 1);
                Some(now - Duration::from_nanos(*kth))
            }
        } else {
            self.kth_latest_in_window(now, outer, k)
        };
        (kth, inner_count)
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
    }

    /// Inserts a raw (possibly bogus) arrival — used only by the
    /// state-corruption harness to model transient faults.
    pub fn inject_raw(&mut self, sender: NodeId, t: LocalTime) {
        self.slot_mut(sender).push(t);
        self.occupied.insert(sender);
    }

    fn slot_mut(&mut self, sender: NodeId) -> &mut ArrivalSlot {
        if sender.index() >= self.slots.len() {
            self.slots
                .resize_with(sender.index() + 1, ArrivalSlot::default);
        }
        &mut self.slots[sender.index()]
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

/// Latest-arrival stamp per authenticated sender: the log behind the
/// **cumulative** `msgd-broadcast` counts (paper Fig. 3 asks only "how
/// many distinct senders so far", then lets the evidence decay).
///
/// One [`LocalTime`] per sender plus the occupancy [`NodeBitSet`] — 8
/// bytes per sender where [`ArrivalLog`] keeps an 8-deep history for the
/// `Initiator-Accept` window queries this log never answers. A newer
/// record overwrites the sender's stamp. On a monotone clock
/// [`StampLog::distinct_total`] and [`StampLog::is_empty`] equal
/// [`ArrivalLog`]'s after any `record`/`record_wave`/`prune`
/// interleaving; when stamps go backwards (`inject_raw`, a clock jump)
/// the membership is a subset of [`ArrivalLog`]'s, and no sender outlives
/// the prune retention past its last stamp (`store_equivalence.rs`).
///
/// # Example
///
/// ```
/// use ssbyz_core::store::StampLog;
/// use ssbyz_types::{Duration, LocalTime, NodeId};
///
/// let mut log = StampLog::new();
/// let t0 = LocalTime::from_nanos(1_000);
/// log.record(t0, NodeId::new(1));
/// log.record(t0 + Duration::from_nanos(5), NodeId::new(1)); // resend
/// log.record(t0 + Duration::from_nanos(5), NodeId::new(2));
/// assert_eq!(log.distinct_total(), 2);
/// log.prune(t0 + Duration::from_nanos(50), Duration::from_nanos(10));
/// assert!(log.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct StampLog {
    /// Latest stamp per sender index; meaningful only where `occupied`.
    stamps: Vec<LocalTime>,
    occupied: NodeBitSet,
}

impl StampLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an arrival from `sender` at local time `now`.
    pub fn record(&mut self, now: LocalTime, sender: NodeId) {
        if sender.index() >= self.stamps.len() {
            self.stamps.resize(sender.index() + 1, LocalTime::ZERO);
        }
        self.stamps[sender.index()] = now;
        self.occupied.insert(sender);
    }

    /// Bulk [`StampLog::record`]: one same-instant arrival per listed
    /// sender (the echo-wave path).
    pub fn record_wave(&mut self, now: LocalTime, senders: &[NodeId]) {
        for &s in senders {
            self.record(now, s);
        }
    }

    /// Drops senders whose stamp is older than `retention` or lies in the
    /// future of `now` (bogus state from a transient fault).
    pub fn prune(&mut self, now: LocalTime, retention: Duration) {
        let stamps = &self.stamps;
        self.occupied
            .retain(|s| in_window(stamps[s.index()], now, retention));
    }

    /// Number of distinct senders with a retained arrival. O(1).
    #[must_use]
    pub fn distinct_total(&self) -> usize {
        self.occupied.count()
    }

    /// Whether the log holds no arrivals at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.occupied.is_empty()
    }

    /// Inserts a raw (possibly bogus) arrival — used only by the
    /// state-corruption harness to model transient faults.
    pub fn inject_raw(&mut self, sender: NodeId, t: LocalTime) {
        self.record(t, sender);
    }
}

fn in_window(t: LocalTime, now: LocalTime, window: Duration) -> bool {
    !t.is_after(now) && now.since(t) <= window
}

pub mod reference {
    //! The `BTreeMap`-backed arrival log the dense implementation
    //! replaced. Kept as the **golden reference model** for equivalence
    //! tests (`crates/core/tests/store_equivalence.rs`) — not used on any
    //! protocol path.

    use std::collections::{BTreeMap, VecDeque};

    use ssbyz_types::{Duration, LocalTime, NodeId};

    use super::in_window;

    /// Tree-based arrival log with the exact query semantics of
    /// [`super::ArrivalLog`].
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct ReferenceArrivalLog {
        per_sender: BTreeMap<NodeId, VecDeque<LocalTime>>,
    }

    impl ReferenceArrivalLog {
        /// Creates an empty log.
        #[must_use]
        pub fn new() -> Self {
            Self::default()
        }

        /// Records an arrival (duplicates collapsed anywhere in history).
        pub fn record(&mut self, now: LocalTime, sender: NodeId) {
            let times = self.per_sender.entry(sender).or_default();
            if times.contains(&now) {
                return;
            }
            times.push_back(now);
            while times.len() > super::ArrivalLog::MAX_PER_SENDER {
                times.pop_front();
            }
        }

        /// Drops old and future-stamped arrivals.
        pub fn prune(&mut self, now: LocalTime, retention: Duration) {
            self.per_sender.retain(|_, times| {
                times.retain(|t| !t.is_after(now) && now.since(*t) <= retention);
                !times.is_empty()
            });
        }

        /// Distinct senders with an arrival in `[now − window, now]`.
        #[must_use]
        pub fn distinct_in_window(&self, now: LocalTime, window: Duration) -> usize {
            self.per_sender
                .values()
                .filter(|times| times.iter().any(|t| in_window(*t, now, window)))
                .count()
        }

        /// Distinct senders with any retained arrival.
        #[must_use]
        pub fn distinct_total(&self) -> usize {
            self.per_sender.len()
        }

        /// Senders with an arrival in the window, ascending.
        pub fn senders_in_window(
            &self,
            now: LocalTime,
            window: Duration,
        ) -> impl Iterator<Item = NodeId> + '_ {
            self.per_sender
                .iter()
                .filter(move |(_, times)| times.iter().any(|t| in_window(*t, now, window)))
                .map(|(s, _)| *s)
        }

        /// The k-th most recent of the per-sender latest in-window arrivals.
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
            let mut latest: Vec<LocalTime> = self
                .per_sender
                .values()
                .filter_map(|times| {
                    times
                        .iter()
                        .copied()
                        .filter(|t| in_window(*t, now, window))
                        .min_by_key(|t| now.since(*t).as_nanos())
                })
                .collect();
            if latest.len() < k {
                return None;
            }
            latest.sort_by_key(|t| now.since(*t).as_nanos());
            Some(latest[k - 1])
        }

        /// Whether `sender` arrived within the window.
        #[must_use]
        pub fn sender_in_window(&self, now: LocalTime, window: Duration, sender: NodeId) -> bool {
            self.per_sender
                .get(&sender)
                .is_some_and(|times| times.iter().any(|t| in_window(*t, now, window)))
        }
    }
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

    /// Force-writes raw history — used only by the state-corruption
    /// harness to model transient faults.
    pub fn inject_raw(&mut self, at: LocalTime, v: Option<T>) {
        self.history.push_back((at, v));
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

    /// The k-th-latest query has two branches: the 128-slot stack-buffer
    /// sort and the heap-free batched-selection fallback for larger
    /// memberships. Drive both on the same data — with duplicate
    /// timestamps so tie batches are exercised — and pin every answer
    /// against the `BTreeMap` reference model.
    #[test]
    fn kth_latest_fallback_matches_reference_past_inline_cap() {
        use super::reference::ReferenceArrivalLog;
        let senders = 300u32; // well past the 128-slot inline buffer
        let mut dense = ArrivalLog::new();
        let mut reference = ReferenceArrivalLog::new();
        let now = t(1_000_000);
        for s in 0..senders {
            // Clustered times: every 5th sender shares an instant (tie
            // batches), the rest fan out; a third of senders also carry
            // an older, superseded arrival.
            let at = t(900_000 + u64::from(s / 5) * 50);
            dense.record(at, id(s));
            reference.record(at, id(s));
            if s.is_multiple_of(3) {
                let old = t(800_000 + u64::from(s) * 7);
                dense.record(old, id(s));
                reference.record(old, id(s));
            }
        }
        for window in [0u64, 3_000, 100_000, 150_000, 500_000] {
            for k in [1usize, 2, 64, 128, 129, 200, 299, 300, 301] {
                assert_eq!(
                    dense.kth_latest_in_window(now, dur(window), k),
                    reference.kth_latest_in_window(now, dur(window), k),
                    "kth_latest(window={window}, k={k})"
                );
            }
        }
        // Exactly at the boundary: 128 in-window senders stay on the
        // stack path, 129 take the fallback — answers must agree across
        // the switch.
        for boundary in [128u32, 129] {
            let mut d2 = ArrivalLog::new();
            let mut r2 = ReferenceArrivalLog::new();
            for s in 0..boundary {
                let at = t(990_000 + u64::from(s % 13));
                d2.record(at, id(s));
                r2.record(at, id(s));
            }
            for k in 1..=(boundary as usize + 1) {
                assert_eq!(
                    d2.kth_latest_in_window(now, dur(200_000), k),
                    r2.kth_latest_in_window(now, dur(200_000), k),
                    "boundary {boundary}, k={k}"
                );
            }
        }
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
