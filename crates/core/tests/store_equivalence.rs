//! Golden-equivalence property tests: the dense, incrementally-counted
//! [`ArrivalLog`] must answer **every** window query identically to
//! [`ReferenceArrivalLog`], the `BTreeMap` implementation it replaced,
//! kept here as the golden model, over random record/prune/query
//! sequences — including out-of-order duplicate timestamps and local-time
//! wrap-around.
//!
//! The latest-stamp logs of the [`StampSlab`] behind the `msgd-broadcast`
//! triplets are held to [`ArrivalLog`] in turn: identical cumulative
//! counts on a monotone clock, and a subset of its membership — never
//! outliving the retention — when stamps go backwards; a stride released
//! by decay and reused starts empty.

use std::collections::{BTreeMap, VecDeque};

use proptest::prelude::*;
use ssbyz_core::store::{ArrivalLog, StampSlab};
use ssbyz_types::{Duration, LocalTime, NodeId};

fn in_window(t: LocalTime, now: LocalTime, window: Duration) -> bool {
    !t.is_after(now) && now.since(t) <= window
}

/// Tree-based arrival log with the exact query semantics of
/// [`ArrivalLog`].
#[derive(Debug, Default)]
struct ReferenceArrivalLog {
    per_sender: BTreeMap<NodeId, VecDeque<LocalTime>>,
}

impl ReferenceArrivalLog {
    fn new() -> Self {
        Self::default()
    }

    /// Records an arrival (duplicates collapsed anywhere in history).
    fn record(&mut self, now: LocalTime, sender: NodeId) {
        let times = self.per_sender.entry(sender).or_default();
        if times.contains(&now) {
            return;
        }
        times.push_back(now);
        while times.len() > ArrivalLog::MAX_PER_SENDER {
            times.pop_front();
        }
    }

    /// Appends a raw arrival: no duplicate collapse, the cap still holds.
    fn inject_raw(&mut self, sender: NodeId, t: LocalTime) {
        let times = self.per_sender.entry(sender).or_default();
        times.push_back(t);
        if times.len() > ArrivalLog::MAX_PER_SENDER {
            times.pop_front();
        }
    }

    fn clear(&mut self) {
        self.per_sender.clear();
    }

    /// Drops old and future-stamped arrivals.
    fn prune(&mut self, now: LocalTime, retention: Duration) {
        self.per_sender.retain(|_, times| {
            times.retain(|t| in_window(*t, now, retention));
            !times.is_empty()
        });
    }

    /// Distinct senders with an arrival in `[now − window, now]`.
    fn distinct_in_window(&self, now: LocalTime, window: Duration) -> usize {
        self.senders_in_window(now, window).count()
    }

    /// Distinct senders with any retained arrival.
    fn distinct_total(&self) -> usize {
        self.per_sender.len()
    }

    /// Senders with an arrival in the window, ascending.
    fn senders_in_window(
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
    fn kth_latest_in_window(
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
    fn sender_in_window(&self, now: LocalTime, window: Duration, sender: NodeId) -> bool {
        self.per_sender
            .get(&sender)
            .is_some_and(|times| times.iter().any(|t| in_window(*t, now, window)))
    }
}

/// Compares every public query surface of the two logs at one instant:
/// every `k` up to `n + 1` (and `k = 0` for the fused query) and every
/// sender for small memberships; for large ones, a sample around the
/// quorum sizes, the ends of the membership and `k = n ± 1`.
fn assert_logs_agree(dense: &ArrivalLog, reference: &ReferenceArrivalLog, now: u64, n: u32) {
    const WINDOWS: [u64; 6] = [0, 1, 500, 2_500, 10_000, u64::MAX / 4];
    let now_t = LocalTime::from_nanos(now);
    let n_k = n as usize;
    let (ks, senders): (Vec<usize>, Vec<u32>) = if n <= 16 {
        ((0..=n_k + 1).collect(), (0..n).collect())
    } else {
        (
            vec![
                0,
                1,
                2,
                n_k / 3 + 1,
                n_k / 2,
                2 * n_k / 3 + 1,
                n_k - 1,
                n_k,
                n_k + 1,
            ],
            vec![0, 1, n / 2, n - 2, n - 1],
        )
    };
    assert_eq!(
        dense.distinct_total(),
        reference.distinct_total(),
        "distinct_total at {now}"
    );
    assert_eq!(dense.is_empty(), reference.distinct_total() == 0);
    // The reference's answers, per window: the distinct count and the
    // k-th latest for every sampled `k`.
    let expected: Vec<(usize, Vec<Option<LocalTime>>)> = WINDOWS
        .iter()
        .map(|&window| {
            let w = Duration::from_nanos(window);
            let kth = ks
                .iter()
                .map(|&k| reference.kth_latest_in_window(now_t, w, k))
                .collect();
            (reference.distinct_in_window(now_t, w), kth)
        })
        .collect();
    for (wi, &window) in WINDOWS.iter().enumerate() {
        let w = Duration::from_nanos(window);
        let (count, kth) = &expected[wi];
        assert_eq!(
            dense.distinct_in_window(now_t, w),
            *count,
            "distinct_in_window({now}, {window})"
        );
        assert_eq!(
            dense.senders_in_window(now_t, w).collect::<Vec<_>>(),
            reference.senders_in_window(now_t, w).collect::<Vec<_>>(),
            "senders_in_window({now}, {window})"
        );
        for (ki, &k) in ks.iter().enumerate() {
            assert_eq!(
                dense.kth_latest_in_window(now_t, w, k),
                kth[ki],
                "kth_latest_in_window({now}, {window}, {k})"
            );
        }
        for &s in &senders {
            assert_eq!(
                dense.sender_in_window(now_t, w, NodeId::new(s)),
                reference.sender_in_window(now_t, w, NodeId::new(s)),
                "sender_in_window({now}, {window}, {s})"
            );
        }
        // The fused one-pass queries (used by the interned hot path; the
        // L1–L4 one is answered by the recency index while it is exact)
        // must agree exactly with the reference's two separate queries
        // for every nested window pair.
        for (ii, &inner) in WINDOWS[..=wi].iter().enumerate() {
            let inner_count = expected[ii].0;
            let wi_inner = Duration::from_nanos(inner);
            assert_eq!(
                dense.distinct_in_nested_windows(now_t, w, wi_inner),
                (*count, inner_count),
                "distinct_in_nested_windows({now}, {window}, {inner})"
            );
            for (ki, &k) in ks.iter().enumerate() {
                assert_eq!(
                    dense.kth_latest_with_inner_count(now_t, w, k, wi_inner),
                    (kth[ki], inner_count),
                    "kth_latest_with_inner_count({now}, {window}, {k}, {inner})"
                );
            }
        }
    }
}

fn t(n: u64) -> LocalTime {
    LocalTime::from_nanos(n)
}
fn dur(n: u64) -> Duration {
    Duration::from_nanos(n)
}
fn id(n: u32) -> NodeId {
    NodeId::new(n)
}

/// The k-th-latest query has two branches: the 128-slot stack-buffer
/// sort and the heap-free batched-selection fallback for larger
/// memberships. Drive both on the same data — with duplicate
/// timestamps so tie batches are exercised — and pin every answer
/// against the `BTreeMap` reference model.
#[test]
fn kth_latest_fallback_matches_reference_past_inline_cap() {
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

/// Stamps that climb the clock in steps under half of it: every record
/// lands at or after the newest one, yet across a full turn the first
/// and the last stamp sit 2 ns apart, and across half a turn the first
/// one is in the future of an instant the newest one is not. Past half
/// the clock the scan's own queries stop agreeing with the reference (a
/// sorted slot answers from its newest stamp, a nested-window query from
/// any), so the recency index must give way to the scan there: the
/// recorded log answers exactly as a twin built by `inject_raw`, which
/// never uses the index. Kept on the index, the newest stamps alone
/// would hide the first ones from the nested windows at `now = 3`, walk
/// three senders out of age order there (their one stamp each ages 3,
/// 2⁶³ + 4 and 5 ns), and count a future stamp in a window of the whole
/// clock.
#[test]
fn recency_index_gives_way_to_the_scan_past_half_the_clock() {
    let half = 1u64 << 63;
    let full_turn: Vec<(u32, u64)> = [0, half - 1, u64::MAX - 1]
        .into_iter()
        .flat_map(|at| [(0, at), (1, at.wrapping_add(1))])
        .collect();
    let one_each = vec![(0, 0), (1, half - 1), (2, u64::MAX - 1)];
    let half_turn = vec![(0, 0), (1, 1), (1, half - 2)];
    for arrivals in [full_turn, one_each, half_turn] {
        let (mut dense, mut scan) = (ArrivalLog::new(), ArrivalLog::new());
        for (s, at) in arrivals {
            dense.record(t(at), id(s));
            scan.inject_raw(id(s), t(at));
        }
        let windows = [0, 2, 3, 4, 5, 500, u64::MAX / 4, u64::MAX].map(dur);
        for now in [3, 1, u64::MAX - 1, half, half + 5, half + half / 2].map(t) {
            for outer in windows {
                for inner in windows.into_iter().filter(|&w| w <= outer) {
                    assert_eq!(
                        dense.distinct_in_nested_windows(now, outer, inner),
                        scan.distinct_in_nested_windows(now, outer, inner),
                        "distinct_in_nested_windows({now:?}, {outer:?}, {inner:?})"
                    );
                    for k in 0..=3 {
                        assert_eq!(
                            dense.kth_latest_with_inner_count(now, outer, k, inner),
                            scan.kth_latest_with_inner_count(now, outer, k, inner),
                            "kth_latest_with_inner_count({now:?}, {outer:?}, {k}, {inner:?})"
                        );
                    }
                }
            }
        }
    }
}

/// One sender's stamps climbing a full turn of the clock in steps under
/// half of it: each record follows the newest one, yet the oldest and
/// the newest are 2⁶³ ns or more apart, so no wrap-around order holds
/// across the slot. A slot's tail then stops being its nearest stamp
/// (at `now = 3`, sender 1's newest, 2⁶⁴ − 1, is 4 ns old, its oldest
/// 2 ns), so the scan must answer: every window query agrees with the
/// reference and τ1 is the latest in-window arrival.
#[test]
fn slots_spanning_half_the_clock_answer_like_the_reference() {
    let half = 1u64 << 63;
    let (mut dense, mut reference) = (ArrivalLog::new(), ReferenceArrivalLog::new());
    for (s, at) in [0, half - 1, u64::MAX - 1]
        .into_iter()
        .flat_map(|at| [(0, at), (1, at + 1)])
    {
        dense.record(t(at), id(s));
        reference.record(t(at), id(s));
    }
    assert_eq!(
        dense.kth_latest_in_window(t(3), dur(500), 1),
        Some(t(1)),
        "the nearest in-window stamp, not the newest"
    );
    for now in [3, 1, u64::MAX - 1, half, half + 5] {
        assert_logs_agree(&dense, &reference, now, 2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// Monotone recording with occasional duplicate replays and prunes:
    /// the realistic protocol workload.
    #[test]
    fn dense_log_matches_reference_model(
        ops in prop::collection::vec((0u32..8, 0u64..2_000, 0u32..10), 1..150),
        retention in 2_000u64..30_000,
    ) {
        let n = 8u32;
        let mut dense = ArrivalLog::new();
        let mut reference = ReferenceArrivalLog::new();
        let mut now = 10_000u64;
        let mut recent: Vec<u64> = Vec::new();
        for (sender, dt, action) in ops {
            now += dt;
            let sender_id = NodeId::new(sender);
            match action {
                // Mostly: record at the current instant.
                0..=6 => {
                    dense.record(LocalTime::from_nanos(now), sender_id);
                    reference.record(LocalTime::from_nanos(now), sender_id);
                    recent.push(now);
                }
                // Replay an earlier timestamp (out-of-order duplicate).
                7 => {
                    let t = recent.get(recent.len() / 2).copied().unwrap_or(now);
                    dense.record(LocalTime::from_nanos(t), sender_id);
                    reference.record(LocalTime::from_nanos(t), sender_id);
                }
                // Prune both sides.
                _ => {
                    let r = Duration::from_nanos(retention);
                    dense.prune(LocalTime::from_nanos(now), r);
                    reference.prune(LocalTime::from_nanos(now), r);
                }
            }
            assert_logs_agree(&dense, &reference, now, n);
        }
        // Final full prune keeps them aligned too.
        dense.prune(LocalTime::from_nanos(now), Duration::from_nanos(retention));
        reference.prune(LocalTime::from_nanos(now), Duration::from_nanos(retention));
        assert_logs_agree(&dense, &reference, now, n);
    }

    /// Recording near the wrap-around point of the local clock: interval
    /// queries must stay equivalent across the wrap.
    #[test]
    fn dense_log_matches_reference_across_wraparound(
        ops in prop::collection::vec((0u32..6, 0u64..3_000), 1..80),
    ) {
        let n = 6u32;
        let mut dense = ArrivalLog::new();
        let mut reference = ReferenceArrivalLog::new();
        // Start close enough to u64::MAX that most sequences wrap.
        let mut now = u64::MAX - 60_000;
        for (sender, dt) in ops {
            now = now.wrapping_add(dt);
            let sender_id = NodeId::new(sender);
            dense.record(LocalTime::from_nanos(now), sender_id);
            reference.record(LocalTime::from_nanos(now), sender_id);
            assert_logs_agree(&dense, &reference, now, n);
        }
        dense.prune(LocalTime::from_nanos(now), Duration::from_nanos(20_000));
        reference.prune(LocalTime::from_nanos(now), Duration::from_nanos(20_000));
        assert_logs_agree(&dense, &reference, now, n);
    }

    /// Monotone clock (what a coherent node has): after any interleaving
    /// of `record`, `record_wave` (with a repeated sender) and `prune` on
    /// the six logs of two strides, each slab log counts exactly the
    /// senders its 8-deep mirror counts — at strides whose occupancy rows
    /// end on and around a word boundary, senders up to `n − 1` included
    /// — and no write leaks into a neighbouring log or header.
    #[test]
    fn stamp_log_counts_match_arrival_log_on_monotone_clock(
        size in 0usize..SIZES.len(),
        ops in prop::collection::vec(
            (0usize..6, 0usize..8, 0u64..2_000, 0u32..10, 0u32..256),
            1..200,
        ),
        retention in 2_000u64..30_000,
    ) {
        let n = SIZES[size];
        let mut slab: Slab = StampSlab::new(n, 2);
        let strides = [slab.alloc(), slab.alloc()];
        for (k, &i) in strides.iter().enumerate() {
            *slab.header_mut(i) = header_mark(k);
        }
        let mut deep: Vec<ArrivalLog> = vec![ArrivalLog::new(); 6];
        let mut now = 10_000u64;
        for (log, pick, dt, action, mask) in ops {
            now += dt;
            let t = LocalTime::from_nanos(now);
            let (i, row) = (strides[log / 3], log % 3);
            match action {
                0..=4 => {
                    slab.log_mut(i, row).record(t, boundary_sender(n, pick));
                    deep[log].record(t, boundary_sender(n, pick));
                }
                5..=7 => {
                    let mut senders: Vec<NodeId> = (0..8)
                        .filter(|s| mask & (1 << s) != 0)
                        .map(|s| boundary_sender(n, s))
                        .collect();
                    senders.push(boundary_sender(n, pick)); // possibly listed twice
                    slab.log_mut(i, row).record_wave(t, &senders);
                    for s in &senders {
                        deep[log].record(t, *s);
                    }
                }
                _ => {
                    let r = Duration::from_nanos(retention);
                    for (k, d) in deep.iter_mut().enumerate() {
                        slab.log_mut(strides[k / 3], k % 3).prune(t, r);
                        d.prune(t, r);
                    }
                }
            }
            for (k, d) in deep.iter().enumerate() {
                let log = slab.log(strides[k / 3], k % 3);
                prop_assert_eq!(log.distinct_total(), d.distinct_total(), "log {} at {}", k, now);
                prop_assert_eq!(log.is_empty(), d.is_empty(), "log {} at {}", k, now);
                prop_assert_eq!(log.iter().count(), d.distinct_total());
            }
            for (k, &i) in strides.iter().enumerate() {
                prop_assert_eq!(*slab.header(i), header_mark(k));
            }
        }
    }

    /// Backward stamps (`inject_raw`, a clock that jumps): the slab log
    /// forgets what the 8-deep log may still hold, never the reverse, and
    /// a sender that survives a prune has its last stamp inside the
    /// retention — planted state cannot outlive `msgd_horizon`. One
    /// stride per sender (the word-boundary ids and `n − 1`), so
    /// membership is read off `is_empty`.
    #[test]
    fn stamp_log_membership_is_a_subset_under_backward_stamps(
        size in 0usize..SIZES.len(),
        ops in prop::collection::vec((0usize..6, 0u64..60_000, 0u64..60_000, 0u32..10), 1..200),
        horizon in 2_000u64..30_000,
    ) {
        let n = SIZES[size];
        let mut slab: StampSlab<0, 1> = StampSlab::new(n, 6);
        let strides: Vec<u32> = (0..6).map(|_| slab.alloc()).collect();
        let mut deep: Vec<ArrivalLog> = vec![ArrivalLog::new(); 6];
        let mut last: Vec<Option<LocalTime>> = vec![None; 6];
        let base = 1_000_000u64;
        for (s, clock, raw, action) in ops {
            // The clock itself is arbitrary: it may run backwards.
            let now = LocalTime::from_nanos(base + clock);
            let id = boundary_sender(n, 2 + s); // 62, 63, 64, 65, n/2, n − 1
            match action {
                0..=3 => {
                    slab.log_mut(strides[s], 0).record(now, id);
                    deep[s].record(now, id);
                    last[s] = Some(now);
                }
                4..=6 => {
                    let t = LocalTime::from_nanos(base + raw);
                    slab.log_mut(strides[s], 0).inject_raw(id, t);
                    deep[s].inject_raw(id, t);
                    last[s] = Some(t);
                }
                _ => {
                    let h = Duration::from_nanos(horizon);
                    for k in 0..6 {
                        slab.log_mut(strides[k], 0).prune(now, h);
                        deep[k].prune(now, h);
                        if !slab.log(strides[k], 0).is_empty() {
                            let t = last[k].expect("a member was written");
                            prop_assert!(
                                !t.is_after(now) && now.since(t) <= h,
                                "sender {} outlived the horizon: stamp {:?} at {:?}", k, t, now
                            );
                        }
                    }
                }
            }
            for k in 0..6 {
                let log = slab.log(strides[k], 0);
                prop_assert!(
                    log.is_empty() || !deep[k].is_empty(),
                    "sender {} is in the stamp log but not in the 8-deep log", k
                );
                prop_assert!(log.distinct_total() <= 1);
            }
        }
    }

    /// Strides come and go as `msgd-broadcast` triplets do: a triplet
    /// opens a stride on its first arrival, and a prune that empties all
    /// its logs releases the stride, which the next new triplet reuses.
    /// The reused stride inherits no stamp, count or header word: every
    /// log keeps counting exactly what an 8-deep log created with its
    /// triplet counts.
    #[test]
    fn reused_strides_start_empty(
        size in 0usize..SIZES.len(),
        ops in prop::collection::vec((0usize..8, 0usize..3, 0usize..8, 0u64..3_000, 0u32..8), 1..300),
        retention in 2_000u64..20_000,
    ) {
        let n = SIZES[size];
        let mut slab: Slab = StampSlab::new(n, 8);
        let mut open: Vec<Option<(u32, Vec<ArrivalLog>)>> = vec![None; 8];
        let mut now = 10_000u64;
        for (triplet, row, pick, dt, action) in ops {
            now += dt;
            let t = LocalTime::from_nanos(now);
            if action < 6 {
                if open[triplet].is_none() {
                    let i = slab.alloc();
                    prop_assert_eq!(*slab.header(i), [0; 2], "a fresh stride has a zero header");
                    *slab.header_mut(i) = header_mark(triplet);
                    open[triplet] = Some((i, vec![ArrivalLog::new(); 3]));
                }
                let (i, deep) = open[triplet].as_mut().expect("opened above");
                slab.log_mut(*i, row).record(t, boundary_sender(n, pick));
                deep[row].record(t, boundary_sender(n, pick));
            } else {
                let r = Duration::from_nanos(retention);
                for entry in &mut open {
                    let Some((i, deep)) = entry else { continue };
                    for (row, d) in deep.iter_mut().enumerate() {
                        slab.log_mut(*i, row).prune(t, r);
                        d.prune(t, r);
                    }
                    if deep.iter().all(ArrivalLog::is_empty) {
                        slab.release(*i);
                        *entry = None;
                    }
                }
            }
            for (k, entry) in open.iter().enumerate() {
                let Some((i, deep)) = entry else { continue };
                prop_assert_eq!(*slab.header(*i), header_mark(k));
                for (row, d) in deep.iter().enumerate() {
                    let log = slab.log(*i, row);
                    prop_assert_eq!(log.distinct_total(), d.distinct_total(), "triplet {} row {}", k, row);
                    prop_assert_eq!(log.iter().count(), d.distinct_total());
                }
            }
            prop_assert_eq!(slab.len(), open.iter().flatten().count());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Every write that turns the recency index off or back on,
    /// interleaved with the monotone records that keep it exact: in-order
    /// records and whole-membership waves, out-of-order duplicates and
    /// new stamps, `inject_raw` into the past and the future, `clear`,
    /// prunes at the clock and at a rewound instant, and a clock that
    /// jumps back — from a start just below the `u64` wrap or far from
    /// it, at memberships on both sides of 128. Every public query agrees
    /// with the reference after every step, at the clock and at the
    /// instant the step used.
    #[test]
    fn recency_index_matches_reference_through_invalidations(
        size in 0usize..3,
        near_wrap in any::<bool>(),
        ops in prop::collection::vec((0u32..256, 0u64..2_000, 0u64..40_000, 0u32..20), 1..80),
        retention in 2_000u64..30_000,
    ) {
        let n = [5u32, 40, 140][size];
        let mut dense = ArrivalLog::new();
        let mut reference = ReferenceArrivalLog::new();
        let mut now = if near_wrap { u64::MAX - 50_000 } else { 10_000 };
        let mut stamps: Vec<u64> = Vec::new();
        for (pick, dt, back, action) in ops {
            now = now.wrapping_add(dt);
            let sender = NodeId::new(pick % n);
            let r = Duration::from_nanos(retention);
            let mut at = now;
            match action {
                0..=11 => {
                    dense.record(t(now), sender);
                    reference.record(t(now), sender);
                    stamps.push(now);
                }
                // A wave: every member once, on a rising clock.
                12 => {
                    for s in 0..n {
                        now = now.wrapping_add(u64::from(pick % 3));
                        dense.record(t(now), id(s));
                        reference.record(t(now), id(s));
                    }
                    at = now;
                }
                // A duplicate or an older stamp: out of order.
                13 => {
                    at = match stamps.get(pick as usize % stamps.len().max(1)) {
                        Some(&old) if pick % 2 == 0 => old,
                        _ => now.wrapping_sub(back),
                    };
                    dense.record(t(at), sender);
                    reference.record(t(at), sender);
                }
                14 => {
                    at = if pick % 2 == 0 { now.wrapping_sub(back) } else { now.wrapping_add(back) };
                    dense.inject_raw(sender, t(at));
                    reference.inject_raw(sender, t(at));
                }
                15 => {
                    dense.clear();
                    reference.clear();
                }
                16 | 17 => {
                    dense.prune(t(now), r);
                    reference.prune(t(now), r);
                }
                18 => {
                    at = now.wrapping_sub(back % retention);
                    dense.prune(t(at), r);
                    reference.prune(t(at), r);
                }
                // The clock jumps back; later records land out of order.
                _ => now = now.wrapping_sub(back),
            }
            assert_logs_agree(&dense, &reference, now, n);
            if at != now {
                assert_logs_agree(&dense, &reference, at, n);
            }
        }
    }
}

/// Strides whose occupancy rows end before, on and after a 64-bit word
/// boundary — plus the one-sender membership.
const SIZES: [usize; 5] = [1, 63, 64, 65, 130];

/// Two header words and the `echo`, `init′`, `echo′` logs, as a
/// `msgd-broadcast` triplet lays them out.
type Slab = StampSlab<2, 3>;

/// A recognisable header for stride `k`, to catch log writes that stray
/// into it.
fn header_mark(k: usize) -> [u64; 2] {
    [k as u64 + 1, u64::MAX - k as u64]
}

/// Sender ids at the occupancy-word boundaries and the top of the
/// membership, folded into `0..n`.
fn boundary_sender(n: usize, pick: usize) -> NodeId {
    let ids = [0, 1, 62, 63, 64, 65, n / 2, n - 1];
    NodeId::new((ids[pick] % n) as u32)
}

/// Every sender of the membership in one log, then decay: the log counts
/// them all and lists them in order, its neighbours stay empty, and the
/// stride released by the decay comes back empty to the next triplet.
#[test]
fn full_membership_fills_one_log_and_decays() {
    for n in SIZES {
        let mut slab: Slab = StampSlab::new(n, 4);
        assert_eq!(Slab::stride_words(n), 2 + 3 * (1 + n.div_ceil(64) + n));
        let i = slab.alloc();
        let everyone: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
        slab.log_mut(i, 1).record_wave(t(100), &everyone);
        slab.log_mut(i, 1).record(t(200), NodeId::new(n as u32 - 1));
        assert_eq!(slab.log(i, 1).distinct_total(), n);
        let listed: Vec<NodeId> = slab.log(i, 1).iter().map(|(s, _)| s).collect();
        assert_eq!(listed, everyone, "n = {n}");
        assert!(slab.log(i, 0).is_empty() && slab.log(i, 2).is_empty());
        assert_eq!(*slab.header(i), [0; 2]);
        // The stride after this one is untouched by the top sender.
        let j = slab.alloc();
        assert!((0..3).all(|row| slab.log(j, row).is_empty()));
        // Decay keeps only the top sender's newer stamp, then nothing.
        slab.log_mut(i, 1).prune(t(250), dur(100));
        let kept: Vec<_> = slab.log(i, 1).iter().collect();
        assert_eq!(kept, vec![(NodeId::new(n as u32 - 1), t(200))], "n = {n}");
        slab.log_mut(i, 1).prune(t(400), dur(100));
        assert!(slab.log(i, 1).is_empty());
        slab.release(i);
        assert_eq!(slab.alloc(), i, "the released stride is reused");
        assert!((0..3).all(|row| slab.log(i, row).is_empty()));
        slab.log_mut(i, 2).record(t(500), NodeId::new(0));
        assert_eq!(slab.log(i, 2).iter().collect::<Vec<_>>(), [(id(0), t(500))]);
        assert_eq!(slab.len(), 2);
        slab.clear();
        assert!(slab.is_empty());
    }
}

/// A stride released while it still holds senders — the slab does not
/// rely on its owner to empty a stride first — comes back to the next
/// triplet with a zero header, zero counts and no sender.
#[test]
fn released_full_stride_comes_back_empty() {
    for n in SIZES {
        let mut slab: Slab = StampSlab::new(n, 2);
        let i = slab.alloc();
        let everyone: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
        *slab.header_mut(i) = header_mark(0);
        for row in 0..3 {
            slab.log_mut(i, row).record_wave(t(100), &everyone);
        }
        slab.release(i);
        assert_eq!(slab.alloc(), i);
        assert_eq!(*slab.header(i), [0; 2], "n = {n}");
        for row in 0..3 {
            let log = slab.log(i, row);
            assert!(log.is_empty() && log.iter().next().is_none(), "n = {n}");
        }
    }
}
