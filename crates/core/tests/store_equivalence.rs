//! Golden-equivalence property tests: the dense, incrementally-counted
//! [`ArrivalLog`] must answer **every** window query identically to the
//! retained `BTreeMap` reference implementation over random
//! record/prune/query sequences — including out-of-order duplicate
//! timestamps and local-time wrap-around.
//!
//! The latest-stamp [`StampLog`] behind the `msgd-broadcast` triplets is
//! held to [`ArrivalLog`] in turn: identical cumulative counts on a
//! monotone clock, and a subset of its membership — never outliving the
//! retention — when stamps go backwards.

use proptest::prelude::*;
use ssbyz_core::store::reference::ReferenceArrivalLog;
use ssbyz_core::store::{ArrivalLog, StampLog};
use ssbyz_types::{Duration, LocalTime, NodeId};

/// Compares every public query surface of the two logs at one instant.
fn assert_logs_agree(dense: &ArrivalLog, reference: &ReferenceArrivalLog, now: u64, n: u32) {
    let now_t = LocalTime::from_nanos(now);
    assert_eq!(
        dense.distinct_total(),
        reference.distinct_total(),
        "distinct_total at {now}"
    );
    assert_eq!(dense.is_empty(), reference.distinct_total() == 0);
    for window in [0u64, 1, 500, 2_500, 10_000, u64::MAX / 4] {
        let w = Duration::from_nanos(window);
        assert_eq!(
            dense.distinct_in_window(now_t, w),
            reference.distinct_in_window(now_t, w),
            "distinct_in_window({now}, {window})"
        );
        assert_eq!(
            dense.senders_in_window(now_t, w).collect::<Vec<_>>(),
            reference.senders_in_window(now_t, w).collect::<Vec<_>>(),
            "senders_in_window({now}, {window})"
        );
        for k in 1..=(n as usize + 1) {
            assert_eq!(
                dense.kth_latest_in_window(now_t, w, k),
                reference.kth_latest_in_window(now_t, w, k),
                "kth_latest_in_window({now}, {window}, {k})"
            );
        }
        for s in 0..n {
            assert_eq!(
                dense.sender_in_window(now_t, w, NodeId::new(s)),
                reference.sender_in_window(now_t, w, NodeId::new(s)),
                "sender_in_window({now}, {window}, {s})"
            );
        }
        // The fused one-pass queries (used by the interned hot path) must
        // agree exactly with their composed two-scan equivalents for
        // every nested window pair.
        for inner in [0u64, 1, 500, 2_500, 10_000, u64::MAX / 4] {
            if inner > window {
                continue;
            }
            let wi = Duration::from_nanos(inner);
            assert_eq!(
                dense.distinct_in_nested_windows(now_t, w, wi),
                (
                    dense.distinct_in_window(now_t, w),
                    dense.distinct_in_window(now_t, wi)
                ),
                "distinct_in_nested_windows({now}, {window}, {inner})"
            );
            for k in 1..=(n as usize + 1) {
                assert_eq!(
                    dense.kth_latest_with_inner_count(now_t, w, k, wi),
                    (
                        dense.kth_latest_in_window(now_t, w, k),
                        dense.distinct_in_window(now_t, wi)
                    ),
                    "kth_latest_with_inner_count({now}, {window}, {k}, {inner})"
                );
            }
        }
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
    /// of `record`, `record_wave` (with a repeated sender) and `prune`,
    /// the one-stamp log counts exactly the senders the 8-deep log counts.
    #[test]
    fn stamp_log_counts_match_arrival_log_on_monotone_clock(
        ops in prop::collection::vec((0u32..8, 0u64..2_000, 0u32..10, 0u32..256), 1..200),
        retention in 2_000u64..30_000,
    ) {
        let mut stamp = StampLog::new();
        let mut deep = ArrivalLog::new();
        let mut now = 10_000u64;
        for (sender, dt, action, mask) in ops {
            now += dt;
            let t = LocalTime::from_nanos(now);
            match action {
                0..=4 => {
                    stamp.record(t, NodeId::new(sender));
                    deep.record(t, NodeId::new(sender));
                }
                5..=7 => {
                    let mut senders: Vec<NodeId> =
                        (0..8).filter(|s| mask & (1 << s) != 0).map(NodeId::new).collect();
                    senders.push(NodeId::new(sender)); // possibly listed twice
                    stamp.record_wave(t, &senders);
                    for s in &senders {
                        deep.record(t, *s);
                    }
                }
                _ => {
                    let r = Duration::from_nanos(retention);
                    stamp.prune(t, r);
                    deep.prune(t, r);
                }
            }
            prop_assert_eq!(stamp.distinct_total(), deep.distinct_total(), "at {}", now);
            prop_assert_eq!(stamp.is_empty(), deep.is_empty(), "at {}", now);
        }
    }

    /// Backward stamps (`inject_raw`, a clock that jumps): the one-stamp
    /// log forgets what the 8-deep log may still hold, never the reverse,
    /// and a sender that survives a prune has its last stamp inside the
    /// retention — planted state cannot outlive `msgd_horizon`. One log
    /// pair per sender, so membership is read off `is_empty`.
    #[test]
    fn stamp_log_membership_is_a_subset_under_backward_stamps(
        ops in prop::collection::vec((0usize..6, 0u64..60_000, 0u64..60_000, 0u32..10), 1..200),
        horizon in 2_000u64..30_000,
    ) {
        let mut stamp: Vec<StampLog> = vec![StampLog::new(); 6];
        let mut deep: Vec<ArrivalLog> = vec![ArrivalLog::new(); 6];
        let mut last: Vec<Option<LocalTime>> = vec![None; 6];
        let base = 1_000_000u64;
        for (s, clock, raw, action) in ops {
            // The clock itself is arbitrary: it may run backwards.
            let now = LocalTime::from_nanos(base + clock);
            let id = NodeId::new(s as u32);
            match action {
                0..=3 => {
                    stamp[s].record(now, id);
                    deep[s].record(now, id);
                    last[s] = Some(now);
                }
                4..=6 => {
                    let t = LocalTime::from_nanos(base + raw);
                    stamp[s].inject_raw(id, t);
                    deep[s].inject_raw(id, t);
                    last[s] = Some(t);
                }
                _ => {
                    let h = Duration::from_nanos(horizon);
                    for k in 0..6 {
                        stamp[k].prune(now, h);
                        deep[k].prune(now, h);
                        if !stamp[k].is_empty() {
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
                prop_assert!(
                    stamp[k].is_empty() || !deep[k].is_empty(),
                    "sender {} is in the stamp log but not in the 8-deep log", k
                );
                prop_assert!(stamp[k].distinct_total() <= 1);
            }
        }
    }
}
