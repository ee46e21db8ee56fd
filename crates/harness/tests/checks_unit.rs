//! Unit tests for the property checkers themselves: they must catch
//! planted violations and accept clean data (checker-of-the-checker).

use ssbyz_core::Params;
use ssbyz_harness::scenario::{DecisionRecord, IaRecord, ScenarioResult};
use ssbyz_harness::{checks, Violations};
use ssbyz_types::{Duration, LocalTime, NodeId, RealTime};

fn params() -> Params {
    Params::from_d(4, 1, Duration::from_millis(10), 0).unwrap()
}

fn base_result() -> ScenarioResult {
    ScenarioResult {
        params: params(),
        correct: (0..4).map(NodeId::new).collect(),
        decisions: Vec::new(),
        iaccepts: Vec::new(),
        refused: Vec::new(),
        failures: Vec::new(),
        metrics: ssbyz_simnet::Metrics::default(),
    }
}

fn decision(node: u32, value: Option<u64>, at_ms: u64, anchor_ms: u64) -> DecisionRecord {
    DecisionRecord {
        node: NodeId::new(node),
        general: NodeId::new(0),
        value,
        local_at: LocalTime::from_nanos(at_ms * 1_000_000),
        real_at: RealTime::from_nanos(at_ms * 1_000_000),
        tau_g_local: LocalTime::from_nanos(anchor_ms * 1_000_000),
        tau_g_real: RealTime::from_nanos(anchor_ms * 1_000_000),
    }
}

fn accept(node: u32, value: u64, at_ms: u64, anchor_ms: u64) -> IaRecord {
    IaRecord {
        node: NodeId::new(node),
        general: NodeId::new(0),
        value,
        tau_g_local: LocalTime::from_nanos(anchor_ms * 1_000_000),
        tau_g_real: RealTime::from_nanos(anchor_ms * 1_000_000),
        real_at: RealTime::from_nanos(at_ms * 1_000_000),
    }
}

#[test]
fn agreement_checker_accepts_uniform_decisions() {
    let mut res = base_result();
    for node in 0..4 {
        res.decisions
            .push(decision(node, Some(7), 120 + u64::from(node), 100));
    }
    assert!(checks::check_agreement(&res, NodeId::new(0)).is_ok());
}

#[test]
fn agreement_checker_catches_split() {
    let mut res = base_result();
    res.decisions.push(decision(0, Some(7), 120, 100));
    res.decisions.push(decision(1, Some(8), 121, 100));
    res.decisions.push(decision(2, Some(7), 122, 100));
    res.decisions.push(decision(3, Some(7), 123, 100));
    let v = checks::check_agreement(&res, NodeId::new(0));
    assert!(!v.is_ok());
    assert!(v.0[0].contains("distinct decided values"));
}

#[test]
fn agreement_checker_catches_mixed_abort() {
    let mut res = base_result();
    res.decisions.push(decision(0, Some(7), 120, 100));
    res.decisions.push(decision(1, None, 121, 100)); // abort amid decides
    res.decisions.push(decision(2, Some(7), 122, 100));
    res.decisions.push(decision(3, Some(7), 123, 100));
    let v = checks::check_agreement(&res, NodeId::new(0));
    assert!(v
        .0
        .iter()
        .any(|m| m.contains("aborted while others decided")));
}

#[test]
fn agreement_checker_catches_silent_node() {
    let mut res = base_result();
    for node in 0..3 {
        res.decisions.push(decision(node, Some(7), 120, 100));
    }
    let v = checks::check_agreement(&res, NodeId::new(0));
    assert!(v.0.iter().any(|m| m.contains("returned nothing")));
}

#[test]
fn agreement_checker_allows_all_abort_execution() {
    let mut res = base_result();
    for node in 0..4 {
        res.decisions.push(decision(node, None, 120, 100));
    }
    assert!(checks::check_agreement(&res, NodeId::new(0)).is_ok());
}

#[test]
fn executions_cluster_by_anchor() {
    let mut res = base_result();
    // Two executions: anchors at 100ms and at 400ms (>> 7d apart).
    for node in 0..4 {
        res.decisions.push(decision(node, Some(1), 120, 100));
        res.decisions.push(decision(node, Some(2), 420, 400));
    }
    let clusters = checks::executions(&res, NodeId::new(0));
    assert_eq!(clusters.len(), 2);
    assert!(clusters[0].iter().all(|r| r.value == Some(1)));
    assert!(clusters[1].iter().all(|r| r.value == Some(2)));
    // Different values in different executions is NOT a violation.
    assert!(checks::check_agreement(&res, NodeId::new(0)).is_ok());
}

#[test]
fn skew_checker_catches_excess() {
    let mut res = base_result();
    res.decisions.push(decision(0, Some(7), 100, 90));
    res.decisions.push(decision(1, Some(7), 160, 90)); // 60ms apart = 6d
    res.decisions.push(decision(2, Some(7), 101, 90));
    res.decisions.push(decision(3, Some(7), 102, 90));
    let v = checks::check_decision_skew(
        &res,
        NodeId::new(0),
        Duration::from_millis(30),
        Duration::from_millis(60),
    );
    assert!(v.0.iter().any(|m| m.contains("decision skew")));
}

#[test]
fn separation_checker_catches_close_distinct_values() {
    let mut res = base_result();
    // Distinct values with anchors 20ms = 2d apart: violates [IA-4A].
    res.iaccepts.push(accept(0, 1, 105, 100));
    res.iaccepts.push(accept(1, 2, 125, 120));
    let v = checks::check_separation(&res, NodeId::new(0));
    assert!(v.0.iter().any(|m| m.contains("IA-4A")));
}

#[test]
fn separation_checker_catches_forbidden_same_value_gap() {
    let mut res = base_result();
    // Same value, anchors 100ms apart: inside the forbidden band
    // (6d = 60ms, 2Δ_rmv − 3d ≈ 2×530 − 30 = 1030ms).
    res.iaccepts.push(accept(0, 1, 105, 100));
    res.iaccepts.push(accept(1, 1, 205, 200));
    let v = checks::check_separation(&res, NodeId::new(0));
    assert!(v.0.iter().any(|m| m.contains("IA-4B")));
}

#[test]
fn separation_checker_accepts_legal_gaps() {
    let mut res = base_result();
    // Same value within 6d — fine.
    res.iaccepts.push(accept(0, 1, 105, 100));
    res.iaccepts.push(accept(1, 1, 106, 104));
    // Distinct value 200ms later (> 4d) — fine.
    res.iaccepts.push(accept(0, 2, 305, 300));
    assert!(checks::check_separation(&res, NodeId::new(0)).is_ok());
}

#[test]
fn validity_checker_catches_wrong_value() {
    let mut res = base_result();
    for node in 0..4 {
        res.decisions.push(decision(node, Some(7), 120, 100));
    }
    assert!(checks::check_validity(&res, NodeId::new(0), 7).is_ok());
    assert!(!checks::check_validity(&res, NodeId::new(0), 8).is_ok());
}

#[test]
fn termination_checker_bounds_running_time() {
    let mut res = base_result();
    // Δ_agr = 3Φ = 24d = 240ms for n=4,f=1.
    res.decisions.push(decision(0, Some(7), 600, 100)); // 500ms > bound
    let v = checks::check_termination(&res, NodeId::new(0), Duration::ZERO);
    assert!(!v.is_ok());
    let mut ok = base_result();
    ok.decisions.push(decision(0, Some(7), 200, 100));
    assert!(checks::check_termination(&ok, NodeId::new(0), Duration::ZERO).is_ok());
}

/// Nanosecond-precision record for bound-boundary tests.
fn decision_ns(node: u32, value: Option<u64>, at_ns: u64, anchor_ns: u64) -> DecisionRecord {
    DecisionRecord {
        node: NodeId::new(node),
        general: NodeId::new(0),
        value,
        local_at: LocalTime::from_nanos(at_ns),
        real_at: RealTime::from_nanos(at_ns),
        tau_g_local: LocalTime::from_nanos(anchor_ns),
        tau_g_real: RealTime::from_nanos(anchor_ns),
    }
}

#[test]
fn skew_checker_boundary_exact_and_one_past() {
    let bound = Duration::from_millis(30);
    let base = 100_000_000u64; // 100ms
                               // Exactly at the bound: allowed (the checker uses strict >).
    let mut at_bound = base_result();
    at_bound.decisions.push(decision_ns(0, Some(7), base, base));
    at_bound
        .decisions
        .push(decision_ns(1, Some(7), base + bound.as_nanos(), base));
    assert!(
        checks::check_decision_skew(&at_bound, NodeId::new(0), bound, bound).is_ok(),
        "skew exactly at the bound must pass"
    );
    // One nanosecond past: violation.
    let mut past = base_result();
    past.decisions.push(decision_ns(0, Some(7), base, base));
    past.decisions
        .push(decision_ns(1, Some(7), base + bound.as_nanos() + 1, base));
    let v = checks::check_decision_skew(&past, NodeId::new(0), bound, bound);
    assert!(
        v.0.iter().any(|m| m.contains("decision skew")),
        "one nanosecond past the bound must be flagged: {v:?}"
    );
}

#[test]
fn anchor_skew_boundary_exact_and_one_past() {
    let anchor_bound = Duration::from_millis(10);
    let wide = Duration::from_secs(1);
    let base = 100_000_000u64;
    let mut at_bound = base_result();
    at_bound.decisions.push(decision_ns(0, Some(7), base, base));
    at_bound.decisions.push(decision_ns(
        1,
        Some(7),
        base,
        base + anchor_bound.as_nanos(),
    ));
    assert!(
        checks::check_decision_skew(&at_bound, NodeId::new(0), wide, anchor_bound).is_ok(),
        "anchor skew exactly at the bound must pass"
    );
    let mut past = base_result();
    past.decisions.push(decision_ns(0, Some(7), base, base));
    past.decisions.push(decision_ns(
        1,
        Some(7),
        base,
        base + anchor_bound.as_nanos() + 1,
    ));
    let v = checks::check_decision_skew(&past, NodeId::new(0), wide, anchor_bound);
    assert!(v.0.iter().any(|m| m.contains("anchor skew")));
}

#[test]
fn termination_checker_boundary_exact_and_one_past() {
    // Δ_agr = 3Φ = 24d = 240ms for n=4, f=1; bound = Δ_agr + slack.
    let delta_agr = params().delta_agr();
    let slack = Duration::from_micros(500);
    let anchor = 100_000_000u64;
    let mut at_bound = base_result();
    at_bound.decisions.push(decision_ns(
        0,
        Some(7),
        anchor + (delta_agr + slack).as_nanos(),
        anchor,
    ));
    assert!(
        checks::check_termination(&at_bound, NodeId::new(0), slack).is_ok(),
        "return exactly at Δ_agr + slack must pass"
    );
    let mut past = base_result();
    past.decisions.push(decision_ns(
        0,
        Some(7),
        anchor + (delta_agr + slack).as_nanos() + 1,
        anchor,
    ));
    let v = checks::check_termination(&past, NodeId::new(0), slack);
    assert!(
        v.0.iter().any(|m| m.contains("Δ_agr")),
        "one nanosecond past Δ_agr + slack must be flagged: {v:?}"
    );
}

#[test]
fn containment_radius_counts_distinct_correct_leakers() {
    let mut res = base_result();
    // Node 1 leaks twice, node 2 once; node 3 outputs outside the span.
    res.decisions.push(decision(1, None, 120, 100));
    res.decisions.push(decision(1, Some(9), 140, 100));
    res.decisions.push(decision(2, None, 150, 100));
    res.decisions.push(decision(3, Some(7), 900, 880));
    let (radius, outputs) = checks::containment_radius(
        &res,
        RealTime::from_nanos(100 * 1_000_000),
        RealTime::from_nanos(500 * 1_000_000),
    );
    assert_eq!(radius, 2, "two distinct nodes leaked in the span");
    assert_eq!(outputs, 3, "three leaked returns in the span");
    // Byzantine leaks don't count: shrink the correct set.
    res.correct = vec![NodeId::new(0), NodeId::new(2), NodeId::new(3)];
    let (radius, outputs) = checks::containment_radius(
        &res,
        RealTime::from_nanos(100 * 1_000_000),
        RealTime::from_nanos(500 * 1_000_000),
    );
    assert_eq!(radius, 1);
    assert_eq!(outputs, 1);
}

#[test]
fn violations_helpers() {
    let mut v = Violations::default();
    assert!(v.is_ok());
    v.extend(Violations(vec!["boom".into()]));
    assert!(!v.is_ok());
}

#[test]
fn pipeline_log_checker_flags_skips_divergence_and_laggards() {
    let log = |values: &[u64]| -> Vec<(u64, u64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    };
    let nodes: Vec<NodeId> = (0..4).map(NodeId::new).collect();
    let equal = vec![log(&[7, 8, 9]); 4];
    assert!(checks::check_pipeline_logs(&equal, &nodes).is_ok());

    let mut bad = equal.clone();
    bad[1] = vec![(0, 7), (2, 9)]; // slot 1 skipped
    bad[2] = log(&[7, 5, 9]); // as long as n0's log, and diverges
    bad[3] = log(&[7, 8]); // a consistent prefix that never caught up
    let v = checks::check_pipeline_logs(&bad, &nodes);
    assert_eq!(v.0.len(), 3, "{v:?}");
    assert!(v.0[0].starts_with("n1: commit #1 is slot 2"), "{v:?}");
    assert!(v.0[1].starts_with("n2 and n0 diverge"), "{v:?}");
    assert!(v.0[2].starts_with("n3 committed 2 slots, n0 3"), "{v:?}");
    // A node outside `correct` is not judged.
    assert!(checks::check_pipeline_logs(&bad, &nodes[..1]).is_ok());
}
