//! Machine-checked statements of the paper's properties.
//!
//! Every checker returns a [`Violations`] list: empty means the property
//! held on this run. Checkers never panic — experiment drivers aggregate
//! violations across hundreds of seeded runs.

use std::cmp::Reverse;

use ssbyz_types::{Duration, NodeId, RealTime};

use crate::scenario::{ScenarioResult, Val};

/// A (possibly empty) list of property violations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Violations(pub Vec<String>);

impl Violations {
    /// No violations?
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.0.is_empty()
    }

    /// Merges another list in.
    pub fn extend(&mut self, other: Violations) {
        self.0.extend(other.0);
    }

    fn push(&mut self, v: String) {
        self.0.push(v);
    }

    /// Panics with the violation list unless empty (test helper).
    ///
    /// # Panics
    ///
    /// If any violation was recorded.
    pub fn assert_ok(&self, what: &str) {
        assert!(self.is_ok(), "{what}: {:?}", self.0);
    }
}

/// Groups the returns for `general` into *executions*: the protocol
/// supports recurrent agreements by one General, and the Agreement
/// property applies per execution. Timeliness 1(b) bounds anchor skew
/// within an execution by `6d`, and Uniqueness [IA-4] separates distinct
/// executions by `> 4d` (different values) or `> 2Δ_rmv − 3d` (same
/// value), so clustering anchors transitively at `6d + d` of slack
/// recovers the executions.
#[must_use]
pub fn executions(
    res: &ScenarioResult,
    general: NodeId,
) -> Vec<Vec<&crate::scenario::DecisionRecord>> {
    let d = res.params.d();
    let gap = d * 7u64;
    let mut recs: Vec<&crate::scenario::DecisionRecord> = res
        .decisions
        .iter()
        .filter(|r| r.general == general)
        .collect();
    recs.sort_by_key(|r| r.tau_g_real);
    let mut clusters: Vec<Vec<&crate::scenario::DecisionRecord>> = Vec::new();
    for rec in recs {
        match clusters.last_mut() {
            Some(cluster)
                if rec
                    .tau_g_real
                    .saturating_since(cluster.last().expect("non-empty").tau_g_real)
                    <= gap =>
            {
                cluster.push(rec);
            }
            _ => clusters.push(vec![rec]),
        }
    }
    clusters
}

/// **Agreement** (§3): within each execution, if any correct node decides
/// `(G, m)`, all correct nodes decide the same — none may decide
/// differently, abort, or return nothing.
#[must_use]
pub fn check_agreement(res: &ScenarioResult, general: NodeId) -> Violations {
    let mut v = Violations::default();
    for cluster in executions(res, general) {
        let mut values: Vec<u64> = cluster.iter().filter_map(|r| r.value).collect();
        values.sort_unstable();
        values.dedup();
        if values.len() > 1 {
            v.push(format!(
                "agreement violated: distinct decided values {values:?} in one execution for {general}"
            ));
        }
        if values.is_empty() {
            continue; // an all-abort execution is fine
        }
        for node in &res.correct {
            match cluster.iter().find(|r| r.node == *node) {
                None => v.push(format!(
                    "agreement violated: {node} returned nothing in an execution others decided"
                )),
                Some(r) if r.value.is_none() => v.push(format!(
                    "agreement violated: {node} aborted while others decided"
                )),
                Some(_) => {}
            }
        }
    }
    v
}

/// **Validity** (§3): if the General is correct and initiated `expected`,
/// every correct node decides `expected`.
#[must_use]
pub fn check_validity(res: &ScenarioResult, general: NodeId, expected: u64) -> Violations {
    let mut v = Violations::default();
    for node in &res.correct {
        match res.decision_of(*node, general) {
            None => v.push(format!("validity violated: {node} never returned")),
            Some(d) => match d.value {
                Some(m) if m == expected => {}
                Some(m) => v.push(format!(
                    "validity violated: {node} decided {m}, expected {expected}"
                )),
                None => v.push(format!("validity violated: {node} aborted")),
            },
        }
    }
    v
}

/// **Timeliness (agreement)** 1(a)+1(b) (§3): decision times of any two
/// correct nodes within `3d` (2d under validity), anchors within `6d` —
/// per execution.
#[must_use]
pub fn check_decision_skew(
    res: &ScenarioResult,
    general: NodeId,
    decision_bound: Duration,
    anchor_bound: Duration,
) -> Violations {
    let mut v = Violations::default();
    for cluster in executions(res, general) {
        let decides: Vec<_> = cluster.iter().filter(|r| r.value.is_some()).collect();
        for a in &decides {
            for b in &decides {
                let skew = a.real_at.abs_diff(b.real_at);
                if skew > decision_bound {
                    v.push(format!(
                        "decision skew {skew} > {decision_bound} between {} and {}",
                        a.node, b.node
                    ));
                }
                let askew = a.tau_g_real.abs_diff(b.tau_g_real);
                if askew > anchor_bound {
                    v.push(format!(
                        "anchor skew {askew} > {anchor_bound} between {} and {}",
                        a.node, b.node
                    ));
                }
            }
        }
    }
    v
}

/// **Timeliness (validity)** 2 (§3): with a correct General initiating at
/// real time `t0`, every correct node's decision satisfies
/// `t0 − d ≤ rt(τ_G^q) ≤ rt(τq) ≤ t0 + 4d` (plus `slack` for simulation
/// delivery granularity).
#[must_use]
pub fn check_timeliness_validity(
    res: &ScenarioResult,
    general: NodeId,
    t0: RealTime,
    slack: Duration,
) -> Violations {
    let mut v = Violations::default();
    let d = res.params.d();
    for rec in res.decides_for(general) {
        if rec.tau_g_real < t0 - d - slack {
            v.push(format!(
                "{}: rt(τ_G) {:?} precedes t0 − d ({:?})",
                rec.node,
                rec.tau_g_real,
                t0 - d
            ));
        }
        if rec.real_at < rec.tau_g_real {
            v.push(format!("{}: decided before its own anchor", rec.node));
        }
        if rec.real_at > t0 + d * 4u64 + slack {
            v.push(format!(
                "{}: decision {:?} after t0 + 4d ({:?})",
                rec.node,
                rec.real_at,
                t0 + d * 4u64
            ));
        }
    }
    v
}

/// **Timeliness (termination)** 3 (§3): every return happens within
/// `Δ_agr` of its anchor (`+ 8d` when the node participated without an
/// explicit invocation — we allow the larger bound uniformly plus `slack`
/// for tick granularity).
#[must_use]
pub fn check_termination(res: &ScenarioResult, general: NodeId, slack: Duration) -> Violations {
    let mut v = Violations::default();
    let bound = res.params.delta_agr() + slack;
    for rec in res.decisions.iter().filter(|r| r.general == general) {
        let took = rec.real_at.saturating_since(rec.tau_g_real);
        if took > bound {
            v.push(format!(
                "{}: took {took} > Δ_agr(+slack) {bound} to return",
                rec.node
            ));
        }
    }
    v
}

/// Timeliness 1(d): `rt(τ_G^q) ≤ rt(τq)` and `rt(τq) − rt(τ_G^q) ≤ Δ_agr`.
#[must_use]
pub fn check_anchor_precedes_decision(res: &ScenarioResult, general: NodeId) -> Violations {
    let mut v = Violations::default();
    for rec in res.decides_for(general) {
        if rec.tau_g_real > rec.real_at {
            v.push(format!("{}: anchor after decision", rec.node));
        }
    }
    v
}

/// **[IA-1]**: with a correct General invoking at `t0`, all correct nodes
/// I-accept within `t0 + 4d`, within `2d` of each other, with anchors
/// within `d` of each other and `rt(τ_G) ∈ [t0 − d, rt(τq)]`.
#[must_use]
pub fn check_ia_correctness(
    res: &ScenarioResult,
    general: NodeId,
    t0: RealTime,
    slack: Duration,
) -> Violations {
    let mut v = Violations::default();
    let d = res.params.d();
    let accepts: Vec<_> = res
        .iaccepts
        .iter()
        .filter(|r| r.general == general)
        .collect();
    for node in &res.correct {
        if !accepts.iter().any(|r| r.node == *node) {
            v.push(format!("[IA-1A] {node} never I-accepted"));
        }
    }
    for r in &accepts {
        if r.real_at > t0 + d * 4u64 + slack {
            v.push(format!(
                "[IA-1A] {} accepted at {:?} > t0 + 4d",
                r.node, r.real_at
            ));
        }
        if r.tau_g_real < t0 - d - slack {
            v.push(format!("[IA-1D] {} anchor before t0 − d", r.node));
        }
        if r.tau_g_real > r.real_at {
            v.push(format!("[IA-1D] {} anchor after accept time", r.node));
        }
    }
    for a in &accepts {
        for b in &accepts {
            let skew = a.real_at.abs_diff(b.real_at);
            if skew > d * 2u64 + slack {
                v.push(format!(
                    "[IA-1B] accept skew {skew} > 2d between {} and {}",
                    a.node, b.node
                ));
            }
            let askew = a.tau_g_real.abs_diff(b.tau_g_real);
            if askew > d + slack {
                v.push(format!(
                    "[IA-1C] anchor skew {askew} > d between {} and {}",
                    a.node, b.node
                ));
            }
        }
    }
    v
}

/// **[IA-4] Uniqueness / Timeliness 4 (separation)**: for two I-accepts by
/// correct nodes regarding the same General —
/// distinct values ⇒ anchors > `4d` apart; same value ⇒ anchors ≤ `6d`
/// apart or > `2Δ_rmv − 3d` apart.
#[must_use]
pub fn check_separation(res: &ScenarioResult, general: NodeId) -> Violations {
    let mut v = Violations::default();
    let d = res.params.d();
    let rmv = res.params.delta_rmv();
    let accepts: Vec<_> = res
        .iaccepts
        .iter()
        .filter(|r| r.general == general && res.correct.contains(&r.node))
        .collect();
    for (i, a) in accepts.iter().enumerate() {
        for b in accepts.iter().skip(i + 1) {
            let gap = a.tau_g_real.abs_diff(b.tau_g_real);
            if a.value != b.value {
                if gap <= d * 4u64 {
                    v.push(format!(
                        "[IA-4A] values {} vs {} with anchor gap {gap} ≤ 4d ({} vs {})",
                        a.value, b.value, a.node, b.node
                    ));
                }
            } else if gap > d * 6u64 && gap <= rmv * 2u64 - d * 3u64 {
                v.push(format!(
                    "[IA-4B] same value {} anchors {gap} apart (∈ (6d, 2Δ_rmv−3d]) ({} vs {})",
                    a.value, a.node, b.node
                ));
            }
        }
    }
    v
}

/// **Containment** (fault-injection campaigns): outputs emitted by
/// correct nodes in `[from, to)` — a span in which no probe agreement
/// runs, so every return there is fault residue that escaped containment.
/// Returns `(radius, outputs)`: the number of distinct leaking correct
/// nodes and the total leaked returns (decides and aborts alike).
#[must_use]
pub fn containment_radius(res: &ScenarioResult, from: RealTime, to: RealTime) -> (usize, usize) {
    let leaked: Vec<_> = res
        .decisions
        .iter()
        .filter(|r| r.real_at >= from && r.real_at < to && res.correct.contains(&r.node))
        .collect();
    let mut nodes: Vec<NodeId> = leaked.iter().map(|r| r.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    (nodes.len(), leaked.len())
}

/// **Replicated log** (slot pipeline): over the committed logs of the
/// `correct` nodes — `(slot, value)` pairs in commit order, indexed by
/// node — once the last fault and the last submission have had time to
/// settle:
/// * each log is gap-free and in slot order (commit `#i` is slot `i`);
/// * prefix agreement: each log is a prefix of the longest one (the
///   first in `correct` order), so any two agree on their common prefix;
/// * catch-up liveness: each log is as long as the longest one.
///
/// Each log reports its first violation in that order.
#[must_use]
pub fn check_pipeline_logs(logs: &[Vec<(u64, Val)>], correct: &[NodeId]) -> Violations {
    let mut v = Violations::default();
    let Some(&first) = correct
        .iter()
        .min_by_key(|n| Reverse(logs[n.index()].len()))
    else {
        return v;
    };
    let longest = &logs[first.index()];
    for &node in correct {
        let log = &logs[node.index()];
        if let Some((i, (slot, _))) = log
            .iter()
            .enumerate()
            .find(|(i, (slot, _))| *slot != *i as u64)
        {
            v.push(format!(
                "{node:?}: commit #{i} is slot {slot} (slot skipped or reordered)"
            ));
        } else if log[..] != longest[..log.len()] {
            v.push(format!(
                "{node:?} and {first:?} diverge within their common prefix"
            ));
        } else if log.len() < longest.len() {
            v.push(format!(
                "{node:?} committed {} slots, {first:?} {} (never caught up)",
                log.len(),
                longest.len()
            ));
        }
    }
    v
}

/// Composite: the standard battery for a correct-General run.
#[must_use]
pub fn check_correct_general_run(
    res: &ScenarioResult,
    general: NodeId,
    expected: u64,
    t0: RealTime,
    slack: Duration,
) -> Violations {
    let mut v = Violations::default();
    v.extend(check_agreement(res, general));
    v.extend(check_validity(res, general, expected));
    // Under validity the decision-skew bound is 2d; anchors within d.
    v.extend(check_decision_skew(
        res,
        general,
        res.params.d() * 2u64 + slack,
        res.params.d() + slack,
    ));
    v.extend(check_timeliness_validity(res, general, t0, slack));
    v.extend(check_termination(res, general, slack));
    v.extend(check_anchor_precedes_decision(res, general));
    v.extend(check_ia_correctness(res, general, t0, slack));
    v
}

/// Composite: the battery for a Byzantine-General run (agreement-side
/// bounds only).
#[must_use]
pub fn check_byzantine_general_run(res: &ScenarioResult, general: NodeId) -> Violations {
    let mut v = Violations::default();
    v.extend(check_agreement(res, general));
    let d = res.params.d();
    v.extend(check_decision_skew(
        res,
        general,
        d * 3u64 + d, // 3d + simulation slack
        d * 6u64 + d,
    ));
    v.extend(check_termination(res, general, d * 8u64));
    v.extend(check_anchor_precedes_decision(res, general));
    v.extend(check_separation(res, general));
    v
}
