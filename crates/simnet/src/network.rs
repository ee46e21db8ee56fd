//! Network model: bounded-delay authenticated links + transient storms.

use ssbyz_types::{Duration, NodeBitSet, NodeId, RealTime};

/// Steady-state link behaviour: every message between non-faulty nodes is
/// delivered within `[delay_min, delay_max]`, sampled uniformly. The
/// paper's bound `δ` corresponds to `delay_max` (processing time `π` is
/// folded into the same interval for simulation purposes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// Minimum delivery latency.
    pub delay_min: Duration,
    /// Maximum delivery latency (the paper's δ, with π folded in).
    pub delay_max: Duration,
}

impl LinkConfig {
    /// Uniform delay in `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    #[must_use]
    pub fn uniform(min: Duration, max: Duration) -> Self {
        assert!(min <= max, "delay_min must not exceed delay_max");
        LinkConfig {
            delay_min: min,
            delay_max: max,
        }
    }

    /// A fixed-latency link.
    #[must_use]
    pub fn fixed(delay: Duration) -> Self {
        LinkConfig {
            delay_min: delay,
            delay_max: delay,
        }
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::uniform(Duration::from_micros(500), Duration::from_millis(9))
    }
}

/// A transient-failure storm: until `until`, the network is *not* bound by
/// any assumption — messages may be dropped, delayed arbitrarily,
/// duplicated or corrupted, and spurious messages may appear from thin
/// air. This models the paper's incoherent period; self-stabilization is
/// measured from the moment the storm ends.
#[derive(Debug, Clone, Copy)]
pub struct StormConfig {
    /// Real time at which the network becomes non-faulty again.
    pub until: RealTime,
    /// Probability (num/den) that a message is dropped outright.
    pub drop_num: u32,
    /// Denominator for `drop_num`.
    pub drop_den: u32,
    /// Probability (num/den) that a message is corrupted via the
    /// simulation's corruptor hook.
    pub corrupt_num: u32,
    /// Denominator for `corrupt_num`.
    pub corrupt_den: u32,
    /// Probability (num/den) that a message is duplicated.
    pub dup_num: u32,
    /// Denominator for `dup_num`.
    pub dup_den: u32,
    /// Maximum (arbitrary) delivery delay during the storm.
    pub max_delay: Duration,
    /// If set, spurious messages are injected with this mean period.
    pub injection_period: Option<Duration>,
}

impl StormConfig {
    /// A heavy storm lasting until `until`: 50% drops, 25% corruption,
    /// 12.5% duplication, delays up to `max_delay`, spurious injection.
    #[must_use]
    pub fn heavy(until: RealTime, max_delay: Duration, injection_period: Duration) -> Self {
        StormConfig {
            until,
            drop_num: 1,
            drop_den: 2,
            corrupt_num: 1,
            corrupt_den: 4,
            dup_num: 1,
            dup_den: 8,
            max_delay,
            injection_period: Some(injection_period),
        }
    }

    /// Whether the storm is active at real time `t`.
    #[must_use]
    pub fn active_at(&self, t: RealTime) -> bool {
        t < self.until
    }
}

/// A network partition: nodes are split into disjoint groups and a
/// message crosses the network only when sender and receiver share a
/// group. A node that appears in **no** group is fully isolated (it still
/// delivers to itself — a node always hears its own broadcasts).
///
/// Partitions are installed on the simulation as a whole
/// (`Simulation::set_partition`) and lifted by installing `None`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Partition {
    groups: Vec<NodeBitSet>,
}

impl Partition {
    /// An empty partition (isolates every node until groups are added).
    #[must_use]
    pub fn new() -> Self {
        Partition { groups: Vec::new() }
    }

    /// Adds a group of mutually reachable nodes.
    #[must_use]
    pub fn group(mut self, members: impl IntoIterator<Item = NodeId>) -> Self {
        let mut set = NodeBitSet::new();
        for m in members {
            set.insert(m);
        }
        self.groups.push(set);
        self
    }

    /// A two-way split of `0..n`: `minority` on one side, everyone else on
    /// the other.
    #[must_use]
    pub fn split(n: usize, minority: &[NodeId]) -> Self {
        let mut small = NodeBitSet::new();
        for m in minority {
            small.insert(*m);
        }
        let mut big = NodeBitSet::new();
        for i in 0..n {
            let id = NodeId::new(i as u32);
            if !small.contains(id) {
                big.insert(id);
            }
        }
        Partition {
            groups: vec![big, small],
        }
    }

    /// Whether a message from `from` may reach `to` under this partition.
    #[must_use]
    pub fn allows(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true; // self-delivery never crosses the network
        }
        self.groups
            .iter()
            .any(|g| g.contains(from) && g.contains(to))
    }

    /// The groups, for introspection.
    #[must_use]
    pub fn groups(&self) -> &[NodeBitSet] {
        &self.groups
    }
}

/// A temporarily blocked (partitioned) directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkBlock {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Block expires at this real time.
    pub until: RealTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_validates() {
        let l = LinkConfig::uniform(Duration::from_nanos(1), Duration::from_nanos(2));
        assert_eq!(l.delay_min, Duration::from_nanos(1));
    }

    #[test]
    #[should_panic(expected = "delay_min")]
    fn inverted_range_panics() {
        let _ = LinkConfig::uniform(Duration::from_nanos(3), Duration::from_nanos(2));
    }

    #[test]
    fn fixed_link() {
        let l = LinkConfig::fixed(Duration::from_millis(1));
        assert_eq!(l.delay_min, l.delay_max);
    }

    #[test]
    fn partition_groups_and_isolation() {
        let p = Partition::split(5, &[NodeId::new(3), NodeId::new(4)]);
        assert!(p.allows(NodeId::new(0), NodeId::new(1)));
        assert!(p.allows(NodeId::new(3), NodeId::new(4)));
        assert!(!p.allows(NodeId::new(0), NodeId::new(3)));
        assert!(!p.allows(NodeId::new(4), NodeId::new(2)));
        // Self-delivery always allowed, even for an unlisted node.
        let lonely = Partition::new().group([NodeId::new(0), NodeId::new(1)]);
        assert!(lonely.allows(NodeId::new(7), NodeId::new(7)));
        assert!(!lonely.allows(NodeId::new(7), NodeId::new(0)));
        assert_eq!(lonely.groups().len(), 1);
    }

    #[test]
    fn storm_activity_window() {
        let s = StormConfig::heavy(
            RealTime::from_nanos(100),
            Duration::from_millis(50),
            Duration::from_micros(10),
        );
        assert!(s.active_at(RealTime::from_nanos(99)));
        assert!(!s.active_at(RealTime::from_nanos(100)));
    }
}
