//! Byzantine *General* strategies.
//!
//! A faulty General has more power in this protocol family than a faulty
//! follower: "a faulty General has more power in trying to fool the
//! correct nodes by sending its values at completely different times to
//! whichever nodes it chooses" (paper §4). The strategies here realize the
//! classic attacks the proofs defend against.

use std::convert::Infallible;
use std::marker::PhantomData;
use std::sync::Arc;

use ssbyz_core::{Effect, IaKind, Msg, Params, SansIo};
use ssbyz_types::{Duration, LocalTime, NodeId, Value};

use crate::{Cadence, Out};

/// A two-faced General: initiates value `value_a` toward one subset of the
/// nodes and `value_b` toward the rest, then keeps feeding each side
/// supporting traffic for "its" value.
///
/// The Agreement property demands that despite this, either no correct
/// node decides, or all correct nodes decide the *same* value.
pub struct TwoFacedGeneral<V> {
    me: NodeId,
    n: usize,
    value_a: Arc<V>,
    value_b: Arc<V>,
    /// Nodes that receive the `value_a` face.
    side_a: Vec<NodeId>,
    /// The split initiation `2d` after boot, then five reinforcement
    /// phases `d` apart.
    cadence: Cadence,
    fired: u32,
}

impl<V: Value> TwoFacedGeneral<V> {
    /// Creates the strategy for node `me`. `side_a` receives `value_a`;
    /// everyone else receives `value_b`.
    #[must_use]
    pub fn new(me: NodeId, value_a: V, value_b: V, side_a: Vec<NodeId>, params: &Params) -> Self {
        TwoFacedGeneral {
            me,
            n: params.n(),
            value_a: Arc::new(value_a),
            value_b: Arc::new(value_b),
            side_a,
            cadence: Cadence::new(params.d() * 2u64, params.d(), 6),
            fired: 0,
        }
    }

    fn face_of(&self, node: NodeId) -> &Arc<V> {
        if self.side_a.contains(&node) {
            &self.value_a
        } else {
            &self.value_b
        }
    }

    /// The split initiation first, then equivocating stage messages that
    /// reinforce each side.
    fn strike(&mut self, out: &mut Out<V>) {
        let kind = match self.fired % 3 {
            1 => IaKind::Support,
            2 => IaKind::Approve,
            _ => IaKind::Ready,
        };
        for node in NodeId::all(self.n) {
            let (general, value) = (self.me, self.face_of(node).clone());
            let msg = if self.fired == 0 {
                Msg::Initiator { general, value }
            } else {
                Msg::Ia {
                    kind,
                    general,
                    value,
                }
            };
            out.push(Effect::Send(node, msg));
        }
        self.fired += 1;
    }
}

/// A spamming General: initiates a fresh value every `period`, flagrantly
/// violating the Sending Validity Criteria ``[IG1]``/``[IG2]``. The Uniqueness
/// property [IA-4] must still hold: any two I-accepted anchors for
/// distinct values are more than `4d` apart.
pub struct SpamGeneral<V> {
    me: NodeId,
    values: Vec<Arc<V>>,
    cadence: Cadence,
    next: usize,
}

impl<V: Value> SpamGeneral<V> {
    /// Node `me` spams `values` cyclically with the given local-time
    /// period.
    #[must_use]
    pub fn new(me: NodeId, values: Vec<V>, period: Duration) -> Self {
        assert!(!values.is_empty(), "need at least one value to spam");
        SpamGeneral {
            me,
            values: values.into_iter().map(Arc::new).collect(),
            cadence: Cadence::endless(period, period),
            next: 0,
        }
    }

    fn strike(&mut self, out: &mut Out<V>) {
        let value = self.values[self.next % self.values.len()].clone();
        self.next += 1;
        out.push(Effect::Broadcast(Msg::Initiator {
            general: self.me,
            value,
        }));
    }
}

/// A staggering General: sends the *same* value to different nodes at very
/// different times (up to `spread` apart), attacking the interval tests of
/// blocks K/L. Correct nodes must still converge on anchors within the
/// `6d` skew bound or not accept at all.
pub struct StaggeredGeneral<V> {
    me: NodeId,
    value: Arc<V>,
    cadence: Cadence,
    sent_to: u32,
}

impl<V: Value> StaggeredGeneral<V> {
    /// Node `me` of `n` sends `value` to node `i` at
    /// `strike_after + i·spread/n`.
    #[must_use]
    pub fn new(me: NodeId, n: usize, value: V, strike_after: Duration, spread: Duration) -> Self {
        let gap = Duration::from_nanos(spread.as_nanos() / n as u64);
        StaggeredGeneral {
            me,
            value: Arc::new(value),
            cadence: Cadence::new(strike_after, gap, n as u32),
            sent_to: 0,
        }
    }

    fn strike(&mut self, out: &mut Out<V>) {
        let msg = Msg::Initiator {
            general: self.me,
            value: self.value.clone(),
        };
        out.push(Effect::Send(NodeId::new(self.sent_to), msg));
        self.sent_to += 1;
    }
}

/// A General that sends its initiation to only a subset of the nodes and
/// then falls silent — probing the quorum boundaries of block K/L: with
/// fewer than `n − f` receivers no approve quorum can form and the
/// initiation must fizzle everywhere; with at least `n − f` it completes.
pub struct PartialGeneral<V> {
    me: NodeId,
    value: Arc<V>,
    targets: Vec<NodeId>,
    cadence: Cadence,
}

impl<V: Value> PartialGeneral<V> {
    /// Node `me` sends `value` to exactly `targets` after `strike_after`.
    #[must_use]
    pub fn new(me: NodeId, value: V, targets: Vec<NodeId>, strike_after: Duration) -> Self {
        PartialGeneral {
            me,
            value: Arc::new(value),
            targets,
            cadence: Cadence::new(strike_after, Duration::ZERO, 1),
        }
    }

    fn strike(&mut self, out: &mut Out<V>) {
        for target in &self.targets {
            let msg = Msg::Initiator {
                general: self.me,
                value: self.value.clone(),
            };
            out.push(Effect::Send(*target, msg));
        }
    }
}

striking!(
    TwoFacedGeneral,
    SpamGeneral,
    StaggeredGeneral,
    PartialGeneral
);

/// A completely silent node (crashed, or a Byzantine node choosing to do
/// nothing). Used to realize `f′ < f` actual-fault sweeps (experiment E4).
pub struct SilentNode<V>(PhantomData<fn() -> V>);

impl<V> Default for SilentNode<V> {
    fn default() -> Self {
        SilentNode(PhantomData)
    }
}

impl<V: Value> SansIo for SilentNode<V> {
    type Msg = Msg<V>;
    type Event = Infallible;
    type Buf = Out<V>;

    fn deliver(&mut self, _: LocalTime, _: NodeId, _: &Msg<V>, _: &mut Out<V>) {}

    fn tick(&mut self, _: LocalTime, _: &mut Out<V>) {}

    fn drain(out: &mut Out<V>) -> impl Iterator<Item = Effect<Msg<V>, Infallible>> + '_ {
        out.drain(..)
    }
}
