//! Real-time and (wrap-around) local-time instants.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

use crate::Duration;

/// An instant on the simulator's global real-time axis, in nanoseconds
/// since the simulation epoch.
///
/// Protocol code never observes [`RealTime`]; it exists so that harnesses
/// and property checkers can phrase the paper's `rt(τ)` bounds ("the
/// real-time when the timer of node p reads τ", paper §2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RealTime(u64);

impl RealTime {
    /// The simulation epoch.
    pub const ZERO: RealTime = RealTime(0);

    /// Creates an instant from nanoseconds since the epoch.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        RealTime(nanos)
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Elapsed span since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self` (real time never wraps in a
    /// simulation run).
    #[must_use]
    pub fn since(self, earlier: RealTime) -> Duration {
        Duration::from_nanos(
            self.0
                .checked_sub(earlier.0)
                .expect("real time moved backwards"),
        )
    }

    /// Saturating difference: zero if `earlier` is in the future.
    #[must_use]
    pub fn saturating_since(self, earlier: RealTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Absolute difference between two instants.
    #[must_use]
    pub fn abs_diff(self, other: RealTime) -> Duration {
        Duration::from_nanos(self.0.abs_diff(other.0))
    }

    /// Checked addition of a span.
    #[must_use]
    pub fn checked_add(self, d: Duration) -> Option<RealTime> {
        self.0.checked_add(d.as_nanos()).map(RealTime)
    }
}

impl Add<Duration> for RealTime {
    type Output = RealTime;
    fn add(self, rhs: Duration) -> RealTime {
        RealTime(
            self.0
                .checked_add(rhs.as_nanos())
                .expect("real time overflow"),
        )
    }
}

impl AddAssign<Duration> for RealTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for RealTime {
    type Output = RealTime;
    fn sub(self, rhs: Duration) -> RealTime {
        RealTime(
            self.0
                .checked_sub(rhs.as_nanos())
                .expect("real time underflow"),
        )
    }
}

impl fmt::Debug for RealTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Duration::from_nanos(self.0))
    }
}

impl fmt::Display for RealTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A reading of a node's local hardware timer, in nanoseconds.
///
/// Local time **wraps around** (paper §2: "the local time at a node may wrap
/// around, since we assume transient faults"). The protocol only ever
/// measures *intervals* of local time, which [`LocalTime::since`] computes
/// with wrapping arithmetic; this is exact as long as measured intervals are
/// shorter than half the `u64` range, which the paper guarantees by assuming
/// the wrap-around period dominates every interval the protocol measures.
///
/// Ordering between local times is deliberately *not* implemented — compare
/// intervals instead.
///
/// # Example
///
/// ```
/// use ssbyz_types::{Duration, LocalTime};
///
/// let tau_g = LocalTime::from_nanos(100);
/// let now = tau_g + Duration::from_nanos(40);
/// assert!(now.since(tau_g) <= Duration::from_nanos(64));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LocalTime(u64);

impl LocalTime {
    /// The zero reading.
    pub const ZERO: LocalTime = LocalTime(0);

    /// Creates a reading from a raw nanosecond counter value.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        LocalTime(nanos)
    }

    /// The raw counter value.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Interval from `earlier` to `self`, with wrap-around.
    ///
    /// If `earlier` is "in the future" of `self` (i.e. the wrapped
    /// difference exceeds half the range), this still returns the wrapped
    /// difference; callers that need to detect bogus future timestamps use
    /// [`LocalTime::is_after`].
    #[must_use]
    pub const fn since(self, earlier: LocalTime) -> Duration {
        Duration::from_nanos(self.0.wrapping_sub(earlier.0))
    }

    /// Whether `self` is strictly after `other` under wrap-around order,
    /// i.e. the wrapped distance from `other` to `self` is non-zero and
    /// less than half the counter range.
    ///
    /// Used by the stabilization cleanup to spot "clearly wrong" (future)
    /// timestamps left over from a transient fault (paper §4).
    #[must_use]
    pub const fn is_after(self, other: LocalTime) -> bool {
        let delta = self.0.wrapping_sub(other.0);
        delta != 0 && delta < (1u64 << 63)
    }

    /// Whether `self` is after `other` or equal to it, under wrap-around
    /// order.
    #[must_use]
    pub const fn is_at_or_after(self, other: LocalTime) -> bool {
        self.0 == other.0 || self.is_after(other)
    }

    /// Saturating-style difference: the wrapped interval if `earlier` is in
    /// the past, otherwise zero.
    #[must_use]
    pub const fn since_or_zero(self, earlier: LocalTime) -> Duration {
        if earlier.is_after(self) {
            Duration::ZERO
        } else {
            self.since(earlier)
        }
    }
}

impl Add<Duration> for LocalTime {
    type Output = LocalTime;
    fn add(self, rhs: Duration) -> LocalTime {
        LocalTime(self.0.wrapping_add(rhs.as_nanos()))
    }
}

impl AddAssign<Duration> for LocalTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for LocalTime {
    type Output = LocalTime;
    fn sub(self, rhs: Duration) -> LocalTime {
        LocalTime(self.0.wrapping_sub(rhs.as_nanos()))
    }
}

impl fmt::Debug for LocalTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "τ{}", self.0)
    }
}

impl fmt::Display for LocalTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_time_since() {
        let a = RealTime::from_nanos(100);
        let b = a + Duration::from_nanos(50);
        assert_eq!(b.since(a), Duration::from_nanos(50));
        assert_eq!(a.saturating_since(b), Duration::ZERO);
        assert_eq!(a.abs_diff(b), Duration::from_nanos(50));
        assert_eq!(b.abs_diff(a), Duration::from_nanos(50));
    }

    #[test]
    #[should_panic(expected = "real time moved backwards")]
    fn real_time_since_panics_backwards() {
        let a = RealTime::from_nanos(10);
        let b = RealTime::from_nanos(20);
        let _ = a.since(b);
    }

    #[test]
    fn local_time_wraps() {
        let near_max = LocalTime::from_nanos(u64::MAX - 5);
        let wrapped = near_max + Duration::from_nanos(10);
        assert_eq!(wrapped.as_nanos(), 4);
        assert_eq!(wrapped.since(near_max), Duration::from_nanos(10));
    }

    #[test]
    fn local_time_order_across_wrap() {
        let near_max = LocalTime::from_nanos(u64::MAX - 5);
        let wrapped = near_max + Duration::from_nanos(10);
        assert!(wrapped.is_after(near_max));
        assert!(!near_max.is_after(wrapped));
        assert!(wrapped.is_at_or_after(near_max));
        assert!(wrapped.is_at_or_after(wrapped));
    }

    #[test]
    fn since_or_zero_clamps_future() {
        let now = LocalTime::from_nanos(100);
        let future = now + Duration::from_nanos(30);
        assert_eq!(now.since_or_zero(future), Duration::ZERO);
        assert_eq!(future.since_or_zero(now), Duration::from_nanos(30));
    }

    #[test]
    fn sub_duration_wraps() {
        let t = LocalTime::from_nanos(3);
        let earlier = t - Duration::from_nanos(10);
        assert_eq!(t.since(earlier), Duration::from_nanos(10));
    }
}
