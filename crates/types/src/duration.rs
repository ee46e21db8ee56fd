//! Time spans measured in nanoseconds.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A non-negative span of time, in nanoseconds.
///
/// All protocol constants of the paper (`d`, `Φ`, `Δ_agr`, `Δ_rmv`, …) are
/// [`Duration`]s. The same representation is used for spans of real time and
/// spans of local time: the paper folds the worst-case drift into the bound
/// `d = (δ + π)(1 + ρ)` so that `d` upper-bounds message delivery *measured
/// on any correct node's timer* (paper §2).
///
/// # Example
///
/// ```
/// use ssbyz_types::Duration;
///
/// let d = Duration::from_millis(10);
/// let phi = d * 8u64; // Φ = 8d
/// assert_eq!(phi.as_nanos(), 80_000_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// The maximum representable span.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a span from a nanosecond count.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        Duration(nanos)
    }

    /// Creates a span from a microsecond count.
    ///
    /// # Panics
    ///
    /// Panics on overflow (more than ~584 thousand years).
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        Duration(micros * 1_000)
    }

    /// Creates a span from a millisecond count.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        Duration(millis * 1_000_000)
    }

    /// Creates a span from a second count.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs * 1_000_000_000)
    }

    /// Returns the span as whole nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the span as (truncated) whole microseconds.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the span as (truncated) whole milliseconds.
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the span as fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction; returns [`Duration::ZERO`] on underflow.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition; returns [`Duration::MAX`] on overflow.
    #[must_use]
    pub const fn saturating_add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }

    /// Checked multiplication by an integer factor.
    #[must_use]
    pub const fn checked_mul(self, factor: u64) -> Option<Duration> {
        match self.0.checked_mul(factor) {
            Some(v) => Some(Duration(v)),
            None => None,
        }
    }

    /// Scales the span by `num / den` using 128-bit intermediate math.
    ///
    /// Used by drifting clocks to apply a ppm rate without losing precision.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero or the result overflows `u64`.
    #[must_use]
    pub fn scale(self, num: u64, den: u64) -> Duration {
        assert!(den != 0, "scale denominator must be non-zero");
        let scaled = (self.0 as u128) * (num as u128) / (den as u128);
        assert!(scaled <= u64::MAX as u128, "scaled duration overflows u64");
        Duration(scaled as u64)
    }

    /// Like [`Duration::scale`] but saturating at [`Duration::MAX`]
    /// instead of panicking on overflow. Used for observability mappings
    /// that may be fed garbage timestamps after a transient fault.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    #[must_use]
    pub fn saturating_scale(self, num: u64, den: u64) -> Duration {
        assert!(den != 0, "scale denominator must be non-zero");
        let scaled = (self.0 as u128) * (num as u128) / (den as u128);
        Duration(u64::try_from(scaled).unwrap_or(u64::MAX))
    }

    /// Returns the larger of the two spans.
    #[must_use]
    pub fn max(self, other: Duration) -> Duration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of the two spans.
    #[must_use]
    pub fn min(self, other: Duration) -> Duration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Whether this is the zero span.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Mul<u32> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u32) -> Duration {
        self * u64::from(rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0;
        if n == 0 {
            write!(f, "0ns")
        } else if n.is_multiple_of(1_000_000_000) {
            write!(f, "{}s", n / 1_000_000_000)
        } else if n.is_multiple_of(1_000_000) {
            write!(f, "{}ms", n / 1_000_000)
        } else if n.is_multiple_of(1_000) {
            write!(f, "{}us", n / 1_000)
        } else {
            write!(f, "{n}ns")
        }
    }
}

impl From<core::time::Duration> for Duration {
    fn from(d: core::time::Duration) -> Self {
        Duration(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }
}

impl From<Duration> for core::time::Duration {
    fn from(d: Duration) -> Self {
        core::time::Duration::from_nanos(d.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1_000));
        assert_eq!(Duration::from_millis(1), Duration::from_micros(1_000));
        assert_eq!(Duration::from_micros(1), Duration::from_nanos(1_000));
    }

    #[test]
    fn arithmetic_basics() {
        let a = Duration::from_nanos(10);
        let b = Duration::from_nanos(4);
        assert_eq!(a + b, Duration::from_nanos(14));
        assert_eq!(a - b, Duration::from_nanos(6));
        assert_eq!(a * 3u64, Duration::from_nanos(30));
        assert_eq!(a / 2, Duration::from_nanos(5));
    }

    #[test]
    fn saturating_ops() {
        let a = Duration::from_nanos(3);
        let b = Duration::from_nanos(5);
        assert_eq!(a.saturating_sub(b), Duration::ZERO);
        assert_eq!(Duration::MAX.saturating_add(a), Duration::MAX);
    }

    #[test]
    #[should_panic(expected = "duration underflow")]
    fn sub_underflow_panics() {
        let _ = Duration::from_nanos(1) - Duration::from_nanos(2);
    }

    #[test]
    fn scale_is_exact_for_ppm() {
        // 1 second scaled by (1_000_000 + 100) ppm.
        let one_sec = Duration::from_secs(1);
        let scaled = one_sec.scale(1_000_100, 1_000_000);
        assert_eq!(scaled.as_nanos(), 1_000_100_000);
    }

    #[test]
    fn scale_uses_wide_math() {
        // Would overflow u64 if computed as self * num first.
        let big = Duration::from_nanos(u64::MAX / 2);
        let scaled = big.scale(2, 2);
        assert_eq!(scaled, big);
    }

    #[test]
    fn saturating_scale_clamps() {
        let big = Duration::from_nanos(u64::MAX - 1);
        assert_eq!(big.saturating_scale(2, 1), Duration::MAX);
        assert_eq!(
            Duration::from_nanos(10).saturating_scale(3, 2),
            Duration::from_nanos(15)
        );
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(Duration::from_secs(2).to_string(), "2s");
        assert_eq!(Duration::from_millis(3).to_string(), "3ms");
        assert_eq!(Duration::from_micros(7).to_string(), "7us");
        assert_eq!(Duration::from_nanos(9).to_string(), "9ns");
        assert_eq!(Duration::ZERO.to_string(), "0ns");
    }

    #[test]
    fn std_roundtrip() {
        let d = Duration::from_millis(1234);
        let std: core::time::Duration = d.into();
        assert_eq!(Duration::from(std), d);
    }

    #[test]
    fn min_max_sum() {
        let a = Duration::from_nanos(1);
        let b = Duration::from_nanos(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let total: Duration = [a, b, b].into_iter().sum();
        assert_eq!(total, Duration::from_nanos(5));
    }
}
