//! Offline shim for the `proptest` subset this workspace uses.
//!
//! Supports the `proptest!` function macro (with optional
//! `#![proptest_config(..)]`), integer-range / tuple / `any::<T>()`
//! strategies, `prop::collection::vec`, `prop_oneof!`, `prop_map`, and the
//! `prop_assert*` macros. Cases are generated from a deterministic RNG
//! seeded by the test name, so failures reproduce without shrinking
//! machinery (the shim does not shrink).

use std::ops::{Range, RangeInclusive};

/// Deterministic splitmix64 stream used to generate cases.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the stream from a test name (FNV-1a over the bytes).
    #[must_use]
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: h }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, span: u64) -> u64 {
        if span == 0 {
            self.next_u64()
        } else {
            self.next_u64() % span
        }
    }
}

/// Run-time configuration for a `proptest!` block.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Overrides the case count.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Produces one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generates an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The strategy returned by [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy over every value of `T`.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Object-safe strategy used by [`OneOf`].
pub trait DynStrategy<V> {
    /// Produces one value.
    fn generate_dyn(&self, rng: &mut TestRng) -> V;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// Uniform choice among boxed strategies (built by `prop_oneof!`).
pub struct OneOf<V> {
    arms: Vec<Box<dyn DynStrategy<V>>>,
}

impl<V> OneOf<V> {
    /// Wraps the arms.
    #[must_use]
    pub fn new(arms: Vec<Box<dyn DynStrategy<V>>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { arms }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let idx = rng.below(self.arms.len() as u64) as usize;
        self.arms[idx].generate_dyn(rng)
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Size bounds for generated collections.
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo + 1) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector of `element` values with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// The glob-import surface mirrored from real proptest.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        ProptestConfig, Strategy,
    };

    /// Namespaced strategy modules (`prop::collection::vec`, ...).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Asserts a condition inside a property (panics with case context).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$(Box::new($arm) as Box<dyn $crate::DynStrategy<_>>),+])
    };
}

/// Declares property tests. Each argument is drawn from its strategy for
/// every generated case; the body runs once per case.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $( $(#[$attr:meta])* fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::deterministic(stringify!($name));
                for case in 0..config.cases {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    let run = || -> () { $body };
                    let guard = std::panic::AssertUnwindSafe(run);
                    if let Err(e) = std::panic::catch_unwind(guard) {
                        eprintln!(
                            "proptest case {case} of {} failed in {}",
                            config.cases,
                            stringify!($name)
                        );
                        std::panic::resume_unwind(e);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(a in 3u64..10, b in -4i32..=4, flag in any::<bool>()) {
            prop_assert!((3..10).contains(&a));
            prop_assert!((-4..=4).contains(&b));
            let _ = flag;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn vec_and_oneof(
            items in prop::collection::vec((0u32..5, 1u64..100), 1..20),
            pick in prop_oneof![(0u32..3).prop_map(|x| x * 2), 10u32..12],
        ) {
            prop_assert!(!items.is_empty() && items.len() < 20);
            prop_assert!(pick == 10u32 || pick == 11u32 || pick % 2u32 == 0u32);
            for (s, t) in items {
                prop_assert!(s < 5 && (1..100).contains(&t));
            }
        }
    }
}
