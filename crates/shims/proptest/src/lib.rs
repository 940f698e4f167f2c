//! Offline shim for the subset of `proptest` this workspace uses.
//!
//! Strategies sample deterministically from a ChaCha8 stream seeded by the
//! test's name, so failures are reproducible run-to-run. Unlike real
//! proptest there is **no shrinking**: a failing case panics with the
//! sampled inputs left to inspect via the assertion message. Supported
//! surface:
//!
//! - `proptest! { #![proptest_config(...)] #[test] fn f(x in strat, ...) { ... } }`
//! - range strategies (`0usize..20`, `-1.0f32..1.0`, `1..=max`), tuples of
//!   strategies, [`Just`], [`collection::vec`], `prop_map`, `prop_flat_map`
//! - `prop_assert!`, `prop_assert_eq!`, `prop_assume!`,
//!   [`ProptestConfig::with_cases`]

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Per-block configuration (`#![proptest_config(...)]`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of sampled cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` samples per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic sampling source handed to strategies.
pub struct SampleRng(pub ChaCha8Rng);

impl SampleRng {
    /// Seeds the stream from a test name, so every test has its own
    /// reproducible sequence.
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        SampleRng(ChaCha8Rng::seed_from_u64(h))
    }
}

/// A generator of test inputs.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one sample.
    fn sample(&self, rng: &mut SampleRng) -> Self::Value;

    /// Transforms samples with a function.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Builds a dependent strategy from each sample.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

/// Always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut SampleRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut SampleRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn sample(&self, rng: &mut SampleRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut SampleRng) -> $t {
                rand::Rng::gen_range(&mut rng.0, self.clone())
            }
        }
    )*};
}

range_strategy!(f32, f64, usize, u64, u32);

macro_rules! range_inclusive_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut SampleRng) -> $t {
                rand::Rng::gen_range(&mut rng.0, self.clone())
            }
        }
    )*};
}

range_inclusive_strategy!(usize, u64, u32);

macro_rules! tuple_strategy {
    ($(($($name:ident : $idx:tt),+)),+) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut SampleRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )+};
}

tuple_strategy!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
);

pub mod collection {
    //! Collection strategies (`proptest::collection::vec`).

    use super::{SampleRng, Strategy};

    /// Something usable as a vector-length specification: an exact `usize`
    /// or a `Range<usize>`.
    pub trait SizeRange {
        /// Draws a length.
        fn sample_len(&self, rng: &mut SampleRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut SampleRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn sample_len(&self, rng: &mut SampleRng) -> usize {
            rand::Rng::gen_range(&mut rng.0, self.clone())
        }
    }

    /// Vectors of `len` samples from `element`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut SampleRng) -> Vec<S::Value> {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Asserts a property; panics with the formatted message on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality of two property values.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Skips the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// Declares property tests; see the crate docs for the supported grammar.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::SampleRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__cfg.cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)+
                // Zero-argument closure so `prop_assume!` can skip the case
                // with an early `return`.
                #[allow(clippy::redundant_closure_call)]
                (|| $body)();
            }
        }
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::Strategy;

    #[test]
    fn ranges_sample_in_bounds() {
        let mut rng = crate::SampleRng::deterministic("bounds");
        for _ in 0..1000 {
            let v = (3usize..8).sample(&mut rng);
            assert!((3..8).contains(&v));
            let f = (-1.0f32..1.0).sample(&mut rng);
            assert!((-1.0..1.0).contains(&f));
            let i = (1usize..=4).sample(&mut rng);
            assert!((1..=4).contains(&i));
        }
    }

    #[test]
    fn combinators_compose() {
        let strat = (1usize..4, 1usize..4).prop_flat_map(|(r, c)| {
            crate::collection::vec(0.0f32..1.0, r * c).prop_map(move |v| (r, c, v))
        });
        let mut rng = crate::SampleRng::deterministic("compose");
        for _ in 0..100 {
            let (r, c, v) = strat.sample(&mut rng);
            assert_eq!(v.len(), r * c);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself: addition commutes.
        #[test]
        fn macro_smoke(a in 0u64..1000, b in 0u64..1000) {
            prop_assume!(a != b);
            prop_assert_eq!(a + b, b + a);
            prop_assert!(a + b >= a, "{} {}", a, b);
        }
    }
}
