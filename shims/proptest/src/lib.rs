//! A self-contained, dependency-free property-testing shim.
//!
//! This container has no access to crates.io, so the workspace vendors the
//! subset of the `proptest` API its tests actually use: the [`proptest!`]
//! macro, [`strategy::Strategy`] with `prop_map`, tuple/range/`Just`/
//! `prop_oneof!` combinators, [`arbitrary::any`], `prop::collection::vec`,
//! and the `prop_assert*` macros. Generation is deterministic (seeded per
//! test from the test's name) and there is no shrinking: a failing case
//! panics with the generated inputs' `Debug` rendering so it can be
//! reproduced by hand.
//!
//! Two environment variables widen a run without editing any test:
//! `PROPTEST_SEED` (a `u64`, decimal or `0x` hex) is mixed into every
//! test's name seed, so each value draws fresh cases, and `PROPTEST_CASES`
//! replaces every test's configured case count. Unset, both keep the
//! fixed defaults. A failure message names the seed that replays it.

#![forbid(unsafe_code)]

use std::fmt::Debug;
use std::rc::Rc;

/// Deterministic test RNG (SplitMix64).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeded RNG.
    pub fn new(seed: u64) -> TestRng {
        TestRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        // Modulo bias is irrelevant for test-case generation.
        self.next_u64() % n
    }
}

pub mod test_runner {
    //! Runner configuration and failure type.

    /// Runner configuration. Only `cases` is honoured.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    /// A failed test case.
    #[derive(Clone, Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// Failure with a message.
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}", self.0)
        }
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use super::{Debug, Rc, TestRng};

    /// Generates values of `Self::Value` from random bits.
    pub trait Strategy {
        /// The generated type.
        type Value: Debug;

        /// Generate one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<U: Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Type-erase into a clonable boxed strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }
    }

    /// Always generates its value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone + Debug>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// [`Strategy::prop_map`] adapter.
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U: Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    trait DynStrategy {
        type Value: Debug;
        fn generate_dyn(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl<S: Strategy> DynStrategy for S {
        type Value = S::Value;
        fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// Clonable type-erased strategy.
    pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(self.0.clone())
        }
    }

    impl<T: Debug> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate_dyn(rng)
        }
    }

    /// Uniform choice between boxed alternatives ([`crate::prop_oneof!`]).
    #[derive(Clone)]
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Union over `arms` (must be non-empty).
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T: Debug> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo + 1) as u64;
                    (lo + rng.below(span) as i128) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }
}

pub mod arbitrary {
    //! `any::<T>()` support.

    use super::strategy::Strategy;
    use super::{Debug, TestRng};
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Debug + Sized {
        /// Generate an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy generating any value of `A`.
    pub struct Any<A>(PhantomData<A>);

    impl<A> Clone for Any<A> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    impl<A: Arbitrary> Strategy for Any<A> {
        type Value = A;
        fn generate(&self, rng: &mut TestRng) -> A {
            A::arbitrary(rng)
        }
    }

    /// The whole-domain strategy for `A`.
    pub fn any<A: Arbitrary>() -> Any<A> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a length drawn from `len`.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start).max(1) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Vectors of `element` values with length in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }
}

pub mod prelude {
    //! Everything a `proptest!` test needs.

    /// The `prop::` namespace (`prop::collection::vec` etc.).
    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Seed material derived from a test's name, so every test draws a distinct
/// deterministic stream.
pub fn seed_from_name(name: &str) -> u64 {
    // FNV-1a.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The seed for the test named `name` under run seed `run` (see
/// [`env_override`]): the name seed alone for run seed 0, so the default
/// run draws the same cases it always has.
pub fn test_seed(name: &str, run: u64) -> u64 {
    seed_from_name(name) ^ run.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The value of the environment variable `var` as a `u64` (decimal or
/// `0x` hex), `None` when unset. A value that does not parse panics with
/// its name, so a typo cannot silently run the default cases.
pub fn env_override(var: &str) -> Option<u64> {
    parse_override(var, std::env::var(var).ok().as_deref())
}

fn parse_override(var: &str, value: Option<&str>) -> Option<u64> {
    let v = value?;
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    Some(parsed.unwrap_or_else(|_| panic!("{var}={v:?} is not a u64")))
}

/// Define property tests. Each function body runs `cases` times with fresh
/// generated inputs; a returned [`test_runner::TestCaseError`] or a
/// `prop_assert*` failure panics with the inputs that provoked it.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            @cfg($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let run_seed = $crate::env_override("PROPTEST_SEED").unwrap_or(0);
            let cases = $crate::env_override("PROPTEST_CASES")
                .map_or($cfg.cases, |n| n.min(u32::MAX as u64) as u32);
            let mut rng = $crate::TestRng::new($crate::test_seed(
                concat!(module_path!(), "::", stringify!($name)),
                run_seed,
            ));
            $(let $arg = &$strat;)+
            for case in 0..cases {
                $(let $arg = $crate::strategy::Strategy::generate($arg, &mut rng);)+
                let desc = format!(
                    concat!($(stringify!($arg), " = {:?} "),+),
                    $(&$arg),+
                );
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || {
                        { $body }
                        Ok(())
                    })();
                if let Err(e) = outcome {
                    panic!(
                        "proptest case {}/{} failed: {}\n  inputs: {}\n  \
                         replay: PROPTEST_SEED={}",
                        case + 1,
                        cases,
                        e,
                        desc,
                        run_seed,
                    );
                }
            }
        }
    )*};
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Assert inside a `proptest!` body (fails the case, reporting inputs).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "{:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("{:?} != {:?}: {}", a, b, format!($($fmt)+)),
            ));
        }
    }};
}

/// Assert inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "{:?} == {:?}", a, b);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = crate::TestRng::new(7);
        let mut b = crate::TestRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn run_seed_zero_keeps_the_name_seed() {
        assert_eq!(crate::test_seed("a::b", 0), crate::seed_from_name("a::b"));
        assert_ne!(crate::test_seed("a::b", 1), crate::test_seed("a::b", 2));
    }

    #[test]
    fn overrides_parse_decimal_and_hex() {
        assert_eq!(crate::parse_override("S", None), None);
        assert_eq!(crate::parse_override("S", Some("42")), Some(42));
        assert_eq!(crate::parse_override("S", Some("0x2a")), Some(42));
    }

    #[test]
    #[should_panic(expected = "PROPTEST_CASES=\"12 \" is not a u64")]
    fn a_malformed_override_is_refused() {
        crate::parse_override("PROPTEST_CASES", Some("12 "));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::new(1);
        for _ in 0..1000 {
            let v = Strategy::generate(&(-5i32..7), &mut rng);
            assert!((-5..7).contains(&v));
            let w = Strategy::generate(&(0u32..=3), &mut rng);
            assert!(w <= 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_generates_and_asserts(
            x in 0u32..100,
            v in prop::collection::vec(any::<u8>(), 0..8),
            pick in prop_oneof![Just(1u8), (2u8..4).prop_map(|n| n)],
        ) {
            prop_assert!(x < 100);
            prop_assert!(v.len() < 8);
            prop_assert!((1..4).contains(&pick), "pick {}", pick);
            prop_assert_eq!(x + 1, x + 1);
        }
    }
}
