//! Offline drop-in subset of the `proptest` API.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the slice of proptest it uses: the [`proptest!`] macro,
//! range/tuple/vec strategies, `prop_map`, and the `prop_assert*` /
//! `prop_assume!` macros. Test cases are generated from a deterministic
//! seed derived from the test name, so failures reproduce across runs.
//! Shrinking is not implemented — a failing case panics with the literal
//! inputs instead, which is enough to paste into a regression test.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Debug;
use std::ops::Range;

/// Per-test configuration (mirror of `proptest::test_runner::ProptestConfig`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

impl ProptestConfig {
    /// Configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` filtered the case out; it does not count as a failure.
    Reject,
    /// A `prop_assert*` failed.
    Fail(String),
}

impl TestCaseError {
    /// Constructs a failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// Constructs a rejection.
    pub fn reject() -> Self {
        TestCaseError::Reject
    }
}

/// Deterministic per-test source of randomness.
pub struct TestRng(StdRng);

impl TestRng {
    /// Seeds the generator from a test-name hash so each test has a stable,
    /// distinct stream.
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        Self(StdRng::seed_from_u64(h))
    }

    /// The underlying generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.0
    }
}

/// A recipe for generating random values (mirror of `proptest::strategy::Strategy`).
pub trait Strategy {
    /// The value type produced.
    type Value: Debug;

    /// Generates one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map {
            source: self,
            map: f,
        }
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    map: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn new_value(&self, rng: &mut TestRng) -> O {
        (self.map)(self.source.new_value(rng))
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        (**self).new_value(rng)
    }
}

/// Strategy yielding a constant value (mirror of `proptest::strategy::Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.rng().gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i32, i64, f32, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.new_value(rng),)+)
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

pub mod collection {
    //! Collection strategies (mirror of `proptest::collection`).

    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::Range;

    /// Size specification for [`vec()`]: a fixed length or a length range.
    pub trait SizeRange {
        /// Draws a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.rng().gen_range(self.clone())
        }
    }

    /// Strategy for `Vec<T>` with element strategy `element` and a length
    /// drawn from `size`.
    pub fn vec<S: Strategy, Z: SizeRange>(element: S, size: Z) -> VecStrategy<S, Z> {
        VecStrategy { element, size }
    }

    /// Strategy produced by [`vec()`].
    pub struct VecStrategy<S, Z> {
        element: S,
        size: Z,
    }

    impl<S: Strategy, Z: SizeRange> Strategy for VecStrategy<S, Z> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

pub mod bool {
    //! Boolean strategies (mirror of `proptest::bool`).

    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Strategy for a fair coin flip.
    #[derive(Debug, Clone, Copy)]
    pub struct BoolStrategy;

    /// Uniform `bool` strategy.
    pub const ANY: BoolStrategy = BoolStrategy;

    impl Strategy for BoolStrategy {
        type Value = bool;

        fn new_value(&self, rng: &mut TestRng) -> bool {
            rng.rng().gen::<bool>()
        }
    }
}

/// Asserts a condition inside a `proptest!` body, failing the case with the
/// generated inputs on violation.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// Discards the current case (does not count as a failure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::reject());
        }
    };
}

/// Declares property-based tests. Mirrors `proptest::proptest!`: an optional
/// `#![proptest_config(..)]` inner attribute followed by `#[test]` functions
/// whose arguments are drawn from strategies (`name in strategy`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@funcs ($cfg) $($rest)*);
    };
    (@funcs ($cfg:expr) $(
        #[test]
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut test_rng = $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            let mut ran: u32 = 0;
            let mut attempts: u32 = 0;
            while ran < config.cases {
                attempts += 1;
                if attempts > config.cases.saturating_mul(20).max(100) {
                    panic!("proptest: too many rejected cases in {}", stringify!($name));
                }
                $(let $arg = $crate::Strategy::new_value(&($strat), &mut test_rng);)+
                let inputs =
                    [$(format!(concat!(stringify!($arg), " = {:?}"), $arg)),+].join(", ");
                let case = (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                    $(let $arg = $arg;)+
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                })();
                match case {
                    ::std::result::Result::Ok(()) => ran += 1,
                    ::std::result::Result::Err($crate::TestCaseError::Reject) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!("proptest case failed: {msg}\ninputs: {inputs}");
                    }
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@funcs ($crate::ProptestConfig::default()) $($rest)*);
    };
}

pub mod prelude {
    //! Common imports (mirror of `proptest::prelude`).

    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, Just, ProptestConfig, Strategy,
        TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 3usize..10, f in -1.5f32..2.5) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-1.5..2.5).contains(&f));
        }

        #[test]
        fn vec_strategy_sizes(v in crate::collection::vec(0u32..5, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| x < 5));
        }

        #[test]
        fn tuples_and_prop_map(spec in (1usize..4, 0.0f64..1.0).prop_map(|(n, p)| (n * 2, p)) ) {
            let (n, p) = spec;
            prop_assert_eq!(n % 2, 0);
            prop_assert!((0.0..1.0).contains(&p));
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::TestRng::from_name("t");
        let mut b = crate::TestRng::from_name("t");
        let s = 0usize..1000;
        for _ in 0..32 {
            assert_eq!(
                Strategy::new_value(&s, &mut a),
                Strategy::new_value(&s, &mut b)
            );
        }
    }
}
