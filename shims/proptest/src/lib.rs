//! Offline shim for the `proptest` surface the PerPos workspace uses.
//!
//! Supported: the [`proptest!`] macro (with `#![proptest_config(..)]`),
//! [`prop_assert!`]/[`prop_assert_eq!`], [`prelude::any`], numeric range
//! strategies, regex-literal string strategies (a practical subset),
//! [`collection::vec`], [`option::of`], tuple strategies, and an explicit
//! [`test_runner::TestRunner`].
//!
//! Differences from real proptest: sampling is driven by a fixed-seed
//! deterministic RNG (runs are reproducible everywhere) and failures are
//! reported without shrinking — the failing input is printed as-is.

use std::fmt;
use std::ops::{Range, RangeInclusive};

mod rng;
mod string;

pub use rng::SampleRng;

/// A generator of test inputs.
///
/// Unlike real proptest there is no value tree: strategies sample directly
/// and failures are reported unshrunk.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut SampleRng) -> Self::Value;
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn sample(&self, rng: &mut SampleRng) -> Self::Value {
        (**self).sample(rng)
    }
}

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut SampleRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;

    fn sample(&self, rng: &mut SampleRng) -> f32 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.unit_f64() as f32 * (self.end - self.start)
    }
}

macro_rules! impl_strategy_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut SampleRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut SampleRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty strategy range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (start as i128 + v as i128) as $t
            }
        }
    )*};
}
impl_strategy_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// A `&str` is interpreted as a regex and generates matching strings.
///
/// Supported subset: literals, `.`, `[...]` classes with ranges, `(...)`
/// groups, and the quantifiers `{n}`, `{n,m}`, `?`, `*`, `+`.
impl Strategy for str {
    type Value = String;

    fn sample(&self, rng: &mut SampleRng) -> String {
        string::sample_regex(self, rng)
    }
}

macro_rules! impl_strategy_tuple {
    ($(($($s:ident $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut SampleRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}
impl_strategy_tuple! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8, J 9)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8, J 9, K 10)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8, J 9, K 10, L 11)
}

/// `any::<T>()` support (see [`arbitrary::any`]).
pub mod arbitrary {
    use super::{SampleRng, Strategy};
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one value from the type's whole domain.
        fn arbitrary_sample(rng: &mut SampleRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_sample(rng: &mut SampleRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary_sample(rng: &mut SampleRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary_sample(rng: &mut SampleRng) -> Self {
            rng.unit_f64() * 2e6 - 1e6
        }
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut SampleRng) -> T {
            T::arbitrary_sample(rng)
        }
    }

    /// The canonical strategy for `T`'s whole domain.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{SampleRng, Strategy};
    use std::ops::Range;

    /// Accepted sizes for a generated collection.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                min: r.start,
                max_exclusive: r.end,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                min: n,
                max_exclusive: n + 1,
            }
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut SampleRng) -> Vec<S::Value> {
            let span = (self.size.max_exclusive - self.size.min) as u64;
            let len = self.size.min + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Generates a `Vec` whose length lies in `size`, with elements drawn
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Option strategies (`proptest::option::of`).
pub mod option {
    use super::{SampleRng, Strategy};

    /// Strategy returned by [`of`].
    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn sample(&self, rng: &mut SampleRng) -> Option<S::Value> {
            // ~25% None, matching real proptest's default weighting.
            if rng.next_u64().is_multiple_of(4) {
                None
            } else {
                Some(self.0.sample(rng))
            }
        }
    }

    /// Generates `None` some of the time, otherwise `Some` of `inner`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }
}

/// The execution harness (`proptest::test_runner`).
pub mod test_runner {
    use super::{fmt, SampleRng, Strategy};

    /// A single test case's failure.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Fails the current case with `message`.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError(message.into())
        }

        /// Real proptest distinguishes rejects from failures; the shim
        /// treats both as failures.
        pub fn reject(message: impl Into<String>) -> Self {
            TestCaseError(message.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    impl std::error::Error for TestCaseError {}

    /// Result type returned by a property closure.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Whole-run failure: the input that failed plus the case's message.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TestError {
        /// `Debug` rendering of the failing input (unshrunk).
        pub input: String,
        /// The failing case's message (assertion text or panic payload).
        pub message: String,
    }

    impl fmt::Display for TestError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(
                f,
                "property failed: {}; failing input (unshrunk): {}",
                self.message, self.input
            )
        }
    }

    impl std::error::Error for TestError {}

    /// Runner configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Deterministic, non-shrinking property runner.
    #[derive(Debug)]
    pub struct TestRunner {
        config: ProptestConfig,
        rng: SampleRng,
    }

    impl Default for TestRunner {
        fn default() -> Self {
            TestRunner::new(ProptestConfig::default())
        }
    }

    impl TestRunner {
        /// Creates a runner with `config`, seeded deterministically.
        pub fn new(config: ProptestConfig) -> Self {
            TestRunner {
                config,
                rng: SampleRng::seeded(0x5EED_CAFE_F00D_D00D),
            }
        }

        /// Runs `test` against `config.cases` sampled inputs.
        ///
        /// # Errors
        ///
        /// Returns the first failing input (no shrinking) with the case's
        /// message; panics inside the closure are caught and reported the
        /// same way.
        pub fn run<S, F>(&mut self, strategy: &S, mut test: F) -> Result<(), TestError>
        where
            S: Strategy,
            S::Value: fmt::Debug,
            F: FnMut(S::Value) -> TestCaseResult,
        {
            for _ in 0..self.config.cases {
                let input = strategy.sample(&mut self.rng);
                let rendered = format!("{input:?}");
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| test(input)));
                let message = match outcome {
                    Ok(Ok(())) => continue,
                    Ok(Err(e)) => e.0,
                    // `&*` so the Box's contents (not the Box itself)
                    // become the `dyn Any` we downcast.
                    Err(panic) => panic_message(&*panic),
                };
                return Err(TestError {
                    input: rendered,
                    message,
                });
            }
            Ok(())
        }
    }

    fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
        if let Some(s) = panic.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = panic.downcast_ref::<String>() {
            s.clone()
        } else {
            "test case panicked".to_string()
        }
    }
}

/// The usual imports (`use proptest::prelude::*;`).
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult, TestRunner};
    pub use crate::Strategy;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Fails the current property case when `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fails the current property case when the operands differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Fails the current property case when the operands are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Declares `#[test]` functions whose arguments are sampled from
/// strategies: `fn name(arg in strategy, ...) { body }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let mut runner = $crate::test_runner::TestRunner::new($cfg);
            let result = runner.run(&($($strat,)+), |($($arg,)+)| {
                $body
                ::core::result::Result::Ok(())
            });
            if let ::core::result::Result::Err(e) = result {
                panic!("{}", e);
            }
        }
        $crate::__proptest_items!(($cfg) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::{collection, option};

    #[test]
    fn ranges_sample_in_bounds() {
        let mut runner = TestRunner::default();
        runner
            .run(&(-5.0f64..5.0, 1u8..9), |(f, i)| {
                prop_assert!((-5.0..5.0).contains(&f), "{f}");
                prop_assert!((1..9).contains(&i), "{i}");
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn failing_property_reports_input() {
        let mut runner = TestRunner::new(ProptestConfig::with_cases(50));
        let err = runner
            .run(&(0u32..100,), |(v,)| {
                prop_assert!(v < 10, "too big: {v}");
                Ok(())
            })
            .unwrap_err();
        assert!(err.message.starts_with("too big"), "{err}");
    }

    #[test]
    fn panics_are_reported_not_propagated() {
        let mut runner = TestRunner::new(ProptestConfig::with_cases(5));
        let err = runner
            .run(&(0u32..10,), |(_v,)| {
                panic!("boom");
            })
            .unwrap_err();
        assert_eq!(err.message, "boom");
    }

    #[test]
    fn vec_and_option_strategies_compose() {
        let mut runner = TestRunner::new(ProptestConfig::with_cases(100));
        let mut saw_none = false;
        let mut saw_some = false;
        runner
            .run(
                &(
                    collection::vec(collection::vec(any::<u8>(), 0..4), 0..6),
                    option::of(0i64..5),
                ),
                |(vv, _opt)| {
                    prop_assert!(vv.len() < 6);
                    prop_assert!(vv.iter().all(|v| v.len() < 4));
                    Ok(())
                },
            )
            .unwrap();
        let mut rng = crate::SampleRng::seeded(42);
        for _ in 0..64 {
            use crate::Strategy;
            match option::of(0i64..5).sample(&mut rng) {
                None => saw_none = true,
                Some(v) => {
                    assert!((0..5).contains(&v));
                    saw_some = true;
                }
            }
        }
        assert!(saw_none && saw_some);
    }

    #[test]
    fn regex_strategies_match_shape() {
        use crate::Strategy;
        let mut rng = crate::SampleRng::seeded(7);
        for _ in 0..200 {
            let s = "[A-Z]{5}".sample(&mut rng);
            assert_eq!(s.chars().count(), 5, "{s:?}");
            assert!(s.chars().all(|c| c.is_ascii_uppercase()), "{s:?}");

            let s = ".{0,20}".sample(&mut rng);
            assert!(s.chars().count() <= 20, "{s:?}");

            let s = "[ -)+-~]{0,60}".sample(&mut rng);
            assert!(
                s.chars()
                    .all(|c| (' '..=')').contains(&c) || ('+'..='~').contains(&c)),
                "{s:?}"
            );

            let s = "[A-Z]{2}(,[-0-9A-Za-z.]{0,3}){0,4}".sample(&mut rng);
            let mut parts = s.split(',');
            let head = parts.next().unwrap();
            assert_eq!(head.len(), 2, "{s:?}");
            for p in parts {
                assert!(p.len() <= 3, "{s:?}");
                assert!(
                    p.chars()
                        .all(|c| c == '-' || c == '.' || c.is_ascii_alphanumeric()),
                    "{s:?}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        /// The macro form compiles, samples, and threads doc attributes.
        fn macro_form_works(a in 0usize..8, b in 0usize..8) {
            prop_assert!(a < 8 && b < 8);
            prop_assert_eq!(a + b, b + a);
        }
    }
}
