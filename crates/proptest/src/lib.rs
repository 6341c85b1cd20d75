//! An **offline, in-workspace stand-in** for the [`proptest`] crate.
//!
//! The build environment of this repository has no access to crates.io, so
//! this crate re-implements the (small) part of proptest's API the workspace
//! tests use: the [`proptest!`] macro with `name in strategy` bindings, the
//! `prop_assert*` / [`prop_assume!`] macros, [`ProptestConfig::with_cases`],
//! integer-range and boolean strategies, tuple strategies,
//! [`collection::vec`], [`Strategy::prop_map`], and the edge-biased
//! [`char::any`], [`num::f64::ANY`] and [`option::of`] the codec
//! round-trip tests draw their strings, floats and `Option`s from.
//!
//! Differences from the real crate, by design:
//!
//! * **no shrinking** — a failing case reports its inputs but is not
//!   minimized;
//! * **deterministic runs** — the RNG is seeded from the test name, so a
//!   failure always reproduces (there is no `PROPTEST_` env handling);
//! * strategies are plain value generators (`prop_map` is the only
//!   combinator, because it is the only one the workspace uses).
//!
//! If the repository ever gains registry access, deleting this crate and the
//! corresponding `[dependencies]` path entries restores the real proptest
//! without touching any test code.
//!
//! [`proptest`]: https://docs.rs/proptest

#![forbid(unsafe_code)]

use smst_rng::SeedableRng;
use std::fmt;
use std::ops::Range;

/// Test-case failure raised by the `prop_assert*` macros.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Execution parameters of a [`proptest!`] block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// The deterministic RNG driving a test; seeded from the test's name.
pub type TestRng = smst_rng::Pcg64;

/// Builds the per-test RNG (FNV-1a over the test name, so each test gets an
/// independent but reproducible stream).
pub fn rng_for(test_name: &str) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    TestRng::seed_from_u64(h)
}

/// A generator of random values (the sampling half of proptest's trait).
pub trait Strategy {
    /// The generated type.
    type Value: fmt::Debug;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// A strategy producing `f(value)` for every value of this one.
    fn prop_map<T: fmt::Debug, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { source: self, f }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S: Strategy, T: fmt::Debug, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.f)(self.source.sample(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                smst_rng::Rng::gen_range(rng, self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);

/// Boolean strategies.
pub mod bool {
    use super::{Strategy, TestRng};

    /// Uniformly random booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The uniform boolean strategy (`proptest::bool::ANY`).
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            smst_rng::Rng::gen(rng)
        }
    }
}

/// Character strategies.
pub mod char {
    use super::{Strategy, TestRng};
    use smst_rng::Rng as _;

    /// See [`any()`].
    #[derive(Debug, Clone, Copy)]
    pub struct CharStrategy;

    /// Any `char`, biased (like the real crate's) toward the ones text
    /// handling gets wrong: a quarter control bytes, a quarter quote /
    /// backslash / slash / DEL, a quarter printable ASCII, the rest any
    /// scalar value up to the non-BMP planes.
    pub fn any() -> CharStrategy {
        CharStrategy
    }

    impl Strategy for CharStrategy {
        type Value = char;
        fn sample(&self, rng: &mut TestRng) -> char {
            match rng.gen_range(0..4u32) {
                0 => char::from(rng.gen_range(0..0x20u8)),
                1 => ['"', '\\', '/', '\u{7f}'][rng.gen_range(0..4usize)],
                2 => char::from(rng.gen_range(0x20..0x7fu8)),
                // surrogates are not scalar values; fall back to a
                // non-BMP character instead of redrawing
                _ => char::from_u32(rng.gen_range(0x80..0x11_0000u32)).unwrap_or('\u{1f600}'),
            }
        }
    }
}

/// `Option` strategies.
pub mod option {
    use super::{Strategy, TestRng};

    /// See [`of()`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S>(S);

    /// `None` a quarter of the time, otherwise `Some` of `inner`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            (smst_rng::Rng::gen_range(rng, 0..4u32) > 0).then(|| self.0.sample(rng))
        }
    }
}

/// Numeric strategies beyond the integer ranges.
pub mod num {
    /// `f64` strategies.
    pub mod f64 {
        use crate::{Strategy, TestRng};
        use smst_rng::Rng as _;

        /// See [`ANY`].
        #[derive(Debug, Clone, Copy)]
        pub struct Any;

        /// Any `f64` bit pattern class: mostly finite values of every
        /// magnitude and sign (zeros and subnormals included), one draw in
        /// eight NaN or an infinity.
        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = f64;
            fn sample(&self, rng: &mut TestRng) -> f64 {
                const EDGES: [f64; 8] = [
                    0.0,
                    -0.0,
                    1e-7,
                    f64::MIN_POSITIVE,
                    f64::MAX,
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                ];
                match rng.gen_range(0..4u32) {
                    0 => EDGES[rng.gen_range(0..EDGES.len())],
                    1 => rng.gen_range(0..2_000_000u64) as f64 / 1000.0 - 1000.0,
                    _ => f64::from_bits(rng.gen()),
                }
            }
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A length distribution for [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end.max(r.start + 1),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    /// Generates `Vec`s whose elements come from `element` and whose length
    /// comes from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = smst_rng::Rng::gen_range(rng, self.size.lo..self.size.hi_exclusive);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a test module needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
        Strategy, TestCaseError,
    };
}

/// Defines property tests. See the crate docs for the supported subset.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )+
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::rng_for(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..config.cases {
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                    let inputs = format!(
                        concat!($(stringify!($arg), " = {:?}, "),+),
                        $(&$arg),+
                    );
                    let result: ::std::result::Result<(), $crate::TestCaseError> =
                        (move || {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = result {
                        panic!(
                            "proptest case {}/{} failed: {}\n  inputs: {}",
                            case + 1,
                            config.cases,
                            e,
                            inputs
                        );
                    }
                }
            }
        )+
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )+
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($arg in $strat),+) $body
            )+
        }
    };
}

/// `assert!` that reports the failing inputs instead of unwinding through
/// them (returns an `Err` from the case closure).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError(format!($($fmt)*)));
        }
    };
}

/// `assert_eq!` for property tests.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "{}\n  left: {:?}\n right: {:?}",
            format!($($fmt)+),
            l,
            r
        );
    }};
}

/// `assert_ne!` for property tests.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "{}\n  both: {:?}",
            format!($($fmt)+),
            l
        );
    }};
}

/// Skips the current case when its inputs do not satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            // no shrinking / rejection accounting: an assumed-away case
            // simply passes
            return ::std::result::Result::Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        use smst_rng::RngCore;
        let mut a = crate::rng_for("x");
        let mut b = crate::rng_for("x");
        let mut c = crate::rng_for("y");
        assert_eq!(a.next_u64(), b.next_u64());
        let _ = c.next_u64();
    }

    proptest! {
        #[test]
        fn ranges_respected(x in 3usize..9, y in 0u64..5) {
            prop_assert!((3..9).contains(&x));
            prop_assert!(y < 5);
        }

        #[test]
        fn tuples_and_vecs(v in crate::collection::vec((0usize..4, 0usize..4), 0..10)) {
            prop_assert!(v.len() < 10);
            for (a, b) in v {
                prop_assert!(a < 4 && b < 4);
            }
        }

        #[test]
        fn mapped_chars_options_and_floats(
            text in crate::collection::vec(crate::char::any(), 0..8)
                .prop_map(|cs| cs.into_iter().collect::<String>()),
            opt in crate::option::of(0usize..3),
            x in crate::num::f64::ANY,
        ) {
            prop_assert!(text.chars().count() < 8);
            prop_assert!(opt.is_none_or(|v| v < 3));
            prop_assert!(x.is_nan() || x == x);
        }

        #[test]
        fn bools_and_assume(b in crate::bool::ANY, x in 0u32..10) {
            prop_assume!(x != 3);
            prop_assert_ne!(x, 3);
            let _ = b;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]
        #[test]
        fn config_applies(x in 0u8..1) {
            prop_assert_eq!(x, 0);
        }
    }
}
