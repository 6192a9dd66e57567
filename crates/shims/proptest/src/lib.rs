//! Vendored stand-in for [proptest](https://crates.io/crates/proptest).
//!
//! The build environment has no crates-registry access, so the workspace
//! vendors the subset of proptest its property tests use:
//!
//! * [`Strategy`] with `prop_map` and `boxed`, implemented for integer and
//!   float ranges, strategy tuples, [`Just`] and simple character-class
//!   string patterns (`"[a-z0-9 ]{0,200}"`),
//! * [`prop_oneof!`], [`proptest!`], [`prop_assert!`], [`prop_assert_eq!`],
//! * `prop::collection::vec`.
//!
//! Differences from the real crate, on purpose: generation is seeded and
//! deterministic (same values every run, good for CI), there is **no
//! shrinking** (a failing case prints its inputs via the panic message
//! instead of minimising them), and `prop_assert*` panics instead of
//! returning `Err`. Swap the real proptest back in for exploratory testing;
//! call sites need no changes.

use std::ops::Range;
use std::rc::Rc;

/// Deterministic generator used by the [`proptest!`] runner (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Fixed-seed generator so CI failures reproduce locally.
    pub fn deterministic() -> Self {
        TestRng {
            state: 0x5EED_CAFE_F00D_0001,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let raw = self.next_u64();
            if raw < zone {
                return raw % span;
            }
        }
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Run configuration, mirroring `proptest::test_runner::Config`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A generator of values, mirroring `proptest::strategy::Strategy`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erase the strategy. The result is cheaply cloneable.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.generate(rng)))
    }
}

/// Type-erased, cloneable strategy, mirroring `proptest::strategy::BoxedStrategy`.
pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Always yields a clone of the wrapped value, mirroring `proptest::strategy::Just`.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice between strategies; what [`prop_oneof!`] builds.
pub struct Union<T>(Vec<BoxedStrategy<T>>);

impl<T> Union<T> {
    /// A union over the given (type-erased) alternatives.
    pub fn new(alternatives: Vec<BoxedStrategy<T>>) -> Self {
        assert!(
            !alternatives.is_empty(),
            "prop_oneof! needs at least one alternative"
        );
        Union(alternatives)
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let idx = rng.below(self.0.len() as u64) as usize;
        self.0[idx].generate(rng)
    }
}

impl Strategy for Range<i64> {
    type Value = i64;

    fn generate(&self, rng: &mut TestRng) -> i64 {
        assert!(self.start < self.end, "empty i64 range strategy");
        let span = self.end.wrapping_sub(self.start) as u64;
        self.start.wrapping_add(rng.below(span) as i64)
    }
}

impl Strategy for Range<usize> {
    type Value = usize;

    fn generate(&self, rng: &mut TestRng) -> usize {
        assert!(self.start < self.end, "empty usize range strategy");
        self.start + rng.below((self.end - self.start) as u64) as usize
    }
}

impl Strategy for Range<u32> {
    type Value = u32;

    fn generate(&self, rng: &mut TestRng) -> u32 {
        assert!(self.start < self.end, "empty u32 range strategy");
        self.start + rng.below((self.end - self.start) as u64) as u32
    }
}

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty f64 range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A: 0);
tuple_strategy!(A: 0, B: 1);
tuple_strategy!(A: 0, B: 1, C: 2);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// String-pattern strategies. Only `[character class]{lo,hi}` patterns are
/// supported — exactly what the repository's property tests use. Anything
/// else panics loudly rather than silently generating the wrong language.
impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let (alphabet, lo, hi) = parse_char_class_pattern(self);
        let len = lo + rng.below((hi - lo + 1) as u64) as usize;
        (0..len)
            .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
            .collect()
    }
}

fn parse_char_class_pattern(pattern: &str) -> (Vec<char>, usize, usize) {
    macro_rules! unsupported {
        () => {
            panic!(
                "proptest shim only supports `[class]{{lo,hi}}` string patterns, got {pattern:?}; \
                 vendor more of the real proptest if you need richer patterns"
            )
        };
    }
    let Some(rest) = pattern.strip_prefix('[') else {
        unsupported!()
    };
    let Some((class, rest)) = rest.split_once(']') else {
        unsupported!()
    };
    let Some(bounds) = rest.strip_prefix('{').and_then(|r| r.strip_suffix('}')) else {
        unsupported!()
    };
    let Some((lo, hi)) = bounds.split_once(',') else {
        unsupported!()
    };
    let (lo, hi): (usize, usize) = match (lo.trim().parse(), hi.trim().parse()) {
        (Ok(lo), Ok(hi)) if lo <= hi => (lo, hi),
        _ => unsupported!(),
    };

    let mut alphabet = Vec::new();
    let chars: Vec<char> = class.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if i + 2 < chars.len() && chars[i + 1] == '-' {
            let (a, b) = (chars[i], chars[i + 2]);
            assert!(a <= b, "descending range {a}-{b} in pattern {pattern:?}");
            alphabet.extend((a..=b).filter(|c| c.is_ascii()));
            i += 3;
        } else if chars[i] == '\\' && i + 1 < chars.len() {
            alphabet.push(match chars[i + 1] {
                'n' => '\n',
                't' => '\t',
                c => c,
            });
            i += 2;
        } else {
            alphabet.push(chars[i]);
            i += 1;
        }
    }
    assert!(
        !alphabet.is_empty(),
        "empty character class in pattern {pattern:?}"
    );
    (alphabet, lo, hi)
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec`s with element strategy `element` and a length
    /// drawn uniformly from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// The result of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.len.clone().generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Mirrors the `prop` module path used as `prop::collection::vec`.
pub mod prop {
    pub use crate::collection;
}

/// Everything the property tests import, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        collection, prop, prop_assert, prop_assert_eq, prop_oneof, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy,
    };
}

/// Uniform choice among strategies, mirroring `proptest::prop_oneof!`.
#[macro_export]
macro_rules! prop_oneof {
    ($($alternative:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($alternative)),+])
    };
}

/// Assert inside a property, mirroring `proptest::prop_assert!` (panics
/// instead of returning `Err` — see the crate docs).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Equality assert inside a property, mirroring `proptest::prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Define property tests, mirroring `proptest::proptest!`. Supports the
/// `#![proptest_config(...)]` header and any number of `fn name(pat in
/// strategy, ...) { body }` items with outer attributes (doc comments,
/// `#[test]`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@items ($config); $($rest)*);
    };
    (@items ($config:expr); $(#[$meta:meta])* fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut rng = $crate::TestRng::deterministic();
            // Build the strategy tree once per test, not once per case
            // (matches real proptest, and matters for recursive strategies).
            let strategies = ($($strategy,)+);
            for _case in 0..config.cases {
                let ($($pat,)+) = $crate::Strategy::generate(&strategies, &mut rng);
                $body
            }
        }
        $crate::proptest!(@items ($config); $($rest)*);
    };
    (@items ($config:expr);) => {};
    ($($rest:tt)*) => {
        $crate::proptest!(@items ($crate::ProptestConfig::default()); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::deterministic();
        for _ in 0..1000 {
            let v = Strategy::generate(&(-5i64..7), &mut rng);
            assert!((-5..7).contains(&v));
            let u = Strategy::generate(&(3usize..4), &mut rng);
            assert_eq!(u, 3);
            let f = Strategy::generate(&(-1.0f64..1.0), &mut rng);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn char_class_patterns_generate_only_class_members() {
        let mut rng = crate::TestRng::deterministic();
        for _ in 0..200 {
            let s = Strategy::generate(&"[a-c0-1 \\n]{0,20}", &mut rng);
            assert!(s.len() <= 20);
            assert!(
                s.chars()
                    .all(|c| matches!(c, 'a'..='c' | '0' | '1' | ' ' | '\n')),
                "{s:?}"
            );
        }
    }

    #[test]
    fn oneof_union_and_map_compose() {
        let mut rng = crate::TestRng::deterministic();
        let strat = prop_oneof![
            (0i64..10).prop_map(|v| v.to_string()),
            prop_oneof![Just("x".to_string()), Just("y".to_string())],
        ];
        let mut saw_digit = false;
        let mut saw_letter = false;
        for _ in 0..200 {
            let s = Strategy::generate(&strat, &mut rng);
            match s.as_str() {
                "x" | "y" => saw_letter = true,
                other => {
                    assert!(other.parse::<i64>().is_ok());
                    saw_digit = true;
                }
            }
        }
        assert!(saw_digit && saw_letter);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself works end-to-end, including tuple patterns and
        /// collection strategies.
        #[test]
        fn macro_generates_cases(x in 0i64..100, pairs in collection::vec((0i64..3, 0.0f64..1.0), 0..5)) {
            prop_assert!((0..100).contains(&x));
            prop_assert!(pairs.len() < 5);
            for (a, b) in pairs {
                prop_assert!((0..3).contains(&a));
                prop_assert!((0.0..1.0).contains(&b));
            }
        }
    }
}
