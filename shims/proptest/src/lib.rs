//! In-tree shim for the `proptest` crate (the build environment is offline).
//!
//! Supports the subset the workspace's property tests use: the [`proptest!`]
//! macro with `arg in strategy` bindings, numeric [`Range`] strategies,
//! `proptest::collection::vec`, and the `prop_assert!`/`prop_assert_eq!`
//! assertions. Each test runs a fixed number of random cases drawn from a
//! deterministic per-test stream (seeded by the test name), so failures are
//! reproducible; shrinking is not implemented.

#![deny(missing_docs)]

use std::ops::Range;

/// Number of random cases each `proptest!` test executes.
pub const CASES: usize = 64;

/// Deterministic per-test random stream (SplitMix64 seeded by test name).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a stream seeded from the test name.
    pub fn new(name: &str) -> Self {
        let mut state = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            state ^= u64::from(b);
            state = state.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self { state }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A value generator, mirroring proptest's `Strategy` in spirit.
pub trait Strategy {
    /// The generated value type.
    type Value;
    /// Draws one value from the strategy.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut TestRng) -> f32 {
        self.start + (self.end - self.start) * rng.unit_f64() as f32
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

macro_rules! int_strategy {
    ($($ty:ty),+) => {
        $(impl Strategy for Range<$ty> {
            type Value = $ty;
            fn sample(&self, rng: &mut TestRng) -> $ty {
                let span = (self.end - self.start) as u64;
                assert!(span > 0, "empty integer strategy range");
                self.start + (rng.next_u64() % span) as $ty
            }
        })+
    };
}
int_strategy!(u8, u16, u32, usize, i32);

/// Strategies over collections.
pub mod collection {
    use super::{Range, Strategy, TestRng};

    /// Strategy producing `Vec`s with lengths drawn from `len` and elements
    /// drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.sample(rng);
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

/// The common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, proptest, Strategy};
}

/// Fails the current case with a message unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("prop_assert failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Fails the current case unless both expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        if !(l == r) {
            return Err(format!(
                "prop_assert_eq failed: {} != {}",
                stringify!($left),
                stringify!($right)
            ));
        }
    }};
}

/// Declares property tests: each `#[test] fn name(arg in strategy, ...)`
/// item expands to a normal test running [`CASES`] random cases.
#[macro_export]
macro_rules! proptest {
    ($( #[test] fn $name:ident ( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block )+) => {
        $(
            #[test]
            fn $name() {
                let mut proptest_rng = $crate::TestRng::new(stringify!($name));
                for case in 0..$crate::CASES {
                    $( let $arg = $crate::Strategy::sample(&($strategy), &mut proptest_rng); )+
                    let outcome = (|| -> ::std::result::Result<(), String> {
                        $body
                        Ok(())
                    })();
                    if let Err(message) = outcome {
                        panic!("property {} failed on case {case}: {message}", stringify!($name));
                    }
                }
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::new("bounds");
        for _ in 0..1000 {
            let x = (0.5f32..2.0).sample(&mut rng);
            assert!((0.5..2.0).contains(&x));
            let n = (3usize..9).sample(&mut rng);
            assert!((3..9).contains(&n));
        }
    }

    proptest! {
        #[test]
        fn shim_self_test(values in crate::collection::vec(-1.0f32..1.0, 1..16), n in 1usize..8) {
            prop_assert!(!values.is_empty());
            prop_assert!(values.len() < 16);
            prop_assert_eq!(n.min(8), n);
            prop_assert!(values.iter().all(|v| (-1.0..1.0).contains(v)));
        }
    }
}
