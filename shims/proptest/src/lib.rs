//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this crate implements
//! the subset of proptest the workspace's property tests use: the
//! `proptest!` macro (with `#![proptest_config(...)]` and both
//! `name in strategy` and `name: Type` parameters), numeric-range and
//! tuple strategies, `any::<T>()`, `Just`, `prop_oneof!`,
//! `prop::collection::vec`, `.prop_map`, and the `prop_assert*` macros.
//!
//! Semantics: each test runs `cases` iterations against values drawn from
//! a deterministic SplitMix64-seeded generator (override the base seed
//! with `PROPTEST_SEED=<u64>`). On failure the offending input is
//! regenerated and printed. There is **no shrinking** — failures report
//! the raw counterexample.

pub mod arbitrary;
pub mod config;
pub mod error;
pub mod runner;
pub mod strategy;

/// Namespace mirror of `proptest::prop` as used via the prelude
/// (`prop::collection::vec(...)`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        pub use crate::strategy::{vec, SizeRange, VecStrategy};
    }
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::config::ProptestConfig;
    pub use crate::error::TestCaseError;
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

pub use config::ProptestConfig;
pub use error::TestCaseError;
pub use strategy::{BoxedStrategy, Just, Strategy};

/// Fail the current test case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Skip the current test case (without failing) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        $crate::prop_assume!($cond, concat!("assumption failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::reject(format!($($fmt)*)));
        }
    };
}

/// Fail the current test case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` != `{:?}` ({} != {})",
            l, r, stringify!($left), stringify!($right)
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` != `{:?}`: {}",
            l, r, format!($($fmt)*)
        );
    }};
}

/// Fail the current test case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: both sides are `{:?}` ({} == {})",
            l,
            stringify!($left),
            stringify!($right)
        );
    }};
}

/// Choose uniformly between several strategies producing the same value
/// type (the unweighted form only — weights are not supported).
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Define property tests. Supports an optional leading
/// `#![proptest_config(expr)]` and any number of test functions whose
/// parameters are either `name in strategy` or `name: Type` (the latter
/// drawing from `any::<Type>()`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr) $(#[$meta:meta])* fn $name:ident($($params:tt)*) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            $crate::__proptest_parse!($cfg, stringify!($name), $body, [] [] $($params)*);
        }
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_parse {
    // All parameters consumed: run the cases.
    ($cfg:expr, $id:expr, $body:block, [$(($n:ident))*] [$($s:expr;)*]) => {
        $crate::runner::run($cfg, $id, &($($s,)*), |($($n,)*)| {
            $body
            #[allow(
                unreachable_code,
                reason = "a body that ends in `return` or a panic leaves this `Ok` unreachable"
            )]
            ::core::result::Result::Ok(())
        });
    };
    ($cfg:expr, $id:expr, $body:block, [$($ns:tt)*] [$($ss:tt)*] $n:ident in $s:expr, $($rest:tt)*) => {
        $crate::__proptest_parse!($cfg, $id, $body, [$($ns)* ($n)] [$($ss)* $s;] $($rest)*);
    };
    ($cfg:expr, $id:expr, $body:block, [$($ns:tt)*] [$($ss:tt)*] $n:ident in $s:expr) => {
        $crate::__proptest_parse!($cfg, $id, $body, [$($ns)* ($n)] [$($ss)* $s;]);
    };
    ($cfg:expr, $id:expr, $body:block, [$($ns:tt)*] [$($ss:tt)*] $n:ident: $t:ty, $($rest:tt)*) => {
        $crate::__proptest_parse!($cfg, $id, $body,
            [$($ns)* ($n)] [$($ss)* $crate::arbitrary::any::<$t>();] $($rest)*);
    };
    ($cfg:expr, $id:expr, $body:block, [$($ns:tt)*] [$($ss:tt)*] $n:ident: $t:ty) => {
        $crate::__proptest_parse!($cfg, $id, $body,
            [$($ns)* ($n)] [$($ss)* $crate::arbitrary::any::<$t>();]);
    };
}
