//! # manet-testkit
//!
//! A minimal, fully deterministic property-testing harness — the in-tree
//! replacement for `proptest` in this zero-dependency workspace.
//!
//! A property is an ordinary test body that draws its inputs from a
//! [`Gen`] and asserts with plain `assert!`/`assert_eq!`. The
//! [`prop_check!`] macro wraps it into a `#[test]` that runs `cases`
//! seeded cases; case seeds are a pure function of the test's name and
//! the case index, so every run of every checkout explores the same
//! inputs — failures reproduce without a regression file.
//!
//! On a failing case the harness reports the case index, the seed, and
//! every generated input, then re-raises the panic:
//!
//! ```text
//! testkit: property 'geometry_properties::intc_is_bounded' failed at case 17/256 (seed 0x3a4c…)
//! testkit:   f64_in(0.0..5000.0) -> 4711.3
//! testkit: rerun just this case with TESTKIT_SEED=0x3a4c…
//! ```
//!
//! Environment overrides:
//!
//! * `TESTKIT_CASES=N` — run `N` cases per property instead of each
//!   property's configured count (like `PROPTEST_CASES`).
//! * `TESTKIT_SEED=0xHEX|decimal` — run exactly one case with that seed,
//!   for reproducing a reported failure.
//!
//! The crate also carries [`CountingAlloc`], the counting
//! `#[global_allocator]` the allocation-bounding integration tests install
//! (the workspace's one piece of `unsafe`).
//!
//! # Examples
//!
//! ```
//! use manet_testkit::prop_check;
//!
//! prop_check! {
//!     /// Addition never loses either operand.
//!     fn sum_bounds(g, cases = 64) {
//!         let a = g.u32_in(0..1000);
//!         let b = g.u32_in(0..1000);
//!         assert!(a + b >= a.max(b));
//!     }
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alloc;
mod gen;

pub use alloc::{AllocStats, CountingAlloc};
pub use gen::Gen;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Cases run per property when neither the property nor the environment
/// says otherwise (matches proptest's default).
pub const DEFAULT_CASES: u64 = 256;

/// Runs `cases` seeded cases of `property`, honouring the `TESTKIT_CASES`
/// and `TESTKIT_SEED` environment overrides. Called by [`prop_check!`];
/// not usually invoked directly.
///
/// # Panics
///
/// Re-raises the property's panic after printing the failing case's seed
/// and generated inputs.
pub fn run_cases(name: &str, cases: u64, mut property: impl FnMut(&mut Gen)) {
    if let Some(seed) = env_u64("TESTKIT_SEED") {
        eprintln!("testkit: running single case of '{name}' with TESTKIT_SEED={seed:#x}");
        run_one(name, seed, 0, 1, &mut property);
        return;
    }
    let cases = env_u64("TESTKIT_CASES").unwrap_or(cases).max(1);
    for case in 0..cases {
        let seed = case_seed(name, case);
        run_one(name, seed, case, cases, &mut property);
    }
}

fn run_one(name: &str, seed: u64, case: u64, cases: u64, property: &mut impl FnMut(&mut Gen)) {
    let mut g = Gen::from_seed(seed);
    if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut g))) {
        eprintln!("testkit: property '{name}' failed at case {case}/{cases} (seed {seed:#x})");
        for line in g.trace() {
            eprintln!("testkit:   {line}");
        }
        eprintln!("testkit: rerun just this case with TESTKIT_SEED={seed:#x}");
        resume_unwind(panic);
    }
}

/// The seed of one case: a pure function of the property name and the
/// case index, stable across runs, checkouts, and platforms.
pub fn case_seed(name: &str, case: u64) -> u64 {
    splitmix64(fnv1a(name.as_bytes()) ^ splitmix64(case))
}

fn env_u64(var: &str) -> Option<u64> {
    let raw = std::env::var(var).ok()?;
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("{var} must be a u64 (decimal or 0x-hex), got '{raw}'"),
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Declares property tests.
///
/// Each `fn name(g) { … }` becomes a `#[test]` running
/// [`DEFAULT_CASES`] seeded cases; `fn name(g, cases = N)` overrides the
/// count. The body receives `g: &mut Gen` to draw inputs from.
///
/// ```
/// use manet_testkit::prop_check;
///
/// prop_check! {
///     /// Reversing twice is the identity.
///     fn double_reverse(g) {
///         let v = g.vec(0..20, |g| g.u32_in(0..100));
///         let mut w = v.clone();
///         w.reverse();
///         w.reverse();
///         assert_eq!(v, w);
///     }
/// }
/// ```
#[macro_export]
macro_rules! prop_check {
    ($($(#[$meta:meta])* fn $name:ident($g:ident $(, cases = $cases:expr)?) $body:block)+) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                #[allow(unused_mut, unused_assignments)]
                let mut cases: u64 = $crate::DEFAULT_CASES;
                $(cases = $cases;)?
                $crate::run_cases(
                    concat!(module_path!(), "::", stringify!($name)),
                    cases,
                    |$g: &mut $crate::Gen| $body,
                );
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_are_stable_and_name_sensitive() {
        assert_eq!(case_seed("a::b", 0), case_seed("a::b", 0));
        assert_ne!(case_seed("a::b", 0), case_seed("a::b", 1));
        assert_ne!(case_seed("a::b", 0), case_seed("a::c", 0));
    }

    #[test]
    fn generators_respect_ranges() {
        run_cases("testkit::selfcheck::ranges", 512, |g| {
            let a = g.u32_in(3..17);
            assert!((3..17).contains(&a));
            let b = g.usize_in(0..1);
            assert_eq!(b, 0);
            let c = g.f64_in(-2.0..2.0);
            assert!((-2.0..2.0).contains(&c));
            let d = g.f64_in_incl(0.0, 1.0);
            assert!((0.0..=1.0).contains(&d));
            let e = g.u64_in(10..11);
            assert_eq!(e, 10);
            let v = g.vec(2..5, |g| g.bool());
            assert!((2..5).contains(&v.len()));
            let s = g.u32_set(0..30, 1..10);
            assert!((1..10).contains(&s.len()));
            assert!(s.iter().all(|&x| x < 30));
        });
    }

    #[test]
    fn failing_property_reports_and_panics() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_cases("testkit::selfcheck::fails", 16, |g| {
                let x = g.u32_in(0..100);
                assert!(x > 1_000, "always fails");
            });
        }));
        assert!(result.is_err(), "failing property must propagate its panic");
    }

    #[test]
    fn cases_are_deterministic_across_runs() {
        let mut a = Vec::new();
        run_cases("testkit::selfcheck::det", 32, |g| {
            a.push((g.u64(), g.f64_in(0.0..1.0)));
        });
        let mut b = Vec::new();
        run_cases("testkit::selfcheck::det", 32, |g| {
            b.push((g.u64(), g.f64_in(0.0..1.0)));
        });
        assert_eq!(a, b);
    }

    prop_check! {
        /// The macro itself: default and explicit case counts both drive
        /// the body with in-range values.
        fn macro_smoke(g, cases = 8) {
            let n = g.usize_in(1..4);
            assert!((1..4).contains(&n));
        }
    }
}
