//! Seeded randomness.
//!
//! All stochastic behaviour in the simulator flows through [`SimRng`].
//! Constructing every component's RNG by [`SimRng::fork`]-ing a single
//! root seed makes whole simulations reproducible from one `u64` while
//! keeping streams statistically independent.
//!
//! The workspace builds with **zero third-party dependencies**, so the
//! generator lives here instead of coming from the `rand` crate. The
//! algorithm is **xoshiro256++** (Blackman & Vigna, 2018): 256 bits of
//! state, period 2²⁵⁶ − 1, excellent statistical quality (passes
//! BigCrush), and a handful of arithmetic ops per draw — the same
//! generator `rand`'s `SmallRng` used on 64-bit targets. Three deliberate
//! choices:
//!
//! * **Seeding via splitmix64.** A 64-bit seed is expanded into the 256-bit
//!   state with a splitmix64 stream, so similar seeds (0, 1, 2, …) still
//!   produce uncorrelated states and the all-zero state is unreachable.
//! * **Unbiased bounded sampling.** Integer ranges use Lemire's
//!   widening-multiply rejection method (Lemire, 2019): one 64×64→128
//!   multiply in the common case, with a rejection loop only for the
//!   biased sliver of the 2⁶⁴ space.
//! * **53-bit floats.** Unit floats use the top 53 bits of one output
//!   word, giving every representable multiple of 2⁻⁵³ in `[0, 1)` equal
//!   probability — the standard dyadic-rational construction.

use crate::time::SimDuration;

/// A deterministic xoshiro256++ random number generator for simulation
/// components.
///
/// # Examples
///
/// ```
/// use manet_sim_engine::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.gen_range_u32(0..100), b.gen_range_u32(0..100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator whose 256-bit state is expanded from `seed`
    /// with a splitmix64 stream.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for word in &mut s {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *word = splitmix64_mix(sm);
        }
        // splitmix64 is a bijection of a non-constant counter, so at least
        // one word is non-zero for every seed; the all-zero fixed point of
        // xoshiro is unreachable.
        debug_assert!(s.iter().any(|&w| w != 0));
        SimRng { s }
    }

    /// Derives an independent child generator.
    ///
    /// The child's stream is a deterministic function of the parent's seed
    /// and the `stream` label, so components can be created in any order
    /// without perturbing each other's randomness.
    pub fn fork(&self, stream: u64) -> SimRng {
        // Mix the parent's seed material with the stream label through
        // splitmix64 so adjacent labels produce uncorrelated seeds.
        let parent_word = self.clone().next_u64();
        SimRng::seed_from(splitmix64(parent_word ^ splitmix64(stream)))
    }

    /// The next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `u64` in `[0, bound)` via Lemire's unbiased
    /// widening-multiply method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    fn next_u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty sampling bound");
        let mut m = u128::from(self.next_u64()) * u128::from(bound);
        let mut low = m as u64;
        if low < bound {
            // Reject draws in the biased sliver: (2^64 mod bound) values.
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                m = u128::from(self.next_u64()) * u128::from(bound);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `u64` in `[lo, hi]` (inclusive; the full-width range
    /// `[0, u64::MAX]` degenerates to a raw draw).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn gen_u64_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty sampling range: {lo} > {hi}");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_u64_below(span + 1)
    }

    /// Uniform `u32` in `range` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty.
    #[inline]
    pub fn gen_range_u32(&mut self, range: std::ops::Range<u32>) -> u32 {
        assert!(!range.is_empty(), "empty range");
        range.start + self.next_u64_below(u64::from(range.end - range.start)) as u32
    }

    /// Uniform `usize` in `range` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty.
    #[inline]
    pub fn gen_range_usize(&mut self, range: std::ops::Range<usize>) -> usize {
        assert!(!range.is_empty(), "empty range");
        range.start + self.next_u64_below((range.end - range.start) as u64) as usize
    }

    /// Uniform `f64` in `range` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty.
    #[inline]
    pub fn gen_range_f64(&mut self, range: std::ops::Range<f64>) -> f64 {
        assert!(!range.is_empty(), "empty range");
        let sample = range.start + self.gen_unit_f64() * (range.end - range.start);
        // Floating-point rounding can land exactly on `end` when the span
        // is much larger than `start`; stay inside the half-open contract.
        if sample < range.end {
            sample
        } else {
            range.end.next_down().max(range.start)
        }
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_unit_f64(&mut self) -> f64 {
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        (self.next_u64() >> 11) as f64 * SCALE
    }

    /// `true` with probability `p`.
    ///
    /// `gen_bool(0.0)` is always `false` and `gen_bool(1.0)` is always
    /// `true`, exactly.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        // The unit draw is in [0, 1), so the comparison is exact at both ends.
        self.gen_unit_f64() < p
    }

    /// A uniformly random duration in `[SimDuration::ZERO, max]` (inclusive).
    #[inline]
    pub fn gen_duration_up_to(&mut self, max: SimDuration) -> SimDuration {
        if max.is_zero() {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos(self.gen_u64_inclusive(0, max.as_nanos()))
    }

    /// A uniformly random duration in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn gen_duration_between(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        assert!(lo <= hi, "empty duration range: {lo} > {hi}");
        SimDuration::from_nanos(self.gen_u64_inclusive(lo.as_nanos(), hi.as_nanos()))
    }

    /// The generator's full 256-bit state, for snapshot serialization.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from an exported [`state`](Self::state); the
    /// stream continues exactly where the exporting generator stopped.
    ///
    /// # Panics
    ///
    /// Panics on the all-zero state (the generator's fixed point), which
    /// [`seed_from`](Self::seed_from) can never produce.
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(
            s.iter().any(|&w| w != 0),
            "all-zero xoshiro state is invalid"
        );
        SimRng { s }
    }
}

/// The splitmix64 output function: a strong 64-bit bijective mixer.
#[inline]
fn splitmix64_mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One full splitmix64 step (increment + mix), used to derive child seeds.
#[inline]
fn splitmix64(x: u64) -> u64 {
    splitmix64_mix(x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vector from the xoshiro256++ reference implementation
    /// (Blackman & Vigna), state seeded as {1, 2, 3, 4}.
    #[test]
    fn matches_reference_stream() {
        let mut g = SimRng::from_state([1, 2, 3, 4]);
        let expected: [u64; 6] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
        ];
        for want in expected {
            assert_eq!(g.next_u64(), want);
        }
    }

    #[test]
    fn below_respects_extreme_bounds() {
        let mut g = SimRng::seed_from(42);
        for _ in 0..1_000 {
            assert_eq!(g.next_u64_below(1), 0);
            assert!(g.next_u64_below(2) < 2);
            assert!(g.next_u64_below(u64::MAX) < u64::MAX);
        }
    }

    #[test]
    fn inclusive_range_covers_endpoints_near_u64_max() {
        let mut g = SimRng::seed_from(7);
        let lo = u64::MAX - 1;
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..1_000 {
            match g.gen_u64_inclusive(lo, u64::MAX) {
                x if x == lo => seen_lo = true,
                u64::MAX => seen_hi = true,
                other => panic!("{other} outside [u64::MAX - 1, u64::MAX]"),
            }
        }
        assert!(seen_lo && seen_hi, "two-value range must hit both values");
        // Full width never panics.
        let _ = g.gen_u64_inclusive(0, u64::MAX);
        assert_eq!(g.gen_u64_inclusive(5, 5), 5);
    }

    #[test]
    #[should_panic(expected = "empty sampling bound")]
    fn below_zero_bound_panics() {
        SimRng::seed_from(0).next_u64_below(0);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range_u32(0..1000), b.gen_range_u32(0..1000));
        }
    }

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let mut a = SimRng::seed_from(0);
        let mut b = SimRng::seed_from(0);
        let mut c = SimRng::seed_from(1);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z, "adjacent seeds must not collide on word one");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(8);
        let same = (0..100)
            .filter(|_| a.gen_range_u32(0..1000) == b.gen_range_u32(0..1000))
            .count();
        assert!(same < 10, "streams should diverge, {same} collisions");
    }

    #[test]
    fn forks_are_deterministic_and_independent() {
        let root = SimRng::seed_from(7);
        let mut c1 = root.fork(1);
        let mut c1_again = SimRng::seed_from(7).fork(1);
        let mut c2 = root.fork(2);
        assert_eq!(c1.gen_range_u32(0..1000), c1_again.gen_range_u32(0..1000));
        let same = (0..100)
            .filter(|_| c1.gen_range_u32(0..1000) == c2.gen_range_u32(0..1000))
            .count();
        assert!(same < 10, "forked streams should differ, {same} collisions");
    }

    #[test]
    fn fork_streams_are_pairwise_divergent() {
        // Any two of the first 16 fork labels produce streams that almost
        // never collide on a 1000-bucket draw.
        let root = SimRng::seed_from(99);
        let mut streams: Vec<Vec<u32>> = (0..16)
            .map(|label| {
                let mut child = root.fork(label);
                (0..100).map(|_| child.gen_range_u32(0..1000)).collect()
            })
            .collect();
        while let Some(a) = streams.pop() {
            for b in &streams {
                let same = a.iter().zip(b).filter(|(x, y)| x == y).count();
                assert!(same < 10, "fork streams collided {same}/100 times");
            }
        }
    }

    #[test]
    fn duration_ranges_respect_bounds() {
        let mut rng = SimRng::seed_from(3);
        let lo = SimDuration::from_millis(10);
        let hi = SimDuration::from_millis(20);
        for _ in 0..1000 {
            let d = rng.gen_duration_between(lo, hi);
            assert!(d >= lo && d <= hi);
            let u = rng.gen_duration_up_to(hi);
            assert!(u <= hi);
        }
        assert_eq!(rng.gen_duration_up_to(SimDuration::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn duration_ranges_survive_u64_extremes() {
        let mut rng = SimRng::seed_from(5);
        let top = SimDuration::from_nanos(u64::MAX);
        let near_top = SimDuration::from_nanos(u64::MAX - 1);
        for _ in 0..1000 {
            let d = rng.gen_duration_between(near_top, top);
            assert!(d >= near_top && d <= top);
            // The full-width range must not overflow or panic.
            let _ = rng.gen_duration_up_to(top);
            let same = rng.gen_duration_between(top, top);
            assert_eq!(same, top);
        }
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = SimRng::seed_from(11);
        for _ in 0..1000 {
            let x = rng.gen_unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn unit_f64_is_in_half_open_interval() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..10_000 {
            let x = rng.gen_unit_f64();
            assert!((0.0..1.0).contains(&x), "{x} outside [0, 1)");
        }
    }

    #[test]
    fn gen_bool_is_exact_at_the_extremes() {
        let mut rng = SimRng::seed_from(13);
        for _ in 0..10_000 {
            assert!(!rng.gen_bool(0.0), "gen_bool(0.0) must always be false");
            assert!(rng.gen_bool(1.0), "gen_bool(1.0) must always be true");
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SimRng::seed_from(17);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "gen_bool(0.3) rate {rate}");
    }

    #[test]
    fn output_bits_are_balanced() {
        // Mean popcount of next_u64 over 10k draws is 32 ± a small margin
        // (the binomial std dev of the mean is 4/sqrt(10_000) = 0.04).
        let mut rng = SimRng::seed_from(19);
        let total: u64 = (0..10_000)
            .map(|_| u64::from(rng.next_u64().count_ones()))
            .sum();
        let mean = total as f64 / 10_000.0;
        assert!((mean - 32.0).abs() < 0.25, "bit-balance mean {mean}");
    }

    #[test]
    fn unit_f64_mean_is_centered() {
        // Std dev of the mean over 100k uniform draws is ~0.0009.
        let mut rng = SimRng::seed_from(23);
        let total: f64 = (0..100_000).map(|_| rng.gen_unit_f64()).sum();
        let mean = total / 100_000.0;
        assert!((mean - 0.5).abs() < 0.005, "unit mean {mean}");
    }

    #[test]
    fn float_ranges_stay_half_open() {
        let mut rng = SimRng::seed_from(29);
        for _ in 0..10_000 {
            let x = rng.gen_range_f64(0.0..1e-300);
            assert!((0.0..1e-300).contains(&x));
            let y = rng.gen_range_f64(-3.0..7.5);
            assert!((-3.0..7.5).contains(&y));
        }
    }
}
