//! xoshiro256** and SplitMix64 generators.
//!
//! Reference: David Blackman and Sebastiano Vigna, "Scrambled linear
//! pseudorandom number generators", ACM TOMS 2021. The reference C sources
//! are public domain; this is a straightforward Rust port.

/// SplitMix64: used to expand a 64-bit seed into xoshiro's 256-bit state and
/// to derive independent child seeds (stream splitting).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a new SplitMix64 generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256**: the workspace's workhorse generator.
///
/// Period 2^256 − 1; passes BigCrush. All solvers and generators in this
/// repository draw from this type, so results are reproducible bit-for-bit
/// given a seed, independent of platform or thread schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seed from a single `u64`, expanding via SplitMix64 (the procedure
    /// recommended by the xoshiro authors).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // The all-zero state is the one invalid state; SplitMix64 cannot
        // produce four zeros from any seed, but guard anyway.
        if s == [0; 4] {
            Self { s: [1, 2, 3, 4] }
        } else {
            Self { s }
        }
    }

    /// Seed from full 256-bit state (must not be all zero).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s != [0; 4], "xoshiro256** state must be nonzero");
        Self { s }
    }

    /// Derive an independent child generator. Children created with distinct
    /// `stream` ids from the same parent state do not overlap in practice
    /// (they are seeded through SplitMix64 from a hash of parent state and
    /// stream id).
    pub fn split(&self, stream: u64) -> Self {
        let mut sm = SplitMix64::new(
            self.s[0]
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(self.s[3])
                ^ stream.wrapping_mul(0xD129_0A53_8F5B_65F1),
        );
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `u64` in `[0, bound)` without modulo bias (Lemire's method).
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire, "Fast Random Integer Generation in an Interval".
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn next_index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; multiply by 2^-53.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal variate (Marsaglia polar method).
    pub fn next_gaussian(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.next_f64() - 1.0;
            let v = 2.0 * self.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Bernoulli draw with probability `p` of `true`.
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Official xoshiro256** test vector: state {1,2,3,4} produces this
    /// prefix (from the reference implementation).
    #[test]
    fn reference_vector() {
        let mut g = Xoshiro256StarStar::from_state([1, 2, 3, 4]);
        let expected: [u64; 6] = [
            11520,
            0,
            1509978240,
            1215971899390074240,
            1216172134540287360,
            607988272756665600,
        ];
        for &e in &expected {
            assert_eq!(g.next_u64(), e);
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // SplitMix64 with seed 1234567 (reference C implementation outputs).
        let mut g = SplitMix64::new(1234567);
        assert_eq!(g.next_u64(), 6457827717110365317);
        assert_eq!(g.next_u64(), 3203168211198807973);
    }

    #[test]
    fn next_below_is_in_range_and_unbiased_enough() {
        let mut g = Xoshiro256StarStar::seed_from_u64(7);
        let bound = 10u64;
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            let v = g.next_below(bound);
            assert!(v < bound);
            counts[v as usize] += 1;
        }
        for &c in &counts {
            // each bucket should get ~10_000; allow generous slack
            assert!((8_500..11_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut g = Xoshiro256StarStar::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut g = Xoshiro256StarStar::seed_from_u64(11);
        let n = 200_000;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let x = g.next_gaussian();
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn split_streams_are_independent_and_deterministic() {
        let parent = Xoshiro256StarStar::seed_from_u64(5);
        let mut c1 = parent.split(0);
        let mut c1b = parent.split(0);
        let mut c2 = parent.split(1);
        let mut matches = 0;
        for _ in 0..256 {
            let a = c1.next_u64();
            assert_eq!(a, c1b.next_u64());
            if a == c2.next_u64() {
                matches += 1;
            }
        }
        assert!(matches < 4);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        Xoshiro256StarStar::seed_from_u64(0).next_below(0);
    }
}
