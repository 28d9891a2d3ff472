//! Deterministic random numbers.
//!
//! Simulations must replay bit-identically from a seed, across platforms
//! and across versions of third-party crates. We therefore implement the
//! generator locally: `xoshiro256**` (Blackman & Vigna), seeded through
//! SplitMix64 as its authors recommend. It is the workspace's only
//! generator: tests and benches draw from it too.
//!
//! The paper's simulations need randomness in exactly two places: the
//! staggered start times of connections ("the two connections started at
//! random times", §4.1) and the fault-injection channel model. Both draw
//! from a [`SimRng`] owned by the simulation, so a scenario is fully
//! described by its config plus one `u64` seed.

/// A seedable `xoshiro256**` pseudo-random generator.
///
/// Equality compares generator state: two `SimRng`s are equal exactly
/// when their future draw sequences are identical (used by tests pinning
/// that a code path consumes no randomness).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// A generator seeded from a single word. Any seed (including 0) is
    /// valid; SplitMix64 expansion guarantees a nonzero internal state.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit output.
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

    /// Uniform integer in `[0, bound)` via Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below: bound must be positive");
        // Lemire's multiply-shift with rejection for exact uniformity.
        let mut x = self.next_u64();
        let mut m = x as u128 * bound as u128;
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = x as u128 * bound as u128;
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "next_range: empty range");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with success probability `p` (clamped to `\[0, 1\]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// The raw xoshiro256** state words, for snapshotting. Together with
    /// [`SimRng::from_state`] this round-trips the generator exactly: the
    /// restored stream continues from the same point, bit for bit.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator from captured state words (see
    /// [`SimRng::state`]). No seeding expansion is applied: the words are
    /// installed verbatim.
    pub fn from_state(s: [u64; 4]) -> Self {
        SimRng { s }
    }

    /// Derive an independent generator for a subcomponent. Streams derived
    /// with distinct labels are statistically independent, so adding a new
    /// randomness consumer never perturbs existing ones — important for
    /// comparing runs across code versions.
    pub fn derive(&self, label: u64) -> SimRng {
        // Mix the label into a fresh SplitMix seed based on current state.
        let mut seed =
            self.s[0] ^ self.s[2].rotate_left(32) ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let _ = splitmix64(&mut seed);
        SimRng::new(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut r = SimRng::new(0);
        // Would be all-zero output if the state were left as zero.
        assert_ne!(r.next_u64() | r.next_u64() | r.next_u64(), 0);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SimRng::new(7);
        for _ in 0..10_000 {
            assert!(r.next_below(10) < 10);
        }
        // bound 1 always yields 0
        assert_eq!(r.next_below(1), 0);
    }

    #[test]
    fn next_below_covers_range() {
        let mut r = SimRng::new(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.next_below(10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn next_range_inclusive() {
        let mut r = SimRng::new(11);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let v = r.next_range(5, 8);
            assert!((5..=8).contains(&v));
            saw_lo |= v == 5;
            saw_hi |= v == 8;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SimRng::new(13);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_f64_roughly_uniform() {
        let mut r = SimRng::new(17);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(19);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.1)));
    }

    #[test]
    fn derived_streams_differ_by_label() {
        let base = SimRng::new(99);
        let mut a = base.derive(1);
        let mut b = base.derive(2);
        let mut c = base.derive(1);
        assert_ne!(a.next_u64(), b.next_u64());
        let a2 = base.derive(1);
        let _ = a2; // deriving again with same label reproduces the stream
        let mut a3 = base.derive(1);
        assert_eq!(c.next_u64(), a3.next_u64());
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SimRng::new(1).next_below(0);
    }
}
