//! The benchmark's own seeded generator (SplitMix64), so the inputs a
//! seed produces do not depend on any random-number crate's version.

/// SplitMix64: tiny, fast and statistically adequate for input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// A generator for a derived stream: `(seed, a, b)` always yields the
    /// same sequence, and nearby tuples yield unrelated ones.
    pub fn derived(seed: u64, a: u64, b: u64) -> Self {
        let mut r = Rng(seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mixed = r.next_u64() ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        Rng(mixed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(
            Rng::derived(7, 1, 0).next_u64(),
            Rng::derived(7, 2, 0).next_u64()
        );
        assert_ne!(
            Rng::derived(7, 1, 0).next_u64(),
            Rng::derived(7, 1, 1).next_u64()
        );
    }

    #[test]
    fn unit_stays_in_range() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
