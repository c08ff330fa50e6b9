//! Deterministic pseudo-random numbers for the simulation.
//!
//! The engine must be bit-for-bit reproducible across runs and platforms so
//! that //TRACE-style throttling experiments (which diff two runs of the
//! same program) see *only* the injected perturbation. We therefore use a
//! self-contained splitmix64/xoshiro256** generator rather than an
//! external crate's unspecified-by-default algorithms.

/// xoshiro256** seeded via splitmix64. Public domain algorithm
/// (Blackman & Vigna).
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Create a generator from a 64-bit seed. Two generators built from the
    /// same seed produce identical streams forever.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Derive an independent child stream, e.g. one per rank, so that
    /// adding draws on one rank never shifts another rank's stream.
    pub fn fork(&mut self, salt: u64) -> DetRng {
        DetRng::new(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, bound)`; returns 0 for `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Lemire's multiply-shift rejection method.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi]` (inclusive); `lo > hi` yields `lo`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        if lo >= hi {
            return lo;
        }
        let span = (hi - lo) as u64 + 1;
        lo + self.below(span) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = DetRng::new(99);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.below(8) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (8_000..12_000).contains(&c),
                "bucket count {c} far from 10k"
            );
        }
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = DetRng::new(5);
        for _ in 0..1000 {
            let x = r.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_i64_inclusive_and_degenerate() {
        let mut r = DetRng::new(8);
        for _ in 0..500 {
            let v = r.range_i64(-5, 5);
            assert!((-5..=5).contains(&v));
        }
        assert_eq!(r.range_i64(3, 3), 3);
        assert_eq!(r.range_i64(9, 2), 9);
    }

    #[test]
    fn fork_is_independent_of_parent_consumption() {
        // fork(salt) must depend only on parent state at fork time.
        let mut a = DetRng::new(11);
        let mut b = DetRng::new(11);
        let fa = a.fork(1).next_u64();
        let fb = b.fork(1).next_u64();
        assert_eq!(fa, fb);
        // different salts give different children
        let mut c = DetRng::new(11);
        assert_ne!(fa, c.fork(2).next_u64());
    }
}
