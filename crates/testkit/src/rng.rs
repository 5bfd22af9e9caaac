//! Seedable, deterministic PRNG for tests, benches, and workload input
//! generation.
//!
//! The generator is xoshiro256** (Blackman & Vigna), seeded through
//! SplitMix64 as its authors recommend. Neither algorithm is
//! cryptographic — the simulator's security-relevant randomness stays on
//! [`hix-crypto`'s HMAC-DRBG] — but both are fast, tiny, and have
//! published reference outputs, which is exactly what reproducible test
//! input generation needs.
//!
//! [`hix-crypto`'s HMAC-DRBG]: ../../hix_crypto/drbg/index.html

/// Advances a SplitMix64 state and returns the next output.
///
/// This is the full reference algorithm (Steele, Lea & Flood; the
/// `java.util.SplittableRandom` finalizer), usable on its own for
/// hashing a seed into well-mixed 64-bit values.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256** generator.
///
/// ```
/// use hix_testkit::rng::Rng;
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.u64(), b.u64());
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Creates a generator from an arbitrary byte-string seed
    /// (workloads seed from labels like `"bfs-500"`).
    pub fn from_seed_bytes(seed: &[u8]) -> Self {
        // FNV-1a folds the bytes; SplitMix64 then de-correlates nearby
        // labels ("gs-31"/"gs-32") when expanding the state.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in seed {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng::new(h)
    }

    /// Next raw 64-bit output.
    pub fn u64(&mut self) -> u64 {
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

    /// Next 32-bit output (upper half of a 64-bit draw).
    pub fn u32(&mut self) -> u32 {
        (self.u64() >> 32) as u32
    }

    /// Next byte.
    pub fn u8(&mut self) -> u8 {
        (self.u64() >> 56) as u8
    }

    /// Next boolean.
    pub fn bool(&mut self) -> bool {
        self.u64() >> 63 == 1
    }

    /// Uniform value in `[lo, hi)`. Panics when the range is empty.
    ///
    /// Modulo reduction has a bias of at most 2⁻⁴⁰ for the range widths
    /// tests use (< 2²⁴) — irrelevant for input generation, and the
    /// simple reduction keeps replayed byte tapes stable.
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range {range:?}");
        range.start + self.u64() % (range.end - range.start)
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn gen_range_usize(&mut self, range: std::ops::Range<usize>) -> usize {
        self.gen_range(range.start as u64..range.end as u64) as usize
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[0, 1)` (single precision).
    pub fn f32(&mut self) -> f32 {
        (self.u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Fills `buf` with pseudorandom bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// Returns `len` pseudorandom bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.fill_bytes(&mut out);
        out
    }

    /// Returns a fixed-size array of pseudorandom bytes.
    pub fn array<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        self.fill_bytes(&mut out);
        out
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..(i as u64 + 1)) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_known_answer() {
        // Published reference outputs for seed 0 (SplittableRandom /
        // Vigna's splitmix64.c).
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut s), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64(&mut s), 0x06c4_5d18_8009_454f);
        assert_eq!(splitmix64(&mut s), 0xf88b_b8a8_724c_81ec);
    }

    #[test]
    fn xoshiro_known_answer_seed_zero() {
        // First outputs of xoshiro256** with its state seeded from
        // SplitMix64(0) — locks both the seeding path and the core.
        let mut rng = Rng::new(0);
        assert_eq!([rng.u64(), rng.u64(), rng.u64(), rng.u64()], KAT_SEED0,);
    }

    #[test]
    fn xoshiro_known_answer_seed_hix() {
        let mut rng = Rng::new(0x4849_5821); // "HIX!"
        assert_eq!([rng.u64(), rng.u64()], KAT_SEED_HIX);
    }

    // Regression vectors generated once from this implementation and
    // cross-checked against the reference C (see module docs).
    const KAT_SEED0: [u64; 4] = [
        0x99ec_5f36_cb75_f2b4,
        0xbf6e_1f78_4956_452a,
        0x1a5f_849d_4933_e6e0,
        0x6aa5_94f1_262d_2d2c,
    ];
    const KAT_SEED_HIX: [u64; 2] = [0xa9cf_4078_6293_f1cd, 0x449f_5cc4_fa35_8448];

    #[test]
    fn seeds_are_separated() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0u64..64 {
            let mut rng = Rng::new(seed);
            assert!(seen.insert(rng.u64()), "seed {seed} collided");
        }
        for label in ["bfs-500", "bfs-501", "gs-32", "gs-33", ""] {
            let mut rng = Rng::from_seed_bytes(label.as_bytes());
            assert!(seen.insert(rng.u64()), "label {label:?} collided");
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Rng::new(7);
        for _ in 0..1000 {
            let v = rng.gen_range(10..17);
            assert!((10..17).contains(&v));
        }
        assert_eq!(rng.gen_range(5..6), 5, "width-1 range is constant");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        let mut buf = [0u8; 13];
        a.fill_bytes(&mut buf);
        // First 8 bytes must be the LE encoding of the first draw.
        assert_eq!(buf[..8], b.u64().to_le_bytes());
        assert_ne!(buf, [0u8; 13]);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::new(3);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "astronomically unlikely to be identity");
    }

    #[test]
    fn floats_land_in_unit_interval() {
        let mut rng = Rng::new(11);
        for _ in 0..1000 {
            let f = rng.f64();
            assert!((0.0..1.0).contains(&f));
            let g = rng.f32();
            assert!((0.0..1.0).contains(&g));
        }
    }
}
