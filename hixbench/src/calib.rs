//! Host-speed reference. The host's cores are shared, and the speed one
//! thread gets swings by up to 2× for minutes at a time, so raw host
//! times of two runs are not comparable. The benchmark therefore times
//! a fixed kernel of its own (carry-chained multiplies, a 1 MiB copy,
//! ordered-map lookups; none of the program's code) after every request,
//! and reports host times scaled to a nominal host speed: a stretch that
//! ran while the kernel took twice its nominal time counts half.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's warm time on an unloaded host (about 50 µs on the
/// 2-core x86-64 host), so scaled figures read like quiet-host ones.
pub const NOMINAL_NS: f64 = 50_000.0;

#[derive(Debug)]
pub struct Reference {
    words: Vec<u64>,
    src: Vec<u8>,
    dst: Vec<u8>,
    map: BTreeMap<u64, u64>,
}

impl Reference {
    pub fn new() -> Self {
        let mix = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Reference {
            words: (0..512).map(mix).collect(),
            src: vec![7; 1 << 20],
            dst: vec![0; 1 << 20],
            map: (0..2048).map(|i| (mix(i), i)).collect(),
        }
    }

    fn kernel(&mut self) {
        let n = self.words.len();
        let (mut acc, mut carry) = (0u64, 0u128);
        for r in 0..8 {
            for i in 0..n {
                let p = u128::from(self.words[i]) * u128::from(self.words[(i + r) % n]) + carry;
                acc = acc.wrapping_add(p as u64);
                carry = p >> 64;
            }
        }
        self.dst.copy_from_slice(&self.src);
        self.src[0] ^= self.dst[100] ^ acc as u8;
        let mut key = acc;
        for _ in 0..256 {
            key = key
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            if let Some((_, v)) = self.map.range(key..).next() {
                acc ^= v;
            }
        }
        black_box(acc);
    }

    /// Host nanoseconds of one warm run of the kernel. It first runs
    /// once untimed, so the caches the program's work left behind do not
    /// leak into the figure.
    pub fn tick(&mut self) -> u64 {
        self.kernel();
        let t = Instant::now();
        self.kernel();
        t.elapsed().as_nanos() as u64
    }
}
