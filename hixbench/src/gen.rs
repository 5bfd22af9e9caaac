//! Seeded workload generation. Every input the program sees comes from
//! here, and every tape is a pure function of the seed and pass index.
//!
//! Sizes are *stratified*: a seed draws one size from the middle eighth
//! of each of `n` equal slices of the size range, and every pass of
//! that seed runs the same sizes in its own shuffled order. Each seed
//! gets its own sizes and order, while every pass does the same work,
//! so the fastest pass measures host speed rather than luck of the
//! draw, and virtual totals stay comparable across seeds.

/// splitmix64: small, fast, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6869_7862_656e_6368)
    }

    /// An independent stream for `(seed, tag, index)`.
    pub fn derive(seed: u64, tag: u64, index: u64) -> Self {
        let mut r = Rng::new(seed);
        r.0 ^= tag.wrapping_mul(0xA076_1D64_78BD_642F);
        r.next_u64();
        r.0 ^= index.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Payload bytes for a request: a pure function of `data_seed`.
pub fn payload(data_seed: u64, len: u64) -> Vec<u8> {
    let mut rng = Rng::new(data_seed);
    let mut out = Vec::with_capacity(len as usize);
    while (out.len() as u64) < len {
        let word = rng.next_u64().to_le_bytes();
        let take = (len as usize - out.len()).min(8);
        out.extend_from_slice(&word[..take]);
    }
    out
}

/// `n` sizes in `lo..=hi`, one from the middle eighth of each equal
/// slice of the range, in ascending order.
pub fn stratified(rng: &mut Rng, n: usize, lo: u64, hi: u64) -> Vec<u64> {
    let span = u128::from(hi - lo + 1);
    (0..n as u128)
        .map(|i| {
            let a = span * i / n as u128;
            let w = span * (i + 1) / n as u128 - a;
            lo + (a + w * 7 / 16) as u64 + rng.below((w / 8).max(1) as u64)
        })
        .collect()
}

/// The seed's sizes for stream `tag`, shuffled into pass `pass`'s order.
fn pass_sizes(seed: u64, tag: u64, pass: u64, n: usize, lo: u64, hi: u64) -> Vec<u64> {
    let mut sizes = stratified(&mut Rng::derive(seed, TAG_SIZES, tag), n, lo, hi);
    Rng::derive(seed, TAG_ORDER + tag, pass).shuffle(&mut sizes);
    sizes
}

/// An HtoD currently leaves its 16-byte OCB tag in device memory right
/// after the destination range. Every workload keeps that much slack
/// after each HtoD and never reads it, so the mirror stays exact.
pub const TAG_SLACK: u64 = 16;

const TAG_BULK: u64 = 1;
const TAG_SMALL: u64 = 2;
const TAG_CHURN: u64 = 3;
const TAG_SETUP: u64 = 4;
const TAG_MODEL: u64 = 5;
const TAG_SIZES: u64 = 6;
/// Shuffle streams are `TAG_ORDER + tag`, apart from every other tag.
const TAG_ORDER: u64 = 1 << 32;

/// `bulk-transfer`: sessions on one enclave.
pub const BULK_SESSIONS: usize = 2;
/// Requests per bulk pass (split round-robin across the sessions).
pub const BULK_PASS: usize = 24;
pub const BULK_MIN: u64 = 64 << 10;
pub const BULK_MAX: u64 = 6 << 20;

/// One bulk round: HtoD `len` bytes into the source buffer, DtoD to the
/// destination buffer, DtoH the destination back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BulkReq {
    pub session: usize,
    pub len: u64,
    pub data_seed: u64,
}

/// Per-session transfer caps: 6 MiB less up to 15 pages, so each seed
/// sizes its buffers, windows and initial uploads (and so the set-up's
/// virtual time) a little differently.
pub fn bulk_caps(seed: u64) -> Vec<u64> {
    let mut rng = Rng::derive(seed, TAG_SETUP, TAG_BULK);
    (0..BULK_SESSIONS)
        .map(|_| BULK_MAX - rng.below(16) * 4096)
        .collect()
}

pub fn bulk_pass(seed: u64, pass: u64) -> Vec<BulkReq> {
    let caps = bulk_caps(seed);
    let per = BULK_PASS / BULK_SESSIONS;
    let sizes: Vec<Vec<u64>> = caps
        .iter()
        .enumerate()
        .map(|(i, &cap)| {
            pass_sizes(
                seed,
                TAG_BULK + (i as u64) * 16,
                pass,
                per,
                BULK_MIN,
                cap - TAG_SLACK,
            )
        })
        .collect();
    let mut rng = Rng::derive(seed, TAG_BULK, pass);
    (0..BULK_PASS)
        .map(|i| {
            let session = i % BULK_SESSIONS;
            BulkReq {
                session,
                len: sizes[session][i / BULK_SESSIONS],
                data_seed: rng.next_u64(),
            }
        })
        .collect()
}

/// `small-ops`: sessions, each with a batch-8 submission ring.
pub const SMALL_SESSIONS: usize = 4;
/// Requests per small-ops pass (rounds × sessions).
pub const SMALL_PASS: usize = 2048;
/// Matrix dimension of the per-round `matrix.mul` launch.
pub const SMALL_N: u64 = 16;
/// Bytes of one `SMALL_N × SMALL_N` i32 matrix.
pub const MATRIX_BYTES: u64 = SMALL_N * SMALL_N * 4;
pub const SMALL_FILLERS: usize = 6;

/// Target matrix of a filler command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mat {
    A,
    B,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Filler {
    Memset {
        dst: Mat,
        off: u64,
        len: u64,
        value: u8,
    },
    /// Copy from the staging buffer into a matrix.
    Dtod {
        src_off: u64,
        dst: Mat,
        off: u64,
        len: u64,
    },
}

/// One small-ops round: a small HtoD into the staging buffer, six
/// memset/DtoD fillers into the input matrices (each DtoD copies from
/// the bytes this round uploaded), a `matrix.mul` launch and a sync,
/// then a flush and a DtoH of the product.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallReq {
    pub session: usize,
    pub htod_off: u64,
    pub htod_len: u64,
    pub data_seed: u64,
    pub fillers: [Filler; SMALL_FILLERS],
}

/// Per-session staging-buffer sizes (the working set), 16–64 KiB.
pub fn small_staging(seed: u64) -> Vec<u64> {
    let mut rng = Rng::derive(seed, TAG_SETUP, TAG_SMALL);
    (0..SMALL_SESSIONS)
        .map(|_| rng.range(4, 16) * 4096)
        .collect()
}

pub fn small_pass(seed: u64, pass: u64) -> Vec<SmallReq> {
    let staging = small_staging(seed);
    let lens = pass_sizes(seed, TAG_SMALL, pass, SMALL_PASS, 64, MATRIX_BYTES);
    let mut rng = Rng::derive(seed, TAG_SMALL, pass);
    lens.into_iter()
        .enumerate()
        .map(|(i, htod_len)| {
            let session = i % SMALL_SESSIONS;
            let d = staging[session];
            let htod_off = rng.below(d - htod_len - TAG_SLACK + 1);
            let data_seed = rng.next_u64();
            let fillers = std::array::from_fn(|_| {
                let dst = if rng.below(2) == 0 { Mat::A } else { Mat::B };
                let off = rng.below(MATRIX_BYTES);
                if rng.below(2) == 0 {
                    let len = rng.range(1, MATRIX_BYTES - off);
                    Filler::Memset {
                        dst,
                        off,
                        len,
                        value: rng.next_u64() as u8,
                    }
                } else {
                    let len = rng.range(1, htod_len.min(MATRIX_BYTES - off));
                    let src_off = htod_off + rng.below(htod_len - len + 1);
                    Filler::Dtod {
                        src_off,
                        dst,
                        off,
                        len,
                    }
                }
            });
            SmallReq {
                session,
                htod_off,
                htod_len,
                data_seed,
                fillers,
            }
        })
        .collect()
}

/// `session-churn`: session lifecycles per pass.
pub const CHURN_PASS: usize = 12;
pub const CHURN_MIN: u64 = 32 << 10;
pub const CHURN_MAX: u64 = 96 << 10;

/// One session lifecycle: connect (fresh identity), malloc, HtoD, DtoH,
/// free, close.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnReq {
    pub identity: u64,
    pub len: u64,
    pub data_seed: u64,
}

pub fn churn_pass(seed: u64, pass: u64) -> Vec<ChurnReq> {
    let mut rng = Rng::derive(seed, TAG_CHURN, pass);
    pass_sizes(seed, TAG_CHURN, pass, CHURN_PASS, CHURN_MIN, CHURN_MAX)
        .into_iter()
        .map(|len| ChurnReq {
            identity: rng.next_u64(),
            len,
            data_seed: rng.next_u64(),
        })
        .collect()
}

/// `multiuser-model`: the seed of the tenant fault population.
pub fn model_population_seed(seed: u64) -> u64 {
    Rng::derive(seed, TAG_MODEL, 0).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tapes_are_deterministic_per_seed() {
        for seed in [0, 1, 42] {
            assert_eq!(bulk_pass(seed, 3), bulk_pass(seed, 3));
            assert_eq!(small_pass(seed, 3), small_pass(seed, 3));
            assert_eq!(churn_pass(seed, 3), churn_pass(seed, 3));
            assert_eq!(model_population_seed(seed), model_population_seed(seed));
            assert_eq!(bulk_caps(seed), bulk_caps(seed));
            assert_eq!(small_staging(seed), small_staging(seed));
            assert_eq!(payload(seed, 1000), payload(seed, 1000));
        }
    }

    #[test]
    fn tapes_differ_across_seeds_and_passes() {
        assert_ne!(bulk_pass(1, 0), bulk_pass(2, 0));
        assert_ne!(bulk_pass(1, 0), bulk_pass(1, 1));
        assert_ne!(small_pass(1, 0), small_pass(2, 0));
        assert_ne!(churn_pass(1, 0), churn_pass(2, 0));
        assert_ne!(model_population_seed(1), model_population_seed(2));
        assert_ne!(payload(1, 64), payload(2, 64));
    }

    #[test]
    fn sizes_stay_in_range_and_cover_every_stratum() {
        let mut rng = Rng::new(9);
        let n = 24;
        let sizes = stratified(&mut rng, n, BULK_MIN, BULK_MAX);
        let span = BULK_MAX - BULK_MIN + 1;
        for (i, s) in sizes.iter().enumerate() {
            let lo = BULK_MIN + span * i as u64 / n as u64;
            let hi = BULK_MIN + span * (i as u64 + 1) / n as u64;
            assert!((lo..hi).contains(s), "size {s} outside stratum {i}");
        }
        // Some bulk sizes cross the 4 MiB pipeline chunk.
        assert!(bulk_pass(5, 0).iter().any(|r| r.len > 4 << 20));
        // Every pass of a seed runs the same sizes in another order.
        let lens = |pass| {
            let mut v: Vec<u64> = bulk_pass(5, pass).iter().map(|r| r.len).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(lens(0), lens(1));
        assert_ne!(bulk_pass(5, 0), bulk_pass(5, 1));
    }

    #[test]
    fn small_ops_stay_inside_their_buffers() {
        let staging = small_staging(7);
        for r in small_pass(7, 0) {
            let d = staging[r.session];
            assert!(r.htod_off + r.htod_len + TAG_SLACK <= d);
            for f in r.fillers {
                match f {
                    Filler::Memset { off, len, .. } => assert!(off + len <= MATRIX_BYTES),
                    Filler::Dtod {
                        src_off, off, len, ..
                    } => {
                        assert!(src_off >= r.htod_off && src_off + len <= r.htod_off + r.htod_len);
                        assert!(off + len <= MATRIX_BYTES);
                    }
                }
            }
        }
        let caps = bulk_caps(7);
        assert!(bulk_pass(7, 0)
            .iter()
            .all(|r| r.len + TAG_SLACK <= caps[r.session]));
    }
}
