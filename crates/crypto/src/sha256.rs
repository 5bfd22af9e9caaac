//! SHA-256 (FIPS 180-4), from scratch.
//!
//! Two compression functions live here. The portable one is FIPS 180-4's
//! round loop in plain Rust and is the differential oracle. On x86_64 CPUs
//! with the SHA extensions, [`Sha256`] runs the `ni` module instead: two
//! rounds per `sha256rnds2`, the message schedule by `sha256msg1` and
//! `sha256msg2`. Each hasher records the choice once, as
//! [`crate::aes::Aes128`] does for AES-NI, and [`Sha256::portable`] pins a
//! hasher to the portable path.

/// Digest size in bytes.
pub const DIGEST: usize = 32;

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; DIGEST];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use hix_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let d = h.finish();
/// assert_eq!(d[0], 0xba);
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total: u64,
    /// True when the CPU has the SHA extensions and SSE4.1, so `compress`
    /// runs `ni::compress`.
    use_ni: bool,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total: 0,
            use_ni: detect_sha_ni(),
        }
    }

    /// Name of the compression backend: `"sha-ni"` on hardware with the
    /// SHA extensions, `"portable"` otherwise.
    pub fn backend(&self) -> &'static str {
        if self.use_ni {
            "sha-ni"
        } else {
            "portable"
        }
    }

    /// Returns a clone of this hasher pinned to the portable compression
    /// function, ignoring hardware support. The differential suite uses it
    /// as the oracle for the SHA-NI path, as [`crate::aes::Aes128::portable`]
    /// is for AES-NI.
    pub fn portable(&self) -> Self {
        let mut h = self.clone();
        h.use_ni = false;
        h
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total = self
            .total
            .checked_add(data.len() as u64)
            .expect("sha256 input too long");
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&[block]);
                self.buf_len = 0;
            }
        }
        let (blocks, rest) = data.as_chunks::<64>();
        self.compress(blocks);
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finalizes and returns the digest.
    pub fn finish(mut self) -> Digest {
        let bit_len = self.total * 8;
        // Pad in place: 0x80, zeros, then the bit length in the last 8
        // bytes, spilling into a second block when fewer than 9 bytes
        // are left after the buffered input.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            let block = self.buf;
            self.compress(&[block]);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&[block]);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Runs the compression function over whole blocks, on the backend
    /// `new` chose.
    fn compress(&mut self, blocks: &[[u8; 64]]) {
        #[cfg(target_arch = "x86_64")]
        if self.use_ni {
            // SAFETY: `use_ni` is only set when runtime detection reported
            // the SHA extensions and SSE4.1 (`detect_sha_ni`).
            unsafe { ni::compress(&mut self.state, blocks) };
            return;
        }
        for block in blocks {
            compress_portable(&mut self.state, block);
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_sha_ni() -> bool {
    std::arch::is_x86_feature_detected!("sha") && std::arch::is_x86_feature_detected!("sse4.1")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_sha_ni() -> bool {
    false
}

/// The FIPS 180-4 compression function, one block: the oracle for `ni`.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, wi) in w.iter_mut().take(16).enumerate() {
        *wi = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().unwrap());
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256.
pub fn digest(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finish()
}

// ---------------------------------------------------------------------------
// Hardware compression: the x86 SHA extensions. Every entry is
// `#[target_feature]`, private to this module and reached only behind
// `detect_sha_ni()` through the hasher's stored `use_ni`.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod ni {
    use super::K;
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// The compression function over whole blocks. `sha256rnds2` keeps the
    /// working variables as two lane pairs, ABEF and CDGH, and runs two
    /// rounds on the low two message-plus-constant lanes; four message
    /// words (`W[4r..4r+4]`) feed rounds `4r..4r+4`, and from round 16 on
    /// each such quad is scheduled from the previous four by
    /// `sha256msg1`/`sha256msg2`.
    ///
    /// # Safety
    /// Caller must have verified SHA, SSE2, SSSE3 and SSE4.1 support at
    /// runtime.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // Reverses the bytes of each 32-bit lane: message words are
        // big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // Lanes low to high: (A, B, C, D) and (E, F, G, H).
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state[4..].as_ptr().cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w: [__m128i; 4] = [abef; 4];
            for (i, wi) in w.iter_mut().enumerate() {
                *wi = _mm_shuffle_epi8(_mm_loadu_si128(block[16 * i..].as_ptr().cast()), bswap);
            }
            for r in 0..16 {
                if r >= 4 {
                    // W[i] + σ0(W[i+1]) + W[i+9] + σ1(W[i+14]) for the quad
                    // four back: w[r % 4] holds W[4r-16..], and the next
                    // three slots hold the quads after it.
                    let (w0, w1, w2, w3) =
                        (w[r % 4], w[(r + 1) % 4], w[(r + 2) % 4], w[(r + 3) % 4]);
                    let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
                    w[r % 4] = _mm_sha256msg2_epu32(t, w3);
                }
                // Rounds 4r and 4r+1 take the low two lanes of W + K,
                // rounds 4r+2 and 4r+3 the high two. Each call returns the
                // new ABEF, and the old ABEF is the new CDGH, so the first
                // call swaps the variables' roles and the second swaps them
                // back.
                let wk = _mm_add_epi32(w[r % 4], _mm_loadu_si128(K[4 * r..].as_ptr().cast()));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xf0));
        _mm_storeu_si128(
            state[4..].as_mut_ptr().cast(),
            _mm_alignr_epi8(dchg, feba, 8),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hexd(s: &str) -> Digest {
        let mut out = [0u8; 32];
        for (i, b) in out.iter_mut().enumerate() {
            *b = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn nist_vectors() {
        assert_eq!(
            digest(b""),
            hexd("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        );
        assert_eq!(
            digest(b"abc"),
            hexd("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        );
        assert_eq!(
            digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            hexd("248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
        );
    }

    /// Digests of the bytes 0, 1, 2, … at the lengths either side of
    /// the padding boundaries (55/56: the 0x80 byte and the length still
    /// fit the last block or spill into one more; 63/64: a nearly full
    /// and a full buffer; 119/120: 55/56 one block on), from coreutils
    /// `sha256sum`.
    #[test]
    fn padding_boundaries() {
        for (len, want) in [
            (
                0,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                55,
                "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59",
            ),
            (
                56,
                "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562",
            ),
            (
                63,
                "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488",
            ),
            (
                64,
                "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108",
            ),
            (
                119,
                "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6",
            ),
            (
                120,
                "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c",
            ),
        ] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            assert_eq!(digest(&data), hexd(want), "length {len}");
            let mut portable = Sha256::new().portable();
            portable.update(&data);
            assert_eq!(portable.finish(), hexd(want), "portable, length {len}");
        }
    }

    #[test]
    fn million_a() {
        for mut h in [Sha256::new(), Sha256::new().portable()] {
            // Feed in awkward chunk sizes to exercise buffering.
            let chunk = [b'a'; 997];
            let mut fed = 0;
            while fed + chunk.len() <= 1_000_000 {
                h.update(&chunk);
                fed += chunk.len();
            }
            h.update(&vec![b'a'; 1_000_000 - fed]);
            assert_eq!(
                h.finish(),
                hexd("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
            );
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), digest(&data), "split at {split}");
        }
    }
}
