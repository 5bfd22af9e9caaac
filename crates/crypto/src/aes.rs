//! AES-128 block cipher (FIPS 197), from scratch.
//!
//! Only the 128-bit key size is provided — it is the only one HIX uses
//! (OCB-AES-128). Verified against the FIPS 197 Appendix B example and the
//! NIST AESAVS known-answer vectors.
//!
//! Three implementations live here, layered by role:
//!
//! - a **scalar reference** (`encrypt_block`/`decrypt_block`): byte-wise
//!   SubBytes/ShiftRows/MixColumns straight out of FIPS 197. It is the
//!   differential-test oracle for everything below and stays deliberately
//!   simple.
//! - a **portable wide core** (`encrypt_blocks`/`decrypt_blocks`, table
//!   backend): const-generated T-tables folding SubBytes+MixColumns into
//!   four lookups per column, with the decrypt side running the FIPS 197
//!   §5.3.5 *equivalent inverse cipher* over InvMixColumns-transformed
//!   round keys, so open costs the same as seal.
//! - a **hardware path** (AES-NI, x86_64): the same wide entry points
//!   dispatch at runtime to an 8-block-interleaved `aesenc`/`aesdec`
//!   pipeline when the CPU supports it. This mirrors the paper's own
//!   platform, where SGX-side crypto ran on AES-NI. The same module holds
//!   OCB's whole-block loop fused into that pipeline
//!   (`Aes128::ocb_blocks`), in two tiers: a 128-bit kernel that runs
//!   eight `aesenc` streams, and on CPUs with VAES and AVX-512F a 512-bit
//!   one that runs each 8-block pass as two vectors of four blocks.
//!   [`Aes128::aesni`] pins a context to the 128-bit kernel so that the
//!   differential suite reaches it on a VAES host too. The `unsafe` is
//!   fenced as the crate docs describe.
//!
//! The wide entry points process [`WIDE_BATCH`] blocks per pass; callers
//! (OCB) batch their offset ladder to match.

/// The AES block size in bytes.
pub const BLOCK: usize = 16;

/// Blocks processed per wide pass by [`Aes128::encrypt_blocks`] /
/// [`Aes128::decrypt_blocks`]. Callers that want the fast path should
/// present multiples of this many blocks at a time.
pub const WIDE_BATCH: usize = 8;

/// A 16-byte AES block.
pub type Block = [u8; BLOCK];

const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

// T-tables, const-generated from SBOX/INV_SBOX so there is no transcription
// risk. Entries are little-endian-packed columns; rotating an entry left by
// 8·r gives the table for row r (`te`/`td` below).
//
// TE0[x] = (2·S, S, S, 3·S) for S = SBOX[x]: the MixColumns contribution of
// the row-0 input byte to the four output bytes of its column.
const TE0: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        let s3 = s2 ^ s;
        t[i] = (s2 as u32) | ((s as u32) << 8) | ((s as u32) << 16) | ((s3 as u32) << 24);
        i += 1;
    }
    t
};

// TD0[x] = (14·I, 9·I, 13·I, 11·I) for I = INV_SBOX[x]: the InvMixColumns
// contribution of the row-0 byte, with InvSubBytes folded in (equivalent
// inverse cipher ordering).
const TD0: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let b = INV_SBOX[i];
        let x2 = xtime(b);
        let x4 = xtime(x2);
        let x8 = xtime(x4);
        let m14 = (x8 ^ x4 ^ x2) as u32;
        let m9 = (x8 ^ b) as u32;
        let m13 = (x8 ^ x4 ^ b) as u32;
        let m11 = (x8 ^ x2 ^ b) as u32;
        t[i] = m14 | (m9 << 8) | (m13 << 16) | (m11 << 24);
        i += 1;
    }
    t
};

/// An expanded AES-128 key (11 round keys each direction).
///
/// ```
/// use hix_crypto::aes::Aes128;
/// let aes = Aes128::new(&[0u8; 16]);
/// let ct = aes.encrypt_block([0u8; 16]);
/// assert_eq!(aes.decrypt_block(ct), [0u8; 16]);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    /// Forward schedule (scalar oracle + AES-NI + T-table encrypt).
    round_keys: [[u8; 16]; 11],
    /// Equivalent-inverse-cipher schedule: `dec[0] = rk[10]`,
    /// `dec[r] = InvMixColumns(rk[10-r])` for 1..=9, `dec[10] = rk[0]`.
    /// Shared by the AES-NI (`aesdec`) and T-table decrypt paths.
    dec_round_keys: [[u8; 16]; 11],
    /// True when the CPU supports AES-NI and the wide entry points should
    /// use the hardware path.
    use_ni: bool,
    /// True when the CPU also supports VAES and AVX-512F, so OCB's whole
    /// passes run four blocks per instruction. Never set without `use_ni`.
    use_vaes: bool,
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("Aes128(<expanded key>)")
    }
}

impl Aes128 {
    /// Expands a 16-byte key (both directions: forward schedule plus the
    /// equivalent-inverse-cipher schedule used by the wide decrypt path).
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        for i in 4..44 {
            let mut t = w[i - 1];
            if i % 4 == 0 {
                t.rotate_left(1);
                for b in &mut t {
                    *b = SBOX[*b as usize];
                }
                t[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ t[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        let mut dec_round_keys = [[0u8; 16]; 11];
        dec_round_keys[0] = round_keys[10];
        dec_round_keys[10] = round_keys[0];
        for r in 1..10 {
            let mut k = round_keys[10 - r];
            inv_mix_columns(&mut k);
            dec_round_keys[r] = k;
        }
        let use_ni = detect_aesni();
        Aes128 {
            round_keys,
            dec_round_keys,
            use_ni,
            use_vaes: use_ni && detect_vaes(),
        }
    }

    /// Name of the backend OCB's whole-block loop will use: `"vaes"` on
    /// hardware with VAES and AVX-512F, `"aes-ni"` on hardware with AES
    /// instructions only, `"table"` otherwise. The wide entry points run
    /// AES-NI on both hardware backends.
    pub fn backend(&self) -> &'static str {
        if self.use_vaes {
            "vaes"
        } else if self.use_ni {
            "aes-ni"
        } else {
            "table"
        }
    }

    /// Returns a clone of this context pinned to the portable table
    /// backend, ignoring hardware support. Used by the differential suite
    /// (and fallback benches) to exercise the software wide path on
    /// machines where dispatch would otherwise always pick AES-NI.
    pub fn portable(&self) -> Self {
        let mut c = self.clone();
        c.use_ni = false;
        c.use_vaes = false;
        c
    }

    /// Returns a clone of this context that never takes the VAES tier, so
    /// OCB's whole passes run on the 128-bit AES-NI kernel (or the
    /// portable loop, on a CPU without AES-NI). Used by the differential
    /// suite and the benches to reach that kernel on a VAES host.
    pub fn aesni(&self) -> Self {
        let mut c = self.clone();
        c.use_vaes = false;
        c
    }

    /// Encrypts one 16-byte block (scalar reference path; the oracle for
    /// the wide backends).
    pub fn encrypt_block(&self, mut state: Block) -> Block {
        add_round_key(&mut state, &self.round_keys[0]);
        for round in 1..10 {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, &self.round_keys[round]);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &self.round_keys[10]);
        state
    }

    /// Decrypts one 16-byte block (scalar reference path).
    pub fn decrypt_block(&self, mut state: Block) -> Block {
        add_round_key(&mut state, &self.round_keys[10]);
        inv_shift_rows(&mut state);
        inv_sub_bytes(&mut state);
        for round in (1..10).rev() {
            add_round_key(&mut state, &self.round_keys[round]);
            inv_mix_columns(&mut state);
            inv_shift_rows(&mut state);
            inv_sub_bytes(&mut state);
        }
        add_round_key(&mut state, &self.round_keys[0]);
        state
    }

    /// Encrypts a run of blocks in place, [`WIDE_BATCH`] per pass.
    ///
    /// Dispatches to the AES-NI pipeline when available, else the portable
    /// T-table core. Byte-identical to mapping [`Self::encrypt_block`]
    /// over the slice (the differential suite pins this).
    pub fn encrypt_blocks(&self, blocks: &mut [Block]) {
        #[cfg(target_arch = "x86_64")]
        if self.use_ni {
            // SAFETY: `use_ni` is only set when runtime detection reported
            // AES-NI support (`detect_aesni`).
            unsafe { ni::encrypt_blocks(&self.round_keys, blocks) };
            return;
        }
        for b in blocks {
            tt_encrypt_block(&self.round_keys, b);
        }
    }

    /// Decrypts a run of blocks in place, [`WIDE_BATCH`] per pass; the
    /// mirror of [`Self::encrypt_blocks`], running the equivalent inverse
    /// cipher so open costs the same as seal.
    pub fn decrypt_blocks(&self, blocks: &mut [Block]) {
        #[cfg(target_arch = "x86_64")]
        if self.use_ni {
            // SAFETY: `use_ni` is only set when runtime detection reported
            // AES-NI support (`detect_aesni`).
            unsafe { ni::decrypt_blocks(&self.dec_round_keys, blocks) };
            return;
        }
        for b in blocks {
            tt_decrypt_block(&self.dec_round_keys, b);
        }
    }

    /// OCB's whole-block loop fused into the AES-NI pipeline: RFC 7253
    /// §4.2's encrypt, or §4.3's decrypt when `OPEN`, over a run that
    /// starts on a pass boundary. `src[j]` is message block
    /// `8 * first_pass + j + 1` and is sealed (opened) into `dst[j]` under
    /// the offset ladder over `l` (`L_0`, `L_1`, …): `offset` comes in as
    /// `Offset_{8 * first_pass}` and leaves at the run's last block, and
    /// every plaintext block, read or recovered, is folded into
    /// `checksum`. On VAES hardware the run's whole passes go through the
    /// 512-bit kernel and the remainder through the 128-bit one. Returns
    /// `false`, touching nothing, when this context runs on the portable
    /// backend; the caller then runs its own loop.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is shorter than `src`, or if `l` holds fewer
    /// entries than the run reaches.
    pub(crate) fn ocb_blocks<const OPEN: bool>(
        &self,
        l: &[Block],
        first_pass: usize,
        offset: &mut Block,
        checksum: &mut Block,
        src: &[Block],
        dst: &mut [Block],
    ) -> bool {
        #[cfg(target_arch = "x86_64")]
        if self.use_ni {
            let rk = if OPEN {
                &self.dec_round_keys
            } else {
                &self.round_keys
            };
            let dst = &mut dst[..src.len()];
            let mut done = 0;
            // Only a run holding a whole pass enters the 512-bit kernel,
            // so short control frames never touch the 512-bit registers.
            if self.use_vaes && src.len() >= WIDE_BATCH {
                done = src.len() - src.len() % WIDE_BATCH;
                // SAFETY: `use_vaes` is only set when runtime detection
                // reported VAES and AVX-512F on top of AES-NI
                // (`detect_vaes`, `detect_aesni`); `done` is a whole
                // number of passes.
                unsafe {
                    ni::ocb512::<OPEN>(
                        rk,
                        l,
                        first_pass,
                        offset,
                        checksum,
                        &src[..done],
                        &mut dst[..done],
                    )
                };
            }
            // SAFETY: `use_ni` is only set when runtime detection reported
            // AES-NI support (`detect_aesni`).
            unsafe {
                ni::ocb::<OPEN>(
                    rk,
                    l,
                    first_pass + done / WIDE_BATCH,
                    offset,
                    checksum,
                    &src[done..],
                    &mut dst[done..],
                )
            };
            return true;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (l, first_pass, offset, checksum, src, dst);
        false
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_aesni() -> bool {
    std::arch::is_x86_feature_detected!("aes")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_aesni() -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
fn detect_vaes() -> bool {
    std::arch::is_x86_feature_detected!("vaes") && std::arch::is_x86_feature_detected!("avx512f")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_vaes() -> bool {
    false
}

#[inline]
fn add_round_key(state: &mut Block, rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk) {
        *s ^= k;
    }
}

#[inline]
fn sub_bytes(state: &mut Block) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

#[inline]
fn inv_sub_bytes(state: &mut Block) {
    for b in state.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

// State layout: state[r + 4*c] is row r, column c (column-major as in FIPS
// 197's byte ordering of the input sequence).
#[inline]
fn shift_rows(state: &mut Block) {
    for r in 1..4 {
        let row = [state[r], state[r + 4], state[r + 8], state[r + 12]];
        for c in 0..4 {
            state[r + 4 * c] = row[(c + r) % 4];
        }
    }
}

#[inline]
fn inv_shift_rows(state: &mut Block) {
    for r in 1..4 {
        let row = [state[r], state[r + 4], state[r + 8], state[r + 12]];
        for c in 0..4 {
            state[r + 4 * c] = row[(c + 4 - r) % 4];
        }
    }
}

#[inline]
fn mix_columns(state: &mut Block) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = xtime(col[0]) ^ xtime(col[1]) ^ col[1] ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ xtime(col[2]) ^ col[2] ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ xtime(col[3]) ^ col[3];
        state[4 * c + 3] = xtime(col[0]) ^ col[0] ^ col[1] ^ col[2] ^ xtime(col[3]);
    }
}

// Fixed-constant InvMixColumns: each input byte needs {9, 11, 13, 14}·b,
// all built from one xtime chain (b, 2b, 4b, 8b) — 3 shifts + a handful of
// xors per byte instead of the old data-looped generic GF multiply (which
// cost 8 xtimes + branches per product, 64 products per block, and made
// decrypt ~2.3× slower than encrypt).
#[inline]
fn inv_mix_columns(state: &mut Block) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        let mut m9 = [0u8; 4];
        let mut m11 = [0u8; 4];
        let mut m13 = [0u8; 4];
        let mut m14 = [0u8; 4];
        for i in 0..4 {
            let b = col[i];
            let x2 = xtime(b);
            let x4 = xtime(x2);
            let x8 = xtime(x4);
            m9[i] = x8 ^ b;
            m11[i] = x8 ^ x2 ^ b;
            m13[i] = x8 ^ x4 ^ b;
            m14[i] = x8 ^ x4 ^ x2;
        }
        state[4 * c] = m14[0] ^ m11[1] ^ m13[2] ^ m9[3];
        state[4 * c + 1] = m9[0] ^ m14[1] ^ m11[2] ^ m13[3];
        state[4 * c + 2] = m13[0] ^ m9[1] ^ m14[2] ^ m11[3];
        state[4 * c + 3] = m11[0] ^ m13[1] ^ m9[2] ^ m14[3];
    }
}

// ---------------------------------------------------------------------------
// Portable wide core: T-table rounds over little-endian-packed columns.
// ---------------------------------------------------------------------------

#[inline]
fn te(row: u32, x: u32) -> u32 {
    TE0[x as usize].rotate_left(8 * row)
}

#[inline]
fn td(row: u32, x: u32) -> u32 {
    TD0[x as usize].rotate_left(8 * row)
}

#[inline]
fn load_columns(rk: &[u8; 16]) -> [u32; 4] {
    let mut c = [0u32; 4];
    for (j, cj) in c.iter_mut().enumerate() {
        *cj = u32::from_le_bytes(rk[4 * j..4 * j + 4].try_into().unwrap());
    }
    c
}

fn tt_encrypt_block(rk: &[[u8; 16]; 11], block: &mut Block) {
    let keys: [[u32; 4]; 11] = std::array::from_fn(|i| load_columns(&rk[i]));
    let mut c = load_columns(block);
    for (j, k) in keys[0].iter().enumerate() {
        c[j] ^= k;
    }
    for key in keys.iter().take(10).skip(1) {
        let mut d = [0u32; 4];
        for j in 0..4 {
            // ShiftRows: column j's row-r byte comes from column (j+r)%4.
            d[j] = te(0, c[j] & 0xff)
                ^ te(1, (c[(j + 1) % 4] >> 8) & 0xff)
                ^ te(2, (c[(j + 2) % 4] >> 16) & 0xff)
                ^ te(3, c[(j + 3) % 4] >> 24)
                ^ key[j];
        }
        c = d;
    }
    for j in 0..4 {
        let b0 = SBOX[(c[j] & 0xff) as usize] as u32;
        let b1 = SBOX[((c[(j + 1) % 4] >> 8) & 0xff) as usize] as u32;
        let b2 = SBOX[((c[(j + 2) % 4] >> 16) & 0xff) as usize] as u32;
        let b3 = SBOX[(c[(j + 3) % 4] >> 24) as usize] as u32;
        let v = (b0 | (b1 << 8) | (b2 << 16) | (b3 << 24)) ^ keys[10][j];
        block[4 * j..4 * j + 4].copy_from_slice(&v.to_le_bytes());
    }
}

fn tt_decrypt_block(dec_rk: &[[u8; 16]; 11], block: &mut Block) {
    let keys: [[u32; 4]; 11] = std::array::from_fn(|i| load_columns(&dec_rk[i]));
    let mut c = load_columns(block);
    for (j, k) in keys[0].iter().enumerate() {
        c[j] ^= k;
    }
    for key in keys.iter().take(10).skip(1) {
        let mut d = [0u32; 4];
        for j in 0..4 {
            // InvShiftRows: column j's row-r byte comes from column (j+4-r)%4.
            d[j] = td(0, c[j] & 0xff)
                ^ td(1, (c[(j + 3) % 4] >> 8) & 0xff)
                ^ td(2, (c[(j + 2) % 4] >> 16) & 0xff)
                ^ td(3, c[(j + 1) % 4] >> 24)
                ^ key[j];
        }
        c = d;
    }
    for j in 0..4 {
        let b0 = INV_SBOX[(c[j] & 0xff) as usize] as u32;
        let b1 = INV_SBOX[((c[(j + 3) % 4] >> 8) & 0xff) as usize] as u32;
        let b2 = INV_SBOX[((c[(j + 2) % 4] >> 16) & 0xff) as usize] as u32;
        let b3 = INV_SBOX[(c[(j + 1) % 4] >> 24) as usize] as u32;
        let v = (b0 | (b1 << 8) | (b2 << 16) | (b3 << 24)) ^ keys[10][j];
        block[4 * j..4 * j + 4].copy_from_slice(&v.to_le_bytes());
    }
}

// ---------------------------------------------------------------------------
// Hardware wide core: AES-NI, 8 interleaved block pipelines per pass, and
// OCB's whole-block loop fused into it, with a VAES-512 tier for whole
// passes. With `sha256::ni`, the only unsafe code in the crate; every entry
// is `#[target_feature]` and reached solely behind `detect_aesni()` (and,
// for the 512-bit kernel, `detect_vaes()`) through the context's stored
// `use_ni`/`use_vaes`.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod ni {
    use super::{Block, WIDE_BATCH};
    use core::arch::x86_64::{
        __m128i, __m512i, _mm512_aesdec_epi128, _mm512_aesdeclast_epi128, _mm512_aesenc_epi128,
        _mm512_aesenclast_epi128, _mm512_broadcast_i32x4, _mm512_castsi128_si512,
        _mm512_extracti32x4_epi32, _mm512_inserti32x4, _mm512_loadu_si512,
        _mm512_maskz_broadcast_i32x4, _mm512_setzero_si512, _mm512_storeu_si512, _mm512_xor_si512,
        _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
        _mm_loadu_si128, _mm_storeu_si128, _mm_xor_si128,
    };

    /// One middle round: `aesdec` when `OPEN`, else `aesenc`.
    ///
    /// # Safety
    /// Caller must have verified AES-NI support at runtime.
    #[inline]
    #[target_feature(enable = "aes")]
    unsafe fn round<const OPEN: bool>(s: __m128i, k: __m128i) -> __m128i {
        if OPEN {
            _mm_aesdec_si128(s, k)
        } else {
            _mm_aesenc_si128(s, k)
        }
    }

    /// The final round: `aesdeclast` when `OPEN`, else `aesenclast`.
    ///
    /// # Safety
    /// Caller must have verified AES-NI support at runtime.
    #[inline]
    #[target_feature(enable = "aes")]
    unsafe fn last_round<const OPEN: bool>(s: __m128i, k: __m128i) -> __m128i {
        if OPEN {
            _mm_aesdeclast_si128(s, k)
        } else {
            _mm_aesenclast_si128(s, k)
        }
    }

    #[inline]
    unsafe fn load_keys(rk: &[[u8; 16]; 11]) -> [__m128i; 11] {
        let mut keys = [_mm_loadu_si128(rk[0].as_ptr().cast()); 11];
        for i in 1..11 {
            keys[i] = _mm_loadu_si128(rk[i].as_ptr().cast());
        }
        keys
    }

    /// # Safety
    /// Caller must have verified AES-NI support at runtime.
    #[target_feature(enable = "aes")]
    pub unsafe fn encrypt_blocks(rk: &[[u8; 16]; 11], blocks: &mut [Block]) {
        let keys = load_keys(rk);
        let mut chunks = blocks.chunks_exact_mut(WIDE_BATCH);
        for ch in &mut chunks {
            let mut s = [keys[0]; WIDE_BATCH];
            for (i, b) in ch.iter().enumerate() {
                s[i] = _mm_xor_si128(_mm_loadu_si128(b.as_ptr().cast()), keys[0]);
            }
            for key in keys.iter().take(10).skip(1) {
                for si in s.iter_mut() {
                    *si = _mm_aesenc_si128(*si, *key);
                }
            }
            for (i, b) in ch.iter_mut().enumerate() {
                _mm_storeu_si128(b.as_mut_ptr().cast(), _mm_aesenclast_si128(s[i], keys[10]));
            }
        }
        for b in chunks.into_remainder() {
            let mut s = _mm_xor_si128(_mm_loadu_si128(b.as_ptr().cast()), keys[0]);
            for key in keys.iter().take(10).skip(1) {
                s = _mm_aesenc_si128(s, *key);
            }
            _mm_storeu_si128(b.as_mut_ptr().cast(), _mm_aesenclast_si128(s, keys[10]));
        }
    }

    /// # Safety
    /// Caller must have verified AES-NI support at runtime. `dec_rk` is the
    /// equivalent-inverse-cipher schedule (InvMixColumns-transformed middle
    /// round keys), which is exactly what `aesdec` consumes.
    #[target_feature(enable = "aes")]
    pub unsafe fn decrypt_blocks(dec_rk: &[[u8; 16]; 11], blocks: &mut [Block]) {
        let keys = load_keys(dec_rk);
        let mut chunks = blocks.chunks_exact_mut(WIDE_BATCH);
        for ch in &mut chunks {
            let mut s = [keys[0]; WIDE_BATCH];
            for (i, b) in ch.iter().enumerate() {
                s[i] = _mm_xor_si128(_mm_loadu_si128(b.as_ptr().cast()), keys[0]);
            }
            for key in keys.iter().take(10).skip(1) {
                for si in s.iter_mut() {
                    *si = _mm_aesdec_si128(*si, *key);
                }
            }
            for (i, b) in ch.iter_mut().enumerate() {
                _mm_storeu_si128(b.as_mut_ptr().cast(), _mm_aesdeclast_si128(s[i], keys[10]));
            }
        }
        for b in chunks.into_remainder() {
            let mut s = _mm_xor_si128(_mm_loadu_si128(b.as_ptr().cast()), keys[0]);
            for key in keys.iter().take(10).skip(1) {
                s = _mm_aesdec_si128(s, *key);
            }
            _mm_storeu_si128(b.as_mut_ptr().cast(), _mm_aesdeclast_si128(s, keys[10]));
        }
    }

    /// OCB's whole-block loop (`Aes128::ocb_blocks` gives the contract),
    /// `OPEN` picking `aesdec` and folding the output instead of the
    /// input into the checksum. Each
    /// 8-block pass takes its offsets from the one before it, whitens the
    /// blocks, runs the 10 rounds interleaved, then unwhitens, stores and
    /// folds them.
    ///
    /// A pass covers blocks `8k+1 ..= 8k+8`, whose `ntz` are 0, 1, 0, 2,
    /// 0, 1, 0 and `ntz(8k+8) ≥ 3`. So the first seven offsets are
    /// `Offset_8k` xor a fixed combination of `L_0`, `L_1`, `L_2`, and
    /// only the eighth loads one more `L_i`. The run's first pass is pass
    /// `first_pass` of the message, so each eighth `ntz` is taken of the
    /// block's absolute index.
    ///
    /// # Safety
    /// Caller must have verified AES-NI support at runtime. For `OPEN`,
    /// `rk` is the equivalent-inverse-cipher schedule.
    #[target_feature(enable = "aes")]
    pub unsafe fn ocb<const OPEN: bool>(
        rk: &[[u8; 16]; 11],
        l: &[Block],
        first_pass: usize,
        offset: &mut Block,
        checksum: &mut Block,
        src: &[Block],
        dst: &mut [Block],
    ) {
        let dst = &mut dst[..src.len()];
        let keys = load_keys(rk);
        let l0 = _mm_loadu_si128(l[0].as_ptr().cast());
        let l1 = _mm_loadu_si128(l[1].as_ptr().cast());
        let l2 = _mm_loadu_si128(l[2].as_ptr().cast());
        let l01 = _mm_xor_si128(l0, l1);
        let l12 = _mm_xor_si128(l1, l2);
        // Offset_{8k+j} xor Offset_8k, for j = 1..=7.
        let rel = [
            l0,
            l01,
            l1,
            l12,
            _mm_xor_si128(l0, l12),
            _mm_xor_si128(l0, l2),
            l2,
        ];
        let mut off = _mm_loadu_si128(offset.as_ptr().cast());
        let mut sum = _mm_loadu_si128(checksum.as_ptr().cast());
        let mut src_passes = src.chunks_exact(WIDE_BATCH);
        let mut dst_passes = dst.chunks_exact_mut(WIDE_BATCH);
        for (pass, (inp, out)) in (&mut src_passes).zip(&mut dst_passes).enumerate() {
            let mut o = [off; WIDE_BATCH];
            for (oj, r) in o.iter_mut().zip(rel) {
                *oj = _mm_xor_si128(off, r);
            }
            let ntz = ((first_pass + pass + 1) * WIDE_BATCH).trailing_zeros() as usize;
            o[7] = _mm_xor_si128(o[6], _mm_loadu_si128(l[ntz].as_ptr().cast()));
            let mut s = [off; WIDE_BATCH];
            for j in 0..WIDE_BATCH {
                let b = _mm_loadu_si128(inp[j].as_ptr().cast());
                if !OPEN {
                    sum = _mm_xor_si128(sum, b);
                }
                s[j] = _mm_xor_si128(_mm_xor_si128(b, o[j]), keys[0]);
            }
            for key in keys.iter().take(10).skip(1) {
                for si in s.iter_mut() {
                    *si = round::<OPEN>(*si, *key);
                }
            }
            for j in 0..WIDE_BATCH {
                let p = _mm_xor_si128(last_round::<OPEN>(s[j], keys[10]), o[j]);
                if OPEN {
                    sum = _mm_xor_si128(sum, p);
                }
                _mm_storeu_si128(out[j].as_mut_ptr().cast(), p);
            }
            off = o[7];
        }
        let tail = src_passes.remainder().iter();
        for ((b, out), r) in tail.zip(dst_passes.into_remainder()).zip(rel) {
            let o = _mm_xor_si128(off, r);
            let b = _mm_loadu_si128(b.as_ptr().cast());
            if !OPEN {
                sum = _mm_xor_si128(sum, b);
            }
            let mut s = _mm_xor_si128(_mm_xor_si128(b, o), keys[0]);
            for key in keys.iter().take(10).skip(1) {
                s = round::<OPEN>(s, *key);
            }
            let p = _mm_xor_si128(last_round::<OPEN>(s, keys[10]), o);
            if OPEN {
                sum = _mm_xor_si128(sum, p);
            }
            _mm_storeu_si128(out.as_mut_ptr().cast(), p);
        }
        let n = src_passes.remainder().len();
        if n > 0 {
            off = _mm_xor_si128(off, rel[n - 1]);
        }
        _mm_storeu_si128(offset.as_mut_ptr().cast(), off);
        _mm_storeu_si128(checksum.as_mut_ptr().cast(), sum);
    }

    /// One middle round on four blocks: `vaesdec` when `OPEN`, else
    /// `vaesenc`.
    ///
    /// # Safety
    /// Caller must have verified VAES and AVX-512F support at runtime.
    #[inline]
    #[target_feature(enable = "avx512f,vaes")]
    unsafe fn round4<const OPEN: bool>(s: __m512i, k: __m512i) -> __m512i {
        if OPEN {
            _mm512_aesdec_epi128(s, k)
        } else {
            _mm512_aesenc_epi128(s, k)
        }
    }

    /// The final round on four blocks: `vaesdeclast` when `OPEN`, else
    /// `vaesenclast`.
    ///
    /// # Safety
    /// Caller must have verified VAES and AVX-512F support at runtime.
    #[inline]
    #[target_feature(enable = "avx512f,vaes")]
    unsafe fn last_round4<const OPEN: bool>(s: __m512i, k: __m512i) -> __m512i {
        if OPEN {
            _mm512_aesdeclast_epi128(s, k)
        } else {
            _mm512_aesenclast_epi128(s, k)
        }
    }

    /// The whole passes of [`ocb`] on VAES-512: each 8-block pass runs as
    /// two vectors of four blocks. `src` holds whole passes only; the
    /// caller hands any remainder to [`ocb`], with `offset` and `checksum`
    /// carried over.
    ///
    /// The eight offsets of pass `k` are `Offset_8k` broadcast to every
    /// lane, xor fixed lane constants (`L_0`, `L_0^L_1`, `L_1`, `L_1^L_2`
    /// and `L_0^L_1^L_2`, `L_0^L_2`, `L_2`, `L_2`), xor `L_ntz(8k+8)` in
    /// the last lane only. The checksum folds in a 512-bit accumulator
    /// whose four lanes are xored together at the end.
    ///
    /// # Safety
    /// Caller must have verified AES-NI, VAES and AVX-512F support at
    /// runtime. For `OPEN`, `rk` is the equivalent-inverse-cipher
    /// schedule.
    #[target_feature(enable = "aes,avx512f,vaes")]
    pub unsafe fn ocb512<const OPEN: bool>(
        rk: &[[u8; 16]; 11],
        l: &[Block],
        first_pass: usize,
        offset: &mut Block,
        checksum: &mut Block,
        src: &[Block],
        dst: &mut [Block],
    ) {
        let keys128 = load_keys(rk);
        let mut keys = [_mm512_setzero_si512(); 11];
        for (k, k128) in keys.iter_mut().zip(keys128) {
            *k = _mm512_broadcast_i32x4(k128);
        }
        let l0 = _mm_loadu_si128(l[0].as_ptr().cast());
        let l1 = _mm_loadu_si128(l[1].as_ptr().cast());
        let l2 = _mm_loadu_si128(l[2].as_ptr().cast());
        let l12 = _mm_xor_si128(l1, l2);
        // Built in registers: four 16-byte stores read back as one
        // 512-bit load would miss store forwarding on every call.
        let lanes = |a, b, c, d| {
            let v = _mm512_inserti32x4::<1>(_mm512_castsi128_si512(a), b);
            _mm512_inserti32x4::<3>(_mm512_inserti32x4::<2>(v, c), d)
        };
        let rel_lo = lanes(l0, _mm_xor_si128(l0, l1), l1, l12);
        let rel_hi = lanes(_mm_xor_si128(l0, l12), _mm_xor_si128(l0, l2), l2, l2);
        let mut off = _mm_loadu_si128(offset.as_ptr().cast());
        let mut sum = _mm512_setzero_si512();
        let passes = src.as_chunks::<WIDE_BATCH>().0;
        let outs = dst.as_chunks_mut::<WIDE_BATCH>().0;
        for (pass, (inp, out)) in passes.iter().zip(outs).enumerate() {
            let ntz = ((first_pass + pass + 1) * WIDE_BATCH).trailing_zeros() as usize;
            let l_ntz = _mm_loadu_si128(l[ntz].as_ptr().cast());
            let base = _mm512_broadcast_i32x4(off);
            let o_lo = _mm512_xor_si512(base, rel_lo);
            let o_hi = _mm512_xor_si512(
                _mm512_xor_si512(base, rel_hi),
                _mm512_maskz_broadcast_i32x4(0xf000, l_ntz),
            );
            let a = _mm512_loadu_si512(inp.as_ptr().cast());
            let b = _mm512_loadu_si512(inp[4..].as_ptr().cast());
            if !OPEN {
                sum = _mm512_xor_si512(sum, _mm512_xor_si512(a, b));
            }
            let mut sa = _mm512_xor_si512(_mm512_xor_si512(a, o_lo), keys[0]);
            let mut sb = _mm512_xor_si512(_mm512_xor_si512(b, o_hi), keys[0]);
            for key in keys.iter().take(10).skip(1) {
                sa = round4::<OPEN>(sa, *key);
                sb = round4::<OPEN>(sb, *key);
            }
            let pa = _mm512_xor_si512(last_round4::<OPEN>(sa, keys[10]), o_lo);
            let pb = _mm512_xor_si512(last_round4::<OPEN>(sb, keys[10]), o_hi);
            if OPEN {
                sum = _mm512_xor_si512(sum, _mm512_xor_si512(pa, pb));
            }
            _mm512_storeu_si512(out.as_mut_ptr().cast(), pa);
            _mm512_storeu_si512(out[4..].as_mut_ptr().cast(), pb);
            off = _mm_xor_si128(_mm_xor_si128(off, l2), l_ntz);
        }
        let mut sum128 = _mm_loadu_si128(checksum.as_ptr().cast());
        sum128 = _mm_xor_si128(sum128, _mm512_extracti32x4_epi32::<0>(sum));
        sum128 = _mm_xor_si128(sum128, _mm512_extracti32x4_epi32::<1>(sum));
        sum128 = _mm_xor_si128(sum128, _mm512_extracti32x4_epi32::<2>(sum));
        sum128 = _mm_xor_si128(sum128, _mm512_extracti32x4_epi32::<3>(sum));
        _mm_storeu_si128(offset.as_mut_ptr().cast(), off);
        _mm_storeu_si128(checksum.as_mut_ptr().cast(), sum128);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn block(s: &str) -> Block {
        hex(s).try_into().unwrap()
    }

    /// The old generic GF(2^8) multiply, kept as the reference for the
    /// fixed-constant `inv_mix_columns`.
    fn mul_ref(a: u8, mut b: u8) -> u8 {
        let mut acc = 0u8;
        let mut a = a;
        while a != 0 {
            if a & 1 != 0 {
                acc ^= b;
            }
            b = xtime(b);
            a >>= 1;
        }
        acc
    }

    fn inv_mix_columns_ref(state: &mut Block) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = mul_ref(0x0e, col[0])
                ^ mul_ref(0x0b, col[1])
                ^ mul_ref(0x0d, col[2])
                ^ mul_ref(0x09, col[3]);
            state[4 * c + 1] = mul_ref(0x09, col[0])
                ^ mul_ref(0x0e, col[1])
                ^ mul_ref(0x0b, col[2])
                ^ mul_ref(0x0d, col[3]);
            state[4 * c + 2] = mul_ref(0x0d, col[0])
                ^ mul_ref(0x09, col[1])
                ^ mul_ref(0x0e, col[2])
                ^ mul_ref(0x0b, col[3]);
            state[4 * c + 3] = mul_ref(0x0b, col[0])
                ^ mul_ref(0x0d, col[1])
                ^ mul_ref(0x09, col[2])
                ^ mul_ref(0x0e, col[3]);
        }
    }

    #[test]
    fn fixed_inv_mix_columns_matches_generic_multiply() {
        hix_testkit::prop::prop("aes_inv_mix_columns_fixed").run(|s| {
            let mut a = s.array_u8::<16>();
            let mut b = a;
            inv_mix_columns(&mut a);
            inv_mix_columns_ref(&mut b);
            assert_eq!(a, b);
        });
    }

    #[test]
    fn encrypt_decrypt_roundtrip_for_arbitrary_keys_and_blocks() {
        hix_testkit::prop::prop("aes_block_roundtrip").run(|s| {
            let aes = Aes128::new(&s.array_u8::<16>());
            let pt = s.array_u8::<16>();
            assert_eq!(aes.decrypt_block(aes.encrypt_block(pt)), pt);
        });
    }

    #[test]
    fn fips197_appendix_b() {
        // FIPS 197 Appendix B worked example.
        let aes = Aes128::new(&block("2b7e151628aed2a6abf7158809cf4f3c"));
        let ct = aes.encrypt_block(block("3243f6a8885a308d313198a2e0370734"));
        assert_eq!(ct, block("3925841d02dc09fbdc118597196a0b32"));
    }

    #[test]
    fn fips197_appendix_c1() {
        // FIPS 197 Appendix C.1 AES-128 known answer.
        let aes = Aes128::new(&block("000102030405060708090a0b0c0d0e0f"));
        let ct = aes.encrypt_block(block("00112233445566778899aabbccddeeff"));
        assert_eq!(ct, block("69c4e0d86a7b0430d8cdb78070b4c55a"));
        assert_eq!(
            aes.decrypt_block(block("69c4e0d86a7b0430d8cdb78070b4c55a")),
            block("00112233445566778899aabbccddeeff")
        );
    }

    #[test]
    fn fips197_appendix_c1_wide_both_backends() {
        // The same known answer through the wide entry points, on whichever
        // backend dispatch picks and on the portable core explicitly.
        let aes = Aes128::new(&block("000102030405060708090a0b0c0d0e0f"));
        for ctx in [aes.clone(), aes.portable()] {
            let mut blocks = [block("00112233445566778899aabbccddeeff"); 9];
            ctx.encrypt_blocks(&mut blocks);
            for b in &blocks {
                assert_eq!(
                    *b,
                    block("69c4e0d86a7b0430d8cdb78070b4c55a"),
                    "{}",
                    ctx.backend()
                );
            }
            ctx.decrypt_blocks(&mut blocks);
            for b in &blocks {
                assert_eq!(
                    *b,
                    block("00112233445566778899aabbccddeeff"),
                    "{}",
                    ctx.backend()
                );
            }
        }
    }

    #[test]
    fn aesavs_varkey_vectors() {
        // NIST AESAVS VarKey known answers (plaintext = 0).
        let cases = [
            (
                "80000000000000000000000000000000",
                "0edd33d3c621e546455bd8ba1418bec8",
            ),
            (
                "c0000000000000000000000000000000",
                "4bc3f883450c113c64ca42e1112a9e87",
            ),
            (
                "ffffffffffffffffffffffffffffffff",
                "a1f6258c877d5fcd8964484538bfc92c",
            ),
        ];
        for (k, c) in cases {
            let aes = Aes128::new(&block(k));
            assert_eq!(aes.encrypt_block([0u8; 16]), block(c), "key {k}");
            // Wide paths agree on the same vector.
            for ctx in [aes.clone(), aes.portable()] {
                let mut w = [[0u8; 16]];
                ctx.encrypt_blocks(&mut w);
                assert_eq!(w[0], block(c), "wide {} key {k}", ctx.backend());
                ctx.decrypt_blocks(&mut w);
                assert_eq!(w[0], [0u8; 16], "wide-dec {} key {k}", ctx.backend());
            }
        }
    }

    #[test]
    fn wide_backends_match_scalar_oracle() {
        // Differential: both wide backends byte-identical to the scalar
        // reference over generated keys and block runs that straddle the
        // 8-block batch boundary.
        hix_testkit::prop::prop("aes_wide_vs_scalar").run(|s| {
            let aes = Aes128::new(&s.array_u8::<16>());
            let n = (s.u64() % 21) as usize; // 0..=20 blocks: remainders + full batches
            let mut blocks = vec![[0u8; 16]; n];
            for b in blocks.iter_mut() {
                *b = s.array_u8::<16>();
            }
            let expect_ct: Vec<Block> = blocks.iter().map(|b| aes.encrypt_block(*b)).collect();
            for ctx in [aes.clone(), aes.portable()] {
                let mut w = blocks.clone();
                ctx.encrypt_blocks(&mut w);
                assert_eq!(w, expect_ct, "encrypt {}", ctx.backend());
                ctx.decrypt_blocks(&mut w);
                assert_eq!(w, blocks, "decrypt {}", ctx.backend());
            }
        });
    }

    #[test]
    fn roundtrip_random_blocks() {
        let aes = Aes128::new(&block("2b7e151628aed2a6abf7158809cf4f3c"));
        let mut x = [0x5au8; 16];
        for _ in 0..100 {
            let ct = aes.encrypt_block(x);
            assert_eq!(aes.decrypt_block(ct), x);
            x = ct; // chain to vary inputs
        }
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes128::new(&[7u8; 16]);
        let s = format!("{aes:?}");
        assert!(!s.contains("07"), "debug output must not contain key bytes");
        assert!(!s.is_empty());
    }
}
