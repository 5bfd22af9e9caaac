//! OCB authenticated encryption (RFC 7253) over AES-128.
//!
//! This is the algorithm HIX uses for every piece of data crossing an
//! untrusted medium: the inter-enclave shared memory, the DMA buffers, and
//! the GPU-side crypto kernels (§4.3.3, §5.2 — "OCB-AES-128 authenticated
//! encryption"). Verified against the RFC 7253 Appendix A vectors.
//!
//! The bulk paths are built for throughput: [`Ocb::seal_into`] /
//! [`Ocb::open_into`] are zero-allocation and hand a message's whole
//! blocks to one loop. On AES-NI that loop is fused into the AES pipeline
//! (`Aes128::ocb_blocks`): each 8-block pass computes its offsets, runs
//! the rounds and folds the checksum, and the round keys are loaded once
//! per run; on VAES hardware each pass runs as two 512-bit vectors. The
//! portable loop, which [`Ocb::portable`] pins and the differential suite
//! compares against, walks the message [`WIDE_BATCH`] blocks at a time,
//! precomputing each pass's offset ladder and handing the batch to the
//! wide AES core. The partial tail, the tag and the AAD hash are shared
//! Rust. [`Ocb::seal`] / [`Ocb::open`] are thin allocating wrappers over
//! them.
//!
//! A message need not sit in one slice. [`Ocb::stream`] starts an
//! [`OcbStream`] that seals or opens runs of whole blocks wherever they
//! live (one page at a time, say) and then finishes the tail and the
//! tag. `seal_into`/`open_into` are one run plus a finish, so one-shot
//! and streamed messages share one loop and produce the same bytes.

use crate::aes::{Aes128, Block, BLOCK, WIDE_BATCH};
use crate::ct_eq;

/// Authentication tag length in bytes (TAGLEN = 128 bits).
pub const TAG_LEN: usize = 16;

/// Nonce length in bytes (96-bit nonces, the RFC-recommended size).
pub const NONCE_LEN: usize = 12;

/// An OCB-AES-128 key.
#[derive(Clone)]
pub struct Key([u8; 16]);

impl Key {
    /// Wraps raw key bytes.
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        Key(bytes)
    }

    /// Borrows the raw key bytes (for key-derivation plumbing only).
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Key(<hidden>)")
    }
}

/// A 96-bit OCB nonce. Nonces must never repeat under one key; HIX uses an
/// incrementing counter per direction (§5.5: "an incrementing nonce is
/// also used to ensure freshness ... and to prevent replay attacks").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Nonce([u8; NONCE_LEN]);

impl Nonce {
    /// Wraps raw nonce bytes.
    pub fn from_bytes(bytes: [u8; NONCE_LEN]) -> Self {
        Nonce(bytes)
    }

    /// Builds a nonce from a message counter (big-endian in the low bytes).
    pub fn from_counter(counter: u64) -> Self {
        let mut n = [0u8; NONCE_LEN];
        n[4..].copy_from_slice(&counter.to_be_bytes());
        Nonce(n)
    }

    /// Raw bytes.
    pub fn as_bytes(&self) -> &[u8; NONCE_LEN] {
        &self.0
    }
}

/// Decryption failure: the tag did not verify (data was tampered with, or
/// key/nonce/AAD mismatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagMismatch;

impl std::fmt::Display for TagMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("authentication tag mismatch")
    }
}

impl std::error::Error for TagMismatch {}

fn double(b: Block) -> Block {
    let mut out = [0u8; BLOCK];
    let mut carry = 0u8;
    for i in (0..BLOCK).rev() {
        out[i] = (b[i] << 1) | carry;
        carry = b[i] >> 7;
    }
    if carry == 1 {
        out[BLOCK - 1] ^= 0x87;
    }
    out
}

fn xor(a: &Block, b: &Block) -> Block {
    let mut out = *a;
    for (o, x) in out.iter_mut().zip(b) {
        *o ^= x;
    }
    out
}

/// Encrypts one block through the wide core, so OCB's single-block calls
/// (initial offset, tag, partial tail, AAD tail) take AES-NI when the CPU
/// has it and the T-table path otherwise. The scalar
/// [`Aes128::encrypt_block`] stays the reference oracle.
#[inline]
fn encrypt_one(aes: &Aes128, block: Block) -> Block {
    let mut one = [block];
    aes.encrypt_blocks(&mut one);
    one[0]
}

/// A ready-to-use OCB context (expanded key + L table cache).
///
/// ```
/// use hix_crypto::ocb::{Ocb, Key, Nonce};
/// let ocb = Ocb::new(&Key::from_bytes([0; 16]));
/// let ct = ocb.seal(&Nonce::from_counter(7), b"aad", b"data");
/// assert_eq!(ocb.open(&Nonce::from_counter(7), b"aad", &ct).unwrap(), b"data");
/// assert!(ocb.open(&Nonce::from_counter(8), b"aad", &ct).is_err());
/// ```
#[derive(Clone)]
pub struct Ocb {
    aes: Aes128,
    l_star: Block,
    l_dollar: Block,
    l: Vec<Block>, // L_0, L_1, ... grown on demand up to 64 entries
}

impl std::fmt::Debug for Ocb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Ocb(<keyed context>)")
    }
}

impl Ocb {
    /// Builds the context, precomputing the L table.
    pub fn new(key: &Key) -> Self {
        let aes = Aes128::new(&key.0);
        let l_star = encrypt_one(&aes, [0u8; 16]);
        let l_dollar = double(l_star);
        let mut l = Vec::with_capacity(64);
        l.push(double(l_dollar));
        for i in 1..64 {
            let prev = l[i - 1];
            l.push(double(prev));
        }
        Ocb {
            aes,
            l_star,
            l_dollar,
            l,
        }
    }

    /// Returns a clone of this keyed context pinned to the portable AES
    /// backend (see [`Aes128::portable`]) and so to the portable
    /// whole-block loop; the differential suite uses it as the oracle for
    /// the fused AES-NI loop.
    pub fn portable(&self) -> Self {
        Ocb {
            aes: self.aes.portable(),
            l_star: self.l_star,
            l_dollar: self.l_dollar,
            l: self.l.clone(),
        }
    }

    /// Returns a clone of this keyed context that never takes the VAES
    /// tier (see [`Aes128::aesni`]), so its whole passes run on the
    /// 128-bit AES-NI kernel; the differential suite uses it to reach that
    /// kernel on a VAES host.
    pub fn aesni(&self) -> Self {
        Ocb {
            aes: self.aes.aesni(),
            l_star: self.l_star,
            l_dollar: self.l_dollar,
            l: self.l.clone(),
        }
    }

    /// The AES backend this context runs on (see [`Aes128::backend`]).
    pub fn backend(&self) -> &'static str {
        self.aes.backend()
    }

    fn initial_offset(&self, nonce: &Nonce) -> Block {
        // TAGLEN = 128 -> the 7-bit tag field is zero.
        let mut full = [0u8; 16];
        full[16 - NONCE_LEN - 1] = 0x01;
        full[16 - NONCE_LEN..].copy_from_slice(&nonce.0);
        let bottom = (full[15] & 0x3f) as usize;
        let mut masked = full;
        masked[15] &= 0xc0;
        let ktop = encrypt_one(&self.aes, masked);
        let mut stretch = [0u8; 24];
        stretch[..16].copy_from_slice(&ktop);
        for i in 0..8 {
            stretch[16 + i] = ktop[i] ^ ktop[i + 1];
        }
        // Offset_0 = Stretch[1+bottom .. 128+bottom] (bit indices).
        let byte = bottom / 8;
        let bit = bottom % 8;
        let mut offset = [0u8; 16];
        for i in 0..16 {
            offset[i] = if bit == 0 {
                stretch[byte + i]
            } else {
                (stretch[byte + i] << bit) | (stretch[byte + i + 1] >> (8 - bit))
            };
        }
        offset
    }

    /// Advances the offset ladder across one wide pass: offsets for blocks
    /// `base+1 ..= base+k` (1-indexed as in the RFC), leaving `offset` at
    /// the last rung.
    #[inline]
    fn ladder(&self, offset: &mut Block, base: usize, k: usize, offs: &mut [Block; WIDE_BATCH]) {
        for (j, o) in offs.iter_mut().enumerate().take(k) {
            let i = (base + j) as u64 + 1;
            *offset = xor(offset, &self.l[i.trailing_zeros() as usize]);
            *o = *offset;
        }
    }

    /// Seals (opens, when `OPEN`) a run of whole blocks, `src[j]` being
    /// message block `first + j + 1`, into `dst`. `offset` comes in as
    /// `Offset_first` and leaves at the run's last block; every plaintext
    /// block, read or recovered, is folded into `checksum`. Blocks before
    /// the next 8-block boundary take the per-block ladder, so the fused
    /// kernel in [`Aes128`] always starts on a pass; the portable context
    /// runs the whole run through the ladder.
    fn run<const OPEN: bool>(
        &self,
        first: usize,
        offset: &mut Block,
        checksum: &mut Block,
        src: &[Block],
        dst: &mut [Block],
    ) {
        let lead = (first.wrapping_neg() % WIDE_BATCH).min(src.len());
        let (src_lead, src) = src.split_at(lead);
        let (dst_lead, dst) = dst.split_at_mut(lead);
        self.ladder_run::<OPEN>(first, offset, checksum, src_lead, dst_lead);
        let first = first + lead;
        if !self
            .aes
            .ocb_blocks::<OPEN>(&self.l, first / WIDE_BATCH, offset, checksum, src, dst)
        {
            self.ladder_run::<OPEN>(first, offset, checksum, src, dst);
        }
    }

    /// The portable loop behind [`Self::run`]: [`WIDE_BATCH`] blocks per
    /// pass through the offset ladder and the wide AES core, from any
    /// block index.
    fn ladder_run<const OPEN: bool>(
        &self,
        first: usize,
        offset: &mut Block,
        checksum: &mut Block,
        src: &[Block],
        dst: &mut [Block],
    ) {
        let mut offs = [[0u8; 16]; WIDE_BATCH];
        let mut blocks = [[0u8; 16]; WIDE_BATCH];
        let mut done = 0;
        while done < src.len() {
            let k = WIDE_BATCH.min(src.len() - done);
            self.ladder(offset, first + done, k, &mut offs);
            for j in 0..k {
                if !OPEN {
                    *checksum = xor(checksum, &src[done + j]);
                }
                blocks[j] = xor(&src[done + j], &offs[j]);
            }
            if OPEN {
                self.aes.decrypt_blocks(&mut blocks[..k]);
            } else {
                self.aes.encrypt_blocks(&mut blocks[..k]);
            }
            for j in 0..k {
                dst[done + j] = xor(&blocks[j], &offs[j]);
                if OPEN {
                    *checksum = xor(checksum, &dst[done + j]);
                }
            }
            done += k;
        }
    }

    fn hash_aad(&self, aad: &[u8]) -> Block {
        let mut sum = [0u8; 16];
        let mut offset = [0u8; 16];
        let full = aad.len() / BLOCK;
        let mut offs = [[0u8; 16]; WIDE_BATCH];
        let mut blocks = [[0u8; 16]; WIDE_BATCH];
        let mut done = 0;
        while done < full {
            let k = WIDE_BATCH.min(full - done);
            self.ladder(&mut offset, done, k, &mut offs);
            for j in 0..k {
                blocks[j].copy_from_slice(&aad[(done + j) * BLOCK..][..BLOCK]);
                blocks[j] = xor(&blocks[j], &offs[j]);
            }
            self.aes.encrypt_blocks(&mut blocks[..k]);
            for b in blocks.iter().take(k) {
                sum = xor(&sum, b);
            }
            done += k;
        }
        let rest = &aad[full * BLOCK..];
        if !rest.is_empty() {
            offset = xor(&offset, &self.l_star);
            let mut block = [0u8; 16];
            block[..rest.len()].copy_from_slice(rest);
            block[rest.len()] = 0x80;
            sum = xor(&sum, &encrypt_one(&self.aes, xor(&block, &offset)));
        }
        sum
    }

    /// Starts sealing or opening one message under `nonce`, run by run.
    ///
    /// ```
    /// use hix_crypto::ocb::{Key, Nonce, Ocb, TAG_LEN};
    /// let ocb = Ocb::new(&Key::from_bytes([5; 16]));
    /// let msg = [7u8; 40];
    /// let mut sealed = [0u8; 40 + TAG_LEN];
    /// let mut s = ocb.stream(&Nonce::from_counter(1));
    /// s.seal_run(&msg[..16], &mut sealed[..16]);
    /// s.seal_run(&msg[16..32], &mut sealed[16..32]);
    /// let tag = s.seal_finish(b"aad", &msg[32..], &mut sealed[32..40]);
    /// sealed[40..].copy_from_slice(&tag);
    /// assert_eq!(sealed.to_vec(), ocb.seal(&Nonce::from_counter(1), b"aad", &msg));
    /// ```
    pub fn stream(&self, nonce: &Nonce) -> OcbStream<'_> {
        OcbStream {
            ocb: self,
            offset: self.initial_offset(nonce),
            checksum: [0u8; 16],
            blocks: 0,
        }
    }

    /// Encrypts `plaintext` bound to `aad`, returning `ciphertext || tag`.
    ///
    /// Allocating wrapper over [`Self::seal_into`].
    pub fn seal(&self, nonce: &Nonce, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; plaintext.len() + TAG_LEN];
        self.seal_into(nonce, aad, plaintext, &mut out);
        out
    }

    /// Encrypts `plaintext` bound to `aad` into `out` without allocating.
    ///
    /// `out` must be exactly `plaintext.len() + TAG_LEN` bytes; it receives
    /// `ciphertext || tag`. The whole blocks are sealed [`WIDE_BATCH`] per
    /// pass with the plaintext checksum accumulated in the same pass (see
    /// the module docs for the two loops).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != plaintext.len() + TAG_LEN`.
    pub fn seal_into(&self, nonce: &Nonce, aad: &[u8], plaintext: &[u8], out: &mut [u8]) {
        assert_eq!(
            out.len(),
            plaintext.len() + TAG_LEN,
            "seal_into: out must hold ciphertext || tag"
        );
        let whole = plaintext.len() / BLOCK * BLOCK;
        let (body, tag) = out.split_at_mut(plaintext.len());
        let (body, tail) = body.split_at_mut(whole);
        let mut offset = self.initial_offset(nonce);
        let mut checksum = [0u8; 16];
        let blocks = plaintext[..whole].as_chunks().0;
        self.run::<false>(
            0,
            &mut offset,
            &mut checksum,
            blocks,
            body.as_chunks_mut().0,
        );
        let tail_in = &plaintext[whole..];
        tag.copy_from_slice(&self.finish::<false>(&mut offset, &mut checksum, aad, tail_in, tail));
    }

    /// Decrypts `sealed` (`ciphertext || tag`) bound to `aad`.
    ///
    /// Allocating wrapper over [`Self::open_into`].
    ///
    /// # Errors
    ///
    /// Returns [`TagMismatch`] if the input is shorter than a tag or the
    /// tag fails to verify. No plaintext is released on failure.
    pub fn open(&self, nonce: &Nonce, aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>, TagMismatch> {
        if sealed.len() < TAG_LEN {
            return Err(TagMismatch);
        }
        let mut out = vec![0u8; sealed.len() - TAG_LEN];
        self.open_into(nonce, aad, sealed, &mut out)?;
        Ok(out)
    }

    /// Decrypts `sealed` (`ciphertext || tag`) into `out` without
    /// allocating; the mirror of [`Self::seal_into`], running the wide
    /// decrypt path so open costs the same as seal.
    ///
    /// `out` must be exactly `sealed.len() - TAG_LEN` bytes. On tag
    /// mismatch `out` is zeroed before returning, so no plaintext is
    /// released on failure.
    ///
    /// # Errors
    ///
    /// Returns [`TagMismatch`] if the input is shorter than a tag or the
    /// tag fails to verify.
    ///
    /// # Panics
    ///
    /// Panics if `sealed` holds a tag but `out.len() != sealed.len() - TAG_LEN`.
    pub fn open_into(
        &self,
        nonce: &Nonce,
        aad: &[u8],
        sealed: &[u8],
        out: &mut [u8],
    ) -> Result<(), TagMismatch> {
        if sealed.len() < TAG_LEN {
            return Err(TagMismatch);
        }
        let (ciphertext, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        assert_eq!(
            out.len(),
            ciphertext.len(),
            "open_into: out must hold the plaintext"
        );
        let whole = ciphertext.len() / BLOCK * BLOCK;
        let mut offset = self.initial_offset(nonce);
        let mut checksum = [0u8; 16];
        let (body, tail) = out.split_at_mut(whole);
        let blocks = ciphertext[..whole].as_chunks().0;
        self.run::<true>(
            0,
            &mut offset,
            &mut checksum,
            blocks,
            body.as_chunks_mut().0,
        );
        let tail_in = &ciphertext[whole..];
        let expect = self.finish::<true>(&mut offset, &mut checksum, aad, tail_in, tail);
        if ct_eq(&expect, tag) {
            Ok(())
        } else {
            out.fill(0);
            Err(TagMismatch)
        }
    }

    /// The partial tail and the tag, after the whole blocks: seals
    /// (opens, when `OPEN`) `tail`, under a block, into `out`, folds the
    /// plaintext tail into `checksum` and returns the tag over the whole
    /// message bound to `aad`.
    fn finish<const OPEN: bool>(
        &self,
        offset: &mut Block,
        checksum: &mut Block,
        aad: &[u8],
        tail: &[u8],
        out: &mut [u8],
    ) -> Block {
        if !tail.is_empty() {
            *offset = xor(offset, &self.l_star);
            let pad = encrypt_one(&self.aes, *offset);
            for ((o, t), k) in out.iter_mut().zip(tail).zip(&pad) {
                *o = t ^ k;
            }
            let mut padded = [0u8; 16];
            padded[..tail.len()].copy_from_slice(if OPEN { out } else { tail });
            padded[tail.len()] = 0x80;
            *checksum = xor(checksum, &padded);
        }
        let tag_body = xor(&xor(checksum, offset), &self.l_dollar);
        xor(&encrypt_one(&self.aes, tag_body), &self.hash_aad(aad))
    }
}

/// One OCB message in progress (see [`Ocb::stream`]): the running offset,
/// the checksum and the number of whole blocks done. Runs of whole
/// blocks go through [`Self::seal_run`] or [`Self::open_run`] in message
/// order, each starting where the last one ended; then
/// [`Self::seal_finish`] or [`Self::open_finish`] takes the partial tail
/// and produces or checks the tag. A stream is used for one direction.
pub struct OcbStream<'a> {
    ocb: &'a Ocb,
    offset: Block,
    checksum: Block,
    blocks: usize,
}

impl OcbStream<'_> {
    /// Seals the next run of whole plaintext blocks, `src`, into `dst`.
    ///
    /// # Panics
    ///
    /// Panics unless `src` is a whole number of blocks and `dst` is as
    /// long as `src`.
    pub fn seal_run(&mut self, src: &[u8], dst: &mut [u8]) {
        self.run::<false>(src, dst);
    }

    /// Opens the next run of whole ciphertext blocks, `src`, into `dst`.
    /// The plaintext is not yet authenticated: a caller may release it
    /// only after [`Self::open_finish`] succeeds.
    ///
    /// # Panics
    ///
    /// Panics unless `src` is a whole number of blocks and `dst` is as
    /// long as `src`.
    pub fn open_run(&mut self, src: &[u8], dst: &mut [u8]) {
        self.run::<true>(src, dst);
    }

    fn run<const OPEN: bool>(&mut self, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len() % BLOCK, 0, "a run holds whole blocks");
        assert_eq!(dst.len(), src.len(), "a run's output must match its input");
        let src = src.as_chunks::<BLOCK>().0;
        let dst = dst.as_chunks_mut::<BLOCK>().0;
        self.ocb
            .run::<OPEN>(self.blocks, &mut self.offset, &mut self.checksum, src, dst);
        self.blocks += src.len();
    }

    /// Seals the partial tail (`tail`, under a block) into `tail_out` and
    /// returns the tag over the whole message bound to `aad`.
    ///
    /// # Panics
    ///
    /// Panics if `tail` holds a whole block or `tail_out` is not as long
    /// as `tail`.
    pub fn seal_finish(mut self, aad: &[u8], tail: &[u8], tail_out: &mut [u8]) -> [u8; TAG_LEN] {
        check_tail(tail, tail_out);
        self.ocb
            .finish::<false>(&mut self.offset, &mut self.checksum, aad, tail, tail_out)
    }

    /// Opens the partial tail (`tail`, under a block) into `tail_out` and
    /// checks `tag` over the whole message bound to `aad`. On a mismatch
    /// `tail_out` is zeroed; the caller must discard what the runs
    /// released.
    ///
    /// # Errors
    ///
    /// Returns [`TagMismatch`] if the tag fails to verify.
    ///
    /// # Panics
    ///
    /// Panics if `tail` holds a whole block or `tail_out` is not as long
    /// as `tail`.
    pub fn open_finish(
        mut self,
        aad: &[u8],
        tail: &[u8],
        tag: &[u8],
        tail_out: &mut [u8],
    ) -> Result<(), TagMismatch> {
        check_tail(tail, tail_out);
        let expect =
            self.ocb
                .finish::<true>(&mut self.offset, &mut self.checksum, aad, tail, tail_out);
        if ct_eq(&expect, tag) {
            Ok(())
        } else {
            tail_out.fill(0);
            Err(TagMismatch)
        }
    }
}

fn check_tail(tail: &[u8], out: &[u8]) {
    assert!(tail.len() < BLOCK, "the tail is a partial block");
    assert_eq!(
        out.len(),
        tail.len(),
        "the tail's output must match its input"
    );
}

/// One-shot seal with a fresh context (prefer [`Ocb`] for bulk use).
pub fn seal(key: &Key, nonce: &Nonce, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    Ocb::new(key).seal(nonce, aad, plaintext)
}

/// One-shot open with a fresh context.
///
/// # Errors
///
/// Returns [`TagMismatch`] when authentication fails.
pub fn open(key: &Key, nonce: &Nonce, aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>, TagMismatch> {
    Ocb::new(key).open(nonce, aad, sealed)
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

    fn rfc_key() -> Key {
        Key::from_bytes(hex("000102030405060708090A0B0C0D0E0F").try_into().unwrap())
    }

    fn rfc_nonce(last: &str) -> Nonce {
        Nonce::from_bytes(
            hex(&format!("BBAA9988776655443322110{last}"))
                .try_into()
                .unwrap(),
        )
    }

    #[test]
    fn rfc7253_empty() {
        let c = seal(&rfc_key(), &rfc_nonce("0"), b"", b"");
        assert_eq!(c, hex("785407BFFFC8AD9EDCC5520AC9111EE6"));
    }

    #[test]
    fn rfc7253_one_block_each() {
        let a = hex("0001020304050607");
        let p = hex("0001020304050607");
        let c = seal(&rfc_key(), &rfc_nonce("1"), &a, &p);
        assert_eq!(c, hex("6820B3657B6F615A5725BDA0D3B4EB3A257C9AF1F8F03009"));
    }

    #[test]
    fn rfc7253_aad_only() {
        let a = hex("0001020304050607");
        let c = seal(&rfc_key(), &rfc_nonce("2"), &a, b"");
        assert_eq!(c, hex("81017F8203F081277152FADE694A0A00"));
    }

    #[test]
    fn rfc7253_plaintext_only() {
        let p = hex("0001020304050607");
        let c = seal(&rfc_key(), &rfc_nonce("3"), b"", &p);
        assert_eq!(c, hex("45DD69F8F5AAE72414054CD1F35D82760B2CD00D2F99BFA9"));
    }

    #[test]
    fn rfc7253_full_block() {
        let m = hex("000102030405060708090A0B0C0D0E0F");
        let c = seal(&rfc_key(), &rfc_nonce("4"), &m, &m);
        assert_eq!(
            c,
            hex("571D535B60B277188BE5147170A9A22C3AD7A4FF3835B8C5701C1CCEC8FC3358")
        );
    }

    #[test]
    fn rfc7253_24_bytes() {
        let m = hex("000102030405060708090A0B0C0D0E0F1011121314151617");
        let c = seal(&rfc_key(), &rfc_nonce("6"), &m, &m);
        assert_eq!(
            c,
            hex("5CE88EC2E0692706A915C00AEB8B23968467B2CFBB580496923A4C5285B1F9AE693442EC9CDFB030")
        );
    }

    #[test]
    fn rfc7253_40_bytes_partial_final_block() {
        let m =
            hex("000102030405060708090A0B0C0D0E0F101112131415161718191A1B1C1D1E1F2021222324252627");
        let c = seal(&rfc_key(), &rfc_nonce("F"), &m, &m);
        assert_eq!(
            c,
            hex("4412923493C57D5DE0D700F753CCE0D1D2D95060122E9F15A5DDBFC5787E50B5CC55EE507BCB084E240A353649432AC6C1BDA9ACBA93F56D")
        );
    }

    #[test]
    fn rfc7253_iterated_wide_test() {
        // RFC 7253 Appendix A iterated algorithm: exercises every message
        // length 0..=127 (multi-block, partial blocks, AAD-only, PT-only)
        // and yields a single published check value.
        let key = Key::from_bytes({
            let mut k = [0u8; 16];
            k[15] = 128; // num2str(TAGLEN, 8)
            k
        });
        let ocb = Ocb::new(&key);
        let nonce_of = |n: u32| {
            let mut b = [0u8; NONCE_LEN];
            b[8..].copy_from_slice(&n.to_be_bytes());
            Nonce::from_bytes(b)
        };
        let mut c = Vec::new();
        for i in 0u32..128 {
            let s = vec![0u8; i as usize];
            c.extend(ocb.seal(&nonce_of(3 * i + 1), &s, &s));
            c.extend(ocb.seal(&nonce_of(3 * i + 2), b"", &s));
            c.extend(ocb.seal(&nonce_of(3 * i + 3), &s, b""));
        }
        let out = ocb.seal(&nonce_of(385), &c, b"");
        assert_eq!(out, hex("67E944D23256C5E0B6C61FA22FDF1EA2"));
    }

    #[test]
    fn rfc7253_iterated_wide_test_portable_backend() {
        // Same iterated check value with the wide path pinned to the
        // portable table backend.
        let key = Key::from_bytes({
            let mut k = [0u8; 16];
            k[15] = 128;
            k
        });
        let ocb = Ocb::new(&key).portable();
        let nonce_of = |n: u32| {
            let mut b = [0u8; NONCE_LEN];
            b[8..].copy_from_slice(&n.to_be_bytes());
            Nonce::from_bytes(b)
        };
        let mut c = Vec::new();
        for i in 0u32..128 {
            let s = vec![0u8; i as usize];
            c.extend(ocb.seal(&nonce_of(3 * i + 1), &s, &s));
            c.extend(ocb.seal(&nonce_of(3 * i + 2), b"", &s));
            c.extend(ocb.seal(&nonce_of(3 * i + 3), &s, b""));
        }
        let out = ocb.seal(&nonce_of(385), &c, b"");
        assert_eq!(out, hex("67E944D23256C5E0B6C61FA22FDF1EA2"));
    }

    #[test]
    fn roundtrip_many_lengths() {
        let ocb = Ocb::new(&rfc_key());
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 100, 127, 128, 129, 1000] {
            let p: Vec<u8> = (0..len as u32).map(|i| i as u8).collect();
            let n = Nonce::from_counter(len as u64);
            let sealed = ocb.seal(&n, b"hdr", &p);
            assert_eq!(sealed.len(), len + TAG_LEN);
            assert_eq!(ocb.open(&n, b"hdr", &sealed).unwrap(), p, "len {len}");
        }
    }

    #[test]
    fn seal_into_open_into_match_allocating_paths() {
        let ocb = Ocb::new(&rfc_key());
        for len in [0usize, 1, 15, 16, 17, 127, 128, 129, 1000] {
            let p: Vec<u8> = (0..len as u32).map(|i| (i * 7) as u8).collect();
            let n = Nonce::from_counter(1000 + len as u64);
            let sealed = ocb.seal(&n, b"hdr", &p);
            let mut buf = vec![0u8; len + TAG_LEN];
            ocb.seal_into(&n, b"hdr", &p, &mut buf);
            assert_eq!(buf, sealed, "len {len}");
            let mut plain = vec![0xffu8; len];
            ocb.open_into(&n, b"hdr", &buf, &mut plain).unwrap();
            assert_eq!(plain, p, "len {len}");
        }
    }

    #[test]
    fn open_into_zeroes_output_on_mismatch() {
        let ocb = Ocb::new(&rfc_key());
        let n = Nonce::from_counter(1);
        let mut sealed = ocb.seal(&n, b"a", &[0x5au8; 40]);
        sealed[3] ^= 1;
        let mut out = vec![0xffu8; 40];
        assert_eq!(ocb.open_into(&n, b"a", &sealed, &mut out), Err(TagMismatch));
        assert!(
            out.iter().all(|&b| b == 0),
            "plaintext must not leak on failure"
        );
    }

    #[test]
    fn tamper_detection() {
        let ocb = Ocb::new(&rfc_key());
        let n = Nonce::from_counter(1);
        let mut sealed = ocb.seal(&n, b"a", b"payload");
        // Flip every byte position in turn; all must be rejected.
        for i in 0..sealed.len() {
            sealed[i] ^= 1;
            assert_eq!(ocb.open(&n, b"a", &sealed), Err(TagMismatch), "pos {i}");
            sealed[i] ^= 1;
        }
        // Sanity: unmodified opens.
        assert!(ocb.open(&n, b"a", &sealed).is_ok());
    }

    #[test]
    fn wrong_context_rejected() {
        let ocb = Ocb::new(&rfc_key());
        let n = Nonce::from_counter(1);
        let sealed = ocb.seal(&n, b"a", b"payload");
        assert!(ocb.open(&Nonce::from_counter(2), b"a", &sealed).is_err());
        assert!(ocb.open(&n, b"b", &sealed).is_err());
        let other = Ocb::new(&Key::from_bytes([9u8; 16]));
        assert!(other.open(&n, b"a", &sealed).is_err());
        assert!(
            ocb.open(&n, b"a", &sealed[..10]).is_err(),
            "truncated input"
        );
    }

    #[test]
    fn nonce_from_counter_distinct() {
        assert_ne!(Nonce::from_counter(1), Nonce::from_counter(2));
        assert_eq!(Nonce::from_counter(7).as_bytes()[11], 7);
    }

    #[test]
    fn debug_hides_key() {
        assert_eq!(format!("{:?}", rfc_key()), "Key(<hidden>)");
        assert_eq!(
            format!("{:?}", Ocb::new(&rfc_key())),
            "Ocb(<keyed context>)"
        );
    }
}
