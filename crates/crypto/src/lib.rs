//! # hix-crypto — cryptographic primitives for the HIX reproduction
//!
//! Everything HIX needs, implemented from scratch and tested against
//! published vectors:
//!
//! * [`aes`] — AES-128 block cipher (FIPS 197).
//! * [`ocb`] — OCB authenticated encryption (RFC 7253), the algorithm the
//!   paper uses for all DMA / inter-enclave data protection ("OCB-AES-128",
//!   §5.2).
//! * [`sha256`] / [`hmac`] — SHA-256 and HMAC-SHA-256, used for enclave
//!   measurement, report MACs, and key derivation.
//! * [`dh`] — finite-field Diffie–Hellman (RFC 3526 group 14) for the
//!   user-enclave / GPU-enclave / GPU key agreement (§4.4.1).
//! * [`kdf`] — HKDF-style key derivation over HMAC-SHA-256.
//! * [`drbg`] — a deterministic HMAC-DRBG for reproducible simulations.
//!
//! This crate is pure (no simulator dependencies): it operates on byte
//! slices only. Virtual-time charging for crypto happens in the layers
//! that call it.
//!
//! ## Hardware paths and their oracles
//!
//! The crate is safe Rust except for two private modules on x86_64:
//! `aes::ni` (AES-NI: the 8-block wide core and OCB's whole-block loop
//! fused into it, with a VAES-512 tier for whole 8-block passes) and
//! `sha256::ni` (the SHA extensions). Both are fenced the same way.
//! Every `unsafe fn` in them is `#[target_feature]`. It is reached only
//! through a safe method that checks a detection flag the context stored
//! when it was built (`use_ni` and `use_vaes` in [`aes::Aes128`], `use_ni`
//! in [`sha256::Sha256`]), and that call carries a `// SAFETY:` note.
//! Each hardware path keeps a portable oracle beside it, which the
//! differential suites compare it against: [`aes::Aes128::portable`],
//! [`ocb::Ocb::portable`] and [`sha256::Sha256::portable`];
//! [`ocb::Ocb::aesni`] keeps the 128-bit OCB kernel reachable on a VAES
//! host. The pseudo-Mersenne field path in [`bignum`], which the
//! simulator's 256-bit DH group takes (and the fixed-base comb for its
//! generator), is safe Rust and chosen from the modulus alone; its oracles
//! are the slice CIOS ([`bignum::Uint::modpow_slice`]) and the ladder.
//!
//! OCB also runs over a message held in pieces ([`ocb::Ocb::stream`]):
//! runs of whole blocks from any block index, then a finish step for the
//! tail and the tag. The HIX data plane uses it to seal and open bulk
//! chunks straight in the pages of the shared window and of VRAM.
//!
//! ```
//! use hix_crypto::ocb::{self, Key, Nonce};
//!
//! let key = Key::from_bytes([0u8; 16]);
//! let nonce = Nonce::from_counter(1);
//! let sealed = ocb::seal(&key, &nonce, b"header", b"secret payload");
//! let opened = ocb::open(&key, &nonce, b"header", &sealed).unwrap();
//! assert_eq!(opened, b"secret payload");
//! ```

#![warn(missing_docs)]

pub mod aes;
pub mod bignum;
pub mod dh;
pub mod drbg;
pub mod hmac;
pub mod kdf;
pub mod ocb;
pub mod sha256;

/// Constant-time equality over byte slices.
///
/// Returns `false` immediately if lengths differ; within equal-length
/// comparisons the timing does not depend on the data.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }
}
