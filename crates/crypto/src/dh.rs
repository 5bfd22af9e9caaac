//! Finite-field Diffie–Hellman key agreement (§4.4.1 of the paper).
//!
//! The paper's enclaves run local attestation and then a Diffie–Hellman
//! exchange (extended to three parties: user enclave, GPU enclave, GPU) to
//! establish OCB-AES session keys. Two groups are provided:
//!
//! * [`DhGroup::modp2048`] — RFC 3526 group 14, what a production build
//!   would use. One exponentiation takes about a millisecond.
//! * [`DhGroup::sim`] — a 256-bit prime group used by the simulator's
//!   handshakes. The security *protocol* is identical; only the parameter
//!   size differs (documented substitution, see DESIGN.md).
//!
//! Each group picks its exponentiation path once, from its modulus (see
//! [`crate::bignum`]): the `sim` group's prime `2^256 − 2^32 − 977` runs in
//! the pseudo-Mersenne field, and its generator's powers are laid out once
//! per process as a fixed-base comb, so [`DhGroup::generate`] needs no
//! squarings; the 2048-bit group runs Montgomery multiplication. None of
//! it is constant-time.

use std::sync::OnceLock;

use crate::bignum::{Comb, Modulus, Uint};
use crate::drbg::HmacDrbg;
use crate::kdf;

/// A Diffie–Hellman group (prime modulus + generator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DhGroup {
    prime: Uint,
    /// `p − 1`: the exclusive bound on private keys, and the degenerate
    /// public value peers reject.
    p_minus_1: Uint,
    generator: Uint,
    /// The exponentiation path for `prime`.
    modulus: Modulus,
    /// The generator's fixed-base comb, for a prime on the field path.
    comb: Option<Comb>,
    /// Private-key length in bytes.
    priv_len: usize,
}

impl DhGroup {
    /// The 256-bit prime group the simulator uses by default.
    ///
    /// The modulus is the secp256k1 field prime `2^256 - 2^32 - 977`
    /// (a well-known prime), generator 2. Undersized for real deployments,
    /// which would use [`DhGroup::modp2048`]. The simulator keeps it
    /// because public values travel through MMIO payloads: a 2048-bit
    /// value would lengthen those payloads and so change virtual time.
    ///
    /// The group, the generator's 32 KiB comb included, is built once per
    /// process and shared by every caller.
    pub fn sim() -> &'static Self {
        static SIM: OnceLock<DhGroup> = OnceLock::new();
        SIM.get_or_init(|| {
            DhGroup::new(
                "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f",
                32,
            )
        })
    }

    /// RFC 3526 group 14 (2048-bit MODP), generator 2.
    pub fn modp2048() -> Self {
        DhGroup::new(
            "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1\
             29024E088A67CC74020BBEA63B139B22514A08798E3404DD\
             EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245\
             E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
             EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D\
             C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F\
             83655D23DCA3AD961C62F356208552BB9ED529077096966D\
             670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B\
             E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9\
             DE2BCBF6955817183995497CEA956AE515D2261898FA0510\
             15728E5A8AACAA68FFFFFFFFFFFFFFFF",
            32,
        )
    }

    /// A group over the odd prime `prime_hex`, generator 2; on the field
    /// path it lays out the generator's comb.
    fn new(prime_hex: &str, priv_len: usize) -> Self {
        let prime = Uint::from_hex(prime_hex);
        let generator = Uint::from_u64(2);
        let modulus = Modulus::new(&prime).expect("DH prime is odd");
        let comb = match &modulus {
            Modulus::Field(field) => Some(field.comb(&generator)),
            Modulus::Montgomery(_) => None,
        };
        DhGroup {
            p_minus_1: prime.checked_sub(&Uint::one()).expect("prime > 1"),
            prime,
            generator,
            modulus,
            comb,
            priv_len,
        }
    }

    /// The group's prime modulus.
    pub fn prime(&self) -> &Uint {
        &self.prime
    }

    /// Draws a private exponent from the given DRBG without computing its
    /// public value, for a party that only ever raises peers' values to it
    /// (the GPU's per-context secret in the three-party exchange). It
    /// consumes the same DRBG bytes, and returns the same exponent, as
    /// [`Self::generate`].
    pub fn generate_private(&self, rng: &mut HmacDrbg) -> DhPrivate {
        // Sample until 2 <= x < p-1 (overwhelmingly the first sample).
        let two = Uint::from_u64(2);
        loop {
            let x = Uint::from_be_bytes(&rng.bytes(self.priv_len)).rem(&self.prime);
            if x >= two && x < self.p_minus_1 {
                return DhPrivate(x);
            }
        }
    }

    /// Generates a keypair deterministically from the given DRBG.
    pub fn generate(&self, rng: &mut HmacDrbg) -> DhKeyPair {
        let private = self.generate_private(rng);
        let public = self.public_value(&private);
        DhKeyPair { private, public }
    }

    /// The public value `g^x` of a private exponent `x`: through the
    /// generator's comb when the group has one.
    pub fn public_value(&self, private: &DhPrivate) -> DhPublic {
        DhPublic(match &self.comb {
            Some(comb) => comb.pow(&private.0),
            None => self.modulus.pow(&self.generator, &private.0),
        })
    }

    /// Computes the shared secret from our private key and a peer's public
    /// value.
    ///
    /// # Errors
    ///
    /// Returns [`DhError::InvalidPublic`] for degenerate peer values
    /// (0, 1, or p-1) and for values not below p; the degenerate ones
    /// would let an attacker force a known secret.
    pub fn agree(&self, ours: &DhKeyPair, theirs: &DhPublic) -> Result<SharedSecret, DhError> {
        self.agree_private(&ours.private, theirs)
    }

    /// [`Self::agree`] for a bare private exponent.
    ///
    /// # Errors
    ///
    /// As [`Self::agree`].
    pub fn agree_private(
        &self,
        ours: &DhPrivate,
        theirs: &DhPublic,
    ) -> Result<SharedSecret, DhError> {
        if theirs.0 < Uint::from_u64(2) || theirs.0 >= self.p_minus_1 {
            return Err(DhError::InvalidPublic);
        }
        let secret = self.modulus.pow(&theirs.0, &ours.0);
        Ok(SharedSecret(secret.to_be_bytes()))
    }
}

/// Errors from key agreement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhError {
    /// The peer's public value is degenerate or out of range.
    InvalidPublic,
}

impl std::fmt::Display for DhError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DhError::InvalidPublic => f.write_str("invalid peer public value"),
        }
    }
}

impl std::error::Error for DhError {}

/// A DH public value (safe to transmit over the untrusted channel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DhPublic(Uint);

impl DhPublic {
    /// Serializes for transmission.
    pub fn to_be_bytes(&self) -> Vec<u8> {
        self.0.to_be_bytes()
    }

    /// Parses a transmitted public value.
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        DhPublic(Uint::from_be_bytes(bytes))
    }
}

/// A DH private exponent. It never leaves the party that drew it.
#[derive(Clone)]
pub struct DhPrivate(Uint);

impl std::fmt::Debug for DhPrivate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DhPrivate(<hidden>)")
    }
}

/// A DH keypair. The private half never leaves the enclave that made it.
#[derive(Clone)]
pub struct DhKeyPair {
    private: DhPrivate,
    /// The public half.
    pub public: DhPublic,
}

impl std::fmt::Debug for DhKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DhKeyPair(public: {:?}, private: <hidden>)", self.public)
    }
}

/// The raw shared secret; feed through [`SharedSecret::derive_key`] before
/// use.
#[derive(Clone, PartialEq, Eq)]
pub struct SharedSecret(Vec<u8>);

impl std::fmt::Debug for SharedSecret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SharedSecret(<hidden>)")
    }
}

impl SharedSecret {
    /// Derives a 16-byte OCB-AES session key bound to `info`.
    pub fn derive_key(&self, info: &[u8]) -> [u8; 16] {
        kdf::derive_aes128(b"hix-dh", &self.0, info)
    }

    /// Raw secret bytes (for the three-party composition).
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_party_agreement() {
        let g = DhGroup::sim();
        let mut rng_a = HmacDrbg::new(b"alice");
        let mut rng_b = HmacDrbg::new(b"bob");
        let a = g.generate(&mut rng_a);
        let b = g.generate(&mut rng_b);
        let s_ab = g.agree(&a, &b.public).unwrap();
        let s_ba = g.agree(&b, &a.public).unwrap();
        assert_eq!(s_ab.as_bytes(), s_ba.as_bytes());
        assert_eq!(s_ab.derive_key(b"c"), s_ba.derive_key(b"c"));
        assert_ne!(s_ab.derive_key(b"c"), s_ab.derive_key(b"d"));
    }

    #[test]
    fn different_peers_different_secrets() {
        let g = DhGroup::sim();
        let a = g.generate(&mut HmacDrbg::new(b"a"));
        let b = g.generate(&mut HmacDrbg::new(b"b"));
        let c = g.generate(&mut HmacDrbg::new(b"c"));
        let s_ab = g.agree(&a, &b.public).unwrap();
        let s_ac = g.agree(&a, &c.public).unwrap();
        assert_ne!(s_ab.as_bytes(), s_ac.as_bytes());
    }

    #[test]
    fn rejects_degenerate_public_values() {
        let g = DhGroup::sim();
        let a = g.generate(&mut HmacDrbg::new(b"a"));
        for bad in [
            DhPublic(Uint::zero()),
            DhPublic(Uint::one()),
            DhPublic(g.p_minus_1.clone()),
            DhPublic(g.prime().clone()),
        ] {
            assert_eq!(g.agree(&a, &bad), Err(DhError::InvalidPublic));
        }
    }

    #[test]
    fn public_value_roundtrips_serialization() {
        let g = DhGroup::sim();
        let a = g.generate(&mut HmacDrbg::new(b"a"));
        let wire = a.public.to_be_bytes();
        assert_eq!(DhPublic::from_be_bytes(&wire), a.public);
    }

    #[test]
    fn debug_hides_secrets() {
        let g = DhGroup::sim();
        let a = g.generate(&mut HmacDrbg::new(b"a"));
        assert!(format!("{a:?}").contains("<hidden>"));
        let s = g
            .agree(&a, &g.generate(&mut HmacDrbg::new(b"b")).public)
            .unwrap();
        assert_eq!(format!("{s:?}"), "SharedSecret(<hidden>)");
    }

    #[test]
    fn generate_keeps_private_keys_below_p_minus_1() {
        // Over p = 11 (generator 2 has order 10) a one-byte draw lands on
        // x = p − 1 = 10 about once in eleven, whose public value 2^10 = 1
        // every peer rejects as degenerate.
        let g = DhGroup::new("0b", 1);
        let mut rng = HmacDrbg::new(b"boundary");
        let mut seen = [false; 11];
        for _ in 0..200 {
            let kp = g.generate(&mut rng);
            let x = &kp.private.0;
            assert!(*x >= Uint::from_u64(2) && *x < g.p_minus_1);
            assert_ne!(kp.public.0, Uint::one());
            seen[x.to_be_bytes()[0] as usize] = true;
        }
        // Every key in range 2..=9 is still produced.
        assert_eq!(
            seen,
            [false, false, true, true, true, true, true, true, true, true, false]
        );
    }

    #[test]
    fn generate_private_draws_what_generate_draws() {
        let g = DhGroup::sim();
        let mut full = HmacDrbg::new(b"same seed");
        let mut bare = HmacDrbg::new(b"same seed");
        for _ in 0..3 {
            let kp = g.generate(&mut full);
            let x = g.generate_private(&mut bare);
            assert_eq!(x.0, kp.private.0);
            let peer = g.generate(&mut HmacDrbg::new(b"peer")).public;
            assert_eq!(g.agree_private(&x, &peer), g.agree(&kp, &peer));
        }
        // Both DRBGs consumed the same bytes.
        assert_eq!(full.bytes(32), bare.bytes(32));
        assert_eq!(
            format!("{:?}", g.generate_private(&mut bare)),
            "DhPrivate(<hidden>)"
        );
    }

    #[test]
    fn modp2048_agreement() {
        let g = DhGroup::modp2048();
        let a = g.generate(&mut HmacDrbg::new(b"a"));
        let b = g.generate(&mut HmacDrbg::new(b"b"));
        assert_eq!(
            g.agree(&a, &b.public).unwrap().as_bytes(),
            g.agree(&b, &a.public).unwrap().as_bytes()
        );
    }
}
