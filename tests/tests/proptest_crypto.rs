//! Property-based tests over the crypto substrate: OCB AEAD laws, bignum
//! algebra, and payload invariants — on the in-tree `hix-testkit` harness.

use hix_crypto::bignum::Uint;
use hix_crypto::ocb::{Key, Nonce, Ocb, TAG_LEN};
use hix_testkit::prop::prop;

#[test]
fn ocb_roundtrip() {
    prop("ocb_roundtrip").run(|s| {
        let key = s.array_u8::<16>();
        let counter = s.u64();
        let aad = s.vec_u8(0..64);
        let plaintext = s.vec_u8(0..512);
        let ocb = Ocb::new(&Key::from_bytes(key));
        let nonce = Nonce::from_counter(counter);
        let sealed = ocb.seal(&nonce, &aad, &plaintext);
        assert_eq!(sealed.len(), plaintext.len() + TAG_LEN);
        let opened = ocb.open(&nonce, &aad, &sealed).unwrap();
        assert_eq!(opened, plaintext);
    });
}

#[test]
fn ocb_any_bit_flip_is_detected() {
    prop("ocb_any_bit_flip_is_detected").run(|s| {
        let plaintext = s.vec_u8(1..256);
        let ocb = Ocb::new(&Key::from_bytes([9u8; 16]));
        let nonce = Nonce::from_counter(5);
        let mut sealed = ocb.seal(&nonce, b"aad", &plaintext);
        let idx = s.index(sealed.len());
        let flip_bit = s.in_range(0..8) as u8;
        sealed[idx] ^= 1 << flip_bit;
        assert!(ocb.open(&nonce, b"aad", &sealed).is_err());
    });
}

#[test]
fn ocb_ciphertexts_differ_across_nonces() {
    prop("ocb_ciphertexts_differ_across_nonces").run(|s| {
        let plaintext = s.vec_u8(16..128);
        let c1 = s.u64();
        let c2 = s.u64();
        if c1 == c2 {
            return;
        }
        let ocb = Ocb::new(&Key::from_bytes([1u8; 16]));
        let s1 = ocb.seal(&Nonce::from_counter(c1), b"", &plaintext);
        let s2 = ocb.seal(&Nonce::from_counter(c2), b"", &plaintext);
        assert_ne!(s1, s2, "nonce reuse would be catastrophic");
    });
}

#[test]
fn bignum_modpow_addition_law() {
    prop("bignum_modpow_addition_law").run(|s| {
        // a^(e1+e2) = a^e1 * a^e2 (mod m)
        let base = s.in_range(2..1_000_000);
        let e1 = s.in_range(0..64);
        let e2 = s.in_range(0..64);
        let modulus = s.in_range(3..1_000_003);
        let m = Uint::from_u64(modulus);
        let a = Uint::from_u64(base);
        let lhs = a.modpow(&Uint::from_u64(e1 + e2), &m);
        let x = a.modpow(&Uint::from_u64(e1), &m);
        let y = a.modpow(&Uint::from_u64(e2), &m);
        let rhs = x.modmul(&y, &m);
        assert_eq!(lhs, rhs);
    });
}

#[test]
fn bignum_bytes_roundtrip() {
    prop("bignum_bytes_roundtrip").run(|s| {
        let bytes = s.vec_u8(0..64);
        let u = Uint::from_be_bytes(&bytes);
        let canonical: Vec<u8> = bytes.iter().copied().skip_while(|&b| b == 0).collect();
        assert_eq!(u.to_be_bytes(), canonical);
    });
}

#[test]
fn bignum_rem_matches_u128() {
    prop("bignum_rem_matches_u128").run(|s| {
        let a = s.u128();
        let m = s.in_range(1..u64::MAX);
        let big_a = Uint::from_be_bytes(&a.to_be_bytes());
        let big_m = Uint::from_u64(m);
        assert_eq!(big_a.rem(&big_m), Uint::from_u64((a % m as u128) as u64));
    });
}

#[test]
fn sealed_stream_len_is_consistent() {
    prop("sealed_stream_len_is_consistent").run(|s| {
        let len = s.in_range(1..10_000_000);
        let chunk = s.in_range(1..100_000);
        let sealed = hix_core::channel::sealed_stream_len(len, chunk);
        let chunks = len.div_ceil(chunk);
        assert_eq!(sealed, Some(len + chunks * TAG_LEN as u64));
    });
}

#[test]
fn drbg_streams_are_seed_separated() {
    use hix_crypto::drbg::HmacDrbg;
    let mut seen = std::collections::HashSet::new();
    for seed in 0u32..32 {
        let mut rng = HmacDrbg::new(&seed.to_le_bytes());
        assert!(seen.insert(rng.bytes(16)), "seed {seed} collided");
    }
}
