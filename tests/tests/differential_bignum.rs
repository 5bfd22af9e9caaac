//! Pinned-tape differential suite for the bignum exponentiation core:
//! `Uint::modpow` over an odd modulus (Montgomery multiplication with a
//! 4-bit fixed window) is checked value for value against the bit-serial
//! reference `Uint::modpow_ladder`, over odd moduli of 1–32 limbs. Edge
//! moduli (3, 2^64k − 1, a top limb of 1) and edge exponents (0, 1,
//! all-ones) are drawn as often as random ones, and bases are drawn at or
//! above the modulus so the reduction step runs. A 4-limb modulus takes
//! `modpow`'s fixed-width path, so a second property holds that path to
//! both the slice CIOS (`Uint::modpow_slice`) and the ladder over 256-bit
//! moduli. `differential_bignum.seeds` is replayed before any new cases
//! are generated.

use hix_crypto::bignum::Uint;
use hix_crypto::dh::DhGroup;
use hix_testkit::prop::{prop, Source};

const SEEDS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/differential_bignum.seeds"
);

fn from_limbs(limbs: &[u64]) -> Uint {
    let bytes: Vec<u8> = limbs.iter().rev().flat_map(|l| l.to_be_bytes()).collect();
    Uint::from_be_bytes(&bytes)
}

fn draw_limbs(s: &mut Source, n: usize) -> Vec<u64> {
    (0..n).map(|_| s.u64()).collect()
}

#[test]
fn montgomery_modpow_matches_reference_ladder() {
    prop("montgomery_modpow_matches_ladder")
        .corpus(SEEDS)
        .cases(128)
        .run(|s| {
            // The shape of the case first, so a hand-written tape pins it
            // in a few bytes; limb values follow (past the tape: zeros).
            let n = s.usize_in(1..33);
            let modulus_kind = s.choice(4);
            let exp_kind = s.choice(4);
            let exp_limbs = s.usize_in(1..3);
            let base_extra = s.usize_in(0..3);

            let mut m = match modulus_kind {
                0 => draw_limbs(s, n),
                1 => vec![3],
                2 => vec![u64::MAX; n],
                _ => {
                    let mut limbs = draw_limbs(s, n);
                    limbs[n - 1] = 1;
                    limbs
                }
            };
            m[0] |= 1;
            let top = m.len() - 1;
            if m[top] == 0 {
                m[top] = 1;
            }
            let exp = match exp_kind {
                0 => vec![0],
                1 => vec![1],
                2 => vec![u64::MAX; exp_limbs],
                _ => draw_limbs(s, exp_limbs),
            };
            // At least as many limbs as the modulus, top limb nonzero: with
            // extra limbs the base is above the modulus, so `rem` reduces it.
            let mut base = draw_limbs(s, m.len() + base_extra);
            *base.last_mut().unwrap() |= 1;

            let (m, exp, base) = (from_limbs(&m), from_limbs(&exp), from_limbs(&base));
            assert_eq!(
                base.modpow(&exp, &m),
                base.modpow_ladder(&exp, &m),
                "modpow diverged from the ladder: m = {m:?}, exp = {exp:?}, base = {base:?}"
            );
        });
}

/// The secp256k1 field prime, the simulator's DH modulus, low limb first.
const SECP256K1_P: [u64; 4] = [0xffff_fffe_ffff_fc2f, u64::MAX, u64::MAX, u64::MAX];

#[test]
fn fixed_width_modpow_matches_slice_and_ladder() {
    prop("fixed_width_modpow_matches_slice_and_ladder")
        .corpus(SEEDS)
        .cases(64)
        .run(|s| {
            let modulus_kind = s.choice(4);
            let exp_kind = s.choice(4);
            let base_extra = s.usize_in(0..2);

            let mut m = match modulus_kind {
                0 => draw_limbs(s, 4),
                1 => SECP256K1_P.to_vec(),
                2 => {
                    let mut limbs = draw_limbs(s, 4);
                    limbs[3] = u64::MAX;
                    limbs
                }
                _ => vec![s.u64(), 0, 0, 1], // just over 2^192
            };
            m[0] |= 1;
            if m[3] == 0 {
                m[3] = 1;
            }
            let m = from_limbs(&m);
            let exp = match exp_kind {
                0 => Uint::zero(),
                1 => Uint::one(),
                2 => m.checked_sub(&Uint::one()).unwrap(),
                _ => from_limbs(&draw_limbs(s, 4)),
            };
            // With an extra limb the base is above the modulus.
            let mut base = draw_limbs(s, 4 + base_extra);
            *base.last_mut().unwrap() |= 1;
            let base = from_limbs(&base);

            let fixed = base.modpow(&exp, &m);
            assert_eq!(
                fixed,
                base.modpow_slice(&exp, &m),
                "fixed path diverged from the slice CIOS: m = {m:?}, exp = {exp:?}, base = {base:?}"
            );
            assert_eq!(
                fixed,
                base.modpow_ladder(&exp, &m),
                "fixed path diverged from the ladder: m = {m:?}, exp = {exp:?}, base = {base:?}"
            );
        });
}

/// Fermat's little theorem on RFC 3526 group 14: 2^(p−1) ≡ 1 (mod p),
/// a full-width 2048-bit exponent through the Montgomery path.
#[test]
fn modp2048_fermat() {
    let p = DhGroup::modp2048().prime().clone();
    let p_minus_1 = p.checked_sub(&Uint::one()).unwrap();
    assert_eq!(Uint::from_u64(2).modpow(&p_minus_1, &p), Uint::one());
    // And a witness that the check can fail: 2^(p−2) is 2⁻¹, not 1.
    let p_minus_2 = p_minus_1.checked_sub(&Uint::one()).unwrap();
    assert_ne!(Uint::from_u64(2).modpow(&p_minus_2, &p), Uint::one());
}
