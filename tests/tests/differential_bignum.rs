//! Pinned-tape differential suite for the bignum exponentiation core:
//! `Uint::modpow` over an odd modulus (Montgomery multiplication with a
//! 4-bit fixed window) is checked value for value against the bit-serial
//! reference `Uint::modpow_ladder`, over odd moduli of 1–32 limbs. Edge
//! moduli (3, 2^64k − 1, a top limb of 1) and edge exponents (0, 1,
//! all-ones) are drawn as often as random ones, and bases are drawn at or
//! above the modulus so the reduction step runs. A modulus `2^256 − c`
//! with odd `c < 2^64` takes `modpow`'s pseudo-Mersenne field path, so a
//! second property holds that path to both the slice CIOS
//! (`Uint::modpow_slice`) and the ladder over such moduli, and a third
//! holds the simulator group's fixed-base comb (`DhGroup::generate`) to
//! the slice CIOS. `differential_bignum.seeds` is replayed before any new
//! cases are generated.

use hix_crypto::bignum::Uint;
use hix_crypto::dh::{DhGroup, DhPublic};
use hix_crypto::drbg::HmacDrbg;
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

/// The simulator's DH modulus is `2^256 − c` for this `c` (secp256k1's
/// field prime).
const SIM_C: u64 = (1 << 32) + 977;

/// `2^256 − c`.
fn pseudo_mersenne(c: u64) -> Uint {
    from_limbs(&[c.wrapping_neg(), u64::MAX, u64::MAX, u64::MAX])
}

#[test]
fn fixed_width_modpow_matches_slice_and_ladder() {
    prop("fixed_width_modpow_matches_slice_and_ladder")
        .corpus(SEEDS)
        .cases(64)
        .run(|s| {
            let c_kind = s.choice(4);
            let base_kind = s.choice(7);
            let exp_kind = s.choice(6);

            let c = match c_kind {
                0 => s.u64() | 1,
                1 => 1,
                2 => u64::MAX,
                _ => SIM_C,
            };
            let p = pseudo_mersenne(c);
            let p_minus_1 = p.checked_sub(&Uint::one()).unwrap();
            let base = match base_kind {
                0 => from_limbs(&draw_limbs(s, 4)),
                1 => Uint::zero(),
                2 => Uint::one(),
                3 => p_minus_1.clone(),
                // In [p, 2^256): the field path takes it unreduced.
                4 => from_limbs(&[
                    c.wrapping_neg() + s.u64() % c,
                    u64::MAX,
                    u64::MAX,
                    u64::MAX,
                ]),
                5 => from_limbs(&[u64::MAX; 4]),
                // Above 2^256: reduced before the field path.
                _ => {
                    let mut limbs = draw_limbs(s, 5);
                    limbs[4] |= 1;
                    from_limbs(&limbs)
                }
            };
            let exp = match exp_kind {
                0 => Uint::zero(),
                1 => Uint::one(),
                2 => p_minus_1,
                3 => from_limbs(&[u64::MAX; 4]),
                4 => from_limbs(&draw_limbs(s, 4)),
                // Short: one limb, its top bits cleared.
                _ => Uint::from_u64(s.u64() >> s.usize_in(0..64)),
            };

            let field = base.modpow(&exp, &p);
            assert_eq!(
                field,
                base.modpow_slice(&exp, &p),
                "field path diverged from the slice CIOS: c = {c:#x}, exp = {exp:?}, base = {base:?}"
            );
            assert_eq!(
                field,
                base.modpow_ladder(&exp, &p),
                "field path diverged from the ladder: c = {c:#x}, exp = {exp:?}, base = {base:?}"
            );
        });
}

/// `DhGroup::generate` raises the generator 2 through the group's
/// fixed-base comb; its public value must be `2^x mod p` by the slice
/// CIOS for the exponent `x` it drew.
#[test]
fn generate_matches_modpow_slice() {
    let group = DhGroup::sim();
    let p = group.prime();
    prop("generate_matches_modpow_slice")
        .corpus(SEEDS)
        .cases(64)
        .run(|s| {
            let mut rng = HmacDrbg::new(&s.u64().to_le_bytes());
            // `generate` draws x as its DRBG's next 32 bytes reduced
            // modulo p, and draws again only when x < 2 or x ≥ p − 1
            // (odds below 2^-200).
            let x = Uint::from_be_bytes(&rng.clone().bytes(32)).rem(p);
            let public = group.generate(&mut rng).public;
            let want = Uint::from_u64(2).modpow_slice(&x, p);
            assert_eq!(
                public,
                DhPublic::from_be_bytes(&want.to_be_bytes()),
                "comb diverged from the slice CIOS: x = {x:?}"
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
