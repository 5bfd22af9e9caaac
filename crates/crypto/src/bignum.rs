//! Minimal arbitrary-precision unsigned integers for Diffie–Hellman.
//!
//! Only the operations modular exponentiation needs: comparison, addition,
//! subtraction, shift, modular multiplication and exponentiation.
//!
//! [`Uint::modpow`] picks its path from the modulus's limbs, once per
//! modulus (`Modulus`). A pseudo-Mersenne modulus `p = 2^256 − c` with an
//! odd `c < 2^64` — the simulator's DH group, `c = 2^32 + 977` — runs in
//! plain field form on `[u64; 4]` arrays (`PseudoMersenne`): a schoolbook
//! multiply, a dedicated square of 10 limb products, and a reduction that
//! folds the high half times `c` in twice and subtracts `p` at most once.
//! A fixed base can be laid out once as a comb (`Comb`), after which each
//! exponentiation is at most 64 multiplies and no squarings. Every other
//! odd modulus runs through `Montgomery`: word-level CIOS multiplication
//! over `u64` limb slices, with the per-modulus constants computed once;
//! [`Uint::modpow_slice`] reaches that path at any modulus. Both run a
//! 4-bit fixed window. An even modulus has no Montgomery form and takes
//! [`Uint::modpow_ladder`], the bit-serial shift-and-add
//! square-and-multiply that also serves, with the slice CIOS, as the
//! reference the differential tests compare the faster paths against.
//!
//! No path runs in constant time: all branch on exponent bits and on
//! operand values (the ladder's conditional subtractions, the window's
//! table index, the final subtractions). That is fine for a simulator and
//! not for a deployment.

use std::cmp::Ordering;

/// An unsigned big integer, little-endian `u64` limbs, no leading zero
/// limbs (canonical form; zero is an empty limb vector).
///
/// ```
/// use hix_crypto::bignum::Uint;
/// let a = Uint::from_be_bytes(&[0x01, 0x00]); // 256
/// assert_eq!(a.to_be_bytes(), vec![0x01, 0x00]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash)]
pub struct Uint {
    limbs: Vec<u64>,
}

impl Uint {
    /// Zero.
    pub fn zero() -> Self {
        Uint { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        Uint { limbs: vec![1] }
    }

    /// Constructs from a small value.
    pub fn from_u64(v: u64) -> Self {
        let mut u = Uint { limbs: vec![v] };
        u.normalize();
        u
    }

    /// Parses big-endian bytes.
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(8));
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut u = Uint { limbs };
        u.normalize();
        u
    }

    /// Parses a hex string (whitespace allowed).
    ///
    /// # Panics
    ///
    /// Panics on non-hex characters.
    pub fn from_hex(s: &str) -> Self {
        let clean: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        let clean = if clean.len() % 2 == 1 {
            format!("0{clean}")
        } else {
            clean
        };
        let bytes: Vec<u8> = (0..clean.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&clean[i..i + 2], 16).expect("invalid hex digit"))
            .collect();
        Uint::from_be_bytes(&bytes)
    }

    /// Serializes to minimal big-endian bytes (empty for zero).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let first_nonzero = out.iter().position(|&b| b != 0).unwrap_or(out.len());
        out.split_off(first_nonzero)
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits.
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian indexing).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// The limbs zero-extended to exactly `n`; requires `self` to fit.
    fn padded(&self, n: usize) -> Vec<u64> {
        debug_assert!(self.limbs.len() <= n);
        let mut limbs = self.limbs.clone();
        limbs.resize(n, 0);
        limbs
    }

    fn add_assign(&mut self, rhs: &Uint) {
        let n = self.limbs.len().max(rhs.limbs.len());
        self.limbs.resize(n, 0);
        let mut carry = 0u64;
        for i in 0..n {
            let r = *rhs.limbs.get(i).unwrap_or(&0);
            let (s1, c1) = self.limbs[i].overflowing_add(r);
            let (s2, c2) = s1.overflowing_add(carry);
            self.limbs[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            self.limbs.push(carry);
        }
    }

    /// `self -= rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs > self`.
    fn sub_assign(&mut self, rhs: &Uint) {
        assert!(*self >= *rhs, "bignum subtraction underflow");
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let r = *rhs.limbs.get(i).unwrap_or(&0);
            let (d1, b1) = self.limbs[i].overflowing_sub(r);
            let (d2, b2) = d1.overflowing_sub(borrow);
            self.limbs[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        self.normalize();
    }

    fn shl1_assign(&mut self) {
        let mut carry = 0u64;
        for limb in &mut self.limbs {
            let new_carry = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = new_carry;
        }
        if carry > 0 {
            self.limbs.push(carry);
        }
    }

    /// `(self * rhs) mod m` via left-to-right shift-and-add; requires
    /// `self < m`.
    pub fn modmul(&self, rhs: &Uint, m: &Uint) -> Uint {
        debug_assert!(self < m, "modmul requires reduced lhs");
        assert!(!m.is_zero(), "modulus must be nonzero");
        let mut acc = Uint::zero();
        for i in (0..rhs.bits()).rev() {
            acc.shl1_assign();
            if acc >= *m {
                acc.sub_assign(m);
            }
            if rhs.bit(i) {
                acc.add_assign(self);
                if acc >= *m {
                    acc.sub_assign(m);
                }
            }
        }
        acc
    }

    /// `self − rhs`, or `None` if `rhs > self`.
    pub fn checked_sub(&self, rhs: &Uint) -> Option<Uint> {
        (self >= rhs).then(|| {
            let mut out = self.clone();
            out.sub_assign(rhs);
            out
        })
    }

    /// `self^exp mod m`: in the pseudo-Mersenne field when `m` is
    /// `2^256 − c` for an odd `c < 2^64`, through Montgomery multiplication
    /// when `m` is any other odd modulus, through [`Uint::modpow_ladder`]
    /// when it is even. All give the same value.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn modpow(&self, exp: &Uint, m: &Uint) -> Uint {
        match Modulus::new(m) {
            Some(modulus) => modulus.pow(self, exp),
            None => self.modpow_ladder(exp, m),
        }
    }

    /// `self^exp mod m` for odd `m` through the slice CIOS at any width,
    /// never the field path [`Uint::modpow`] takes for `m = 2^256 − c`:
    /// the oracle the differential suite holds that path to.
    ///
    /// # Panics
    ///
    /// Panics if `m` is even.
    pub fn modpow_slice(&self, exp: &Uint, m: &Uint) -> Uint {
        Montgomery::new(m)
            .expect("modpow_slice needs an odd modulus")
            .pow(self, exp)
    }

    /// `self^exp mod m` by bit-serial square-and-multiply over
    /// [`Uint::modmul`]; any nonzero modulus. The reference for the
    /// Montgomery path.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn modpow_ladder(&self, exp: &Uint, m: &Uint) -> Uint {
        assert!(!m.is_zero(), "modulus must be nonzero");
        if *m == Uint::one() {
            return Uint::zero();
        }
        let base = self.rem(m);
        let mut acc = Uint::one();
        for i in (0..exp.bits()).rev() {
            acc = acc.modmul(&acc, m);
            if exp.bit(i) {
                acc = acc.modmul(&base, m);
            }
        }
        acc
    }

    /// `self mod m` by shift-subtract reduction.
    pub fn rem(&self, m: &Uint) -> Uint {
        assert!(!m.is_zero(), "modulus must be nonzero");
        if self < m {
            return self.clone();
        }
        let mut acc = Uint::zero();
        for i in (0..self.bits()).rev() {
            acc.shl1_assign();
            if self.bit(i) {
                acc.add_assign(&Uint::one());
            }
            if acc >= *m {
                acc.sub_assign(m);
            }
        }
        acc
    }
}

impl PartialOrd for Uint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Uint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

/// Exponent bits consumed per window step; divides 64, so a window never
/// straddles two limbs.
const WINDOW_BITS: usize = 4;

/// The exponentiation path for one odd modulus, chosen once from its limbs,
/// so a caller that exponentiates repeatedly under one modulus (a DH group)
/// pays for the choice and the per-modulus constants once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Modulus {
    /// `2^256 − c` for an odd `c < 2^64`.
    Field(PseudoMersenne),
    /// Any other odd modulus.
    Montgomery(Montgomery),
}

impl Modulus {
    /// The path for `m`, or `None` when `m` is even (zero included).
    pub(crate) fn new(m: &Uint) -> Option<Self> {
        match PseudoMersenne::new(m) {
            Some(field) => Some(Modulus::Field(field)),
            None => Montgomery::new(m).map(Modulus::Montgomery),
        }
    }

    /// `base^exp mod m`.
    pub(crate) fn pow(&self, base: &Uint, exp: &Uint) -> Uint {
        match self {
            Modulus::Field(field) => field.pow(base, exp),
            Modulus::Montgomery(mont) => mont.pow(base, exp),
        }
    }
}

/// Montgomery arithmetic modulo one odd `m` of `n` limbs, `R = 2^(64n)`.
///
/// Holds the two per-modulus constants, so a caller that exponentiates
/// repeatedly under one modulus computes them once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Montgomery {
    /// The modulus; its `n` limbs are the operand width.
    m: Uint,
    /// `−m⁻¹ mod 2^64`.
    n0_inv: u64,
    /// `R² mod m`, `n` limbs: one multiply by it enters Montgomery form.
    r2: Vec<u64>,
}

impl Montgomery {
    /// The constants for `m`, or `None` when `m` is even (zero included):
    /// `m` then has no inverse modulo `2^64`.
    fn new(m: &Uint) -> Option<Self> {
        if !m.bit(0) {
            return None;
        }
        let n = m.limbs.len();
        // Newton's iteration doubles the correct low bits of m0⁻¹ per
        // step: 1 → 2 → 4 → … → 64.
        let m0 = m.limbs[0];
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        let mut r_squared = Uint {
            limbs: vec![0; 2 * n],
        };
        r_squared.limbs.push(1);
        Some(Montgomery {
            m: m.clone(),
            n0_inv: inv.wrapping_neg(),
            r2: r_squared.rem(m).padded(n),
        })
    }

    /// `base^exp mod m` with a 4-bit fixed window: per window four
    /// squarings, then one multiply by a precomputed `base^w` (skipped
    /// when the window is zero), over slices of the modulus width.
    fn pow(&self, base: &Uint, exp: &Uint) -> Uint {
        if self.m.limbs == [1] {
            return Uint::zero();
        }
        let n = self.m.limbs.len();
        let mut one = vec![0u64; n];
        one[0] = 1;
        // table[w] = base^w in Montgomery form, n limbs per entry.
        let mut table = vec![0u64; (1 << WINDOW_BITS) * n];
        self.mul(&one, &self.r2, &mut table[..n]);
        self.mul(&base.rem(&self.m).padded(n), &self.r2, &mut table[n..2 * n]);
        for w in 2..1 << WINDOW_BITS {
            let (done, rest) = table.split_at_mut(w * n);
            self.mul(&done[(w - 1) * n..], &done[n..2 * n], &mut rest[..n]);
        }
        let mut acc = table[..n].to_vec();
        let mut tmp = vec![0u64; n];
        let windows = exp.bits().div_ceil(WINDOW_BITS);
        for k in (0..windows).rev() {
            if k + 1 < windows {
                for _ in 0..WINDOW_BITS {
                    self.mul(&acc, &acc, &mut tmp);
                    std::mem::swap(&mut acc, &mut tmp);
                }
            }
            let w = window(exp, k);
            if w != 0 {
                self.mul(&acc, &table[w * n..(w + 1) * n], &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        // Multiplying by plain 1 leaves Montgomery form.
        self.mul(&acc, &one, &mut tmp);
        let mut out = Uint { limbs: tmp };
        out.normalize();
        out
    }

    /// `out = a·b·R⁻¹ mod m` for `a, b < m`, every slice `n` limbs and
    /// `out` distinct from both inputs. CIOS: for each limb of `b`, add
    /// `a·b_i` into the accumulator, then add the multiple of `m` that
    /// clears its low limb and shift it down one limb. The accumulator is
    /// `out` plus two carry limbs held in locals; nothing is allocated.
    fn mul(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        let m = &self.m.limbs[..];
        let n = m.len();
        let (a, b, out) = (&a[..n], &b[..n], &mut out[..n]);
        out.fill(0);
        let mut top = 0u64;
        for &bi in b {
            let mut carry = 0u64;
            for (t, &aj) in out.iter_mut().zip(a) {
                let s = *t as u128 + aj as u128 * bi as u128 + carry as u128;
                *t = s as u64;
                carry = (s >> 64) as u64;
            }
            let (top_lo, overflow) = top.overflowing_add(carry);

            let q = out[0].wrapping_mul(self.n0_inv);
            let s = out[0] as u128 + q as u128 * m[0] as u128;
            let mut carry = (s >> 64) as u64;
            for j in 1..n {
                let s = out[j] as u128 + q as u128 * m[j] as u128 + carry as u128;
                out[j - 1] = s as u64;
                carry = (s >> 64) as u64;
            }
            let (last, spill) = top_lo.overflowing_add(carry);
            out[n - 1] = last;
            top = overflow as u64 + spill as u64;
        }
        // The accumulator is below 2m: one conditional subtraction
        // reduces it. A set top limb means it is at least R > m; the
        // subtraction's borrow out of limb n−1 then cancels that limb.
        if top != 0 || out.iter().rev().ge(m.iter().rev()) {
            let mut borrow = false;
            for (t, &mj) in out.iter_mut().zip(m) {
                let (d1, b1) = t.overflowing_sub(mj);
                let (d2, b2) = d1.overflowing_sub(borrow as u64);
                *t = d2;
                borrow = b1 | b2;
            }
        }
    }
}

/// Window `k` of `exp`: bits `4k..4k+4`, as a table index.
fn window(exp: &Uint, k: usize) -> usize {
    let bit = k * WINDOW_BITS;
    (exp.limbs[bit / 64] >> (bit % 64)) as usize & ((1 << WINDOW_BITS) - 1)
}

/// A field element: four little-endian limbs, any value below `2^256`.
type Limbs = [u64; 4];

/// The field element 1.
const ONE: Limbs = [1, 0, 0, 0];

/// Arithmetic modulo `p = 2^256 − c` for an odd `c < 2^64`, in plain (not
/// Montgomery) form on [`Limbs`]. Because `2^256 ≡ c (mod p)`, a 512-bit
/// product `hi·2^256 + lo` reduces by folding `hi·c` into `lo`. The
/// multiply and the square accept any operands below `2^256`, at or above
/// `p` too, and return a value below `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PseudoMersenne {
    c: u64,
}

impl PseudoMersenne {
    /// The field for `m` when `m` is `2^256 − c` for an odd `c < 2^64`:
    /// four limbs, the top three all ones and the lowest odd.
    pub(crate) fn new(m: &Uint) -> Option<Self> {
        match m.limbs[..] {
            [low, u64::MAX, u64::MAX, u64::MAX] if low & 1 == 1 => Some(PseudoMersenne {
                c: low.wrapping_neg(),
            }),
            _ => None,
        }
    }

    /// `base^exp mod p` with the same 4-bit fixed window as
    /// `Montgomery::pow`, every squaring through [`Self::square`].
    pub(crate) fn pow(&self, base: &Uint, exp: &Uint) -> Uint {
        let mut table = [ONE; 1 << WINDOW_BITS];
        table[1] = self.limbs_of(base);
        for w in 2..1 << WINDOW_BITS {
            table[w] = self.mul(&table[w - 1], &table[1]);
        }
        let mut acc = ONE;
        let windows = exp.bits().div_ceil(WINDOW_BITS);
        for k in (0..windows).rev() {
            if k + 1 < windows {
                for _ in 0..WINDOW_BITS {
                    acc = self.square(&acc);
                }
            }
            let w = window(exp, k);
            if w != 0 {
                acc = self.mul(&acc, &table[w]);
            }
        }
        to_uint(&acc)
    }

    /// The fixed-base comb of `base`: row `i` holds `base^(w·16^i)` for
    /// every window value `w`, 64 rows for exponents below `2^256`.
    pub(crate) fn comb(&self, base: &Uint) -> Comb {
        let mut rows = vec![[ONE; 1 << WINDOW_BITS]; 256 / WINDOW_BITS];
        // base^(16^i): reduced once by the multiply by 1, then each row's
        // last entry times it gives the next row's.
        let mut unit = self.mul(&ONE, &self.limbs_of(base));
        for row in &mut rows {
            row[1] = unit;
            for w in 2..1 << WINDOW_BITS {
                row[w] = self.mul(&row[w - 1], &unit);
            }
            unit = self.mul(&row[(1 << WINDOW_BITS) - 1], &unit);
        }
        Comb { field: *self, rows }
    }

    /// `x` as limbs: unchanged when it fits in 256 bits (the multiply
    /// reduces it), reduced modulo `p` first when it does not.
    fn limbs_of(&self, x: &Uint) -> Limbs {
        let reduced;
        let x = if x.limbs.len() <= 4 {
            x
        } else {
            let p = Uint {
                limbs: vec![self.c.wrapping_neg(), u64::MAX, u64::MAX, u64::MAX],
            };
            reduced = x.rem(&p);
            &reduced
        };
        let mut out = [0u64; 4];
        out[..x.limbs.len()].copy_from_slice(&x.limbs);
        out
    }

    /// `a·b mod p`: the 16-product schoolbook multiply, then [`Self::reduce`].
    #[inline(always)]
    fn mul(&self, a: &Limbs, b: &Limbs) -> Limbs {
        let mut t = [0u64; 8];
        for (i, &bi) in b.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &aj) in a.iter().enumerate() {
                let s = t[i + j] as u128 + aj as u128 * bi as u128 + carry as u128;
                t[i + j] = s as u64;
                carry = (s >> 64) as u64;
            }
            t[i + 4] = carry;
        }
        self.reduce(&t)
    }

    /// `a² mod p` from 10 limb products instead of 16: each cross product
    /// `a_i·a_j` (`i < j`) once, the sum doubled by a one-bit shift, then
    /// the squares `a_i²` added on the diagonal.
    #[inline(always)]
    fn square(&self, a: &Limbs) -> Limbs {
        let mut t = [0u64; 8];
        for i in 0..3 {
            let mut carry = 0u64;
            for j in i + 1..4 {
                let s = t[i + j] as u128 + a[i] as u128 * a[j] as u128 + carry as u128;
                t[i + j] = s as u64;
                carry = (s >> 64) as u64;
            }
            t[i + 4] = carry;
        }
        // The cross sum fits in seven limbs; doubling it carries its top
        // bit into limb 7.
        t[7] = t[6] >> 63;
        for i in (2..7).rev() {
            t[i] = t[i] << 1 | t[i - 1] >> 63;
        }
        t[1] <<= 1;
        let mut carry = 0u64;
        for (i, &ai) in a.iter().enumerate() {
            let sq = ai as u128 * ai as u128;
            let lo = t[2 * i] as u128 + (sq as u64) as u128 + carry as u128;
            t[2 * i] = lo as u64;
            let hi = t[2 * i + 1] as u128 + (sq >> 64) + (lo >> 64);
            t[2 * i + 1] = hi as u64;
            carry = (hi >> 64) as u64;
        }
        self.reduce(&t)
    }

    /// `t mod p` for any 512-bit `t = hi·2^256 + lo`.
    #[inline(always)]
    fn reduce(&self, t: &[u64; 8]) -> Limbs {
        let c = self.c as u128;
        // First fold: lo + hi·c < 2^320, four limbs and a top limb.
        let mut r = [0u64; 4];
        let mut carry = 0u128;
        for i in 0..4 {
            let s = t[i] as u128 + t[i + 4] as u128 * c + carry;
            r[i] = s as u64;
            carry = s >> 64;
        }
        // Second fold: the top limb times c, below 2^128. What is left
        // is r + carry·2^256 with carry at most 1.
        let top = carry * c;
        let s = r[0] as u128 + (top as u64) as u128;
        r[0] = s as u64;
        let mut carry = (top >> 64) + (s >> 64);
        for limb in &mut r[1..] {
            let s = *limb as u128 + carry;
            *limb = s as u64;
            carry = s >> 64;
        }
        // One conditional subtraction of p, done as adding c modulo 2^256.
        // It is due when the second fold carried (r is then below 2^128,
        // so adding c carries no further) or when r ≥ p.
        let p0 = self.c.wrapping_neg();
        if carry != 0 || (r[1] & r[2] & r[3] == u64::MAX && r[0] >= p0) {
            let mut k = c;
            for limb in &mut r {
                let s = *limb as u128 + k;
                *limb = s as u64;
                k = s >> 64;
            }
        }
        r
    }
}

/// A reduced field element as a [`Uint`].
fn to_uint(x: &Limbs) -> Uint {
    let mut out = Uint { limbs: x.to_vec() };
    out.normalize();
    out
}

/// A fixed base's powers laid out for exponentiation without squarings
/// (built by [`PseudoMersenne::comb`]): `rows[i][w] = base^(w·16^i) mod
/// p`, 64 rows of 16 entries, 32 KiB.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct Comb {
    field: PseudoMersenne,
    rows: Vec<[Limbs; 1 << WINDOW_BITS]>,
}

impl Comb {
    /// `base^exp mod p` for `exp < 2^256`: one multiply per nonzero 4-bit
    /// window of `exp`, at most 64, and no squarings.
    ///
    /// # Panics
    ///
    /// Panics if `exp` is `2^256` or more.
    pub(crate) fn pow(&self, exp: &Uint) -> Uint {
        let windows = exp.bits().div_ceil(WINDOW_BITS);
        assert!(windows <= self.rows.len(), "comb exponent beyond 2^256");
        let mut acc = ONE;
        for (k, row) in self.rows[..windows].iter().enumerate() {
            let w = window(exp, k);
            if w != 0 {
                acc = self.field.mul(&acc, &row[w]);
            }
        }
        to_uint(&acc)
    }
}

impl std::fmt::Debug for Comb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comb")
            .field("field", &self.field)
            .field("rows", &self.rows.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_bytes() {
        let cases: [&[u8]; 4] = [&[], &[1], &[0xff; 9], &[1, 0, 0, 0, 0, 0, 0, 0, 0]];
        for bytes in cases {
            let u = Uint::from_be_bytes(bytes);
            let back = u.to_be_bytes();
            // canonical: strips leading zeros
            let want: Vec<u8> = bytes.iter().copied().skip_while(|&b| b == 0).collect();
            assert_eq!(back, want);
        }
    }

    #[test]
    fn hex_parsing() {
        assert_eq!(Uint::from_hex("ff"), Uint::from_u64(255));
        assert_eq!(Uint::from_hex("1 00"), Uint::from_u64(256));
        assert_eq!(Uint::from_hex("f"), Uint::from_u64(15)); // odd length
    }

    #[test]
    fn comparison_and_bits() {
        let a = Uint::from_hex("ffffffffffffffffff"); // 72 bits
        let b = Uint::from_hex("1000000000000000000"); // 2^72
        assert!(a < b);
        assert_eq!(a.bits(), 72);
        assert!(a.bit(0) && a.bit(71) && !a.bit(72));
        assert_eq!(Uint::zero().bits(), 0);
    }

    #[test]
    fn modmul_small() {
        let m = Uint::from_u64(97);
        let a = Uint::from_u64(53);
        let b = Uint::from_u64(88);
        assert_eq!(a.modmul(&b, &m), Uint::from_u64(53 * 88 % 97));
        assert_eq!(a.modmul(&Uint::zero(), &m), Uint::zero());
    }

    #[test]
    fn modpow_small() {
        let m = Uint::from_u64(1_000_000_007);
        let base = Uint::from_u64(2);
        let exp = Uint::from_u64(100);
        // 2^100 mod 1e9+7 = 976371285
        assert_eq!(base.modpow(&exp, &m), Uint::from_u64(976_371_285));
        assert_eq!(base.modpow(&Uint::zero(), &m), Uint::one());
        assert_eq!(Uint::zero().modpow(&Uint::from_u64(5), &m), Uint::zero());
    }

    #[test]
    fn modpow_multilimb_fermat() {
        // Fermat's little theorem on a 127-bit Mersenne prime:
        // a^(p-1) = 1 (mod p) for p = 2^127 - 1.
        let p = Uint::from_hex("7fffffffffffffffffffffffffffffff");
        let mut pm1 = p.clone();
        pm1.sub_assign(&Uint::one());
        let a = Uint::from_hex("123456789abcdef0fedcba9876543210");
        assert_eq!(a.modpow(&pm1, &p), Uint::one());
    }

    #[test]
    fn montgomery_constants_and_parity_dispatch() {
        let m = Uint::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
        let mont = Montgomery::new(&m).unwrap();
        assert_eq!(
            m.limbs[0].wrapping_mul(mont.n0_inv),
            u64::MAX,
            "m0·n0′ ≡ −1"
        );
        // R² = (R mod m)² for R = 2^256, by the reference multiply.
        let r = Uint {
            limbs: vec![0, 0, 0, 0, 1],
        }
        .rem(&m);
        assert_eq!(mont.r2, r.modmul(&r, &m).padded(4));
        assert!(Montgomery::new(&Uint::from_u64(1_000_000)).is_none());
        assert!(Montgomery::new(&Uint::zero()).is_none());
        // Both paths agree on the even/odd boundary values.
        let base = Uint::from_u64(12345);
        let exp = Uint::from_u64(65537);
        for modulus in [1u64, 2, 3, 1_000_000, 1_000_001] {
            let m = Uint::from_u64(modulus);
            assert_eq!(
                base.modpow(&exp, &m),
                base.modpow_ladder(&exp, &m),
                "m = {modulus}"
            );
        }
    }

    #[test]
    fn field_path_is_chosen_from_the_limbs() {
        let c_of = |limbs: [u64; 4]| {
            PseudoMersenne::new(&Uint {
                limbs: limbs.to_vec(),
            })
            .map(|f| f.c)
        };
        let ones = u64::MAX;
        assert_eq!(c_of([ones; 4]), Some(1));
        assert_eq!(c_of([1, ones, ones, ones]), Some(ones));
        assert_eq!(
            c_of([0xffff_fffe_ffff_fc2f, ones, ones, ones]),
            Some((1 << 32) + 977)
        );
        // An even c, or a high limb not all ones: not the field path.
        assert_eq!(c_of([ones - 1, ones, ones, ones]), None);
        assert_eq!(c_of([ones, ones, ones - 1, ones]), None);
        // Nor any other width.
        for n in [3, 5] {
            let m = Uint {
                limbs: vec![ones; n],
            };
            assert!(PseudoMersenne::new(&m).is_none());
            assert!(matches!(Modulus::new(&m), Some(Modulus::Montgomery(_))));
        }
    }

    #[test]
    fn comb_matches_the_slice_cios_at_edge_exponents() {
        let p = Uint::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
        let comb = PseudoMersenne::new(&p).unwrap().comb(&Uint::from_u64(2));
        let mut top = Uint::zero();
        top.limbs = vec![0, 0, 0, 1 << 63];
        let p_minus_2 = p.checked_sub(&Uint::from_u64(2)).unwrap();
        let all_ones = Uint::from_hex(&"f".repeat(64));
        for exp in [
            Uint::zero(),
            Uint::one(),
            Uint::from_u64(15),
            Uint::from_u64(16),
            Uint::from_u64(0x1234_5678_9abc_def0),
            top,
            p_minus_2,
            all_ones,
        ] {
            assert_eq!(
                comb.pow(&exp),
                Uint::from_u64(2).modpow_slice(&exp, &p),
                "exp = {exp:?}"
            );
        }
    }

    #[test]
    fn rem_matches_u128() {
        let a = Uint::from_hex("123456789abcdef0123456789abcdef");
        let m = Uint::from_u64(1_000_003);
        let a128 = 0x123456789abcdef0123456789abcdefu128;
        assert_eq!(a.rem(&m), Uint::from_u64((a128 % 1_000_003) as u64));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let mut a = Uint::from_u64(1);
        a.sub_assign(&Uint::from_u64(2));
    }
}
