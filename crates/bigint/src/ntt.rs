//! Number-theoretic-transform multiplication for the big-operand regime.
//!
//! Operands are split into base-`2^48` digits (three limbs make four
//! digits), multiplied as polynomials via two independent word-sized prime
//! NTTs, and recombined with the CRT. A product coefficient is a sum of at
//! most `d` digit products, `d` the shorter operand's digit count, so it is
//! below `d·(2^48−1)²`; for `d ≤ 2^25` ([`MAX_SHORT_DIGITS`], 1.6 Gbit)
//! that stays under `P0·P1 ≈ 2^121.6` and two primes suffice. The bound is
//! checked with a hard `assert!` on every product, not only in debug
//! builds. This is the top rung of the sequential kernel ladder
//! (schoolbook → Karatsuba → Toom → NTT): the `Θ(n log n)` regime the Toom
//! papers point at once `k`-way splitting stops paying (Kronenburg,
//! PAPERS.md).
//!
//! Both primes have high 2-adicity so one primitive root covers every
//! power-of-two transform size:
//!
//! * `P0 = 57·2^55 + 1`, generator 7
//! * `P1 = 27·2^56 + 1`, generator 5
//!
//! The butterflies use Shoup multiplication: each twiddle `w` is cached
//! with its companion `⌊w·2^64/p⌋`, so the inner loop is two widening
//! multiplies and one correction — no division, valid because both primes
//! are below `2^63`. Every modular reduction is branchless: a value
//! `s ∈ [0, 2p)` reduces as `s.min(s.wrapping_sub(p))`, which compiles to a
//! conditional move, so no butterfly depends on a data-dependent branch.
//! Twiddle tables are flat and *prefix closed* (`tw[k+j] = w_{2k}^j`), so
//! one grow-only per-thread cache serves every transform size up to the
//! largest seen; only the top segment is computed, every lower one is a
//! stride of it (`w_{2k}^j = w_{4k}^{2j}`).
//!
//! The warm path is allocation-free: all five `N`-limb scratch buffers
//! come from one [`Workspace::alloc`] split, and the twiddle cache only
//! grows when a new maximum size appears. The transform primitives are
//! `pub` so the coded-NTT machine protocol (`ft-toom-core::ft::ntt`) can
//! run column transforms under the same arithmetic.

use crate::metrics;
use crate::workspace::{self, Workspace};
use crate::{BigInt, Limb, Sign};
use std::cell::RefCell;

/// The two CRT primes, most-significant first: `p0 = 57·2^55 + 1` and
/// `p1 = 27·2^56 + 1`. Both `< 2^63` (Shoup-safe), both `≡ 1 mod 2^55`.
pub const PRIMES: [u64; 2] = [P0, P1];

const P0: u64 = 2_053_641_430_080_946_177; // 57 * 2^55 + 1
const P1: u64 = 1_945_555_039_024_054_273; // 27 * 2^56 + 1

/// `ROOTS[i]` generates the full power-of-two subgroup of `Z_{p_i}^*`:
/// a primitive `2^ADICITY[i]`-th root of unity.
const ROOTS: [u64; 2] = [640_559_856_471_874_596, 1_613_915_479_851_665_306];
const ADICITY: [u32; 2] = [55, 56];

/// `p0^{-1} mod p1`, the CRT lift constant.
const P0_INV_MOD_P1: u64 = 1_945_555_039_024_054_255;

/// `−p^{-1} mod 2^64` per prime (Montgomery companion), by Newton
/// iteration — 6 doublings take the seed `1` (exact mod 2) to 64 bits.
const fn neg_inv_2_64(p: u64) -> u64 {
    let mut x: u64 = 1;
    let mut i = 0;
    while i < 6 {
        x = x.wrapping_mul(2u64.wrapping_sub(p.wrapping_mul(x)));
        i += 1;
    }
    x.wrapping_neg()
}
const NEG_INV: [u64; 2] = [neg_inv_2_64(P0), neg_inv_2_64(P1)];

/// Bits per transform digit: operands are split into base-`2^48` digits,
/// four to every three limbs. Every digit is below both primes.
pub const DIGIT_BITS: u32 = 48;
const DIGIT_MASK: u64 = (1 << DIGIT_BITS) - 1;

/// Most digits the *shorter* operand may carry (2^25 digits = 1.6 Gbit):
/// every coefficient is then below `2^25·(2^48−1)² < P0·P1`, so the CRT
/// recovers it exactly.
pub const MAX_SHORT_DIGITS: usize = 1 << 25;
const _: () = assert!(
    (MAX_SHORT_DIGITS as u128) * (DIGIT_MASK as u128) * (DIGIT_MASK as u128)
        < (P0 as u128) * (P1 as u128)
);

/// Whether a product whose shorter operand has `short_digits` digits stays
/// inside the two-prime coefficient bound ([`MAX_SHORT_DIGITS`]).
#[must_use]
pub const fn digits_within_bound(short_digits: usize) -> bool {
    short_digits <= MAX_SHORT_DIGITS
}

/// The auto dispatch selects [`mul_ntt_into`] when the *shorter* operand
/// has more than this many limbs: 2 560 limbs = 163 840 bits, where a
/// same-run `tune_thresholds` sweep measured the NTT 1.28× ahead of
/// Toom-3 (0.95× at 128 kbit, 1.26× at 256 kbit, 2.3× at 1 Mbit). It dips
/// just past 196 608 and 393 216 bits, where one more limb doubles the
/// transform (0.80× and 1.05×; EXPERIMENTS.md §S9). `seq::NTT_MIN_BITS`
/// and the service's `KernelPolicy` defaults derive from this constant.
pub const NTT_THRESHOLD_LIMBS: usize = 2_560;

// ---------------------------------------------------------------------------
// Modular arithmetic helpers (pub for the coded-NTT machine protocol).
// ---------------------------------------------------------------------------

/// `s mod p` for `s < 2p`, branch-free: when `s < p` the wrapping
/// subtraction wraps above `s` and `min` keeps `s`.
#[inline(always)]
fn reduce_once(s: u64, p: u64) -> u64 {
    s.min(s.wrapping_sub(p))
}

/// `(a + b) mod p`, requiring `a, b < p < 2^63`.
#[inline(always)]
#[must_use]
pub fn add_mod(a: u64, b: u64, p: u64) -> u64 {
    reduce_once(a + b, p)
}

/// `(a − b) mod p`, requiring `a, b < p`. Branch-free: when `a < b` the
/// difference wraps high and adding `p` wraps it back below `p`.
#[inline(always)]
#[must_use]
pub fn sub_mod(a: u64, b: u64, p: u64) -> u64 {
    let d = a.wrapping_sub(b);
    d.min(d.wrapping_add(p))
}

/// `(a · b) mod p` through a 128-bit product. Fine off the hot path; the
/// butterflies use [`shoup_mul`] instead.
#[inline]
#[must_use]
pub fn mul_mod(a: u64, b: u64, p: u64) -> u64 {
    ((u128::from(a) * u128::from(b)) % u128::from(p)) as u64
}

/// `b^e mod p` by square-and-multiply.
#[must_use]
pub fn pow_mod(mut b: u64, mut e: u64, p: u64) -> u64 {
    let mut acc = 1u64;
    b %= p;
    while e > 0 {
        if e & 1 == 1 {
            acc = mul_mod(acc, b, p);
        }
        b = mul_mod(b, b, p);
        e >>= 1;
    }
    acc
}

/// `a^{-1} mod p` for prime `p` (Fermat).
#[must_use]
pub fn inv_mod(a: u64, p: u64) -> u64 {
    pow_mod(a, p - 2, p)
}

/// Shoup companion of a fixed multiplicand `w`: `⌊w·2^64/p⌋`.
#[inline]
#[must_use]
pub fn shoup_precompute(w: u64, p: u64) -> u64 {
    ((u128::from(w) << 64) / u128::from(p)) as u64
}

/// `(x · w) mod p` with `w`'s precomputed companion `w_shoup`; requires
/// `p < 2^63` and `x, w < p`. Two widening multiplies, one branch-free
/// correction (the raw remainder is below `2p`).
#[inline(always)]
#[must_use]
pub fn shoup_mul(x: u64, w: u64, w_shoup: u64, p: u64) -> u64 {
    let q = ((u128::from(x) * u128::from(w_shoup)) >> 64) as u64;
    reduce_once(x.wrapping_mul(w).wrapping_sub(q.wrapping_mul(p)), p)
}

/// A primitive root of unity of the given power-of-two `order` modulo
/// `PRIMES[prime]`.
///
/// # Panics
/// If `order` is not a power of two or exceeds the prime's 2-adicity.
#[must_use]
pub fn root_of_order(prime: usize, order: usize) -> u64 {
    assert!(order.is_power_of_two(), "order must be a power of two");
    let e = order.trailing_zeros();
    assert!(
        e <= ADICITY[prime],
        "order 2^{e} exceeds the 2-adicity of prime {prime}"
    );
    pow_mod(ROOTS[prime], 1u64 << (ADICITY[prime] - e), PRIMES[prime])
}

/// `(a · b) mod p` in Montgomery form: returns `a·b·2^{-64} mod p`. The
/// pointwise stage uses this and folds the stray `2^{-64}` into the final
/// `n^{-1}` scaling — no division anywhere on the hot path.
#[inline(always)]
fn mont_mul(a: u64, b: u64, p: u64, ninv: u64) -> u64 {
    let t = u128::from(a) * u128::from(b);
    let m = (t as u64).wrapping_mul(ninv);
    reduce_once(((t + u128::from(m) * u128::from(p)) >> 64) as u64, p)
}

/// CRT-combine residues of the same coefficient modulo `P0` and `P1` into
/// the unique value below `P0·P1` (fits in 122 bits). Division-free:
/// `P0 < 2·P1` makes the reduction one branch-free correction, and the
/// fixed lift constant carries a Shoup companion.
#[inline]
#[must_use]
pub fn crt_combine(r0: u64, r1: u64) -> u128 {
    // c = r0 + p0 · ((r1 − r0) · p0^{-1} mod p1)
    let diff = sub_mod(r1, reduce_once(r0, P1), P1);
    const LIFT_SHOUP: u64 = ((P0_INV_MOD_P1 as u128) << 64).wrapping_div(P1 as u128) as u64;
    let t = shoup_mul(diff, P0_INV_MOD_P1, LIFT_SHOUP, P1);
    u128::from(r0) + u128::from(P0) * u128::from(t)
}

// ---------------------------------------------------------------------------
// Transforms.
// ---------------------------------------------------------------------------

/// Grow-only flat twiddle tables for one prime. `tw[k + j] = w_{2k}^j`
/// (forward) and `itw[k + j] = w_{2k}^{-j}` (inverse) for every power of
/// two `k < built`, with Shoup companions alongside — the prefix for a
/// smaller transform is exactly the smaller transform's table.
struct PrimeTables {
    tw: Vec<u64>,
    tws: Vec<u64>,
    itw: Vec<u64>,
    itws: Vec<u64>,
    built: usize,
}

impl PrimeTables {
    const fn new() -> PrimeTables {
        PrimeTables {
            tw: Vec::new(),
            tws: Vec::new(),
            itw: Vec::new(),
            itws: Vec::new(),
            built: 0,
        }
    }

    /// Extend the tables to cover transforms of size `n` (a power of two).
    /// Only the top segment `[n/2, n)` is computed, division-free: the
    /// forward powers by Shoup steps, the inverse ones as
    /// `w^{-j} = −w^{n/2−j}` (companion `⌊(p−x)·2^64/p⌋ = !⌊x·2^64/p⌋`,
    /// exact because `p` is an odd prime). Every new lower segment is a
    /// stride of the one above it.
    fn ensure(&mut self, prime: usize, n: usize) {
        if self.built >= n {
            return;
        }
        let p = PRIMES[prime];
        for v in [&mut self.tw, &mut self.tws, &mut self.itw, &mut self.itws] {
            v.resize(n, 0);
        }
        let half = n / 2;
        let w = root_of_order(prime, n);
        let w_shoup = shoup_precompute(w, p);
        // A companion without dividing: `⌊x·2^64/p⌋·p = x·2^64 − r` with
        // `r = x·2^64 mod p`, so modulo 2^64 the companion is
        // `−r·p^{-1} = r·NEG_INV`, and being below 2^64 it is that exactly.
        let r64 = ((1u128 << 64) % u128::from(p)) as u64;
        let r64_shoup = shoup_precompute(r64, p);
        let mut f = 1u64;
        for j in half..n {
            self.tw[j] = f;
            self.tws[j] = shoup_mul(f, r64, r64_shoup, p).wrapping_mul(NEG_INV[prime]);
            f = shoup_mul(f, w, w_shoup, p);
        }
        self.itw[half] = 1;
        self.itws[half] = self.tws[half];
        for j in 1..half {
            self.itw[half + j] = p - self.tw[n - j];
            self.itws[half + j] = !self.tws[n - j];
        }
        let mut k = half / 2;
        while k >= self.built.max(1) {
            for table in [&mut self.tw, &mut self.tws, &mut self.itw, &mut self.itws] {
                let (lower, upper) = table.split_at_mut(2 * k);
                for (dst, &src) in lower[k..].iter_mut().zip(upper.iter().step_by(2)) {
                    *dst = src;
                }
            }
            k /= 2;
        }
        self.built = n;
    }
}

thread_local! {
    static TABLES: RefCell<[PrimeTables; 2]> =
        const { RefCell::new([PrimeTables::new(), PrimeTables::new()]) };
}

/// In-place bit-reversal permutation of a power-of-two-length slice.
fn bit_reverse(data: &mut [u64]) {
    let n = data.len();
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
}

/// Cooley–Tukey decimation-in-time stages: **bit-reversed** input,
/// natural-order output, no scaling. `tw[k + j] = w_{2k}^j`.
fn dit_stages(data: &mut [u64], p: u64, tw: &[u64], tws: &[u64]) {
    let n = data.len();
    debug_assert!(n.is_power_of_two());
    let mut k = 1;
    while k < n {
        let (wk, wsk) = (&tw[k..2 * k], &tws[k..2 * k]);
        for block in data.chunks_exact_mut(2 * k) {
            let (lo, hi) = block.split_at_mut(k);
            for (((u, v), &w), &ws) in lo.iter_mut().zip(hi.iter_mut()).zip(wk).zip(wsk) {
                let t = shoup_mul(*v, w, ws, p);
                let x = *u;
                *u = add_mod(x, t, p);
                *v = sub_mod(x, t, p);
            }
        }
        k *= 2;
    }
    // One tallied word-op per butterfly per stage: N/2 · log2 N in total
    // (§2.1 cost model — the machine simulator folds this into F).
    metrics::tally(((n / 2) * n.trailing_zeros() as usize) as u64);
}

/// Gentleman–Sande decimation-in-frequency stages: natural-order input,
/// **bit-reversed** output, no scaling. Paired with [`dit_stages`] on the
/// inverse tables this multiplies polynomials without any bit-reversal
/// pass — the pointwise product is taken in bit-reversed order, where
/// elementwise position is all that matters.
fn dif_stages(data: &mut [u64], p: u64, tw: &[u64], tws: &[u64]) {
    let n = data.len();
    debug_assert!(n.is_power_of_two());
    let mut k = n / 2;
    while k >= 1 {
        let (wk, wsk) = (&tw[k..2 * k], &tws[k..2 * k]);
        for block in data.chunks_exact_mut(2 * k) {
            let (lo, hi) = block.split_at_mut(k);
            for (((u, v), &w), &ws) in lo.iter_mut().zip(hi.iter_mut()).zip(wk).zip(wsk) {
                let (x, y) = (*u, *v);
                *u = add_mod(x, y, p);
                *v = shoup_mul(sub_mod(x, y, p), w, ws, p);
            }
        }
        k /= 2;
    }
    metrics::tally(((n / 2) * n.trailing_zeros() as usize) as u64);
}

/// Natural-order-to-natural-order transform (bit-reverse, then DIT).
fn transform(data: &mut [u64], p: u64, tw: &[u64], tws: &[u64]) {
    bit_reverse(data);
    dit_stages(data, p, tw, tws);
}

/// Forward NTT of `data` (length a power of two, entries `< PRIMES[prime]`)
/// using this thread's twiddle cache. Natural order in and out.
///
/// # Panics
/// If the length is not a power of two within the prime's 2-adicity.
pub fn forward(prime: usize, data: &mut [u64]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    assert!(n.is_power_of_two(), "NTT length must be a power of two");
    TABLES.with(|cell| {
        let tables = &mut cell.borrow_mut()[prime];
        tables.ensure(prime, n);
        transform(data, PRIMES[prime], &tables.tw, &tables.tws);
    });
}

/// Inverse NTT of `data`, including the final `n^{-1}` scaling.
pub fn inverse(prime: usize, data: &mut [u64]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    assert!(n.is_power_of_two(), "NTT length must be a power of two");
    let p = PRIMES[prime];
    TABLES.with(|cell| {
        let tables = &mut cell.borrow_mut()[prime];
        tables.ensure(prime, n);
        transform(data, p, &tables.itw, &tables.itws);
    });
    scale_by_inv_len(prime, data);
}

/// Multiply every entry by `len^{-1} mod p` — the normalization a raw
/// inverse `transform` leaves out (exposed for protocols that fold the
/// scaling into a later stage).
pub fn scale_by_inv_len(prime: usize, data: &mut [u64]) {
    let p = PRIMES[prime];
    let ninv = inv_mod(data.len() as u64 % p, p);
    let ninv_shoup = shoup_precompute(ninv, p);
    for x in data.iter_mut() {
        *x = shoup_mul(*x, ninv, ninv_shoup, p);
    }
    metrics::tally(data.len() as u64);
}

// ---------------------------------------------------------------------------
// Digit splitting / recombination.
// ---------------------------------------------------------------------------

/// Number of base-`2^48` digits carried by `limbs`: `⌈64·limbs/48⌉`.
#[must_use]
pub fn digit_count(limbs: usize) -> usize {
    (4 * limbs).div_ceil(3)
}

/// Transform size for a product of `la`-limb and `lb`-limb operands: the
/// smallest power of two holding every product digit.
///
/// # Panics
/// If the shorter operand has more than [`MAX_SHORT_DIGITS`] digits: its
/// product coefficients could exceed what the two CRT primes recover.
#[must_use]
pub fn transform_size(la: usize, lb: usize) -> usize {
    assert!(
        digits_within_bound(digit_count(la.min(lb))),
        "NTT operands of {la} and {lb} limbs exceed the two-prime coefficient bound"
    );
    (digit_count(la) + digit_count(lb)).next_power_of_two()
}

/// Three limbs as four base-`2^48` digits.
#[inline(always)]
fn limbs_to_digits(l: [Limb; 3]) -> [u64; 4] {
    [
        l[0] & DIGIT_MASK,
        ((l[0] >> 48) | (l[1] << 16)) & DIGIT_MASK,
        ((l[1] >> 32) | (l[2] << 32)) & DIGIT_MASK,
        l[2] >> 16,
    ]
}

/// Split limbs into base-`2^48` digits, zero-padding `out` past the end.
/// Every digit is `< 2^48`, hence already reduced modulo both primes.
pub fn split_digits(limbs: &[Limb], out: &mut [u64]) {
    let digits = digit_count(limbs.len());
    debug_assert!(out.len() >= digits);
    let chunks = limbs.chunks_exact(3);
    let tail = chunks.remainder();
    for (l, d) in chunks.zip(out.chunks_exact_mut(4)) {
        d.copy_from_slice(&limbs_to_digits([l[0], l[1], l[2]]));
    }
    if !tail.is_empty() {
        let mut l = [0; 3];
        l[..tail.len()].copy_from_slice(tail);
        let done = 4 * (limbs.len() / 3);
        out[done..digits].copy_from_slice(&limbs_to_digits(l)[..digits - done]);
    }
    out[digits..].fill(0);
    metrics::tally(limbs.len() as u64);
}

/// Scratch requirement (in limbs) of [`mul_ntt_into`]: five transform-sized
/// buffers from one arena allocation.
#[must_use]
pub fn ntt_scratch_limbs(la: usize, lb: usize) -> usize {
    5 * transform_size(la, lb)
}

/// `out = a · b` via the two-prime CRT NTT; `out` is fully overwritten
/// with the normalized `la + lb`-limb product. All scratch comes from
/// `ws`; the warm path performs no heap allocation.
///
/// # Panics
/// If the shorter operand exceeds [`MAX_SHORT_DIGITS`] digits.
pub fn mul_ntt_into(a: &[Limb], b: &[Limb], out: &mut Vec<Limb>, ws: &mut Workspace) {
    let (la, lb) = (a.len(), b.len());
    out.clear();
    if la == 0 || lb == 0 {
        return;
    }
    let n = transform_size(la, lb);
    let out_limbs = la + lb;
    out.reserve(out_limbs);
    let mark = ws.mark();
    {
        let buf = ws.alloc(5 * n);
        let (da, rest) = buf.split_at_mut(n);
        let (db, rest) = rest.split_at_mut(n);
        let (r0, rest) = rest.split_at_mut(n);
        let (r1, tmp) = rest.split_at_mut(n);
        split_digits(a, da);
        split_digits(b, db);
        TABLES.with(|cell| {
            let mut tables = cell.borrow_mut();
            for (prime, res) in [&mut *r0, &mut *r1].into_iter().enumerate() {
                let p = PRIMES[prime];
                let t = &mut tables[prime];
                t.ensure(prime, n);
                res.copy_from_slice(da);
                tmp.copy_from_slice(db);
                // DIF forward → pointwise in bit-reversed order → raw DIT
                // inverse: no bit-reversal pass anywhere. The Montgomery
                // pointwise product carries a stray 2^{-64}, folded into
                // the final scaling constant `n^{-1}·2^64 mod p`.
                dif_stages(res, p, &t.tw, &t.tws);
                dif_stages(tmp, p, &t.tw, &t.tws);
                let ninv = NEG_INV[prime];
                for (x, &y) in res.iter_mut().zip(tmp.iter()) {
                    *x = mont_mul(*x, y, p, ninv);
                }
                metrics::tally(n as u64);
                dit_stages(res, p, &t.itw, &t.itws);
                let r_mod_p = ((1u128 << 64) % u128::from(p)) as u64;
                let scale = mul_mod(inv_mod(n as u64 % p, p), r_mod_p, p);
                let scale_shoup = shoup_precompute(scale, p);
                for x in res.iter_mut() {
                    *x = shoup_mul(*x, scale, scale_shoup, p);
                }
                metrics::tally(n as u64);
            }
        });
        // CRT lift + base-2^48 carry propagation, packed back to limbs.
        // The `digit_count(out_limbs)` digits hold 0, 16 or 32 bits past
        // the product's `out_limbs` limbs, and the product fits, so those
        // bits and the final carry provably die in-window.
        let mut carry: u128 = 0;
        let (mut acc, mut acc_bits): (u128, u32) = (0, 0);
        for (&c0, &c1) in r0.iter().zip(r1.iter()).take(digit_count(out_limbs)) {
            let cur = crt_combine(c0, c1) + carry;
            carry = cur >> DIGIT_BITS;
            acc |= u128::from(cur as u64 & DIGIT_MASK) << acc_bits;
            acc_bits += DIGIT_BITS;
            if acc_bits >= 64 {
                out.push(acc as u64);
                acc >>= 64;
                acc_bits -= 64;
            }
        }
        debug_assert!(
            carry == 0 && acc == 0 && out.len() == out_limbs,
            "NTT product carry escaped the window"
        );
        metrics::tally(digit_count(out_limbs) as u64);
    }
    ws.release(mark);
    while out.last() == Some(&0) {
        out.pop();
    }
}

impl BigInt {
    /// Signed product via the two-prime CRT NTT kernel. `mul_auto` reaches
    /// this automatically above [`NTT_THRESHOLD_LIMBS`]; this entry point
    /// forces it at any size (tests, explicit kernel selection).
    #[must_use]
    pub fn mul_ntt(&self, other: &BigInt) -> BigInt {
        workspace::with_thread_local(|ws| self.mul_ntt_with_ws(other, ws))
    }

    /// [`BigInt::mul_ntt`] against a caller-held workspace.
    #[must_use]
    pub fn mul_ntt_with_ws(&self, other: &BigInt, ws: &mut Workspace) -> BigInt {
        let sign = self.sign.mul(other.sign);
        if sign == Sign::Zero {
            return BigInt::zero();
        }
        let mut out = ws.take_limbs();
        mul_ntt_into(&self.mag, &other.mag, &mut out, ws);
        BigInt { sign, mag: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primes_are_prime_and_roots_are_primitive() {
        for (i, &p) in PRIMES.iter().enumerate() {
            assert!(miller_rabin(p), "PRIMES[{i}] failed Miller-Rabin");
            // p − 1 = odd · 2^adicity exactly.
            assert_eq!((p - 1).trailing_zeros(), ADICITY[i]);
            // The stored root has exact order 2^adicity.
            let r = ROOTS[i];
            assert_eq!(pow_mod(r, 1 << ADICITY[i], p), 1);
            assert_ne!(pow_mod(r, 1 << (ADICITY[i] - 1), p), 1);
        }
        // CRT constant.
        assert_eq!(mul_mod(P0 % P1, P0_INV_MOD_P1, P1), 1);
    }

    #[test]
    fn forward_inverse_round_trip() {
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for (prime, &p) in PRIMES.iter().enumerate() {
            for n in [1usize, 2, 4, 64, 1024] {
                let data: Vec<u64> = (0..n).map(|_| next() % p).collect();
                let mut work = data.clone();
                forward(prime, &mut work);
                inverse(prime, &mut work);
                assert_eq!(work, data, "prime {prime} size {n}");
            }
        }
    }

    #[test]
    fn forward_matches_naive_dft() {
        let prime = 0;
        let p = PRIMES[prime];
        let n = 8;
        let w = root_of_order(prime, n);
        let data: Vec<u64> = (0..n as u64).map(|i| i * i + 3).collect();
        let mut fast = data.clone();
        forward(prime, &mut fast);
        for (m, &got) in fast.iter().enumerate() {
            let mut want = 0u64;
            for (i, &x) in data.iter().enumerate() {
                want = add_mod(want, mul_mod(x, pow_mod(w, (i * m) as u64, p), p), p);
            }
            assert_eq!(got, want, "coefficient {m}");
        }
    }

    #[test]
    fn ntt_product_matches_schoolbook() {
        let mut rng = 0xdead_beef_cafe_f00du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for limbs in [1usize, 2, 3, 17, 64, 200, 201] {
            let a = BigInt::from_limbs((0..limbs).map(|_| next()).collect());
            let b = BigInt::from_limbs((0..limbs + 3).map(|_| next()).collect());
            assert_eq!(a.mul_ntt(&b), a.mul_schoolbook(&b), "limbs {limbs}");
            assert_eq!(a.mul_ntt(&-&a), -&a.mul_schoolbook(&a));
        }
        // Degenerate shapes.
        let zero = BigInt::zero();
        let one = BigInt::from(1u64);
        let x = BigInt::from_limbs(vec![u64::MAX; 9]);
        assert_eq!(x.mul_ntt(&zero), zero);
        assert_eq!(x.mul_ntt(&one), x);
        assert_eq!(x.mul_ntt(&x), x.mul_schoolbook(&x));
    }

    /// Edge residues of each prime, where a wrong branch-free correction
    /// (off by `p`, or wrapped) would show.
    fn edges(p: u64) -> [u64; 4] {
        [0, 1, p - 2, p - 1]
    }

    #[test]
    fn branchless_helpers_match_u128_reference() {
        for (prime, &p) in PRIMES.iter().enumerate() {
            let wide = u128::from(p);
            let r = (1u128 << 64) % wide;
            let r_inv = inv_mod(r as u64, p);
            for a in edges(p) {
                for b in edges(p) {
                    let (a128, b128) = (u128::from(a), u128::from(b));
                    assert_eq!(u128::from(add_mod(a, b, p)), (a128 + b128) % wide);
                    assert_eq!(u128::from(sub_mod(a, b, p)), (a128 + wide - b128) % wide);
                    let want = (a128 * b128) % wide;
                    let b_shoup = shoup_precompute(b, p);
                    assert_eq!(u128::from(shoup_mul(a, b, b_shoup, p)), want);
                    // Montgomery: a·b·2^{-64}, so scale back by 2^64.
                    let mont = mont_mul(a, b, p, NEG_INV[prime]);
                    assert!(mont < p);
                    assert_eq!(u128::from(mul_mod(mont, r as u64, p)), want);
                    assert_eq!(mul_mod(mul_mod(a, b, p), r_inv, p), mont);
                }
            }
        }
        // The CRT lift at the edges of both residue ranges.
        let modulus = u128::from(P0) * u128::from(P1);
        for r0 in edges(P0) {
            for r1 in edges(P1) {
                let c = crt_combine(r0, r1);
                assert!(c < modulus);
                assert_eq!(c % u128::from(P0), u128::from(r0));
                assert_eq!(c % u128::from(P1), u128::from(r1));
            }
        }
    }

    /// Every segment computed directly from its own root, the way the
    /// tables were built before striding.
    fn direct_tables(prime: usize, n: usize) -> [Vec<u64>; 4] {
        let p = PRIMES[prime];
        let mut out: [Vec<u64>; 4] = std::array::from_fn(|_| vec![0; n]);
        let mut k = 1;
        while k < n {
            let w = root_of_order(prime, 2 * k);
            let winv = inv_mod(w, p);
            for j in 0..k {
                let (f, r) = (pow_mod(w, j as u64, p), pow_mod(winv, j as u64, p));
                out[0][k + j] = f;
                out[1][k + j] = shoup_precompute(f, p);
                out[2][k + j] = r;
                out[3][k + j] = shoup_precompute(r, p);
            }
            k *= 2;
        }
        out
    }

    #[test]
    fn strided_twiddle_tables_equal_direct_ones() {
        for prime in 0..2 {
            // Grown in one step, and grown in several (each step strides
            // only the segments it adds).
            let mut fresh = PrimeTables::new();
            fresh.ensure(prime, 1 << 12);
            let mut grown = PrimeTables::new();
            for n in [2, 8, 64, 1 << 12] {
                grown.ensure(prime, n);
            }
            let want = direct_tables(prime, 1 << 12);
            for t in [&fresh, &grown] {
                assert_eq!(t.built, 1 << 12);
                // Index 0 belongs to no segment.
                assert_eq!(t.tw[1..], want[0][1..], "prime {prime}: tw");
                assert_eq!(t.tws[1..], want[1][1..], "prime {prime}: tws");
                assert_eq!(t.itw[1..], want[2][1..], "prime {prime}: itw");
                assert_eq!(t.itws[1..], want[3][1..], "prime {prime}: itws");
            }
        }
    }

    #[test]
    fn digits_round_trip_for_every_limb_residue() {
        let mut rng = 0x0bad_5eed_1234_5678u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for limbs in 0..10usize {
            let a: Vec<Limb> = (0..limbs).map(|_| next()).collect();
            let mut digits = vec![u64::MAX; digit_count(limbs) + 3];
            split_digits(&a, &mut digits);
            assert!(digits.iter().all(|&d| d <= DIGIT_MASK));
            assert!(digits[digit_count(limbs)..].iter().all(|&d| d == 0));
            let mut value = BigInt::zero();
            for &d in digits.iter().rev() {
                value = &(&value << u64::from(DIGIT_BITS)) + &BigInt::from(d);
            }
            assert_eq!(value, BigInt::from_limbs(a), "limbs {limbs}");
        }
        assert_eq!(digit_count(3), 4);
        assert_eq!(digit_count(4), 6);
        assert_eq!(digit_count(5), 7);
    }

    #[test]
    fn nine_megabit_product_fits_a_2_pow_19_transform() {
        // 9 437 184 bits = 147 456 limbs = 196 608 digits a side. Base-2^32
        // digits needed 2^20 points here; base-2^48 digits need 2^19.
        let limbs = 9_437_184 / 64;
        assert_eq!(transform_size(limbs, limbs), 1 << 19);
        assert_eq!(ntt_scratch_limbs(limbs, limbs), 5 << 19);
    }

    #[test]
    fn digit_bound_admits_2_pow_25_and_rejects_one_more() {
        assert!(digits_within_bound(MAX_SHORT_DIGITS));
        assert!(digits_within_bound(1 << 25));
        assert!(!digits_within_bound((1 << 25) + 1));
    }

    fn miller_rabin(n: u64) -> bool {
        if n < 2 {
            return false;
        }
        let s = (n - 1).trailing_zeros();
        let d = (n - 1) >> s;
        'witness: for &a in &[2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
            if a % n == 0 {
                continue;
            }
            let mut x = pow_mod(a, d, n);
            if x == 1 || x == n - 1 {
                continue;
            }
            for _ in 1..s {
                x = mul_mod(x, x, n);
                if x == n - 1 {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }
}
