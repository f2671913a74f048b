//! Sequential sub-quadratic limb kernels over workspace scratch.
//!
//! This module implements limb-level Karatsuba multiplication and squaring
//! that write through caller-provided buffers and draw every temporary from
//! a [`Workspace`] arena — zero allocations after warm-up. It sits between
//! the `Θ(n²)` basecase in [`crate::ops`] and the Toom-Cook engines in
//! `ft-toom-core`: Toom recursions bottom out here instead of in raw
//! schoolbook, which is what makes their base cases competitive (the
//! "tuned crossover" of the GMP-class libraries the paper's cost model
//! assumes).
//!
//! Scratch layout per balanced level (operand split at `m = ⌈n/2⌉`):
//!
//! ```text
//! [ A: 2m+1 limbs | B: 2m limbs | recursive scratch … ]
//!   t1,t2 then w    z1 = t1·t2
//! ```
//!
//! `A` first holds the folded halves `t1 = |a0−a1|`, `t2 = |b0−b1|`, whose
//! product `z1` lands in `B`; once `z1` exists the fold buffers are dead and
//! `A` is reused for `w = z0+z2`. Total: `S(n) = 4⌈n/2⌉+1 + S(⌈n/2⌉)` ≈ `4n`
//! limbs, resolved exactly by [`karatsuba_scratch_limbs`].

use crate::ops;
use crate::workspace::{self, Workspace};
use crate::{BigInt, Limb, Sign};

/// Below this many limbs in the *shorter* operand, multiplication uses the
/// schoolbook basecase. Tuned on the CI container via `kernel_baseline`.
pub const KARATSUBA_THRESHOLD_LIMBS: usize = 24;

/// Below this many limbs, squaring uses the halved schoolbook basecase
/// (its constant is smaller, so the crossover sits higher than multiply's).
pub const SQUARE_THRESHOLD_LIMBS: usize = 36;

/// Exact scratch requirement (in limbs) of [`mul_karatsuba_into`] /
/// [`sqr_karatsuba_into`] for operands of `n` limbs, assuming recursion may
/// continue down to `threshold`.
#[must_use]
pub fn karatsuba_scratch_limbs(n: usize, threshold: usize) -> usize {
    let floor = threshold.max(2);
    let mut total = 0;
    let mut n = n;
    while n > floor {
        let m = n.div_ceil(2);
        total += 4 * m + 1;
        n = m;
    }
    total
}

/// `out = |x - y|` over the full (zero-padded) window; returns `true` when
/// the true difference was negative. `x`/`y` may be shorter than `out`.
fn sub_abs_into(x: &[Limb], y: &[Limb], out: &mut [Limb]) -> bool {
    debug_assert!(x.len() <= out.len() && y.len() <= out.len());
    out[..x.len()].copy_from_slice(x);
    out[x.len()..].fill(0);
    let borrow = ops::sub_in_place(out, y);
    let borrow = ops::propagate_borrow(&mut out[y.len()..], borrow);
    if borrow != 0 {
        ops::negate_in_place(out);
        true
    } else {
        false
    }
}

/// Recursive Karatsuba: `out[..la+lb] = a · b`, fully overwritten. `scratch`
/// must hold at least [`karatsuba_scratch_limbs`] of the longer length.
fn kara_rec(a: &[Limb], b: &[Limb], out: &mut [Limb], scratch: &mut [Limb]) {
    let (a, b) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let (la, lb) = (a.len(), b.len());
    debug_assert_eq!(out.len(), la + lb);
    if lb == 0 {
        out.fill(0);
        return;
    }
    if lb <= KARATSUBA_THRESHOLD_LIMBS {
        ops::mul_basecase(a, b, out);
        return;
    }
    let m = la.div_ceil(2);
    let (a0, a1) = a.split_at(m);
    if lb <= m {
        // Unbalanced: only `a` splits. t = a1·b, then out = a0·b + t·B^m.
        let tlen = (la - m) + lb;
        let (t, rest) = scratch.split_at_mut(tlen);
        kara_rec(a1, b, t, rest);
        kara_rec(a0, b, &mut out[..m + lb], rest);
        out[m + lb..].fill(0);
        // dst and src windows are the same length, and the full product
        // fits in la+lb limbs, so the carry provably dies in-window.
        let carry = ops::add_in_place(&mut out[m..], t);
        debug_assert_eq!(carry, 0, "unbalanced join carry escaped");
        return;
    }
    // Balanced: la, lb ∈ (m, 2m]. See module docs for the scratch layout.
    let (b0, b1) = b.split_at(m);
    let (abuf, tail) = scratch.split_at_mut(2 * m + 1);
    let (z1, rest) = tail.split_at_mut(2 * m);
    // Fold the halves; z1 = |a0−a1|·|b0−b1| with sign neg_a ⊕ neg_b.
    let (t1, t2x) = abuf.split_at_mut(m);
    let t2 = &mut t2x[..m];
    let neg_a = sub_abs_into(a0, a1, t1);
    let neg_b = sub_abs_into(b0, b1, t2);
    kara_rec(t1, t2, z1, rest);
    // z0 = a0·b0 and z2 = a1·b1 straight into the output.
    {
        let (lo, hi) = out.split_at_mut(2 * m);
        kara_rec(a0, b0, lo, rest);
        kara_rec(a1, b1, hi, rest);
    }
    // w = z0 + z2 (2m+1 limbs), built in `abuf` *before* touching out[m..]
    // — the add below reads out[m..2m], which is z0's upper half.
    let w = abuf;
    let z2len = la + lb - 2 * m;
    w[..2 * m].copy_from_slice(&out[..2 * m]);
    w[2 * m] = 0;
    let carry = ops::add_in_place(&mut w[..z2len], &out[2 * m..]);
    let carry = ops::propagate_carry(&mut w[z2len..], carry);
    debug_assert_eq!(carry, 0, "z0+z2 exceeds 2m+1 limbs");
    // out[m..] += w; then −z1 (same fold signs) or +z1 (opposite). The
    // region may transiently overflow by one unit after the w add; the
    // balance counter proves the combine lands exactly.
    let region = &mut out[m..];
    let wl = w.len().min(region.len());
    let mut balance: i64 = {
        let c = ops::add_in_place(&mut region[..wl], &w[..wl]);
        let c = ops::propagate_carry(&mut region[wl..], c);
        c as i64 + w[wl..].iter().map(|&x| x as i64).sum::<i64>()
    };
    if neg_a == neg_b {
        let b = ops::sub_in_place(region, z1);
        balance -= ops::propagate_borrow(&mut region[z1.len()..], b) as i64;
    } else {
        let c = ops::add_in_place(region, z1);
        balance += ops::propagate_carry(&mut region[z1.len()..], c) as i64;
    }
    debug_assert_eq!(balance, 0, "karatsuba combine must balance");
}

/// Schoolbook squaring straight into `out[..2·a.len()]` (zero-filled first;
/// cross products once, doubled, then the diagonal).
fn sqr_basecase(a: &[Limb], out: &mut [Limb]) {
    use crate::metrics::tally;
    use crate::DoubleLimb;
    let n = a.len();
    debug_assert_eq!(out.len(), 2 * n);
    out.fill(0);
    for i in 0..n {
        if a[i] == 0 {
            continue;
        }
        let mut carry: Limb = 0;
        for j in i + 1..n {
            let t = out[i + j] as DoubleLimb
                + a[i] as DoubleLimb * a[j] as DoubleLimb
                + carry as DoubleLimb;
            out[i + j] = t as Limb;
            carry = (t >> 64) as Limb;
        }
        out[i + n] = carry;
        tally((n - i) as u64);
    }
    let mut carry_bit: Limb = 0;
    for limb in out.iter_mut() {
        let new_carry = *limb >> 63;
        *limb = (*limb << 1) | carry_bit;
        carry_bit = new_carry;
    }
    tally(2 * n as u64);
    debug_assert_eq!(carry_bit, 0, "top cross product cannot overflow 2n limbs");
    let mut carry: Limb = 0;
    for i in 0..n {
        let sq = a[i] as DoubleLimb * a[i] as DoubleLimb;
        let lo = sq as Limb;
        let hi = (sq >> 64) as Limb;
        let t = out[2 * i] as DoubleLimb + lo as DoubleLimb + carry as DoubleLimb;
        out[2 * i] = t as Limb;
        let c1 = (t >> 64) as Limb;
        let t = out[2 * i + 1] as DoubleLimb + hi as DoubleLimb + c1 as DoubleLimb;
        out[2 * i + 1] = t as Limb;
        carry = (t >> 64) as Limb;
        if carry != 0 {
            carry = ops::propagate_carry(&mut out[2 * i + 2..], carry);
            debug_assert_eq!(carry, 0);
        }
    }
    tally(2 * n as u64);
}

/// Recursive Karatsuba squaring: `out[..2·la] = a²`, fully overwritten.
fn sqr_rec(a: &[Limb], out: &mut [Limb], scratch: &mut [Limb]) {
    let la = a.len();
    debug_assert_eq!(out.len(), 2 * la);
    if la <= SQUARE_THRESHOLD_LIMBS {
        sqr_basecase(a, out);
        return;
    }
    let m = la.div_ceil(2);
    let (a0, a1) = a.split_at(m);
    let (abuf, tail) = scratch.split_at_mut(2 * m + 1);
    let (z1, rest) = tail.split_at_mut(2 * m);
    // z1 = (a0−a1)² — the sign of the fold never matters for a square.
    {
        let t = &mut abuf[..m];
        sub_abs_into(a0, a1, t);
        sqr_rec(t, z1, rest);
    }
    {
        let (lo, hi) = out.split_at_mut(2 * m);
        sqr_rec(a0, lo, rest);
        sqr_rec(a1, hi, rest);
    }
    let w = abuf;
    let z2len = 2 * (la - m);
    w[..2 * m].copy_from_slice(&out[..2 * m]);
    w[2 * m] = 0;
    let carry = ops::add_in_place(&mut w[..z2len], &out[2 * m..]);
    let carry = ops::propagate_carry(&mut w[z2len..], carry);
    debug_assert_eq!(carry, 0);
    // 2·a0·a1 = z0 + z2 − (a0−a1)² ≥ 0, so the combine always subtracts.
    let region = &mut out[m..];
    let wl = w.len().min(region.len());
    let mut balance: i64 = {
        let c = ops::add_in_place(&mut region[..wl], &w[..wl]);
        let c = ops::propagate_carry(&mut region[wl..], c);
        c as i64 + w[wl..].iter().map(|&x| x as i64).sum::<i64>()
    };
    let b = ops::sub_in_place(region, z1);
    balance -= ops::propagate_borrow(&mut region[z1.len()..], b) as i64;
    debug_assert_eq!(balance, 0, "squaring combine must balance");
}

/// Karatsuba product of two magnitudes into a reused buffer; result
/// normalized. All temporaries come from `ws`'s arena (stack-disciplined:
/// the arena is back to its entry extent on return).
pub fn mul_karatsuba_into(a: &[Limb], b: &[Limb], out: &mut Vec<Limb>, ws: &mut Workspace) {
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    out.resize(a.len() + b.len(), 0);
    let n = a.len().max(b.len());
    let mark = ws.mark();
    let scratch = ws.alloc(karatsuba_scratch_limbs(n, KARATSUBA_THRESHOLD_LIMBS));
    kara_rec(a, b, out, scratch);
    ws.release(mark);
    ops::normalize(out);
}

/// Karatsuba squaring of a magnitude into a reused buffer; result
/// normalized. Roughly half the limb products of [`mul_karatsuba_into`]
/// with itself, at every recursion level.
pub fn sqr_karatsuba_into(a: &[Limb], out: &mut Vec<Limb>, ws: &mut Workspace) {
    out.clear();
    if a.is_empty() {
        return;
    }
    out.resize(2 * a.len(), 0);
    let mark = ws.mark();
    let scratch = ws.alloc(karatsuba_scratch_limbs(a.len(), SQUARE_THRESHOLD_LIMBS));
    sqr_rec(a, out, scratch);
    ws.release(mark);
    ops::normalize(out);
}

/// Best sequential kernel for the size: schoolbook below the Karatsuba
/// crossover, Karatsuba above it, and the two-prime NTT once the shorter
/// operand has more than [`crate::ntt::NTT_THRESHOLD_LIMBS`] limbs.
/// Result normalized into the reused buffer.
pub fn mul_into_auto(a: &[Limb], b: &[Limb], out: &mut Vec<Limb>, ws: &mut Workspace) {
    let shorter = a.len().min(b.len());
    if shorter <= KARATSUBA_THRESHOLD_LIMBS {
        ops::mul_into(a, b, out);
    } else if shorter > crate::ntt::NTT_THRESHOLD_LIMBS {
        crate::ntt::mul_ntt_into(a, b, out, ws);
    } else {
        mul_karatsuba_into(a, b, out, ws);
    }
}

impl BigInt {
    /// Signed product using the workspace-backed sequential kernels
    /// (schoolbook, Karatsuba or the NTT by size; see [`mul_into_auto`]).
    #[must_use]
    pub fn mul_with_ws(&self, other: &BigInt, ws: &mut Workspace) -> BigInt {
        let sign = self.sign.mul(other.sign);
        if sign == Sign::Zero {
            return BigInt::zero();
        }
        let mut out = ws.take_limbs();
        mul_into_auto(&self.mag, &other.mag, &mut out, ws);
        BigInt { sign, mag: out }
    }

    /// `self²` using the workspace-backed halved squaring kernel.
    #[must_use]
    pub fn square_with_ws(&self, ws: &mut Workspace) -> BigInt {
        if self.is_zero() {
            return BigInt::zero();
        }
        let mut out = ws.take_limbs();
        if self.mag.len() <= SQUARE_THRESHOLD_LIMBS {
            out.extend_from_slice(&crate::square::sqr_schoolbook(&self.mag));
        } else {
            sqr_karatsuba_into(&self.mag, &mut out, ws);
        }
        BigInt {
            sign: Sign::Positive,
            mag: out,
        }
    }

    /// Signed product via this thread's long-lived workspace — the entry
    /// point for callers without a [`Workspace`] in hand.
    #[must_use]
    pub fn mul_auto(&self, other: &BigInt) -> BigInt {
        workspace::with_thread_local(|ws| self.mul_with_ws(other, ws))
    }

    /// `self += c·x` with one borrowed scratch buffer and no intermediate
    /// `BigInt` — the inner statement of every evaluation/interpolation
    /// mat-vec in the Toom engines.
    pub fn add_mul_small_assign(&mut self, x: &BigInt, c: i64, tmp: &mut Vec<Limb>) {
        if c == 0 || x.is_zero() {
            return;
        }
        ops::mul_limb_into(&x.mag, c.unsigned_abs(), tmp);
        let csign = if c < 0 {
            Sign::Negative
        } else {
            Sign::Positive
        };
        let term_sign = x.sign.mul(csign);
        self.add_mag_assign(tmp, term_sign);
    }

    /// `self += sign·mag` for a raw (normalized, non-empty) magnitude.
    pub(crate) fn add_mag_assign(&mut self, mag: &[Limb], sign: Sign) {
        debug_assert!(sign != Sign::Zero && !mag.is_empty());
        if self.sign == Sign::Zero {
            self.mag.clear();
            self.mag.extend_from_slice(mag);
            self.sign = sign;
        } else if self.sign == sign {
            ops::add_assign_slices(&mut self.mag, mag);
        } else {
            let flipped = ops::sub_assign_slices(&mut self.mag, mag);
            if self.mag.is_empty() {
                self.sign = Sign::Zero;
            } else if flipped {
                self.sign = sign;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::RngExt;
    use rand::SeedableRng;

    fn rand_mag(rng: &mut impl Rng, limbs: usize) -> Vec<Limb> {
        let mut v: Vec<Limb> = (0..limbs).map(|_| rng.random()).collect();
        ops::normalize(&mut v);
        v
    }

    #[test]
    fn karatsuba_matches_schoolbook_across_shapes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut ws = Workspace::new();
        let mut out = Vec::new();
        // Balanced, unbalanced, threshold-straddling, and carry-heavy.
        let shapes = [
            (1, 1),
            (25, 25),
            (25, 3),
            (64, 64),
            (65, 64),
            (100, 30),
            (130, 129),
            (200, 51),
        ];
        for &(la, lb) in &shapes {
            let a = rand_mag(&mut rng, la);
            let b = rand_mag(&mut rng, lb);
            mul_karatsuba_into(&a, &b, &mut out, &mut ws);
            assert_eq!(out, ops::mul_schoolbook(&a, &b), "shape {la}x{lb}");
            assert_eq!(ws.in_use(), 0, "arena leaked at {la}x{lb}");
        }
        // All-ones maximizes carries through every combine step.
        let a = vec![Limb::MAX; 77];
        let b = vec![Limb::MAX; 76];
        mul_karatsuba_into(&a, &b, &mut out, &mut ws);
        assert_eq!(out, ops::mul_schoolbook(&a, &b));
    }

    #[test]
    fn karatsuba_square_matches_general() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let mut ws = Workspace::new();
        let mut out = Vec::new();
        for limbs in [1usize, 36, 37, 75, 128, 200] {
            let a = rand_mag(&mut rng, limbs);
            sqr_karatsuba_into(&a, &mut out, &mut ws);
            assert_eq!(out, ops::mul_schoolbook(&a, &a), "limbs={limbs}");
            assert_eq!(ws.in_use(), 0);
        }
        let a = vec![Limb::MAX; 99];
        sqr_karatsuba_into(&a, &mut out, &mut ws);
        assert_eq!(out, ops::mul_schoolbook(&a, &a));
    }

    #[test]
    fn bigint_entry_points_match_operator() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let a = BigInt::random_signed_bits(&mut rng, 9_000);
        let b = BigInt::random_signed_bits(&mut rng, 7_000);
        assert_eq!(a.mul_auto(&b), a.mul_schoolbook(&b));
        let mut ws = Workspace::new();
        assert_eq!(a.mul_with_ws(&b, &mut ws), a.mul_schoolbook(&b));
        assert_eq!(a.square_with_ws(&mut ws), a.mul_schoolbook(&a));
        assert_eq!(BigInt::zero().mul_auto(&b), BigInt::zero());
    }

    #[test]
    fn add_mul_small_assign_matches_composed_ops() {
        let mut tmp = Vec::new();
        for acc0 in [-9i64, 0, 4] {
            for x in [-3i64, 0, 5, i64::MAX] {
                for c in [-4i64, -1, 0, 1, 7] {
                    let mut acc = BigInt::from(acc0);
                    acc.add_mul_small_assign(&BigInt::from(x), c, &mut tmp);
                    let expect = &BigInt::from(acc0) + &BigInt::from(x).mul_small(c);
                    assert_eq!(acc, expect, "{acc0} + {c}*{x}");
                }
            }
        }
    }

    #[test]
    fn scratch_estimate_is_monotone_and_linear() {
        let s1 = karatsuba_scratch_limbs(1_000, KARATSUBA_THRESHOLD_LIMBS);
        let s2 = karatsuba_scratch_limbs(2_000, KARATSUBA_THRESHOLD_LIMBS);
        assert!(s1 > 0 && s2 > s1);
        assert!(s2 < 5 * 2_000, "scratch should stay ~4n limbs");
        assert_eq!(karatsuba_scratch_limbs(10, KARATSUBA_THRESHOLD_LIMBS), 0);
    }
}
