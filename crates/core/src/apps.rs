//! Elementary functions on top of fast multiplication — the paper's
//! introduction motivates long-integer multiplication as the primitive
//! "for many elementary functions, including power, square root, and
//! greatest common divisor". All routines take a pluggable multiplication
//! kernel so any Toom-Cook variant (or the schoolbook baseline) drives
//! them.

use ft_bigint::BigInt;

/// A multiplication kernel.
pub type Mul<'a> = dyn Fn(&BigInt, &BigInt) -> BigInt + 'a;

/// Integer square root `⌊√n⌋` by Newton's method, all products through
/// `mul`.
///
/// # Panics
/// Panics on negative input.
#[must_use]
pub fn isqrt_with(n: &BigInt, mul: &Mul) -> BigInt {
    assert!(!n.is_negative(), "square root of a negative integer");
    if n.is_zero() || n.is_one() {
        return n.clone();
    }
    // Initial guess: 2^(⌈bits/2⌉) ≥ √n.
    let mut x = BigInt::one().shl_bits(n.bit_length().div_ceil(2));
    loop {
        // x' = (x + n/x) / 2 — monotonically decreasing once above √n.
        let next = (&x + &(n / &x)).shr_bits(1);
        if next.cmp_abs(&x) != std::cmp::Ordering::Less {
            break;
        }
        x = next;
    }
    debug_assert!(mul(&x, &x) <= *n);
    debug_assert!(mul(&(&x + &BigInt::one()), &(&x + &BigInt::one())) > *n);
    x
}

/// `⌊√n⌋` with size-dispatched products ([`BigInt::mul_auto`]).
#[must_use]
pub fn isqrt(n: &BigInt) -> BigInt {
    isqrt_with(n, &BigInt::mul_auto)
}

/// `true` iff `n` is a perfect square.
#[must_use]
pub fn is_perfect_square(n: &BigInt) -> bool {
    if n.is_negative() {
        return false;
    }
    let r = isqrt(n);
    &r.mul_auto(&r) == n
}

/// `base^e` with all products through `mul` (binary exponentiation;
/// squarings use the same kernel).
#[must_use]
pub fn pow_with(base: &BigInt, mut e: u32, mul: &Mul) -> BigInt {
    let mut acc = BigInt::one();
    let mut b = base.clone();
    while e > 0 {
        if e & 1 == 1 {
            acc = mul(&acc, &b);
        }
        e >>= 1;
        if e > 0 {
            b = mul(&b.clone(), &b);
        }
    }
    acc
}

/// Factorial via balanced product tree (each subtree product is a
/// similarly-sized multiplication — where fast kernels shine).
#[must_use]
pub fn factorial_with(n: u64, mul: &Mul) -> BigInt {
    fn range_product(lo: u64, hi: u64, mul: &Mul) -> BigInt {
        if lo > hi {
            return BigInt::one();
        }
        if hi - lo < 8 {
            let mut acc = BigInt::one();
            for v in lo..=hi {
                acc = acc.mul_schoolbook(&BigInt::from(v));
            }
            return acc;
        }
        let mid = lo + (hi - lo) / 2;
        let left = range_product(lo, mid, mul);
        let right = range_product(mid + 1, hi, mul);
        mul(&left, &right)
    }
    range_product(1, n.max(1), mul)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn school(a: &BigInt, b: &BigInt) -> BigInt {
        a.mul_schoolbook(b)
    }

    #[test]
    fn isqrt_small_values() {
        for (n, r) in [
            (0u64, 0u64),
            (1, 1),
            (2, 1),
            (3, 1),
            (4, 2),
            (8, 2),
            (9, 3),
            (99, 9),
            (100, 10),
        ] {
            assert_eq!(
                isqrt_with(&BigInt::from(n), &school),
                BigInt::from(r),
                "n={n}"
            );
        }
    }

    #[test]
    fn isqrt_exact_on_squares() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        for bits in [100u64, 2_000, 20_000] {
            let r = BigInt::random_bits(&mut rng, bits);
            let n = r.square();
            assert_eq!(isqrt(&n), r, "bits={bits}");
            assert!(is_perfect_square(&n));
            assert!(!is_perfect_square(&(&n + &BigInt::one())) || bits < 2);
        }
    }

    #[test]
    fn isqrt_floor_property_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(62);
        for _ in 0..10 {
            let n = BigInt::random_bits(&mut rng, 3_000);
            let r = isqrt(&n);
            assert!(r.square() <= n);
            assert!((&r + &BigInt::one()).square() > n);
        }
    }

    #[test]
    fn pow_matches_builtin() {
        let b = BigInt::from(12345u64);
        for e in [0u32, 1, 2, 7, 20] {
            assert_eq!(pow_with(&b, e, &school), b.pow(e), "e={e}");
        }
        // With a fast kernel too.
        let fast = |x: &BigInt, y: &BigInt| crate::seq::toom_k_threshold(x, y, 3, 256);
        let big = BigInt::from(u128::MAX);
        assert_eq!(pow_with(&big, 40, &fast), big.pow(40));
    }

    #[test]
    fn factorial_values() {
        assert_eq!(factorial_with(0, &school), BigInt::one());
        assert_eq!(factorial_with(5, &school), BigInt::from(120u64));
        assert_eq!(
            factorial_with(20, &school),
            BigInt::from(2_432_902_008_176_640_000u64)
        );
        // 1000! has 2568 digits; verify length and a kernel-equivalence.
        let fast = |x: &BigInt, y: &BigInt| x.mul_auto(y);
        let f1000 = factorial_with(1000, &fast);
        assert_eq!(f1000.to_string().len(), 2568);
        assert_eq!(f1000, factorial_with(1000, &school));
    }
}
