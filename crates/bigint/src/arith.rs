//! Ring operations on [`BigInt`]: addition, subtraction, negation,
//! schoolbook multiplication, shifts, powers, and small-integer helpers.

use crate::bigint::{BigInt, Sign};
use crate::ops;
use std::cmp::Ordering;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Shl, Shr, Sub, SubAssign};

impl BigInt {
    /// Signed addition on references.
    #[must_use]
    fn add_ref(&self, other: &BigInt) -> BigInt {
        match (self.sign, other.sign) {
            (Sign::Zero, _) => other.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => BigInt {
                sign: a,
                mag: ops::add_slices(&self.mag, &other.mag),
            },
            _ => match self.cmp_abs(other) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => BigInt {
                    sign: self.sign,
                    mag: ops::sub_slices(&self.mag, &other.mag),
                },
                Ordering::Less => BigInt {
                    sign: other.sign,
                    mag: ops::sub_slices(&other.mag, &self.mag),
                },
            },
        }
    }

    /// Signed schoolbook multiplication (`Θ(n²)` — this is the paper's
    /// naïve baseline; fast algorithms live in `ft-toom-core`).
    #[must_use]
    pub fn mul_schoolbook(&self, other: &BigInt) -> BigInt {
        let sign = self.sign.mul(other.sign);
        if sign == Sign::Zero {
            return BigInt::zero();
        }
        BigInt {
            sign,
            mag: ops::mul_schoolbook(&self.mag, &other.mag),
        }
    }

    /// Multiply by a signed machine integer.
    #[must_use]
    pub fn mul_small(&self, m: i64) -> BigInt {
        let msign = match m.cmp(&0) {
            Ordering::Less => Sign::Negative,
            Ordering::Equal => return BigInt::zero(),
            Ordering::Greater => Sign::Positive,
        };
        let sign = self.sign.mul(msign);
        if sign == Sign::Zero {
            return BigInt::zero();
        }
        BigInt {
            sign,
            mag: ops::mul_limb(&self.mag, m.unsigned_abs()),
        }
    }

    /// In-place [`BigInt::mul_small`]: scales `self`'s own limb buffer,
    /// allocating at most one limb of growth.
    pub fn mul_small_assign(&mut self, m: i64) {
        let msign = match m.cmp(&0) {
            Ordering::Less => Sign::Negative,
            Ordering::Equal => {
                self.sign = Sign::Zero;
                self.mag.clear();
                return;
            }
            Ordering::Greater => Sign::Positive,
        };
        if self.sign == Sign::Zero {
            return;
        }
        ops::mul_limb_assign(&mut self.mag, m.unsigned_abs());
        self.sign = self.sign.mul(msign);
    }

    /// `self * 2^bits`.
    #[must_use]
    pub fn shl_bits(&self, bits: u64) -> BigInt {
        if self.is_zero() {
            return BigInt::zero();
        }
        BigInt {
            sign: self.sign,
            mag: ops::shl_bits(&self.mag, bits),
        }
    }

    /// Arithmetic shift right by `bits` **of the magnitude** (truncates
    /// towards zero): `sign(self) * (|self| >> bits)`.
    #[must_use]
    pub fn shr_bits(&self, bits: u64) -> BigInt {
        let mag = ops::shr_bits(&self.mag, bits);
        if mag.is_empty() {
            BigInt::zero()
        } else {
            BigInt {
                sign: self.sign,
                mag,
            }
        }
    }

    /// Raise to a small power by binary exponentiation. Products go through
    /// the size-dispatched [`BigInt::mul_auto`] and repeated squarings use
    /// the halved squaring kernel.
    #[must_use]
    pub fn pow(&self, mut e: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.mul_auto(&base);
            }
            e >>= 1;
            if e > 0 {
                base = crate::workspace::with_thread_local(|ws| base.square_with_ws(ws));
            }
        }
        acc
    }

    /// Sum of a slice of integers: a left fold whose `+=` accumulates into
    /// one growing buffer (no per-element reallocation).
    #[must_use]
    pub fn sum<'a>(items: impl IntoIterator<Item = &'a BigInt>) -> BigInt {
        let mut acc = BigInt::zero();
        for x in items {
            acc += x;
        }
        acc
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        BigInt {
            sign: self.sign.neg(),
            mag: self.mag.clone(),
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(mut self) -> BigInt {
        self.sign = self.sign.neg();
        self
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        self.add_ref(rhs)
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        self.add_ref(&-rhs)
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        self.mul_schoolbook(rhs)
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: &BigInt) -> BigInt {
                (&self).$method(rhs)
            }
        }
        impl $trait<BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                self.$method(&rhs)
            }
        }
    };
}

forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);
forward_owned_binop!(Mul, mul);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        if rhs.sign != Sign::Zero {
            self.add_mag_assign(&rhs.mag, rhs.sign);
        }
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, rhs: &BigInt) {
        if rhs.sign != Sign::Zero {
            self.add_mag_assign(&rhs.mag, rhs.sign.neg());
        }
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, rhs: &BigInt) {
        let sign = self.sign.mul(rhs.sign);
        if sign == Sign::Zero {
            self.sign = Sign::Zero;
            self.mag.clear();
            return;
        }
        // The product needs a fresh buffer regardless (it outgrows `self`),
        // but the displaced magnitude is recycled for later products.
        crate::workspace::with_thread_local(|ws| {
            let mut out = ws.take_limbs();
            crate::kernels::mul_into_auto(&self.mag, &rhs.mag, &mut out, ws);
            ws.recycle_limbs(std::mem::replace(&mut self.mag, out));
        });
        self.sign = sign;
    }
}

impl Shl<u64> for &BigInt {
    type Output = BigInt;
    fn shl(self, bits: u64) -> BigInt {
        self.shl_bits(bits)
    }
}

impl Shr<u64> for &BigInt {
    type Output = BigInt;
    fn shr(self, bits: u64) -> BigInt {
        self.shr_bits(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: i128) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn signed_addition_table() {
        for x in [-7i128, -1, 0, 1, 9] {
            for y in [-5i128, -1, 0, 1, 12] {
                assert_eq!(&b(x) + &b(y), b(x + y), "{x}+{y}");
                assert_eq!(&b(x) - &b(y), b(x - y), "{x}-{y}");
                assert_eq!(&b(x) * &b(y), b(x * y), "{x}*{y}");
            }
        }
    }

    #[test]
    fn cancellation_to_zero() {
        let big = BigInt::from(u128::MAX) * BigInt::from(u128::MAX);
        assert!((&big - &big).is_zero());
        assert_eq!(&big + &-&big, BigInt::zero());
    }

    #[test]
    fn mul_small_signs() {
        assert_eq!(b(7).mul_small(-3), b(-21));
        assert_eq!(b(-7).mul_small(-3), b(21));
        assert_eq!(b(7).mul_small(0), BigInt::zero());
        assert_eq!(b(0).mul_small(5), BigInt::zero());
        assert_eq!(b(-1).mul_small(i64::MIN), BigInt::from(1u128 << 63));
    }

    #[test]
    fn shifts_signed() {
        assert_eq!(b(-3).shl_bits(2), b(-12));
        assert_eq!(b(-12).shr_bits(2), b(-3));
        assert_eq!(b(-1).shr_bits(1), BigInt::zero(), "truncates toward zero");
    }

    #[test]
    fn pow_small() {
        assert_eq!(b(3).pow(0), b(1));
        assert_eq!(b(3).pow(5), b(243));
        assert_eq!(b(-2).pow(3), b(-8));
        assert_eq!(b(-2).pow(4), b(16));
        assert_eq!(b(0).pow(0), b(1), "0^0 = 1 by convention");
    }

    #[test]
    fn pow_large_matches_repeated_mul() {
        let x = BigInt::from(0xdead_beefu64);
        let mut acc = BigInt::one();
        for _ in 0..9 {
            acc = &acc * &x;
        }
        assert_eq!(x.pow(9), acc);
    }

    #[test]
    fn sum_folds() {
        let xs = [b(1), b(-2), b(30)];
        assert_eq!(BigInt::sum(xs.iter()), b(29));
        assert_eq!(BigInt::sum([].iter()), BigInt::zero());
    }

    #[test]
    fn small_assign_variants_match_allocating_forms() {
        let mut x = b(-21);
        x.mul_small_assign(-3);
        assert_eq!(x, b(63));
        x.div_exact_small_assign(-9);
        assert_eq!(x, b(-7));
        x.mul_small_assign(0);
        assert!(x.is_zero());
        x.div_exact_small_assign(5);
        assert!(x.is_zero());
    }

    #[test]
    fn assign_ops() {
        let mut x = b(10);
        x += &b(5);
        x -= &b(3);
        x *= &b(-2);
        assert_eq!(x, b(-24));
    }
}
