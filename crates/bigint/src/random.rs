//! Random integer generation for workloads and property tests.

use crate::bigint::{BigInt, Sign};
use crate::Limb;
use rand::{Rng, RngExt};

/// SplitMix64 finalizer: a strong, cheap, deterministic 64-bit mixer. The
/// workspace's seeded streams (fault injection, shard placement, load
/// generation) all derive from it.
#[must_use]
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl BigInt {
    /// Uniformly random non-negative integer with exactly `bits` significant
    /// bits (top bit set), or zero when `bits == 0`.
    pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: u64) -> BigInt {
        if bits == 0 {
            return BigInt::zero();
        }
        let limbs = bits.div_ceil(64) as usize;
        let mut mag: Vec<Limb> = (0..limbs).map(|_| rng.random()).collect();
        let top_bits = ((bits - 1) % 64) as u32; // index of the forced top bit
        let last = mag.last_mut().unwrap();
        if top_bits == 63 {
            *last |= 1 << 63;
        } else {
            *last &= (1u64 << (top_bits + 1)) - 1;
            *last |= 1 << top_bits;
        }
        BigInt::from_limbs(mag)
    }

    /// Uniformly random integer in `[0, bound)`. `bound` must be positive.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigInt) -> BigInt {
        assert!(bound.signum() > 0, "bound must be positive");
        let bits = bound.bit_length();
        // Rejection sampling: expected < 2 draws.
        loop {
            let limbs = bits.div_ceil(64) as usize;
            let mut mag: Vec<Limb> = (0..limbs).map(|_| rng.random()).collect();
            let extra = (limbs as u64) * 64 - bits;
            if extra > 0 {
                let last = mag.last_mut().unwrap();
                *last >>= extra;
            }
            let candidate = BigInt::from_limbs(mag);
            if candidate.cmp_abs(bound) == std::cmp::Ordering::Less {
                return candidate;
            }
        }
    }

    /// Random signed integer: magnitude of exactly `bits` bits with a random
    /// sign (zero when `bits == 0`).
    pub fn random_signed_bits<R: Rng + ?Sized>(rng: &mut R, bits: u64) -> BigInt {
        let mut v = BigInt::random_bits(rng, bits);
        if !v.is_zero() && rng.random::<bool>() {
            v.sign = Sign::Negative;
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> impl Rng {
        rand::rngs::StdRng::seed_from_u64(0xfeed_beef)
    }

    #[test]
    fn random_bits_has_exact_length() {
        let mut r = rng();
        for bits in [1u64, 2, 63, 64, 65, 100, 1000] {
            let v = BigInt::random_bits(&mut r, bits);
            assert_eq!(v.bit_length(), bits, "bits={bits}");
        }
        assert!(BigInt::random_bits(&mut r, 0).is_zero());
    }

    #[test]
    fn random_below_in_range() {
        let mut r = rng();
        let bound: BigInt = "123456789123456789123456789".parse().unwrap();
        for _ in 0..50 {
            let v = BigInt::random_below(&mut r, &bound);
            assert!(v < bound);
            assert!(!v.is_negative());
        }
    }

    #[test]
    fn random_below_small_bound_hits_all() {
        let mut r = rng();
        let bound = BigInt::from(3u64);
        let mut seen = [false; 3];
        for _ in 0..200 {
            let v = BigInt::random_below(&mut r, &bound);
            seen[u64::try_from(&v).unwrap() as usize] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn random_signed_produces_both_signs() {
        let mut r = rng();
        let mut pos = false;
        let mut neg = false;
        for _ in 0..100 {
            match BigInt::random_signed_bits(&mut r, 32).signum() {
                1 => pos = true,
                -1 => neg = true,
                _ => {}
            }
        }
        assert!(pos && neg);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = BigInt::random_bits(&mut rng(), 256);
        let b = BigInt::random_bits(&mut rng(), 256);
        assert_eq!(a, b);
    }
}
