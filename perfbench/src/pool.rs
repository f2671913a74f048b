//! Seeded operands, request bodies and reference products.
//!
//! Every reference product is computed at set-up by two kernels that
//! differ from each other and from the kernel the server's default
//! policy picks for that size, and the two must agree — a kernel
//! regression cannot check itself.

use ft_bigint::kernels::mul_karatsuba_into;
use ft_bigint::workspace::Workspace;
use ft_bigint::BigInt;
use ft_service::json::{obj, Json};
use ft_toom_core::seq;

/// Small `/v1/mul` operand sizes, bits.
pub const SMALL_BITS: [u64; 3] = [512, 2_048, 8_192];

/// The large `/v1/mul` classes: (label, bits). Served by seq Toom, seq
/// Toom, par Toom and the NTT under the default kernel policy.
pub const BIG_CLASSES: [(&str, u64); 4] = [
    ("256k", 262_144),
    ("1m", 1_048_576),
    ("4m", 4_194_304),
    ("9m", 9_437_184),
];

/// Batch operand sizes, bits (uniform over these).
pub const BATCH_BITS: [u64; 7] = [256, 512, 1_024, 2_048, 4_096, 8_192, 16_384];

/// SplitMix64 step: the benchmark's only source of randomness.
#[must_use]
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded operand of exactly `bits` bits (top bit set), so the
/// server's size-based kernel choice is fixed by the class.
#[must_use]
pub fn operand(seed: u64, bits: u64) -> BigInt {
    let limbs = bits.div_ceil(64) as usize;
    let mut s = seed;
    let mut mag: Vec<u64> = (0..limbs)
        .map(|_| {
            s = splitmix64(s);
            s
        })
        .collect();
    let top_bits = bits - 64 * (limbs as u64 - 1);
    let top = &mut mag[limbs - 1];
    if top_bits < 64 {
        *top &= (1u64 << top_bits) - 1;
    }
    *top |= 1u64 << (top_bits - 1);
    BigInt::from_limbs(mag)
}

/// Reference kernels, none of which is the server's pick for the sizes
/// it is used on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefKernel {
    Schoolbook,
    Karatsuba,
    SeqToom,
    Ntt,
}

impl RefKernel {
    #[must_use]
    pub fn mul(self, a: &BigInt, b: &BigInt) -> BigInt {
        match self {
            RefKernel::Schoolbook => a.mul_schoolbook(b),
            RefKernel::Karatsuba => {
                let mut out = Vec::new();
                mul_karatsuba_into(a.limbs(), b.limbs(), &mut out, &mut Workspace::new());
                BigInt::from_limbs(out)
            }
            // Toom-4: a different split from the server's Toom-3.
            RefKernel::SeqToom => seq::toom_k(a, b, 4),
            RefKernel::Ntt => a.mul_ntt(b),
        }
    }

    /// The two reference kernels for operands of `bits` bits, chosen
    /// against the default policy (schoolbook ≤ 2048, seq Toom ≤ 4e6,
    /// par Toom ≤ 2^23, NTT above).
    #[must_use]
    pub fn pair_for(bits: u64) -> [RefKernel; 2] {
        if bits <= 16_384 {
            [RefKernel::Schoolbook, RefKernel::Ntt]
        } else if bits <= 8_388_608 {
            [RefKernel::Karatsuba, RefKernel::Ntt]
        } else {
            [RefKernel::SeqToom, RefKernel::Karatsuba]
        }
    }
}

/// `a × b` by both reference kernels for the size; panics if they
/// disagree (the benchmark cannot trust either then).
#[must_use]
pub fn reference(a: &BigInt, b: &BigInt) -> BigInt {
    let bits = a.bit_length().min(b.bit_length());
    let [k1, k2] = RefKernel::pair_for(bits);
    let p = k1.mul(a, b);
    assert!(
        p == k2.mul(a, b),
        "reference kernels {k1:?} and {k2:?} disagree at {bits} bits"
    );
    p
}

/// One `/v1/mul` request: its operands, wire body and expected product.
pub struct MulCase {
    pub bits: u64,
    pub a: BigInt,
    pub b: BigInt,
    pub body: Vec<u8>,
    pub product: BigInt,
    pub product_hex: String,
}

impl MulCase {
    #[must_use]
    pub fn new(seed: u64, bits: u64) -> MulCase {
        let a = operand(seed, bits);
        let b = operand(splitmix64(seed ^ 0x5eed), bits);
        let body = obj([("a", Json::Str(a.to_hex())), ("b", Json::Str(b.to_hex()))])
            .dump()
            .into_bytes();
        let product = reference(&a, &b);
        let product_hex = product.to_hex();
        MulCase {
            bits,
            a,
            b,
            body,
            product,
            product_hex,
        }
    }
}

/// One `/v1/mul/batch` request: its body and expected products in
/// slot order.
pub struct BatchCase {
    pub pairs: Vec<(BigInt, BigInt)>,
    pub body: Vec<u8>,
    pub products: Vec<String>,
}

impl BatchCase {
    #[must_use]
    pub fn new(seed: u64, len: usize) -> BatchCase {
        let mut pairs = Vec::with_capacity(len);
        let mut wire = Vec::with_capacity(len);
        let mut products = Vec::with_capacity(len);
        for i in 0..len {
            let s = splitmix64(seed ^ (i as u64) << 20);
            let bits = BATCH_BITS[(s % BATCH_BITS.len() as u64) as usize];
            let a = operand(s, bits);
            let b = operand(splitmix64(s), bits);
            wire.push(Json::Arr(vec![
                Json::Str(a.to_hex()),
                Json::Str(b.to_hex()),
            ]));
            products.push(reference(&a, &b).to_hex());
            pairs.push((a, b));
        }
        let body = obj([("pairs", Json::Arr(wire))]).dump().into_bytes();
        BatchCase {
            pairs,
            body,
            products,
        }
    }
}

/// `true` when `text` (the `product` field of a response) is exactly
/// `want`. Compares the hex first and falls back to the parsed value,
/// so a change of hex formatting alone is not a wrong product.
#[must_use]
pub fn product_matches(text: &str, want_hex: &str) -> bool {
    text == want_hex
        || match (text.parse::<BigInt>(), want_hex.parse::<BigInt>()) {
            (Ok(got), Ok(want)) => got == want,
            _ => false,
        }
}

/// The `product` string of a `/v1/mul` response body or batch line.
#[must_use]
pub fn product_field(body: &str) -> Option<String> {
    match Json::parse(body).ok()?.get("product") {
        Some(Json::Str(p)) => Some(p.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operands_have_exact_bit_lengths_and_repeat_by_seed() {
        for bits in [256, 512, 2_048, 8_192, 262_144, 1_000_003] {
            assert_eq!(operand(7, bits).bit_length(), bits);
        }
        assert_eq!(operand(7, 2_048), operand(7, 2_048));
        assert_ne!(operand(7, 2_048), operand(8, 2_048));
    }

    #[test]
    fn reference_kernels_agree_and_avoid_the_served_kernel() {
        for bits in [512, 8_192, 40_000] {
            let c = MulCase::new(3, bits);
            assert_eq!(c.product, c.a.mul_schoolbook(&c.b));
            let pair = RefKernel::pair_for(bits);
            assert_ne!(pair[0], pair[1]);
        }
        // The NTT serves the largest class, so it must not check it.
        assert!(!RefKernel::pair_for(9_437_184).contains(&RefKernel::Ntt));
    }

    #[test]
    fn products_compare_by_value_when_the_hex_differs() {
        assert!(product_matches("0xff", "0xff"));
        assert!(product_matches("0x00ff", "0xff"));
        assert!(product_matches("255", "0xff"));
        assert!(!product_matches("0xfe", "0xff"));
        assert!(!product_matches("junk", "0xff"));
        assert_eq!(
            product_field(r#"{"product": "0x1f"}"#).as_deref(),
            Some("0x1f")
        );
        assert_eq!(product_field(r#"{"error": "x"}"#), None);
    }
}
