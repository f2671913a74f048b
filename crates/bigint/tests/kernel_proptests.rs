//! Property tests for the zero-allocation limb kernels: every `_into` /
//! `_assign` kernel must match its allocating reference on arbitrary,
//! empty, single-limb, and maximally-carrying operands — plus workspace
//! checkpoint discipline (the recursion never leaks arena space and the
//! pools stabilize across repeated multiplies).

use ft_bigint::workspace::Workspace;
use ft_bigint::{ntt, ops, BigInt, Limb};
use proptest::prelude::*;

/// Normalized limb magnitudes biased toward the edge cases that break
/// carry chains: empty, single limb, all-`MAX` runs, and `2^(64·(n−1))`.
fn mag() -> impl Strategy<Value = Vec<Limb>> {
    (
        any::<u8>(),
        proptest::collection::vec(any::<u64>(), 0..10),
        1usize..9,
    )
        .prop_map(|(mode, plain, n)| {
            let raw = match mode % 5 {
                0 => Vec::new(),
                1 => vec![u64::MAX; n],
                2 => plain.into_iter().take(1).collect(),
                3 => {
                    let mut v = vec![0 as Limb; n];
                    v[n - 1] = 1;
                    v
                }
                _ => plain,
            };
            BigInt::from_limbs(raw).into_limbs()
        })
}

/// Wide magnitudes (past the Karatsuba crossover) for the recursive paths.
fn mag_wide() -> impl Strategy<Value = Vec<Limb>> {
    (any::<u8>(), proptest::collection::vec(any::<u64>(), 0..70)).prop_map(|(mode, plain)| {
        let raw = if mode % 4 == 0 {
            vec![u64::MAX; plain.len()]
        } else {
            plain
        };
        BigInt::from_limbs(raw).into_limbs()
    })
}

/// Arbitrary signed integer built from [`mag`].
fn signed() -> impl Strategy<Value = BigInt> {
    (mag(), any::<bool>()).prop_map(|(m, neg)| {
        let v = BigInt::from_limbs(m);
        if neg {
            -v
        } else {
            v
        }
    })
}

fn from_mag(m: &[Limb]) -> BigInt {
    BigInt::from_limbs(m.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn add_assign_slices_matches_add_slices(a in mag(), b in mag()) {
        let mut acc = a.clone();
        ops::add_assign_slices(&mut acc, &b);
        prop_assert_eq!(acc, ops::add_slices(&a, &b));
    }

    #[test]
    fn sub_assign_slices_matches_signed_subtraction(a in mag(), b in mag()) {
        let mut acc = a.clone();
        let flipped = ops::sub_assign_slices(&mut acc, &b);
        let want = &from_mag(&a) - &from_mag(&b);
        prop_assert_eq!(&acc, &want.abs().into_limbs());
        // The flip report matters only when the difference is non-zero.
        if !want.is_zero() {
            prop_assert_eq!(flipped, want.is_negative());
        }
    }

    #[test]
    fn mul_into_matches_schoolbook_and_reuses_dirty_buffers(a in mag(), b in mag(), junk in mag()) {
        let mut out = junk; // arbitrary leftover contents and capacity
        ops::mul_into(&a, &b, &mut out);
        prop_assert_eq!(out, ops::mul_schoolbook(&a, &b));
    }

    #[test]
    fn mul_limb_kernels_match_mul_limb(a in mag(), m in any::<u64>()) {
        let mut out = Vec::new();
        ops::mul_limb_into(&a, m, &mut out);
        prop_assert_eq!(&out, &ops::mul_limb(&a, m));
        let mut assign = a.clone();
        ops::mul_limb_assign(&mut assign, m);
        prop_assert_eq!(assign, out);
    }

    #[test]
    fn div_rem_limb_assign_matches_div_rem_limb(
        a in mag(),
        d in any::<u64>().prop_filter("nonzero", |v| *v != 0),
    ) {
        let (want_q, want_r) = ops::div_rem_limb(&a, d);
        let mut q = a.clone();
        let r = ops::div_rem_limb_assign(&mut q, d);
        ops::normalize(&mut q);
        prop_assert_eq!(q, want_q);
        prop_assert_eq!(r, want_r);
    }

    #[test]
    fn add_shifted_matches_shl_then_add(acc in mag(), a in mag(), shift in 0u64..200) {
        let mut got = acc.clone();
        ops::add_shifted_assign_slices(&mut got, &a, shift);
        let want = ops::add_slices(&acc, &ops::shl_bits(&a, shift));
        prop_assert_eq!(got, want);
    }

    #[test]
    fn bits_range_into_matches_bits_range(a in mag(), lo in 0u64..300, width in 0u64..200) {
        let mut out = Vec::new();
        ops::bits_range_into(&a, lo, lo + width, &mut out);
        prop_assert_eq!(out, ops::bits_range(&a, lo, lo + width));
    }

    #[test]
    fn workspace_multiply_matches_schoolbook(a in mag_wide(), b in mag_wide()) {
        let mut ws = Workspace::new();
        let (x, y) = (from_mag(&a), from_mag(&b));
        prop_assert_eq!(x.mul_with_ws(&y, &mut ws), x.mul_schoolbook(&y));
        prop_assert_eq!(ws.in_use(), 0, "multiply must release all arena scratch");
    }

    #[test]
    fn workspace_square_matches_schoolbook(a in mag_wide()) {
        let mut ws = Workspace::new();
        let x = from_mag(&a);
        prop_assert_eq!(x.square_with_ws(&mut ws), x.mul_schoolbook(&x));
        prop_assert_eq!(ws.in_use(), 0, "squaring must release all arena scratch");
    }

    #[test]
    fn add_mul_small_assign_matches_composed(acc in signed(), x in signed(), c in any::<i64>()) {
        let mut got = acc.clone();
        let mut tmp = Vec::new();
        got.add_mul_small_assign(&x, c, &mut tmp);
        prop_assert_eq!(got, &acc + &x.mul_small(c));
    }

    #[test]
    fn small_assign_kernels_match_and_roundtrip(
        x in signed(),
        c in any::<i64>().prop_filter("nonzero", |v| *v != 0),
    ) {
        let mut got = x.clone();
        got.mul_small_assign(c);
        prop_assert_eq!(&got, &x.mul_small(c));
        got.div_exact_small_assign(c);
        prop_assert_eq!(got, x);
    }

    #[test]
    fn assign_operators_match_operator_forms(a in signed(), b in signed()) {
        let (mut add, mut sub, mut mul) = (a.clone(), a.clone(), a.clone());
        add += &b;
        sub -= &b;
        mul *= &b;
        prop_assert_eq!(add, &a + &b);
        prop_assert_eq!(sub, &a - &b);
        prop_assert_eq!(mul, &a * &b);
    }

    #[test]
    fn ntt_multiply_matches_schoolbook(a in mag_wide(), b in mag_wide()) {
        let mut ws = Workspace::new();
        let (x, y) = (from_mag(&a), from_mag(&b));
        prop_assert_eq!(x.mul_ntt_with_ws(&y, &mut ws), x.mul_schoolbook(&y));
        prop_assert_eq!(ws.in_use(), 0, "NTT multiply must release all arena scratch");
    }

    /// Operands at every limb count mod 3 (three limbs pack four 48-bit
    /// digits, so each residue leaves a different partial digit group),
    /// on both sides of a transform-size power of two: `3·2^(k−3)` limbs
    /// a side is the largest balanced product a `2^k`-point transform
    /// holds, one limb more doubles it.
    #[test]
    fn ntt_matches_schoolbook_across_digit_groups_and_transform_steps(
        k in 4u32..11,
        delta in -2i64..=2,
        skew in 0usize..3,
        all_max in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let la = (3i64 << (k - 3)) + delta;
        let la = usize::try_from(la).unwrap();
        let lb = la + skew;
        let mut state = seed | 1;
        let mut limbs = |n: usize| -> BigInt {
            let mut v: Vec<Limb> = (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    if all_max { u64::MAX } else { state }
                })
                .collect();
            v[n - 1] |= 1 << 63;
            BigInt::from_limbs(v)
        };
        let (x, y) = (limbs(la), limbs(lb));
        let balanced = 1usize << k;
        let n = ntt::transform_size(la, lb);
        prop_assert!(if la + skew <= 3 << (k - 3) { n <= balanced } else { n >= balanced });
        prop_assert_eq!(x.mul_ntt(&y), x.mul_schoolbook(&y));
        prop_assert_eq!(y.mul_ntt(&x), x.mul_schoolbook(&y));
    }

    /// CRT edge cases: operands that are multiples of one (or both) NTT
    /// primes make entire residue vectors vanish mod that prime, so the
    /// reconstruction leans fully on the CRT lift — any sign error in the
    /// division-free combine shows up here first.
    #[test]
    fn ntt_handles_operands_divisible_by_a_crt_prime(
        r in mag(),
        s in mag(),
        k in 1u32..3,
    ) {
        let p0 = BigInt::from(ntt::PRIMES[0]);
        let p1 = BigInt::from(ntt::PRIMES[1]);
        let x = &from_mag(&r) * &p0.pow(k);
        let y = &from_mag(&s) * &p1.pow(k);
        prop_assert_eq!(x.mul_ntt(&y), x.mul_schoolbook(&y));
        // Both operands ≡ 0 mod the same prime.
        prop_assert_eq!(x.mul_ntt(&x), x.mul_schoolbook(&x));
        prop_assert_eq!(y.mul_ntt(&y), y.mul_schoolbook(&y));
    }

    /// The auto dispatcher straddling its crossovers: products must be
    /// identical no matter which kernel the size bands pick.
    #[test]
    fn auto_multiply_is_kernel_independent(a in mag_wide(), b in mag_wide(), neg in any::<bool>()) {
        let x = from_mag(&a);
        let y = if neg { -from_mag(&b) } else { from_mag(&b) };
        let want = x.mul_schoolbook(&y);
        prop_assert_eq!(x.mul_auto(&y), want.clone());
        prop_assert_eq!(x.mul_ntt(&y), want);
    }

    #[test]
    fn pow_matches_repeated_multiplication(x in signed(), e in 0u32..8) {
        let mut want = BigInt::one();
        for _ in 0..e {
            want = &want * &x;
        }
        prop_assert_eq!(x.pow(e), want);
    }
}

/// The arena obeys stack discipline across nested checkpoints, and a
/// release returns `in_use` exactly to the checkpoint's level.
#[test]
fn workspace_checkpoint_discipline() {
    let mut ws = Workspace::new();
    let outer = ws.mark();
    ws.alloc(17);
    assert_eq!(ws.in_use(), 17);
    let inner = ws.mark();
    ws.alloc(40);
    ws.alloc(3);
    assert_eq!(ws.in_use(), 60);
    ws.release(inner);
    assert_eq!(ws.in_use(), 17);
    ws.release(outer);
    assert_eq!(ws.in_use(), 0);
    assert!(ws.high_water() >= 60);
}

/// Repeated same-shape multiplies through one workspace stop growing it:
/// the second multiply must not raise the high-water mark, and every
/// multiply must fully release its scratch.
#[test]
fn workspace_stabilizes_across_repeated_multiplies() {
    let mut rng_a = BigInt::from(3u64);
    let mut rng_b = BigInt::from(7u64);
    // Deterministic ~4000-bit operands without pulling in a rand dep.
    for _ in 0..10 {
        rng_a = rng_a.square();
        rng_b = rng_b.square();
    }
    let mut ws = Workspace::new();
    let first = rng_a.mul_with_ws(&rng_b, &mut ws);
    let settled = ws.high_water();
    for _ in 0..5 {
        let again = rng_a.mul_with_ws(&rng_b, &mut ws);
        assert_eq!(again, first);
        assert_eq!(ws.in_use(), 0);
        assert_eq!(
            ws.high_water(),
            settled,
            "same-shape multiplies must not grow the arena"
        );
    }
}
