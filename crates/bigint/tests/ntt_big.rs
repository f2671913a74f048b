//! Full-size NTT check at the service's largest benchmark class: two
//! 9 437 184-bit operands (a 2^19-point transform) multiplied by the NTT
//! and by Karatsuba must agree bit for bit. Ignored by default because a
//! debug build takes minutes; run it with
//! `cargo test --release -p ft-bigint --test ntt_big -- --ignored`.

use ft_bigint::kernels::mul_karatsuba_into;
use ft_bigint::workspace::Workspace;
use ft_bigint::{ntt, BigInt};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
#[ignore = "release-mode size check; see the module doc"]
fn nine_megabit_ntt_product_matches_karatsuba() {
    const BITS: u64 = 9_437_184;
    let mut rng = StdRng::seed_from_u64(0x9e37_79b9);
    let a = BigInt::random_bits(&mut rng, BITS);
    let b = BigInt::random_bits(&mut rng, BITS);
    assert_eq!(ntt::transform_size(a.word_len(), b.word_len()), 1 << 19);
    let mut kara = Vec::new();
    mul_karatsuba_into(a.limbs(), b.limbs(), &mut kara, &mut Workspace::new());
    assert_eq!(a.mul_ntt(&b), BigInt::from_limbs(kara));
}
