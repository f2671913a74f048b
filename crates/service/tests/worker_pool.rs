//! The one execution path, end to end through the front door's entry
//! point (`Router::single` over a `MulService`): the dispatcher only
//! groups, the worker pool runs the groups.
//!
//! * Head-of-line: a small request submitted behind a huge job resolves
//!   on another worker while the huge job is still running.
//! * Escalated panics: an injected panic escalated out of the supervisor
//!   kills only the worker that ran it; the survivors keep serving.
//!
//! Both assert ordering and outcomes only — no latency bound, just a
//! generous hang bound — so a slow or loaded host cannot make them flaky.

use ft_bigint::BigInt;
use ft_service::chaos::FaultKind;
use ft_service::{
    install_quiet_panic_hook, ChaosConfig, KernelPolicy, MulError, MulService, Router,
    ServiceConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

#[test]
fn small_request_is_not_blocked_by_a_running_huge_job() {
    let router = Router::single(MulService::start(ServiceConfig {
        workers: 2,
        // Schoolbook for every size: the blocker grinds for hundreds of
        // milliseconds.
        kernel_policy: KernelPolicy {
            schoolbook_max_bits: u64::MAX,
            seq_toom_max_bits: u64::MAX,
            ntt_min_bits: u64::MAX,
            ..KernelPolicy::default()
        },
        ..ServiceConfig::default()
    }));
    let mut rng = StdRng::seed_from_u64(0x401);
    let big_a = BigInt::random_signed_bits(&mut rng, 600_000);
    let big_b = BigInt::random_signed_bits(&mut rng, 600_000);
    let small_a = BigInt::random_signed_bits(&mut rng, 2_000);
    let small_b = BigInt::random_signed_bits(&mut rng, 2_000);
    let small_want = small_a.mul_schoolbook(&small_b);
    let blocker = router.submit(big_a.clone(), big_b.clone()).unwrap();
    std::thread::sleep(Duration::from_millis(30)); // the blocker is running
    let sent = Instant::now();
    let small = router.submit(small_a, small_b).unwrap().wait();
    let latency = sent.elapsed();
    println!("2 kbit request behind a running 600 kbit job: {latency:?}");
    assert_eq!(
        small.unwrap(),
        small_want,
        "small product must be bit-exact"
    );
    let blocker = match blocker.try_wait() {
        Err(pending) => pending,
        Ok(result) => panic!(
            "the small request waited for the blocker ({latency:?}, blocker {:?})",
            result.map(|p| p.bit_length())
        ),
    };
    assert_eq!(blocker.wait().unwrap(), big_a.mul_schoolbook(&big_b));
    assert_eq!(router.shutdown().served, 2);
}

#[test]
fn escalated_panic_kills_one_worker_and_the_service_keeps_serving() {
    install_quiet_panic_hook();
    let router = Router::single(MulService::start(ServiceConfig {
        workers: 2,
        chaos: Some(ChaosConfig {
            escalate_panics: true,
            force: vec![(0, FaultKind::Panic)],
            ..ChaosConfig::default()
        }),
        ..ServiceConfig::default()
    }));
    let mut rng = StdRng::seed_from_u64(0x402);
    let operands = |rng: &mut StdRng| {
        let a = BigInt::random_signed_bits(rng, 3_000);
        let b = BigInt::random_signed_bits(rng, 3_000);
        let want = a.mul_schoolbook(&b);
        (a, b, want)
    };
    // Request 0's injected panic escalates and kills the worker running
    // it. Its slot resolves ServiceStopped, which the router fails over —
    // onto the surviving worker of the same shard.
    let (a, b, want) = operands(&mut rng);
    let bound = Duration::from_secs(120);
    match router.submit(a, b).unwrap().wait_timeout(bound) {
        Ok(Ok(product)) => assert_eq!(product, want, "failed-over product must be bit-exact"),
        Ok(Err(error)) => assert_eq!(error, MulError::ServiceStopped),
        Err(_) => panic!("request 0 hung"),
    }
    for i in 0..8 {
        let (a, b, want) = operands(&mut rng);
        let handle = router
            .submit(a, b)
            .unwrap_or_else(|e| panic!("submit {i} refused after the worker died: {e}"));
        match handle.wait_timeout(bound) {
            Ok(result) => assert_eq!(result.unwrap(), want, "request {i} after the panic"),
            Err(_) => panic!("request {i} hung after the panic"),
        }
    }
    let snap = router.shutdown();
    assert_eq!(snap.injected_faults[FaultKind::Panic as usize].1, 1);
    assert!(snap.served >= 8, "the survivor served {}", snap.served);
}
