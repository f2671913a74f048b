//! End-to-end demo of ft-service: 1200 mixed-size requests from 4
//! submitter threads, every product verified against schoolbook, followed
//! by a deliberately starved configuration that demonstrates the
//! robustness controls (backpressure, deadlines, shedding).
//!
//! Run with `cargo run --release --example service_demo`.

use ft_toom::ft_bigint::BigInt;
use ft_toom::ft_service::{BatchingConfig, KernelPolicy, MulService, ServiceConfig, SubmitError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Duration;

const SUBMITTERS: usize = 4;
const REQUESTS_PER_THREAD: usize = 300;

fn main() {
    healthy_run();
    starved_run();
}

/// Phase 1: a correctly provisioned service absorbs a 4-thread mixed-size
/// workload; every result is checked against schoolbook.
fn healthy_run() {
    let config = ServiceConfig {
        workers: 4,
        kernel_policy: KernelPolicy {
            // Thresholds pulled down so the 1..32000-bit workload
            // exercises all three kernels.
            schoolbook_max_bits: 2_000,
            seq_toom_max_bits: 12_000,
            ..KernelPolicy::default()
        },
        ..ServiceConfig::default()
    };
    println!("== healthy run: {SUBMITTERS} submitters x {REQUESTS_PER_THREAD} requests ==");
    println!("config: {}", config.to_json());
    let service = MulService::start(config);

    let verified: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let service = &service;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(1000 + t as u64);
                    let mut ok = 0usize;
                    for _ in 0..REQUESTS_PER_THREAD {
                        let bits = 1 + rng.random::<u64>() % 32_000;
                        let a = BigInt::random_signed_bits(&mut rng, bits);
                        let b = BigInt::random_signed_bits(&mut rng, bits);
                        let want = a.mul_schoolbook(&b);
                        // Bounded queues: retry rather than drop on
                        // transient pressure.
                        let handle = loop {
                            match service.submit(vec![(a.clone(), b.clone())], None) {
                                Ok(h) => break h,
                                Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                                Err(SubmitError::ShuttingDown) => {
                                    panic!("service shut down mid-demo")
                                }
                            }
                        };
                        assert_eq!(handle.wait_slot(0).unwrap(), want, "product mismatch");
                        ok += 1;
                    }
                    ok
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter panicked"))
            .sum()
    });

    let metrics = service.shutdown();
    println!("verified {verified} products against schoolbook");
    println!("metrics: {}", metrics.to_json());
    assert_eq!(verified, SUBMITTERS * REQUESTS_PER_THREAD);
    // The 1..32000-bit workload spans the three local bands; the NTT band
    // starts above 160 kbit and the distributed rung is never selected by
    // size.
    for (name, count) in metrics.per_kernel {
        if ["schoolbook", "seq_toom", "par_toom"].contains(&name) {
            assert!(count > 0, "kernel {name} was never selected");
        }
    }
    println!("all three kernels selected ✓\n");
}

/// Phase 2: one worker, a depth-1 queue, one job per dispatcher round, a
/// zero-tolerance shed bound, and millisecond deadlines — enough
/// starvation to surface every typed rejection path.
fn starved_run() {
    let config = ServiceConfig {
        workers: 1,
        batching: BatchingConfig {
            queue_capacity: 1,
            max_batch: 1,
            ..BatchingConfig::default()
        },
        shed_after_ms: Some(0),
        kernel_policy: KernelPolicy {
            // Everything through schoolbook so the blocker is slow.
            schoolbook_max_bits: u64::MAX,
            ..KernelPolicy::default()
        },
        ..ServiceConfig::default()
    };
    println!("== starved run: {} ==", config.to_json());
    let service = MulService::start(config);
    let mut rng = StdRng::seed_from_u64(7);

    // A large schoolbook product occupies the only worker for ~100 ms.
    let big = BigInt::random_bits(&mut rng, 600_000);
    let blocker = service
        .submit(vec![(big.clone(), big)], Some(Duration::from_secs(3600)))
        .expect("blocker should be accepted");
    // Give the worker time to start grinding the blocker: then the service
    // holds exactly three of the submits below (one in the hand-off to the
    // worker, one in the dispatcher's hands, one in the depth-1 queue).
    std::thread::sleep(Duration::from_millis(10));

    let tiny = BigInt::random_bits(&mut rng, 64);
    let mut queue_full = 0usize;
    let mut outcomes = Vec::new();
    for _ in 0..16 {
        // 1 ms deadline, but the worker is busy for ~100 ms: whichever
        // submits the service holds must time out.
        match service.submit(
            vec![(tiny.clone(), tiny.clone())],
            Some(Duration::from_millis(1)),
        ) {
            Ok(handle) => outcomes.push(handle),
            Err(SubmitError::QueueFull { .. }) => queue_full += 1,
            Err(SubmitError::ShuttingDown) => unreachable!("not shutting down"),
        }
    }
    let _ = blocker.wait_slot(0).expect("blocker computes fine");
    // The blocker is done, but the held tinies may still fill the depth-1
    // queue until the worker starts (and expires) them — retry until the
    // slot frees. The accepted request's queue age (microseconds) still
    // exceeds the 0 ms shed bound.
    outcomes.push(loop {
        match service.submit(vec![(tiny.clone(), tiny.clone())], None) {
            Ok(handle) => break handle,
            Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
            Err(SubmitError::ShuttingDown) => unreachable!("not shutting down"),
        }
    });

    let (mut timed_out, mut shed, mut served) = (0usize, 0usize, 0usize);
    for handle in outcomes {
        match handle.wait_slot(0) {
            Ok(_) => served += 1,
            Err(e) if e.to_string().contains("deadline") => timed_out += 1,
            Err(_) => shed += 1,
        }
    }
    let metrics = service.shutdown();
    println!(
        "rejected at queue: {queue_full}, timed out: {timed_out}, shed: {shed}, served: {served}"
    );
    println!("metrics: {}", metrics.to_json());
    assert!(
        queue_full > 0,
        "starved config must reject at the queue boundary"
    );
    assert!(
        timed_out + shed > 0,
        "starved config must time out or shed at least one request"
    );
    println!("backpressure/deadline/shedding demonstrated ✓");
}
