//! Demo of the distributed serving backend: coalesced batches promoted to
//! the simulated coded machine, surviving injected hard + delay faults
//! with heartbeat-driven detection and recovery, then a deliberately
//! over-faulted phase that degrades to the local kernel ladder.
//!
//! Run with `cargo run --release --example distributed_service_demo`.

use ft_toom::ft_bigint::BigInt;
use ft_toom::ft_service::{
    install_quiet_panic_hook, DistributedConfig, KernelPolicy, MulService, RetryPolicy,
    ServiceConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const BATCH: usize = 8;
const BITS: u64 = 4_000;

fn main() {
    install_quiet_panic_hook();
    survivable_run();
    unrecoverable_run();
}

fn policy() -> KernelPolicy {
    KernelPolicy {
        // 4-kbit operands select the parallel Toom kernel, making the
        // coalesced batch eligible for promotion.
        schoolbook_max_bits: 2_000,
        seq_toom_max_bits: 3_000,
        ..KernelPolicy::default()
    }
}

fn distributed(hard_faults: u32, faulty_attempts: u32) -> DistributedConfig {
    DistributedConfig {
        enabled: true,
        k: 2,
        bfs_steps: 1,
        f: 1,
        min_group: 2,
        min_bits: 3_000,
        max_bits: 1_000_000,
        fault_seed: 42,
        hard_faults_per_run: hard_faults,
        delay_ranks: 1,
        delay_factor: 4,
        faulty_attempts,
        deadline_budget: 1,
        straggler_factor: 0,
        heartbeat_period: 1,
        recursion_detect: false,
    }
}

fn workload(seed: u64) -> (Vec<(BigInt, BigInt)>, Vec<BigInt>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs = Vec::new();
    let mut want = Vec::new();
    for _ in 0..BATCH {
        let a = BigInt::random_signed_bits(&mut rng, BITS);
        let b = BigInt::random_signed_bits(&mut rng, BITS);
        want.push(a.mul_schoolbook(&b));
        pairs.push((a, b));
    }
    (pairs, want)
}

/// Phase 1: every machine run loses one rank (= the full redundancy `f`)
/// plus one delayed rank; the heartbeat verdict drives recovery and every
/// product comes back bit-exact.
fn survivable_run() {
    println!("== survivable: f hard faults + 1 delay fault per machine run ==");
    let config = ServiceConfig {
        kernel_policy: policy(),
        verify_residues: true,
        distributed: distributed(1, 1),
        ..ServiceConfig::default()
    };
    let service = MulService::start(config);
    let (pairs, want) = workload(7);
    let handle = service
        .submit(pairs, None)
        .expect("queue accepts the batch");
    // Streaming consumption: results arrive in submission order, each as
    // soon as its slot resolves.
    for (i, (result, want)) in handle.into_iter().zip(want).enumerate() {
        let product = result.expect("survivable faults must not fail requests");
        assert_eq!(product, want);
        println!("  slot {i}: exact ({} bits)", product.bit_length());
    }
    let m = service.shutdown();
    println!(
        "  runs={} recoveries={} false_positives={} max_detect_latency={} ticks",
        m.distributed.runs,
        m.distributed.recoveries,
        m.distributed.false_positives,
        m.distributed.max_detect_latency_ticks,
    );
    println!(
        "  residue_checks={} worker_faults={}\n",
        m.residue_checks, m.worker_faults
    );
}

/// Phase 2: more faults than the code tolerates, on every attempt. The
/// supervisor walks each request down the kernel ladder; nothing errors.
fn unrecoverable_run() {
    println!("== unrecoverable: 2 faulty columns > f=1, every attempt ==");
    let config = ServiceConfig {
        kernel_policy: policy(),
        verify_residues: true,
        distributed: distributed(2, u32::MAX),
        retry: RetryPolicy {
            max_retries: 1,
            backoff_base_ms: 0,
            backoff_max_ms: 0,
        },
        ..ServiceConfig::default()
    };
    let service = MulService::start(config);
    let (pairs, want) = workload(11);
    let handle = service
        .submit(pairs, None)
        .expect("queue accepts the batch");
    for (result, want) in handle.wait().into_iter().zip(want) {
        assert_eq!(result.expect("degradation must serve the request"), want);
    }
    let m = service.shutdown();
    let local: u64 = m
        .per_kernel
        .iter()
        .filter(|(name, _)| *name != "distributed_toom")
        .map(|&(_, n)| n)
        .sum();
    println!(
        "  unrecoverable_attempts={} served_on_local_kernels={} fallbacks={} worker_faults={}",
        m.distributed.unrecoverable, local, m.fallbacks, m.worker_faults,
    );
    println!("  all {BATCH} products bit-exact via the degradation ladder");
}
