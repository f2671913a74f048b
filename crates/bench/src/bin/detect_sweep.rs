//! Detection-latency sweep: how the heartbeat detector's
//! `deadline_budget` (missed-heartbeat tolerance, in collective steps)
//! trades false-positive safety against detection latency
//! (`max_detect_latency_ticks` — simulated ticks between a victim's
//! last heartbeat and the dead verdict).
//!
//! Each cell serves a promoted batch on the simulated coded machine
//! with one injected hard fault per run (always survivable at f = 1)
//! and reports the service's distributed robustness counters. The
//! in-machine fault stream follows the chaos seed matrix
//! {42, 1337, 2024}.
//!
//! ```sh
//! cargo run --release -p ft-bench --bin detect_sweep
//! ```

use ft_bigint::BigInt;
use ft_service::{
    install_quiet_panic_hook, DistributedConfig, KernelPolicy, MulService, ServiceConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEEDS: [u64; 3] = [42, 1337, 2024];
const BUDGETS: [u64; 5] = [1, 2, 3, 4, 8];
const PERIODS: [u64; 2] = [1, 4];
const BATCH: u64 = 6;

fn batch(n: u64, seed: u64) -> (Vec<(BigInt, BigInt)>, Vec<BigInt>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs = Vec::new();
    let mut want = Vec::new();
    for _ in 0..n {
        // 4-kbit operands select the parallel Toom kernel, making the
        // coalesced group eligible for distributed promotion.
        let a = BigInt::random_signed_bits(&mut rng, 4_000);
        let b = BigInt::random_signed_bits(&mut rng, 4_000);
        want.push(a.mul_schoolbook(&b));
        pairs.push((a, b));
    }
    (pairs, want)
}

fn run_cell(deadline_budget: u64, heartbeat_period: u64, seed: u64) -> ft_service::MetricsSnapshot {
    let config = ServiceConfig {
        kernel_policy: KernelPolicy {
            schoolbook_max_bits: 2_000,
            seq_toom_max_bits: 3_000,
            ..KernelPolicy::default()
        },
        verify_residues: true,
        distributed: DistributedConfig {
            enabled: true,
            f: 1,
            min_group: 2,
            min_bits: 3_000,
            fault_seed: seed,
            hard_faults_per_run: 1,
            delay_ranks: 1,
            delay_factor: 4,
            faulty_attempts: 1,
            deadline_budget,
            straggler_factor: 0,
            heartbeat_period,
            ..DistributedConfig::default()
        },
        ..ServiceConfig::default()
    };
    let service = MulService::start(config);
    let (pairs, want) = batch(BATCH, seed ^ 0xd157);
    let handle = service.submit(pairs, None).expect("submit batch");
    for (i, (result, want)) in handle.wait().into_iter().zip(want).enumerate() {
        assert_eq!(
            result.expect("element resolved"),
            want,
            "budget {deadline_budget} seed {seed} element {i} must be bit-exact"
        );
    }
    let metrics = service.shutdown();
    assert!(metrics.distributed.runs >= BATCH, "batch was promoted");
    metrics
}

fn main() {
    install_quiet_panic_hook();
    // Cells whose budget exceeds the run's heartbeat cadence fail their
    // first attempt with the machine's "undetected failure" diagnosis;
    // that outcome is part of the experiment (the `missed` column), so
    // keep those panic reports out of the table.
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let undetected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("undetected failure"));
        if !undetected {
            previous(info);
        }
    }));
    println!("# Heartbeat deadline_budget vs detection latency (f = 1, one hard fault per run)\n");
    println!(
        "| {:<6} | {:>6} | {:>6} | {:>10} | {:>9} | {:>12} | {:>16} |",
        "budget", "period", "seed", "recoveries", "missed", "false_pos", "max_detect_ticks"
    );
    println!(
        "|--------|--------|--------|------------|-----------|--------------|------------------|"
    );
    for period in PERIODS {
        for budget in BUDGETS {
            for seed in SEEDS {
                let m = run_cell(budget, period, seed);
                let d = &m.distributed;
                // A missed detection shows up as a supervised retry: the
                // undetected dead column poisons interpolation, the attempt
                // panics, and the (clean) retry serves the product.
                println!(
                    "| {budget:<6} | {period:>6} | {seed:>6} | {:>10} | {:>9} | {:>12} | {:>16} |",
                    d.recoveries, m.retries, d.false_positives, d.max_detect_latency_ticks
                );
            }
        }
    }
    println!();
    println!("A rank is declared dead only once its heartbeat lag reaches `deadline_budget`");
    println!("collective steps — so the budget is bounded above by the heartbeat cadence.");
    println!("At heartbeat_period 1 this run shape posts exactly one heartbeat between the");
    println!("fault point and the detection round: budget 1 detects every death at 1 tick");
    println!("of latency and any larger budget misses it outright — the cadence cliff.");
    println!("heartbeat_period h densifies the schedule (h heartbeats per fault window,");
    println!("still zero extra messages: heartbeats are local state), so a death costs h");
    println!("lag and budgets up to h keep detecting. A missed detection is not a wrong");
    println!("product: the run fails with a diagnosis, the supervisor retries, and the");
    println!("retry serves bit-exact results — the whole matrix verifies. False positives");
    println!("stay at zero: the budget only delays or forfeits verdicts, never invents them.");
}
