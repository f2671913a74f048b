//! Limb-kernel perf trajectory: ns/op and allocations/op for schoolbook,
//! Karatsuba, sequential Toom-Cook, and parallel Toom-Cook at 1k–256kbit,
//! plus the big-operand 256kbit–16Mbit crossover curve of the two-prime
//! CRT NTT kernel against sequential Toom-3, written to
//! `BENCH_kernels.json` at the repo root. The full run gates on the NTT
//! beating Toom-3 by ≥1.5× at the largest size and by ≥1.2× at 2 Mbit
//! (ROADMAP item 5's crossover gate); `--quick` smoke-runs one NTT size
//! class without the gates.
//!
//! Run with
//! `cargo run --release -p ft-bench --features count-allocs --bin kernel_baseline`.
//! Without the `count-allocs` feature the timing rows are still produced
//! but allocation counts read as zero. `--quick` runs a reduced matrix and
//! skips the JSON write (the CI smoke mode).
//!
//! Every figure comes from the same run on the same host: the JSON
//! records that host (`nproc`, CPU model, commit) and each row's
//! iteration count, and compares kernels only against each other.

use ft_bench::{counting_alloc, host_json, operands};
use ft_bigint::BigInt;
use ft_toom_core::{rayon_engine, seq};
use std::time::Instant;

#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: counting_alloc::CountingAllocator = counting_alloc::CountingAllocator::new();

const SIZES: [u64; 5] = [1_024, 4_096, 16_384, 65_536, 262_144];
const QUICK_SIZES: [u64; 2] = [1_024, 16_384];

/// The big-operand crossover curve: sequential Toom-3 vs the NTT from
/// 256 kbit to 16 Mbit. The default `ntt_min_bits` crossover sits below
/// this range, so every point should show the NTT ahead.
const BIG_SIZES: [u64; 6] = [
    262_144, 1_048_576, 2_097_152, 4_194_304, 8_388_608, 16_777_216,
];
/// One NTT size class for the CI smoke: keeps the NTT path compiling and
/// measurable without a multi-second multiply in the quick budget.
const QUICK_BIG_SIZES: [u64; 1] = [262_144];

/// The acceptance gate at the largest size: the NTT must beat sequential
/// Toom-3 by at least this factor.
const NTT_GATE_RATIO: f64 = 1.5;
/// ROADMAP item 5's crossover gate: at [`CROSSOVER_GATE_BITS`] the NTT
/// must beat sequential Toom-3 by at least this factor.
const CROSSOVER_GATE_RATIO: f64 = 1.2;
const CROSSOVER_GATE_BITS: u64 = 2_097_152;

struct Row {
    kernel: &'static str,
    bits: u64,
    ns_per_op: f64,
    allocs_per_op: f64,
    bytes_per_op: f64,
    iters: u64,
}

type KernelFn = Box<dyn Fn(&BigInt, &BigInt) -> BigInt>;

fn kernels() -> Vec<(&'static str, KernelFn)> {
    vec![
        (
            "schoolbook",
            Box::new(|a: &BigInt, b: &BigInt| a.mul_schoolbook(b)) as _,
        ),
        (
            "karatsuba",
            Box::new(|a: &BigInt, b: &BigInt| seq::karatsuba(a, b)) as _,
        ),
        (
            "seq_toom",
            Box::new(|a: &BigInt, b: &BigInt| seq::toom_k(a, b, 3)) as _,
        ),
        (
            "par_toom",
            Box::new(|a: &BigInt, b: &BigInt| {
                rayon_engine::par_toom_k(a, b, 3, seq::DEFAULT_THRESHOLD_BITS, 2)
            }) as _,
        ),
    ]
}

fn measure(
    kernel: &'static str,
    f: &dyn Fn(&BigInt, &BigInt) -> BigInt,
    bits: u64,
    quick: bool,
) -> Row {
    let (a, b) = operands(bits, bits.wrapping_mul(0x9e37_79b9));
    // Warmup + correctness anchor, and iteration-count calibration.
    let t0 = Instant::now();
    let warm = f(&a, &b);
    let est = t0.elapsed().as_nanos().max(1);
    let prod_bits = warm.bit_length();
    assert!(
        prod_bits == 2 * bits || prod_bits == 2 * bits - 1,
        "{kernel} at {bits} bits produced a {prod_bits}-bit product"
    );
    let budget: u128 = if quick { 20_000_000 } else { 200_000_000 };
    let iters = ((budget / est).clamp(2, 2_000)) as u64;
    let (a0, b0) = (
        counting_alloc::allocation_count(),
        counting_alloc::allocated_bytes(),
    );
    let t = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f(std::hint::black_box(&a), std::hint::black_box(&b)));
    }
    let elapsed = t.elapsed().as_nanos() as f64;
    let allocs = counting_alloc::allocation_count() - a0;
    let bytes = counting_alloc::allocated_bytes() - b0;
    Row {
        kernel,
        bits,
        ns_per_op: elapsed / iters as f64,
        allocs_per_op: allocs as f64 / iters as f64,
        bytes_per_op: bytes as f64 / iters as f64,
        iters,
    }
}

/// One point on the big-operand crossover curve.
struct CrossoverRow {
    bits: u64,
    toom3: Row,
    ntt: Row,
}

/// Measure the Toom-3 vs NTT crossover at the given sizes (best-effort
/// single pass: one warmup plus calibrated iterations per kernel through
/// [`measure`]; only times and iteration counts are reported — the arena
/// makes the NTT warm path allocation-free, pinned by the
/// alloc_regression test).
fn measure_crossover(sizes: &[u64], quick: bool) -> Vec<CrossoverRow> {
    sizes
        .iter()
        .map(|&bits| CrossoverRow {
            bits,
            toom3: measure("seq_toom", &|a, b| seq::toom_k(a, b, 3), bits, quick),
            ntt: measure("ntt", &|a, b| a.mul_ntt(b), bits, quick),
        })
        .collect()
}

impl CrossoverRow {
    fn ratio(&self) -> f64 {
        self.toom3.ns_per_op / self.ntt.ns_per_op
    }
}

fn json_escape_free(rows: &[Row], crossover: &[CrossoverRow]) -> String {
    let mut out = format!(
        "{{\n  \"bench\": \"kernel_baseline\",\n  \"host\": {},\n  \"units\": {{\"time\": \"ns/op\", \"allocs\": \"calls/op\", \"bytes\": \"bytes/op\"}},\n  \"rows\": [\n",
        host_json()
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"bits\": {}, \"iters\": {}, \"ns_per_op\": {:.1}, \"allocs_per_op\": {:.2}, \"bytes_per_op\": {:.0}}}{}\n",
            r.kernel,
            r.bits,
            r.iters,
            r.ns_per_op,
            r.allocs_per_op,
            r.bytes_per_op,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"ntt_crossover\": [\n");
    for (i, r) in crossover.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"bits\": {}, \"seq_toom_iters\": {}, \"seq_toom_ns\": {:.0}, \"ntt_iters\": {}, \"ntt_ns\": {:.0}, \"toom_over_ntt\": {:.3}}}{}\n",
            r.bits,
            r.toom3.iters,
            r.toom3.ns_per_op,
            r.ntt.iters,
            r.ntt.ns_per_op,
            r.ratio(),
            if i + 1 == crossover.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let counting = cfg!(feature = "count-allocs");
    let sizes: &[u64] = if quick { &QUICK_SIZES } else { &SIZES };
    println!(
        "kernel_baseline ({}, allocation counting {})",
        if quick { "quick" } else { "full" },
        if counting {
            "on"
        } else {
            "OFF — build with --features count-allocs"
        },
    );
    println!("host {}", host_json());
    println!(
        "{:<12} {:>9} {:>7} {:>14} {:>12} {:>12}",
        "kernel", "bits", "iters", "ns/op", "allocs/op", "bytes/op"
    );
    let mut rows = Vec::new();
    for (name, f) in kernels() {
        for &bits in sizes {
            let row = measure(name, f.as_ref(), bits, quick);
            println!(
                "{:<12} {:>9} {:>7} {:>14.1} {:>12.2} {:>12.0}",
                row.kernel, row.bits, row.iters, row.ns_per_op, row.allocs_per_op, row.bytes_per_op,
            );
            rows.push(row);
        }
    }

    let big_sizes: &[u64] = if quick { &QUICK_BIG_SIZES } else { &BIG_SIZES };
    println!("\nbig-operand crossover: seq Toom-3 vs two-prime CRT NTT");
    println!(
        "{:<12} {:>14} {:>14} {:>10}",
        "bits", "toom3 ns/op", "ntt ns/op", "toom÷ntt"
    );
    let crossover = measure_crossover(big_sizes, quick);
    for r in &crossover {
        println!(
            "{:<12} {:>14.0} {:>14.0} {:>9.2}x",
            r.bits,
            r.toom3.ns_per_op,
            r.ntt.ns_per_op,
            r.ratio()
        );
    }
    if !quick {
        // The acceptance gates: the NTT must clearly win at the largest
        // size, and already at 2 Mbit (the ROADMAP 5 crossover gate).
        let last = crossover.last().expect("BIG_SIZES is non-empty");
        let at_gate = crossover
            .iter()
            .find(|r| r.bits == CROSSOVER_GATE_BITS)
            .expect("BIG_SIZES holds the crossover gate size");
        for (row, gate) in [(last, NTT_GATE_RATIO), (at_gate, CROSSOVER_GATE_RATIO)] {
            let ratio = row.ratio();
            assert!(
                ratio >= gate,
                "NTT speedup {ratio:.2}x over Toom-3 at {} bits breaches the {gate}x gate",
                row.bits
            );
        }
        let json = json_escape_free(&rows, &crossover);
        std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
        println!("\nwrote BENCH_kernels.json");
    }
}
