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
//! skips the JSON write (the CI smoke mode); `--record` prints rows as
//! Rust constants for refreshing [`BASELINE`].
//!
//! The `BASELINE` table embedded below was measured on this container at
//! commit 4e12149, *before* the scratch-arena kernel layer landed, with
//! the same operand generator and iteration policy — the JSON therefore
//! carries its own before/after comparison.

use ft_bench::counting_alloc;
use ft_bench::operands;
use ft_bigint::BigInt;
use ft_toom_core::{rayon_engine, seq};
use std::time::Instant;

#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: counting_alloc::CountingAllocator = counting_alloc::CountingAllocator::new();

/// Pre-change reference numbers: `(kernel, bits, ns_per_op, allocs_per_op)`.
/// Measured at seed commit 4e12149 (allocating `Vec`-per-op kernels,
/// clone-heavy Toom recursion) on the CI container.
const BASELINE: &[(&str, u64, f64, f64)] = &[
    ("schoolbook", 1_024, 285.6, 1.0),
    ("schoolbook", 4_096, 4_513.7, 1.0),
    ("schoolbook", 16_384, 68_427.8, 1.0),
    ("schoolbook", 65_536, 1_147_891.9, 1.0),
    ("schoolbook", 262_144, 18_428_039.7, 1.0),
    ("karatsuba", 1_024, 344.4, 3.0),
    ("karatsuba", 4_096, 6_098.8, 47.0),
    ("karatsuba", 16_384, 78_387.5, 590.0),
    ("karatsuba", 65_536, 790_936.7, 5_436.0),
    ("karatsuba", 262_144, 7_147_911.6, 49_427.0),
    ("seq_toom", 1_024, 335.5, 3.0),
    ("seq_toom", 4_096, 9_467.2, 108.0),
    ("seq_toom", 16_384, 78_182.2, 633.0),
    ("seq_toom", 65_536, 693_505.1, 3_258.0),
    ("seq_toom", 262_144, 7_795_775.3, 82_008.0),
    ("par_toom", 1_024, 368.2, 3.0),
    ("par_toom", 4_096, 107_155.9, 124.0),
    ("par_toom", 16_384, 849_578.6, 729.1),
    ("par_toom", 65_536, 1_633_266.0, 3_354.2),
    ("par_toom", 262_144, 9_488_621.3, 82_104.0),
];

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
    }
}

fn baseline_for(kernel: &str, bits: u64) -> Option<(f64, f64)> {
    BASELINE
        .iter()
        .find(|(k, b, _, _)| *k == kernel && *b == bits)
        .map(|&(_, _, ns, allocs)| (ns, allocs))
}

/// One point on the big-operand crossover curve.
struct CrossoverRow {
    bits: u64,
    toom3_ns: f64,
    ntt_ns: f64,
}

/// Measure the Toom-3 vs NTT crossover at the given sizes (best-effort
/// single-pass: one warmup plus calibrated iterations per kernel, like
/// [`measure`] but without the allocation counters — the arena makes the
/// NTT warm path allocation-free, pinned by the alloc_regression test).
fn measure_crossover(sizes: &[u64], quick: bool) -> Vec<CrossoverRow> {
    sizes
        .iter()
        .map(|&bits| {
            let toom3 = measure("seq_toom", &|a, b| seq::toom_k(a, b, 3), bits, quick);
            let ntt = measure("ntt", &|a, b| a.mul_ntt(b), bits, quick);
            CrossoverRow {
                bits,
                toom3_ns: toom3.ns_per_op,
                ntt_ns: ntt.ns_per_op,
            }
        })
        .collect()
}

fn json_escape_free(rows: &[Row], crossover: &[CrossoverRow]) -> String {
    let mut out = String::from("{\n  \"bench\": \"kernel_baseline\",\n  \"units\": {\"time\": \"ns/op\", \"allocs\": \"calls/op\", \"bytes\": \"bytes/op\"},\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let (base_ns, base_allocs) = baseline_for(r.kernel, r.bits).unwrap_or((f64::NAN, f64::NAN));
        let speedup = base_ns / r.ns_per_op;
        let alloc_ratio = if r.allocs_per_op > 0.0 {
            base_allocs / r.allocs_per_op
        } else {
            f64::INFINITY
        };
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"bits\": {}, \"ns_per_op\": {:.1}, \"allocs_per_op\": {:.2}, \"bytes_per_op\": {:.0}, \"baseline_ns_per_op\": {:.1}, \"baseline_allocs_per_op\": {:.2}, \"speedup\": {:.3}, \"alloc_reduction\": {}}}{}\n",
            r.kernel,
            r.bits,
            r.ns_per_op,
            r.allocs_per_op,
            r.bytes_per_op,
            base_ns,
            base_allocs,
            speedup,
            if alloc_ratio.is_finite() { format!("{alloc_ratio:.2}") } else { "null".to_string() },
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"ntt_crossover\": [\n");
    for (i, r) in crossover.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"bits\": {}, \"seq_toom_ns\": {:.0}, \"ntt_ns\": {:.0}, \"toom_over_ntt\": {:.3}}}{}\n",
            r.bits,
            r.toom3_ns,
            r.ntt_ns,
            r.toom3_ns / r.ntt_ns,
            if i + 1 == crossover.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let record = args.iter().any(|a| a == "--record");
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
    println!(
        "{:<12} {:>9} {:>14} {:>12} {:>12} {:>9} {:>9}",
        "kernel", "bits", "ns/op", "allocs/op", "bytes/op", "speedup", "allocs÷"
    );
    let mut rows = Vec::new();
    for (name, f) in kernels() {
        for &bits in sizes {
            let row = measure(name, f.as_ref(), bits, quick);
            let (base_ns, base_allocs) = baseline_for(name, bits).unwrap_or((f64::NAN, f64::NAN));
            println!(
                "{:<12} {:>9} {:>14.1} {:>12.2} {:>12.0} {:>8.2}x {:>8.1}x",
                row.kernel,
                row.bits,
                row.ns_per_op,
                row.allocs_per_op,
                row.bytes_per_op,
                base_ns / row.ns_per_op,
                if row.allocs_per_op > 0.0 {
                    base_allocs / row.allocs_per_op
                } else {
                    f64::NAN
                },
            );
            rows.push(row);
        }
    }
    if record {
        println!("\n// --- paste into BASELINE ---");
        for r in &rows {
            println!(
                "    (\"{}\", {}, {:.1}, {:.1}),",
                r.kernel, r.bits, r.ns_per_op, r.allocs_per_op
            );
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
            r.toom3_ns,
            r.ntt_ns,
            r.toom3_ns / r.ntt_ns
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
            let ratio = row.toom3_ns / row.ntt_ns;
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
