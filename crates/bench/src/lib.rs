//! # ft-bench — the experiment harness
//!
//! One runner per paper artifact (see DESIGN.md §3 for the experiment
//! index). Each `cargo run -p ft-bench --bin <name>` regenerates the
//! corresponding table or figure; the Criterion benches under `benches/`
//! time the wall-clock side. Results are recorded in EXPERIMENTS.md.
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table 1 — unlimited-memory cost comparison |
//! | `table2` | Table 2 — limited-memory cost comparison |
//! | `figure1` | Figure 1 — linear-code grid structure |
//! | `figure2` | Figure 2 — polynomial-code grid structure |
//! | `figure3` | Figure 3 — multi-step grid structure |
//! | `overhead_ratio` | §1.2 — Θ(P/(2k−1)) overhead reduction vs replication |
//! | `recovery_cost` | §4.1 vs §4.2 — recomputation vs coded recovery |

pub mod counting_alloc;

use ft_bigint::BigInt;
use ft_machine::{CostVector, FaultPlan};
use ft_service::json::{obj, Json};
use ft_toom_core::baselines::{run_replicated, ReplicationConfig};
use ft_toom_core::cost::{self, CostModelInput};
use ft_toom_core::ft::combined::{run_combined_ft, CombinedConfig};
use ft_toom_core::ft::linear::{run_linear_ft, LinearFtConfig};
use ft_toom_core::ft::multistep::{run_multistep_ft, MultistepConfig};
use ft_toom_core::ft::poly::{run_poly_ft, PolyFtConfig};
use ft_toom_core::parallel::{run_parallel, ParallelConfig};
use rand::SeedableRng;

/// Host fingerprint for a `BENCH_*.json` record, as a JSON object:
/// `nproc`, the CPU model (`model name` of `/proc/cpuinfo`) and the
/// checked-out commit (`git rev-parse HEAD`); either of the last two
/// reads `"unknown"` where it cannot be found.
#[must_use]
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        });
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string());
    let text = |s: Option<String>| Json::Str(s.unwrap_or_else(|| "unknown".to_string()));
    obj([
        ("nproc", Json::Num(nproc as i128)),
        ("cpu", text(cpu)),
        ("commit", text(commit)),
    ])
    .dump()
}

/// A deterministic random operand pair.
#[must_use]
pub fn operands(bits: u64, seed: u64) -> (BigInt, BigInt) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (
        BigInt::random_bits(&mut rng, bits),
        BigInt::random_bits(&mut rng, bits),
    )
}

/// One measured row of Table 1 / Table 2.
#[derive(Debug, Clone)]
pub struct CostRow {
    /// Algorithm label.
    pub algorithm: String,
    /// `(k, P)`.
    pub k: usize,
    /// Total processors used.
    pub processors: usize,
    /// Extra processors over the plain parallel run.
    pub extra_processors: usize,
    /// Measured critical-path costs.
    pub measured: CostVector,
    /// Overhead factors vs the plain run `(F, BW, L)`.
    pub overhead: (f64, f64, f64),
    /// Tolerated faults.
    pub f: usize,
}

impl CostRow {
    /// Render as a markdown-ish table line.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "| {:<28} | {:>3} | {:>10} | {:>10} | {:>6} | {:>5.3}x | {:>5.3}x | {:>5.2}x | {:>2} | {:>5} |",
            self.algorithm,
            self.processors,
            self.measured.f,
            self.measured.bw,
            self.measured.l,
            self.overhead.0,
            self.overhead.1,
            self.overhead.2,
            self.f,
            self.extra_processors,
        )
    }
}

/// Table header matching [`CostRow::render`].
#[must_use]
pub fn cost_header() -> String {
    format!(
        "| {:<28} | {:>3} | {:>10} | {:>10} | {:>6} | {:>6} | {:>6} | {:>6} | {:>2} | {:>5} |\n{}",
        "algorithm", "P", "F (cp)", "BW (cp)", "L (cp)", "F ovh", "BW ovh", "L ovh", "f", "extra",
        "|------------------------------|-----|------------|------------|--------|--------|--------|--------|----|-------|"
    )
}

fn ratio(x: u64, y: u64) -> f64 {
    x as f64 / y.max(1) as f64
}

fn overhead(ft: &CostVector, base: &CostVector) -> (f64, f64, f64) {
    (
        ratio(ft.f, base.f),
        ratio(ft.bw, base.bw),
        ratio(ft.l, base.l),
    )
}

/// Table 1 (unlimited memory): Parallel Toom-Cook vs Replication vs
/// Fault-Tolerant (combined) Toom-Cook for one `(k, m)` configuration.
#[must_use]
pub fn table1_rows(bits: u64, k: usize, m: usize, f: usize, seed: u64) -> Vec<CostRow> {
    let (a, b) = operands(bits, seed);
    let expected = a.mul_schoolbook(&b);
    let base_cfg = ParallelConfig::new(k, m);
    let p = base_cfg.processors();

    let plain = run_parallel(&a, &b, &base_cfg);
    assert_eq!(plain.product, expected);
    let base = plain.report.critical_path();

    let rep_cfg = ReplicationConfig {
        base: base_cfg.clone(),
        f,
    };
    let rep = run_replicated(&a, &b, &rep_cfg, FaultPlan::none());
    assert_eq!(rep.product, expected);
    let rep_cp = rep.report.critical_path();

    let ft_cfg = CombinedConfig::new(base_cfg, f);
    let ft = run_combined_ft(&a, &b, &ft_cfg, FaultPlan::none());
    assert_eq!(ft.product, expected);
    let ft_cp = ft.report.critical_path();

    vec![
        CostRow {
            algorithm: format!("Parallel Toom-Cook-{k}"),
            k,
            processors: p,
            extra_processors: 0,
            measured: base,
            overhead: (1.0, 1.0, 1.0),
            f: 0,
        },
        CostRow {
            algorithm: "  + Replication".into(),
            k,
            processors: rep_cfg.processors(),
            extra_processors: rep_cfg.extra_processors(),
            measured: rep_cp,
            overhead: overhead(&rep_cp, &base),
            f,
        },
        CostRow {
            algorithm: "  + Fault-Tolerant (coded)".into(),
            k,
            processors: ft_cfg.processors(),
            extra_processors: ft_cfg.extra_processors(),
            measured: ft_cp,
            overhead: overhead(&ft_cp, &base),
            f,
        },
    ]
}

/// Table 2 (limited memory, `l_DFS` DFS steps): Parallel vs Replication vs
/// Fault-Tolerant (linear-coded, the `f·(2k−1)`-processor variant).
#[must_use]
pub fn table2_rows(bits: u64, k: usize, m: usize, dfs: usize, f: usize, seed: u64) -> Vec<CostRow> {
    let (a, b) = operands(bits, seed);
    let expected = a.mul_schoolbook(&b);
    let mut base_cfg = ParallelConfig::new(k, m);
    base_cfg.dfs_steps = dfs;
    let p = base_cfg.processors();

    let plain = run_parallel(&a, &b, &base_cfg);
    assert_eq!(plain.product, expected);
    let base = plain.report.critical_path();
    let peak = plain.report.peak_memory();

    let rep_cfg = ReplicationConfig {
        base: base_cfg.clone(),
        f,
    };
    let rep = run_replicated(&a, &b, &rep_cfg, FaultPlan::none());
    assert_eq!(rep.product, expected);
    let rep_cp = rep.report.critical_path();

    let ft_cfg = LinearFtConfig { base: base_cfg, f };
    let ft = run_linear_ft(&a, &b, &ft_cfg, FaultPlan::none());
    assert_eq!(ft.product, expected);
    let ft_cp = ft.report.critical_path();

    vec![
        CostRow {
            algorithm: format!("Parallel TC-{k} (l_DFS={dfs}, M≈{peak})"),
            k,
            processors: p,
            extra_processors: 0,
            measured: base,
            overhead: (1.0, 1.0, 1.0),
            f: 0,
        },
        CostRow {
            algorithm: "  + Replication".into(),
            k,
            processors: rep_cfg.processors(),
            extra_processors: rep_cfg.extra_processors(),
            measured: rep_cp,
            overhead: overhead(&rep_cp, &base),
            f,
        },
        CostRow {
            algorithm: "  + Fault-Tolerant (linear)".into(),
            k,
            processors: ft_cfg.processors(),
            extra_processors: ft_cfg.extra_processors(),
            measured: ft_cp,
            overhead: overhead(&ft_cp, &base),
            f,
        },
    ]
}

/// The theory row for a configuration (Theorems 5.1–5.3, Θ-shapes).
#[must_use]
pub fn theory_line(bits: u64, k: usize, p: usize, f: usize, limited: Option<f64>) -> String {
    let input = CostModelInput {
        n: bits as f64 / 64.0,
        p: p as f64,
        k: k as f64,
        memory: limited,
        f: f as f64,
    };
    let th = cost::parallel_toom(&input);
    let (_, ft_extra) = cost::fault_tolerant_toom(&input);
    let (_, rep_extra) = cost::replication(&input);
    format!(
        "theory (Θ): F≈{:.2e}  BW≈{:.2e}  L≈{:.1}   extra: replication {:.0} vs coded {:.0}",
        th.f, th.bw, th.l, rep_extra, ft_extra
    )
}

/// §1.2 overhead-reduction experiment: for growing `P`, the ratio of
/// (replication extra work) / (coded extra work) and of extra processors.
/// Returns `(P, work_ratio, proc_ratio, theory P/(2k−1))` tuples.
#[must_use]
pub fn overhead_ratios(bits: u64, k: usize, f: usize) -> Vec<(usize, f64, f64, f64)> {
    let mut out = Vec::new();
    for m in 1..=2 {
        let (a, b) = operands(bits, 60 + m as u64);
        let base_cfg = ParallelConfig::new(k, m);
        let p = base_cfg.processors();
        let plain = run_parallel(&a, &b, &base_cfg);

        let rep_cfg = ReplicationConfig {
            base: base_cfg.clone(),
            f,
        };
        let rep = run_replicated(&a, &b, &rep_cfg, FaultPlan::none());
        let rep_extra = rep.report.total_flops() - plain.report.total_flops();

        let ft_cfg = CombinedConfig::new(base_cfg, f);
        let ft = run_combined_ft(&a, &b, &ft_cfg, FaultPlan::none());
        let ft_extra = ft.report.total_flops() - plain.report.total_flops();

        out.push((
            p,
            rep_extra as f64 / ft_extra.max(1) as f64,
            rep_cfg.extra_processors() as f64 / ft_cfg.extra_processors() as f64,
            cost::overhead_reduction_factor(&CostModelInput {
                n: bits as f64 / 64.0,
                p: p as f64,
                k: k as f64,
                memory: None,
                f: f as f64,
            }),
        ));
    }
    out
}

/// §4.1 vs §4.2 recovery-cost experiment: inject one multiplication-phase
/// fault and measure the critical-path arithmetic relative to a fault-free
/// run for (i) linear coding (recomputation) and (ii) multistep polynomial
/// coding (weighted combination). Returns `(recompute_factor, coded_factor)`.
#[must_use]
pub fn recovery_cost_factors(bits: u64, k: usize, m: usize) -> (f64, f64) {
    let (a, b) = operands(bits, 70);
    let base = ParallelConfig::new(k, m);

    let lin_cfg = LinearFtConfig {
        base: base.clone(),
        f: 1,
    };
    let lin_clean = run_linear_ft(&a, &b, &lin_cfg, FaultPlan::none());
    let lin_fault = run_linear_ft(&a, &b, &lin_cfg, FaultPlan::none().kill(1, "lin-leaf-post"));
    let recompute = ratio(
        lin_fault.report.critical_path().f,
        lin_clean.report.critical_path().f,
    );

    let ms_cfg = MultistepConfig::new(base, 1);
    let ms_clean = run_multistep_ft(&a, &b, &ms_cfg, FaultPlan::none());
    let ms_fault = run_multistep_ft(&a, &b, &ms_cfg, FaultPlan::none().kill(1, "leaf-mult"));
    let coded = ratio(
        ms_fault.report.critical_path().f,
        ms_clean.report.critical_path().f,
    );
    (recompute, coded)
}

/// Figure-1 structural verification: run the linear-coded algorithm with a
/// trace and check (i) the code-processor count is `f·(2k−1)` and (ii)
/// every non-coding message stays within a grid row. Returns
/// `(code_processors, row_local_msgs, coding_msgs)`.
#[must_use]
pub fn figure1_structure(bits: u64, k: usize, m: usize, f: usize) -> (usize, usize, usize) {
    use ft_machine::ToomGrid;
    let (a, b) = operands(bits, 80);
    let expected = a.mul_schoolbook(&b);
    let mut base = ParallelConfig::new(k, m);
    base.trace = true;
    let cfg = LinearFtConfig { base, f };
    let p = cfg.base.processors();
    let q = cfg.base.q();
    let out = run_linear_ft(&a, &b, &cfg, FaultPlan::none());
    assert_eq!(out.product, expected);
    let grid = ToomGrid::new(p, q);
    let mut row_local = 0usize;
    let mut coding = 0usize;
    for ev in &out.report.trace {
        if let Some((src, dst)) = ev.endpoints() {
            if src < p && dst < p {
                let same_row = (0..m).any(|s| grid.row_group(src, s).contains(&dst));
                assert!(same_row, "data message {src}->{dst} crosses rows");
                row_local += 1;
            } else if src >= p && dst >= p {
                // Code-row mimicry messages: must stay within one code row.
                let (ri, rj) = ((src - p) / q, (dst - p) / q);
                assert_eq!(ri, rj, "code message {src}->{dst} crosses code rows");
                row_local += 1;
            } else {
                coding += 1; // encode / recovery traffic crosses the grid
            }
        }
    }
    (cfg.extra_processors(), row_local, coding)
}

/// Figure-2 structural verification: polynomial-code grid with
/// `f·P/(2k−1)` redundant processors; any single column halt is absorbed.
/// Returns `(extra_processors, columns, survivable_columns)`.
#[must_use]
pub fn figure2_structure(bits: u64, k: usize, m: usize, f: usize) -> (usize, usize, usize) {
    let (a, b) = operands(bits, 81);
    let expected = a.mul_schoolbook(&b);
    let cfg = PolyFtConfig {
        base: ParallelConfig::new(k, m),
        f,
    };
    let q = cfg.base.q();
    let mut survivable = 0;
    for col in 0..q + f {
        let victim = cfg.column_members(col)[0];
        let out = run_poly_ft(&a, &b, &cfg, FaultPlan::none().kill(victim, "poly-halt"));
        assert_eq!(out.product, expected, "column {col}");
        survivable += 1;
    }
    (cfg.extra_processors(), q + f, survivable)
}

/// Figure-3 structural verification: multi-step grid with only `f` extra
/// processors; every leaf loss is absorbed. Returns
/// `(extra_processors, leaves, survivable_leaves)`.
#[must_use]
pub fn figure3_structure(bits: u64, k: usize, m: usize, f: usize) -> (usize, usize, usize) {
    let (a, b) = operands(bits, 82);
    let expected = a.mul_schoolbook(&b);
    let cfg = MultistepConfig::new(ParallelConfig::new(k, m), f);
    let p = cfg.base.processors();
    let mut survivable = 0;
    for leaf in 0..p {
        let out = run_multistep_ft(&a, &b, &cfg, FaultPlan::none().kill(leaf, "leaf-mult"));
        assert_eq!(out.product, expected, "leaf {leaf}");
        survivable += 1;
    }
    (cfg.extra_processors(), p, survivable)
}

/// ASCII rendering of the Figure 1/2/3 grids.
#[must_use]
pub fn render_grid_figure(k: usize, m: usize, f: usize, which: u8) -> String {
    let q = 2 * k - 1;
    let p = q.pow(m as u32);
    let rows = p / q;
    let mut s = String::new();
    match which {
        1 => {
            s.push_str(&format!(
                "Figure 1 — linear code: {rows}x{q} data grid + {f} code row(s) ({} code procs)\n",
                f * q
            ));
            for r in 0..rows {
                for c in 0..q {
                    s.push_str(&format!("[P{:<3}]", r * q + c));
                }
                s.push('\n');
            }
            for i in 0..f {
                for c in 0..q {
                    s.push_str(&format!("<C{i}.{c}>"));
                }
                s.push_str("   <- code row (Vandermonde of its column)\n");
            }
        }
        2 => {
            s.push_str(&format!(
                "Figure 2 — polynomial code: {rows}x{q} data grid + {f} redundant column(s) ({} procs)\n",
                f * rows
            ));
            for r in 0..rows {
                for c in 0..q {
                    s.push_str(&format!("[P{:<3}]", c * rows + r));
                }
                for x in 0..f {
                    s.push_str(&format!("<R{x}.{r}>"));
                }
                s.push('\n');
            }
            s.push_str(
                "redundant columns evaluate at extra points; interpolation uses any 2k-1 columns\n",
            );
        }
        3 => {
            s.push_str(&format!(
                "Figure 3 — multi-step (l=m): {p} leaf processors + {f} redundant leaf proc(s)\n"
            ));
            for r in 0..p {
                s.push_str(&format!("[P{r:<3}]"));
            }
            for x in 0..f {
                s.push_str(&format!("<Z{x}>"));
            }
            s.push_str("\nredundant leaves evaluate at (2k-1, l)-general-position points\n");
        }
        _ => unreachable!(),
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_runs_and_shapes() {
        let rows = table1_rows(6_000, 2, 1, 1, 1);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].extra_processors, 0);
        assert_eq!(rows[1].extra_processors, 3); // f·P
        assert_eq!(rows[2].extra_processors, 3 + 1); // f(2k−1)+f
        assert!(rows[2].overhead.0 < rows[1].overhead.0 * 10.0);
    }

    #[test]
    fn table2_runs() {
        let rows = table2_rows(6_000, 2, 1, 1, 1, 2);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].extra_processors, 3); // f(2k−1)
    }

    #[test]
    fn recovery_cost_shows_the_gap() {
        let (recompute, coded) = recovery_cost_factors(30_000, 2, 1);
        assert!(
            recompute > coded,
            "recomputation {recompute} must cost more than coded recovery {coded}"
        );
    }

    #[test]
    fn figure_structures_hold() {
        assert_eq!(figure1_structure(4_000, 2, 2, 1).0, 3);
        let (extra, cols, ok) = figure2_structure(4_000, 2, 1, 1);
        assert_eq!((extra, cols, ok), (1, 4, 4));
        let (extra, leaves, ok) = figure3_structure(4_000, 2, 1, 1);
        assert_eq!((extra, leaves, ok), (1, 3, 3));
    }

    #[test]
    fn grid_rendering_nonempty() {
        for w in 1..=3 {
            assert!(render_grid_figure(2, 2, 1, w).contains("Figure"));
        }
    }
}
