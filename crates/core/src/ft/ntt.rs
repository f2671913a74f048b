//! Coded-NTT multiplication on the simulated machine: evaluation coding
//! for **transform columns**, the big-operand analogue of [`super::poly`].
//!
//! The radix-`q` decimation of an `N`-point NTT splits the digit vector
//! into `q` sub-vectors `a_l[i] = a[i·q + l]`; each machine column owns
//! one `M = N/q`-point sub-transform. This module codes those columns the
//! way `ft::poly` codes evaluation points (and the way "Coded FFT and Its
//! Communication Overhead", PAPERS.md, codes butterfly stages): column
//! `c` transforms the *evaluation* `ã_c = Σ_l β_c^l·a_l` of the vector
//! polynomial at its own point `β_c`. By linearity its transform is the
//! same evaluation of the sub-transforms — so ANY `q` surviving columns
//! determine all `Â_l` through one constant `q×q` inverse Vandermonde,
//! built on the fly from the survivor set exactly like the paper's §4.2
//! interpolation-from-survivors.
//!
//! Fault model mirrors `poly`: every rank passes one fault point
//! (`ntt-halt`) after its forward transforms, then one global heartbeat
//! [`detection_round`]; the halted-column set is derived from the verdict,
//! never from the plan. Survivor columns re-partition the transpose and
//! the combine work among the first `q` alive columns — no recomputation,
//! no recovery traffic: the cost of fault tolerance is the `f` redundant
//! columns' forward transforms, an `F` overhead of `(q+f)/q = 1 + f/q`
//! (the paper's `(1+o(1))` shape as `q` grows with fixed `f`).
//!
//! Pipeline per prime (`W` the `N`-th root, `w_q = W^M`, both CRT primes
//! ride in the same messages):
//!
//! 1. **encode + forward** — every column `c` builds `ã_c`, `b̃_c` and
//!    M-point-transforms them (`T_c = Σ_l β_c^l·Â_l` by linearity).
//! 2. **fault point + detection round** — verdict picks `chosen`, the
//!    first `q` surviving columns; owner `t` of the chosen set gets the
//!    `m`-slice `[t·⌈M/q⌉, …)` of every survivor's transform (all-to-all).
//! 3. **decode + combine** — owner decodes `Â_l[m]`, `B̂_l[m]` via the
//!    inverse Vandermonde of the survivor points, evaluates the full-size
//!    spectra `A(W^{m+jM}) = Σ_l W^{ml}·w_q^{jl}·Â_l[m]`, multiplies
//!    pointwise, and inverts the `q`-point DFT back to coded slices
//!    `Ĉ_l[m] = W^{-ml}·q^{-1}·Σ_j w_q^{-jl}·C_j[m]`.
//! 4. **inverse** — chosen column `l` gathers its `Ĉ_l`, runs the inverse
//!    M-point NTT, CRT-combines both primes, and returns the coefficient
//!    sub-vector `c_l`; the host interleaves `c[i·q+l] = c_l[i]` and
//!    carry-propagates in base `2^48` (`ft_bigint::ntt::DIGIT_BITS`).

use crate::parallel::tags;
use ft_bigint::ntt::{
    add_mod, crt_combine, forward, inv_mod, inverse, mul_mod, pow_mod, root_of_order, split_digits,
    sub_mod, transform_size, DIGIT_BITS, PRIMES,
};
use ft_bigint::{metrics, BigInt, Sign};
use ft_machine::{
    detection_round, DetectorConfig, Fate, FaultPlan, Machine, MachineConfig, RandomFaults,
    RunReport, Verdict,
};

/// Geometry of a coded-NTT run: one machine rank per transform column.
#[derive(Debug, Clone)]
pub struct NttFtConfig {
    /// Data columns `q` (the decimation radix). Must be a power of two so
    /// `q` divides every transform size.
    pub q: usize,
    /// Redundant columns `f` (= tolerated column faults).
    pub f: usize,
    /// Machine-level trace toggle (message/death events).
    pub trace: bool,
}

impl NttFtConfig {
    /// A `q`-column code tolerating `f` faults.
    #[must_use]
    pub fn new(q: usize, f: usize) -> NttFtConfig {
        assert!(
            q.is_power_of_two() && q >= 2,
            "q must be a power of two ≥ 2"
        );
        NttFtConfig { q, f, trace: false }
    }

    /// Total machine size: `q` data + `f` redundant columns.
    #[must_use]
    pub fn processors(&self) -> usize {
        self.q + self.f
    }

    /// The evaluation point of column `c` (small distinct integers —
    /// `β_c = c`, so column 0 is systematic: `ã_0 = a_0`).
    #[must_use]
    pub fn point_of(&self, col: usize) -> u64 {
        col as u64
    }

    /// Columns the *plan* will halt plus explicitly excluded ones —
    /// injection-side validation for hosts and tests; the run itself uses
    /// [`Self::columns_from_verdict`].
    #[must_use]
    pub fn dead_and_chosen(
        &self,
        faults: &FaultPlan,
        excluded: &[usize],
    ) -> (Vec<usize>, Vec<usize>) {
        let dead: Vec<usize> = faults
            .specs()
            .iter()
            .map(|s| s.rank)
            .chain(excluded.iter().copied())
            .collect();
        self.partition_columns(dead, &[])
    }

    /// Columns halted per the detector's verdict (each rank IS its
    /// column) plus host-excluded columns, and the `q` surviving columns
    /// chosen for decoding — lowest indices first, so every rank derives
    /// the identical choice from the identical verdict.
    #[must_use]
    pub fn columns_from_verdict(
        &self,
        verdict: &Verdict,
        excluded: &[usize],
    ) -> (Vec<usize>, Vec<usize>) {
        let dead: Vec<usize> = verdict
            .dead
            .iter()
            .copied()
            .chain(excluded.iter().copied())
            .collect();
        let stragglers: Vec<usize> = verdict.stragglers.clone();
        self.partition_columns(dead, &stragglers)
    }

    fn partition_columns(
        &self,
        mut dead: Vec<usize>,
        stragglers: &[usize],
    ) -> (Vec<usize>, Vec<usize>) {
        dead.sort_unstable();
        dead.dedup();
        assert!(
            dead.len() <= self.f,
            "{} faulty columns exceed redundancy f={}",
            dead.len(),
            self.f
        );
        // Stragglers are healthy — drop them only while redundancy lasts.
        let mut flagged: Vec<usize> = stragglers.to_vec();
        flagged.sort_unstable();
        flagged.dedup();
        for c in flagged {
            if dead.len() < self.f && !dead.contains(&c) {
                dead.push(c);
            }
        }
        dead.sort_unstable();
        let chosen: Vec<usize> = (0..self.processors())
            .filter(|c| !dead.contains(c))
            .take(self.q)
            .collect();
        (dead, chosen)
    }
}

/// Knobs of [`run_ntt_ft_with`] beyond the planned fault injection.
#[derive(Debug, Clone, Default)]
pub struct NttRunOptions {
    /// Columns treated as halted without waiting for them (§7 delay-fault
    /// mitigation, as in [`super::poly::PolyRunOptions`]).
    pub excluded: Vec<usize>,
    /// Machine delay factors `(rank, factor)` — accounting-only slowdowns.
    pub slowdowns: Vec<(usize, u64)>,
    /// Unplanned seeded-random deaths (allowlist should be `ntt-halt`).
    pub random: Option<RandomFaults>,
    /// Heartbeat detector knobs (deadline budget, straggler factor).
    pub detector: DetectorConfig,
}

/// Outcome of a coded-NTT machine run.
#[derive(Debug)]
pub struct NttFtOutcome {
    /// The exact product `a·b`.
    pub product: BigInt,
    /// Per-rank cost/detection reports (coefficient sub-vectors inside).
    pub report: RunReport<Vec<BigInt>>,
    /// The full transform size `N` used for this run.
    pub transform_size: usize,
}

/// Run coded-NTT multiplication with planned faults only.
#[must_use]
pub fn run_ntt_ft(a: &BigInt, b: &BigInt, cfg: &NttFtConfig, faults: FaultPlan) -> NttFtOutcome {
    run_ntt_ft_with(a, b, cfg, faults, &NttRunOptions::default())
}

/// Full-control entry point: planned faults, excluded columns, slowdowns,
/// unplanned random faults and detector knobs.
#[must_use]
pub fn run_ntt_ft_with(
    a: &BigInt,
    b: &BigInt,
    cfg: &NttFtConfig,
    faults: FaultPlan,
    opts: &NttRunOptions,
) -> NttFtOutcome {
    let q = cfg.q;
    let total = cfg.processors();
    let sign = a.sign().mul(b.sign());
    let (aa, bb) = (a.abs(), b.abs());
    let (la, lb) = (aa.word_len().max(1), bb.word_len().max(1));
    let n = transform_size(la, lb).max(q);
    let m = n / q;
    // Injection-side validation: a plan beyond the redundancy is a host
    // error, reported before the machine spins up.
    let _ = cfg.dead_and_chosen(&faults, &opts.excluded);

    let mut mcfg = MachineConfig::new(total).with_faults(faults);
    mcfg.random = opts.random.clone();
    mcfg.slowdowns = opts.slowdowns.clone();
    mcfg.trace = cfg.trace;
    let machine = Machine::new(mcfg);

    let report = machine.run(|env| {
        let my_col = env.rank();
        let beta = cfg.point_of(my_col);

        // ---- Encode + forward: ã_c = Σ_l β_c^l·a_l per prime and side.
        // Transforms are natural-order (`ntt::forward`), so slice index
        // `m` below IS the sub-transform frequency index.
        let mut digits_a = vec![0u64; n];
        let mut digits_b = vec![0u64; n];
        split_digits(aa.limbs(), &mut digits_a);
        split_digits(bb.limbs(), &mut digits_b);
        env.note_memory((2 * n + 4 * m) as u64);
        // coded[prime][side] — one M-point vector each.
        let mut coded: Vec<Vec<Vec<u64>>> = Vec::with_capacity(2);
        for (prime, &p) in PRIMES.iter().enumerate() {
            let mut per_side = Vec::with_capacity(2);
            for digits in [&digits_a, &digits_b] {
                let mut enc = vec![0u64; m];
                let mut scale = 1u64; // β^l
                for l in 0..q {
                    for (i, e) in enc.iter_mut().enumerate() {
                        *e = add_mod(*e, mul_mod(digits[i * q + l], scale, p), p);
                    }
                    scale = mul_mod(scale, beta, p);
                }
                metrics::tally((q * m) as u64);
                forward(prime, &mut enc);
                per_side.push(enc);
            }
            coded.push(per_side);
        }
        drop(digits_a);
        drop(digits_b);

        // ---- Fault point + one global heartbeat round. Denser
        // heartbeat schedules (period h) post h − 1 extra beats first so
        // budgets up to h still detect a death here (see ft::poly).
        env.post_heartbeats(opts.detector.heartbeat_period.saturating_sub(1));
        let reborn = env.fault_point("ntt-halt") == Fate::Reborn;
        if reborn {
            coded.clear();
        }
        let everyone: Vec<usize> = (0..total).collect();
        let verdict = detection_round(env, &everyone, tags::DETECT, &opts.detector);
        let (dead_cols, chosen) = cfg.columns_from_verdict(&verdict, &opts.excluded);
        if dead_cols.contains(&my_col) {
            return (chosen, Vec::new());
        }
        let Some(role) = chosen.iter().position(|&c| c == my_col) else {
            // Healthy but unchosen (a redundant column in a fault-free
            // run): its forward work WAS the insurance premium; it sends
            // nothing and takes no further part.
            return (chosen, Vec::new());
        };

        // ---- Transpose: owner t of the chosen set gets the m-slice
        // [t·⌈M/q⌉, …) of every survivor's four transforms.
        let chunk = m.div_ceil(q);
        let slice_of = |t: usize| {
            let lo = (t * chunk).min(m);
            lo..((t + 1) * chunk).min(m)
        };
        for (t, &peer) in chosen.iter().enumerate() {
            if peer == my_col {
                continue;
            }
            let r = slice_of(t);
            let payload: Vec<BigInt> = (0..2)
                .flat_map(|prime| (0..2).map(move |side| (prime, side)))
                .map(|(prime, side)| pack(&coded[prime][side][r.clone()]))
                .collect();
            env.send(peer, tags::DOWN, &payload);
        }
        let my_range = slice_of(role);
        let len = my_range.len();
        // gathered[i][prime][side] from chosen[i].
        let gathered: Vec<Vec<Vec<Vec<u64>>>> = chosen
            .iter()
            .map(|&peer| {
                let mut flat = if peer == my_col {
                    (0..2)
                        .flat_map(|prime| (0..2).map(move |side| (prime, side)))
                        .map(|(prime, side)| coded[prime][side][my_range.clone()].to_vec())
                        .collect::<Vec<_>>()
                } else {
                    let payload = env.recv(peer, tags::DOWN);
                    payload.iter().map(|x| unpack(x, len)).collect()
                };
                let hi = flat.split_off(2);
                vec![flat, hi]
            })
            .collect();

        // ---- Decode (inverse Vandermonde of the survivor points) and
        // combine: full-size spectra, pointwise product, coded return.
        // out_c[l][prime] — the Ĉ_l m-slices this owner produces.
        let mut out_c: Vec<Vec<Vec<u64>>> = vec![vec![vec![0u64; len]; 2]; q];
        for prime in 0..2 {
            let p = PRIMES[prime];
            let points: Vec<u64> = chosen.iter().map(|&c| cfg.point_of(c) % p).collect();
            let vinv = invert_vandermonde(&points, p);
            let w = root_of_order(prime, n);
            let winv = inv_mod(w, p);
            let wq = pow_mod(w, m as u64, p);
            let wqinv = inv_mod(wq, p);
            let qinv = inv_mod(q as u64, p);
            // q×q DFT matrices of the q-point stage.
            let fwd_mat: Vec<Vec<u64>> = (0..q)
                .map(|j| (0..q).map(|l| pow_mod(wq, (j * l) as u64, p)).collect())
                .collect();
            let inv_mat: Vec<Vec<u64>> = (0..q)
                .map(|l| (0..q).map(|j| pow_mod(wqinv, (j * l) as u64, p)).collect())
                .collect();
            let mut wm = pow_mod(w, my_range.start as u64, p);
            let mut wm_inv = pow_mod(winv, my_range.start as u64, p);
            let (mut ahat, mut bhat) = (vec![0u64; q], vec![0u64; q]);
            let mut spec = vec![0u64; q];
            for off in 0..len {
                // Decode Â_l[m], B̂_l[m] from the survivors' slices.
                for l in 0..q {
                    let (mut sa, mut sb) = (0u64, 0u64);
                    for i in 0..q {
                        let coeff = vinv[l][i];
                        sa = add_mod(sa, mul_mod(coeff, gathered[i][prime][0][off], p), p);
                        sb = add_mod(sb, mul_mod(coeff, gathered[i][prime][1][off], p), p);
                    }
                    ahat[l] = sa;
                    bhat[l] = sb;
                }
                // Twiddle-scale by W^{ml} and take the q-point DFT:
                // A_j = A(W^{m+jM}), then the pointwise product.
                let mut twl = 1u64; // W^{m·l}
                for l in 0..q {
                    ahat[l] = mul_mod(ahat[l], twl, p);
                    bhat[l] = mul_mod(bhat[l], twl, p);
                    twl = mul_mod(twl, wm, p);
                }
                for j in 0..q {
                    let (mut sa, mut sb) = (0u64, 0u64);
                    for l in 0..q {
                        sa = add_mod(sa, mul_mod(fwd_mat[j][l], ahat[l], p), p);
                        sb = add_mod(sb, mul_mod(fwd_mat[j][l], bhat[l], p), p);
                    }
                    spec[j] = mul_mod(sa, sb, p);
                }
                // Inverse q-point DFT and inverse twiddle: Ĉ_l[m].
                let mut twl_inv = qinv; // q^{-1}·W^{-m·l}
                for l in 0..q {
                    let mut s = 0u64;
                    for j in 0..q {
                        s = add_mod(s, mul_mod(inv_mat[l][j], spec[j], p), p);
                    }
                    out_c[l][prime][off] = mul_mod(s, twl_inv, p);
                    twl_inv = mul_mod(twl_inv, wm_inv, p);
                }
                wm = mul_mod(wm, w, p);
                wm_inv = mul_mod(wm_inv, winv, p);
            }
            metrics::tally((len * q * (3 * q + 4)) as u64);
        }
        drop(gathered);

        // ---- Return the coded slices: chosen column l inverts Ĉ_l.
        for (l, &peer) in chosen.iter().enumerate() {
            if peer == my_col {
                continue;
            }
            let payload = vec![pack(&out_c[l][0]), pack(&out_c[l][1])];
            env.send(peer, tags::UP, &payload);
        }
        let mut chat: Vec<Vec<u64>> = vec![Vec::with_capacity(m), Vec::with_capacity(m)];
        for (t, &peer) in chosen.iter().enumerate() {
            let r = slice_of(t);
            if peer == my_col {
                chat[0].extend_from_slice(&out_c[role][0][..r.len()]);
                chat[1].extend_from_slice(&out_c[role][1][..r.len()]);
            } else {
                let payload = env.recv(peer, tags::UP);
                assert!(
                    payload.len() == 2,
                    "coded-NTT: column {peer} sent a malformed return slice: \
                     undetected failure slipped past the heartbeat verdict"
                );
                chat[0].extend_from_slice(&unpack(&payload[0], r.len()));
                chat[1].extend_from_slice(&unpack(&payload[1], r.len()));
            }
        }
        drop(out_c);
        // Inverse M-point transform (M^{-1} inside; the combine already
        // divided by q — together the full N^{-1}) and the CRT lift.
        let mut coeffs = Vec::with_capacity(m);
        inverse(0, &mut chat[0]);
        inverse(1, &mut chat[1]);
        for (&c0, &c1) in chat[0].iter().zip(&chat[1]) {
            coeffs.push(BigInt::from(crt_combine(c0, c1)));
        }
        metrics::tally(m as u64);
        (chosen, coeffs)
    });

    // ---- Host assembly: c[i·q + l] comes from the column playing role l.
    let RunReport {
        results,
        ranks,
        trace,
    } = report;
    let (chosen_per_rank, slices): (Vec<Vec<usize>>, Vec<Vec<BigInt>>) =
        results.into_iter().unzip();
    let chosen = chosen_per_rank
        .into_iter()
        .next()
        .expect("machine has at least one rank");
    let report = RunReport {
        results: slices,
        ranks,
        trace,
    };
    let mut vec = vec![BigInt::zero(); n];
    for (l, &holder) in chosen.iter().enumerate() {
        for (i, v) in report.results[holder].iter().enumerate() {
            vec[i * q + l] = v.clone();
        }
    }
    let mag = BigInt::join_base_pow2(&vec, u64::from(DIGIT_BITS));
    let product = match sign {
        Sign::Negative => -mag,
        Sign::Zero => BigInt::zero(),
        Sign::Positive => mag,
    };
    NttFtOutcome {
        product,
        report,
        transform_size: n,
    }
}

/// Pack a residue vector into one `BigInt` payload: residues are `< 2^63`
/// so each is one limb verbatim; a sentinel `1` limb on top keeps
/// normalization from eating trailing zeros (and is what makes the word
/// count exact: `len + 1`).
fn pack(vals: &[u64]) -> BigInt {
    let mut limbs = Vec::with_capacity(vals.len() + 1);
    limbs.extend_from_slice(vals);
    limbs.push(1);
    BigInt::from_limbs(limbs)
}

/// Inverse of [`pack`].
fn unpack(x: &BigInt, len: usize) -> Vec<u64> {
    let limbs = x.limbs();
    assert!(
        limbs.len() == len + 1 && limbs[len] == 1,
        "coded-NTT payload of {} limbs, expected {len}+sentinel: \
         undetected failure slipped past the heartbeat verdict",
        limbs.len()
    );
    limbs[..len].to_vec()
}

/// Gauss–Jordan inverse of the Vandermonde matrix `V[i][l] = points[i]^l`
/// modulo `p`. Distinct points over a prime field make it nonsingular.
fn invert_vandermonde(points: &[u64], p: u64) -> Vec<Vec<u64>> {
    let q = points.len();
    let mut aug: Vec<Vec<u64>> = (0..q)
        .map(|i| {
            let mut row = Vec::with_capacity(2 * q);
            let mut x = 1u64;
            for _ in 0..q {
                row.push(x);
                x = mul_mod(x, points[i], p);
            }
            for j in 0..q {
                row.push(u64::from(i == j));
            }
            row
        })
        .collect();
    for col in 0..q {
        let pivot = (col..q)
            .find(|&r| aug[r][col] != 0)
            .expect("Vandermonde on distinct points is nonsingular");
        aug.swap(col, pivot);
        let inv = inv_mod(aug[col][col], p);
        for x in aug[col].iter_mut() {
            *x = mul_mod(*x, inv, p);
        }
        let pivot_row = aug[col].clone();
        for (r, row) in aug.iter_mut().enumerate() {
            if r != col && row[col] != 0 {
                let factor = row[col];
                for (x, &pv) in row.iter_mut().zip(&pivot_row) {
                    let t = mul_mod(factor, pv, p);
                    *x = sub_mod(*x, t, p);
                }
            }
        }
    }
    aug.into_iter().map(|row| row[q..].to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn random_pair(bits: u64, seed: u64) -> (BigInt, BigInt) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (
            BigInt::random_bits(&mut rng, bits),
            BigInt::random_bits(&mut rng, bits),
        )
    }

    #[test]
    fn vandermonde_inverse_round_trips() {
        let p = PRIMES[0];
        let points = [0u64, 1, 3, 4];
        let vinv = invert_vandermonde(&points, p);
        // V·V^{-1} = I.
        for (i, &pt) in points.iter().enumerate() {
            for j in 0..4 {
                let mut s = 0u64;
                for (l, inv_row) in vinv.iter().enumerate() {
                    let v_il = pow_mod(pt, l as u64, p);
                    s = add_mod(s, mul_mod(v_il, inv_row[j], p), p);
                }
                assert_eq!(s, u64::from(i == j), "({i},{j})");
            }
        }
    }

    #[test]
    fn fault_free_matches_schoolbook() {
        let (a, b) = random_pair(6_000, 1);
        let out = run_ntt_ft(&a, &b, &NttFtConfig::new(2, 1), FaultPlan::none());
        assert_eq!(out.product, a.mul_schoolbook(&b));
        let out = run_ntt_ft(&a, &b, &NttFtConfig::new(4, 2), FaultPlan::none());
        assert_eq!(out.product, a.mul_schoolbook(&b));
    }

    #[test]
    fn bit_exact_for_every_limb_count_mod_3_with_and_without_kills() {
        // Three limbs pack into four base-2^48 digits: cover full and
        // partial trailing groups on both sides, unbalanced shapes too.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for (la, lb) in [(96, 96), (97, 98), (98, 96), (97, 40), (41, 99)] {
            let a = BigInt::random_bits(&mut rng, 64 * la);
            let b = BigInt::random_bits(&mut rng, 64 * lb);
            assert_eq!((a.word_len(), b.word_len()), (la as usize, lb as usize));
            let want = a.mul_schoolbook(&b);
            for (cfg, plan) in [
                (NttFtConfig::new(2, 1), FaultPlan::none()),
                (
                    NttFtConfig::new(2, 1),
                    FaultPlan::none().kill(0, "ntt-halt"),
                ),
                (NttFtConfig::new(4, 2), FaultPlan::none()),
                (
                    NttFtConfig::new(4, 2),
                    FaultPlan::none().kill(1, "ntt-halt").kill(5, "ntt-halt"),
                ),
            ] {
                let kills = plan.specs().len();
                let out = run_ntt_ft(&a, &b, &cfg, plan);
                assert_eq!(out.product, want, "limbs ({la}, {lb}), {kills} kills");
                assert_eq!(out.report.total_deaths() as usize, kills);
            }
        }
    }

    #[test]
    fn signs_and_degenerate_shapes() {
        let (a, b) = random_pair(3_000, 2);
        let cfg = NttFtConfig::new(2, 1);
        let want = a.mul_schoolbook(&b);
        assert_eq!(
            run_ntt_ft(&(-&a), &b, &cfg, FaultPlan::none()).product,
            -&want
        );
        assert_eq!(
            run_ntt_ft(&a, &BigInt::zero(), &cfg, FaultPlan::none()).product,
            BigInt::zero()
        );
        let tiny = BigInt::from(7u64);
        assert_eq!(
            run_ntt_ft(&a, &tiny, &cfg, FaultPlan::none()).product,
            a.mul_schoolbook(&tiny)
        );
    }

    #[test]
    fn every_single_victim_recovered() {
        let (a, b) = random_pair(6_000, 3);
        let want = a.mul_schoolbook(&b);
        let cfg = NttFtConfig::new(2, 1);
        for victim in 0..cfg.processors() {
            let plan = FaultPlan::none().kill(victim, "ntt-halt");
            let out = run_ntt_ft(&a, &b, &cfg, plan);
            assert_eq!(out.product, want, "victim={victim}");
            assert_eq!(out.report.total_deaths(), 1);
            let totals = out.report.detect_totals();
            assert_eq!(totals.dead_declared, 1);
            assert_eq!(totals.false_positives, 0);
        }
    }

    #[test]
    fn two_hard_faults_with_f2() {
        let (a, b) = random_pair(8_000, 4);
        let cfg = NttFtConfig::new(4, 2);
        let plan = FaultPlan::none().kill(1, "ntt-halt").kill(4, "ntt-halt");
        let out = run_ntt_ft(&a, &b, &cfg, plan);
        assert_eq!(out.product, a.mul_schoolbook(&b));
        assert_eq!(out.report.total_deaths(), 2);
        assert_eq!(out.report.detect_totals().false_positives, 0);
    }

    #[test]
    fn excluded_straggler_column_is_dropped() {
        let (a, b) = random_pair(5_000, 5);
        let cfg = NttFtConfig::new(2, 1);
        let opts = NttRunOptions {
            excluded: vec![1],
            ..NttRunOptions::default()
        };
        let out = run_ntt_ft_with(&a, &b, &cfg, FaultPlan::none(), &opts);
        assert_eq!(out.product, a.mul_schoolbook(&b));
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn too_many_column_faults_rejected() {
        let (a, b) = random_pair(2_000, 6);
        let plan = FaultPlan::none().kill(0, "ntt-halt").kill(1, "ntt-halt");
        let _ = run_ntt_ft(&a, &b, &NttFtConfig::new(2, 1), plan);
    }

    #[test]
    fn fault_adds_no_recovery_traffic() {
        let (a, b) = random_pair(6_000, 7);
        let mut cfg = NttFtConfig::new(2, 1);
        cfg.trace = true;
        let clean = run_ntt_ft(&a, &b, &cfg, FaultPlan::none());
        let faulty = run_ntt_ft(&a, &b, &cfg, FaultPlan::none().kill(0, "ntt-halt"));
        assert_eq!(faulty.product, clean.product);
        assert!(faulty.report.total_words() <= clean.report.total_words());
    }

    #[test]
    fn f_overhead_tracks_one_plus_f_over_q() {
        // The F premium of redundancy is the extra columns' forward work:
        // total flops of (q, f) ≈ (1 + f/q) × (q, 0), fault-free.
        let (a, b) = random_pair(16_000, 8);
        let base = run_ntt_ft(&a, &b, &NttFtConfig::new(4, 0), FaultPlan::none());
        let coded = run_ntt_ft(&a, &b, &NttFtConfig::new(4, 1), FaultPlan::none());
        assert_eq!(base.product, coded.product);
        let ratio = coded.report.total_flops() as f64 / base.report.total_flops() as f64;
        assert!(
            ratio < 1.0 + 1.0 / 4.0 + 0.08,
            "F overhead {ratio:.3} strays from 1 + f/q = 1.25"
        );
        assert!(ratio > 1.0, "redundant column did no work?");
    }
}
