//! Block-banded "Riccati" formulation of the MPC step (paper eq. 42–45).
//!
//! Condensing the tracking/smoothing least squares over the stacked input
//! changes gives a dense `nv × nv` Hessian (`nv = N·C·β₂`) whose
//! cumulative-sum constraint rows are fully dense — every active-set
//! iteration would pay `O(nv·m)` gathers and an `O(m³)` working-set
//! factorization. This module removes that density at the source by a
//! change of variables: instead of the stacked input *changes*
//! `ΔU = (x_0, …, x_{β₂−1})` it optimizes the stacked *cumulative* changes
//!
//! ```text
//! y_t = Σ_{t'≤t} x_{t'}            (so x_t = y_t − y_{t−1}, y_{−1} = 0)
//! ```
//!
//! In `y` every constraint of the paper becomes **stage-local**:
//!
//! * conservation (eq. 45): `Σ_j y_t[j·C+i] = rhs`, `n` entries in stage `t`;
//! * capacity (eq. 43): `Σ_i y_t[j·C+i] ≤ rhs`, `c` entries in stage `t`;
//! * non-negativity (eq. 44): `−y_t[idx] ≤ rhs`, a single entry;
//!
//! and the Hessian is **separable across IDCs** and banded in time: the
//! tracking term touches one stage of one IDC per prediction row, and the
//! smoothing/ridge term is a first-order difference in `y` that couples
//! adjacent stages of the same IDC. Only conservation couples IDCs, and it
//! does so through the constraints, not the Hessian.
//!
//! # Variable layout
//!
//! The QP orders its variables **IDC-major**: block `(j, t)` at position
//! `j·β₂ + t` holds IDC `j`'s `C` portal entries at stage `t`, followed by
//! its charge and discharge rate entries when storage is present. The
//! Hessian is then a [`BlockTridiag`] of `N·β₂` blocks of size `C` (or
//! `C + 2`) whose subdiagonal block between `(j, β₂−1)` and `(j+1, 0)` is
//! exactly zero, so `H⁻¹` is block diagonal over the IDCs.
//! [`idc_opt::banded_qp`] copies each IDC's `β₂`-block chain out dense,
//! factors and inverts it with one Cholesky (`O(N·(β₂·C)³)` per structure
//! rebuild, exact zeros between IDCs), and keeps one small free-set
//! inverse per IDC: the single-entry rows (eq. 44's
//! non-negativity and the storage rate limits) are bounds that fix their
//! variable in it, and only the conservation, capacity and SoC rows enter
//! the working-set Schur factor it maintains across active-set changes.
//!
//! The controller keeps `y` stage-major (`y_t` contiguous, IDC-major
//! inside, then the `N` charge and `N` discharge entries), the layout of
//! `ΔU`, of warm states and of snapshots. `RiccatiSkeleton::to_qp_order`
//! and `RiccatiSkeleton::to_stage_order` permute at the solver boundary.
//!
//! Constraint rows are emitted in the order the controller assembles their
//! right-hand sides (conservation `t`-major × portal, then capacity
//! `t`-major × IDC, then non-negativity `t`-major × entry, then the storage
//! families), so warm-start active sets, the receding-horizon seed shift in
//! [`crate::mpc`], and reported active sets share one indexing; only their
//! column indices follow the QP layout. The
//! objective is the eq. 42 least squares without its constant `bᵀQb`.

use idc_linalg::banded::BlockTridiag;
use idc_opt::banded_qp::{BandedQp, SparseRow};
use idc_opt::Result;

use crate::mpc::{MpcConfig, MpcProblem};

/// The banded QP skeleton for one problem structure `(N, C, b₁, multipliers)`.
///
/// Built once per structure, then only the gradient and constraint
/// right-hand sides are rewritten each sampling period.
#[derive(Debug, Clone)]
pub struct RiccatiSkeleton {
    qp: BandedQp,
    beta1: usize,
    beta2: usize,
    n: usize,
    c: usize,
    /// Per-IDC stage block size: `C`, plus the charge and discharge rate
    /// entries with storage.
    nbj: usize,
    /// `perm[q]` is the stage-major index of QP variable `q`.
    perm: Vec<usize>,
    /// Per-IDC gradient coefficient `−2·b₁_j·Q·multiplier_j`.
    grad_coeff: Vec<f64>,
}

impl RiccatiSkeleton {
    /// Assembles the y-space Hessian, constraint rows, and placeholder
    /// right-hand sides for the given structure. Call
    /// [`BandedQp::prepare`] (via [`qp_mut`](Self::qp_mut)) afterwards to
    /// factor the Hessian.
    pub fn build(config: &MpcConfig, problem: &MpcProblem) -> Result<Self> {
        let n = problem.num_idcs();
        let c = problem.num_portals();
        let nc = n * c;
        let nb = problem.block_size();
        let storage = problem.storage.as_ref();
        let nbj = if storage.is_some() { c + 2 } else { c };
        let beta1 = config.prediction_horizon;
        let beta2 = config.control_horizon;
        let tw = config.tracking_weight;
        let sw = config.smoothing_weight;
        let ridge = config.input_ridge;
        // QP index of IDC j's local entry `a` at stage t: portals `a < C`,
        // then charge (`a = C`) and discharge (`a = C + 1`).
        let col = |j: usize, t: usize, a: usize| (j * beta2 + t) * nbj + a;

        // ---- Hessian: H_y = 2·(Ŝ + B̂) with Ŝ the stagewise tracking
        // normal matrix and B̂ the difference operator's normal matrix.
        //
        // Tracking row (s, j) reads b₁_j·Σ_i y_{τ(s)}[j·C+i] with
        // τ(s) = min(s, β₂−1), so stage τ < β₂−1 receives one row per IDC
        // and the final stage receives the β₁−β₂+1 tail rows. Each row
        // contributes a rank-one `b₁²·𝟙𝟙ᵀ` coupling within block (j, τ).
        // With storage the row also reads `+b₁·y[γc_j] − b₁·y[γd_j]` (rate
        // changes in req/s equivalents), extending the rank-one pattern to
        // the rate entries with a sign flip on the discharge column.
        //
        // Smoothing row (t, j) reads the same pattern of (y_t − y_{t−1})
        // and the ridge penalizes (y_t − y_{t−1}) entrywise; a stage
        // appears in the difference at `t` and (except the last) at `t+1`,
        // hence the 2-vs-1 diagonal count, with `−B` on the subdiagonal
        // block between (j, t) and (j, t+1). Nothing couples (j, β₂−1) to
        // (j+1, 0): that subdiagonal block stays zero.
        let signs: Vec<f64> = (0..nbj)
            .map(|a| if a == c + 1 { -1.0 } else { 1.0 })
            .collect();
        let rank_one = |block: &mut [f64], couple: f64| {
            for (ia, &sa) in signs.iter().enumerate() {
                for (ib, &sb) in signs.iter().enumerate() {
                    block[ia * nbj + ib] = couple * sa * sb;
                }
            }
        };
        let mut h = BlockTridiag::new(nbj, n * beta2);
        for j in 0..n {
            let b1 = problem.b1_mw[j];
            for tau in 0..beta2 {
                let last = tau + 1 == beta2;
                let track_count = if last {
                    (beta1 - beta2 + 1) as f64
                } else {
                    1.0
                };
                let smooth_count = if last { 1.0 } else { 2.0 };
                let block = h.diag_mut(j * beta2 + tau);
                rank_one(
                    block,
                    2.0 * b1
                        * b1
                        * (tw * problem.tracking_multiplier[j] * track_count + sw * smooth_count),
                );
                for d in 0..nbj {
                    block[d * nbj + d] += 2.0 * ridge * smooth_count;
                }
                if !last {
                    let block = h.sub_mut(j * beta2 + tau);
                    rank_one(block, -2.0 * sw * b1 * b1);
                    for d in 0..nbj {
                        block[d * nbj + d] -= 2.0 * ridge;
                    }
                }
            }
        }

        let mut qp = BandedQp::new(h, vec![0.0; beta2 * nb])?;
        // Constraint rows in the controller's rhs order; rhs values are
        // per-step and rewritten in place.
        for t in 0..beta2 {
            for i in 0..c {
                let mut row = SparseRow::new();
                for j in 0..n {
                    row.push(col(j, t, i), 1.0);
                }
                qp = qp.equality(row, 0.0);
            }
        }
        for t in 0..beta2 {
            for j in 0..n {
                let mut row = SparseRow::new();
                for i in 0..c {
                    row.push(col(j, t, i), 1.0);
                }
                qp = qp.inequality(row, 0.0);
            }
        }
        for t in 0..beta2 {
            for j in 0..n {
                for i in 0..c {
                    qp = qp.inequality(SparseRow::from_entries(vec![(col(j, t, i), -1.0)]), 0.0);
                }
            }
        }
        if let Some(st) = storage {
            // Storage families in the controller's rhs order. In y-space
            // the rate boxes are stage-local single entries (the
            // cumulative rate change at stage t IS y_t's rate entry); the
            // SoC rows sum the rate entries over stages ≤ t — multi-stage
            // rows are fine here, only the Hessian must stay banded.
            for rate in [c, c + 1] {
                for sign in [1.0, -1.0] {
                    for t in 0..beta2 {
                        for j in 0..n {
                            qp = qp.inequality(
                                SparseRow::from_entries(vec![(col(j, t, rate), sign)]),
                                0.0,
                            );
                        }
                    }
                }
            }
            for sign in [1.0, -1.0] {
                for t in 0..beta2 {
                    for j in 0..n {
                        let mut row = SparseRow::new();
                        for r in 0..=t {
                            row.push(col(j, r, c), sign * st.charge_efficiency[j]);
                            row.push(col(j, r, c + 1), -sign / st.discharge_efficiency[j]);
                        }
                        qp = qp.inequality(row, 0.0);
                    }
                }
            }
        }

        // Stage-major stage block: the N·C portal entries IDC-major, then
        // the N charge and the N discharge entries.
        let mut perm = vec![0; beta2 * nb];
        for j in 0..n {
            for t in 0..beta2 {
                for a in 0..nbj {
                    perm[col(j, t, a)] = t * nb
                        + match a.checked_sub(c) {
                            None => j * c + a,
                            Some(rate) => nc + rate * n + j,
                        };
                }
            }
        }
        let grad_coeff = (0..n)
            .map(|j| -2.0 * problem.b1_mw[j] * tw * problem.tracking_multiplier[j])
            .collect();
        Ok(RiccatiSkeleton {
            qp,
            beta1,
            beta2,
            n,
            c,
            nbj,
            perm,
            grad_coeff,
        })
    }

    /// The underlying banded QP (for `prepare` and per-step rhs rewrites).
    pub fn qp_mut(&mut self) -> &mut BandedQp {
        &mut self.qp
    }

    /// Gathers the stage-major `y` into the QP's IDC-major order.
    pub(crate) fn to_qp_order(&self, y: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.perm.iter().map(|&k| y[k]));
    }

    /// Scatters a QP-order vector back into the stage-major `y`.
    pub(crate) fn to_stage_order(&self, x: &[f64], y: &mut Vec<f64>) {
        y.clear();
        y.resize(x.len(), 0.0);
        for (&k, &v) in self.perm.iter().zip(x) {
            y[k] = v;
        }
    }

    /// Computes the y-space gradient, in QP order, from the per-step
    /// tracking rhs rows (`rhs[s·N + j] = reference − current power`).
    ///
    /// `g_y[τ, j, i] = −2·b₁_j·Q·mult_j · Σ_{s: min(s,β₂−1)=τ} rhs[s·N+j]` —
    /// the smoothing rows have zero targets and contribute nothing.
    pub fn gradient_into(&self, rhs: &[f64], grad: &mut Vec<f64>) {
        let (n, c, nbj) = (self.n, self.c, self.nbj);
        grad.clear();
        grad.resize(n * self.beta2 * nbj, 0.0);
        for (j, blocks) in grad.chunks_exact_mut(self.beta2 * nbj).enumerate() {
            for (tau, block) in blocks.chunks_exact_mut(nbj).enumerate() {
                let sum: f64 = if tau + 1 < self.beta2 {
                    rhs[tau * n + j]
                } else {
                    (self.beta2 - 1..self.beta1).map(|s| rhs[s * n + j]).sum()
                };
                let g = self.grad_coeff[j] * sum;
                block.fill(g);
                if nbj > c {
                    // The charge entry shares the workload coefficient
                    // (same b₁ scale); the discharge entry is sign-flipped.
                    block[c + 1] = -g;
                }
            }
        }
    }
}

/// Stacks the running sums `y_t = Σ_{t'≤t} x_{t'}` of `nc`-sized blocks of
/// `x` into `y` (the ΔU → cumulative change of variables).
pub fn to_cumulative(nc: usize, x: &[f64], y: &mut Vec<f64>) {
    debug_assert!(nc > 0 && x.len().is_multiple_of(nc));
    y.clear();
    y.extend_from_slice(x);
    for t in 1..x.len() / nc {
        for k in 0..nc {
            y[t * nc + k] += y[(t - 1) * nc + k];
        }
    }
}

/// Inverse of [`to_cumulative`], in place: `x_t = y_t − y_{t−1}`.
pub fn to_deltas(nc: usize, y: &mut [f64]) {
    debug_assert!(nc > 0 && y.len().is_multiple_of(nc));
    for t in (1..y.len() / nc).rev() {
        for k in 0..nc {
            y[t * nc + k] -= y[(t - 1) * nc + k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpc::StorageProblem;
    use idc_linalg::Matrix;

    /// Three IDCs with distinct `b₁` and multipliers, two portals, β₂ = 3
    /// of β₁ = 5, optionally with batteries of distinct efficiencies.
    fn problem(storage: bool) -> MpcProblem {
        let n = 3;
        MpcProblem {
            b1_mw: vec![67.5e-6, 108.0e-6, 81.0e-6],
            b0_mw: vec![150.0e-6; n],
            servers_on: vec![8_000, 10_000, 9_000],
            capacities: vec![15_000.0, 11_500.0, 12_000.0],
            prev_input: vec![3_000.0, 2_000.0, 1_500.0, 2_500.0, 500.0, 500.0],
            workload_forecast: vec![vec![5_000.0, 5_000.0]; 3],
            power_reference_mw: vec![vec![1.5, 2.0, 1.0]; 5],
            tracking_multiplier: vec![1.0, 30.0, 2.5],
            storage: storage.then(|| StorageProblem {
                capacity_mwh: vec![4.0; n],
                max_charge_mw: vec![2.0; n],
                max_discharge_mw: vec![2.0; n],
                charge_efficiency: vec![0.95, 0.9, 0.85],
                discharge_efficiency: vec![0.92, 0.97, 0.8],
                soc_mwh: vec![2.0; n],
                prev_charge_mw: vec![0.0; n],
                prev_discharge_mw: vec![0.0; n],
                dt_hours: 1.0 / 12.0,
            }),
        }
    }

    fn densify(h: &BlockTridiag) -> Matrix {
        h.dense(0, h.nblocks())
    }

    /// The stage-major Hessian (stage blocks of size `N·C`, then the `N`
    /// charge and `N` discharge entries), assembled densely from eq. 42
    /// with the same arithmetic per entry.
    fn stage_major_hessian(config: &MpcConfig, p: &MpcProblem) -> Vec<Vec<f64>> {
        let (n, c, nb) = (p.num_idcs(), p.num_portals(), p.block_size());
        let (beta1, beta2) = (config.prediction_horizon, config.control_horizon);
        let (tw, sw, ridge) = (
            config.tracking_weight,
            config.smoothing_weight,
            config.input_ridge,
        );
        let entries = |j: usize| {
            let mut e: Vec<(usize, f64)> = (0..c).map(|a| (j * c + a, 1.0)).collect();
            if p.storage.is_some() {
                e.extend([(n * c + j, 1.0), (n * c + n + j, -1.0)]);
            }
            e
        };
        let mut h = vec![vec![0.0; beta2 * nb]; beta2 * nb];
        for tau in 0..beta2 {
            let last = tau + 1 == beta2;
            let track_count = if last {
                (beta1 - beta2 + 1) as f64
            } else {
                1.0
            };
            let smooth_count = if last { 1.0 } else { 2.0 };
            for j in 0..n {
                let b1 = p.b1_mw[j];
                let couple = 2.0
                    * b1
                    * b1
                    * (tw * p.tracking_multiplier[j] * track_count + sw * smooth_count);
                let sub = -2.0 * sw * b1 * b1;
                for &(ia, sa) in &entries(j) {
                    for &(ib, sb) in &entries(j) {
                        h[tau * nb + ia][tau * nb + ib] = couple * sa * sb;
                        if !last {
                            h[(tau + 1) * nb + ia][tau * nb + ib] = sub * sa * sb;
                            h[tau * nb + ib][(tau + 1) * nb + ia] = sub * sa * sb;
                        }
                    }
                }
            }
            for d in 0..nb {
                h[tau * nb + d][tau * nb + d] += 2.0 * ridge * smooth_count;
                if !last {
                    h[(tau + 1) * nb + d][tau * nb + d] -= 2.0 * ridge;
                    h[tau * nb + d][(tau + 1) * nb + d] -= 2.0 * ridge;
                }
            }
        }
        h
    }

    /// The constraint rows in stage-major columns, in the controller's rhs
    /// order.
    fn stage_major_rows(config: &MpcConfig, p: &MpcProblem) -> Vec<Vec<(usize, f64)>> {
        let (n, c, nb) = (p.num_idcs(), p.num_portals(), p.block_size());
        let (nc, beta2) = (n * c, config.control_horizon);
        let mut rows = Vec::new();
        for t in 0..beta2 {
            for i in 0..c {
                rows.push((0..n).map(|j| (t * nb + j * c + i, 1.0)).collect());
            }
        }
        for t in 0..beta2 {
            for j in 0..n {
                rows.push((0..c).map(|i| (t * nb + j * c + i, 1.0)).collect());
            }
        }
        for t in 0..beta2 {
            for idx in 0..nc {
                rows.push(vec![(t * nb + idx, -1.0)]);
            }
        }
        if let Some(st) = &p.storage {
            for rate in [nc, nc + n] {
                for sign in [1.0, -1.0] {
                    for t in 0..beta2 {
                        for j in 0..n {
                            rows.push(vec![(t * nb + rate + j, sign)]);
                        }
                    }
                }
            }
            for sign in [1.0, -1.0] {
                for t in 0..beta2 {
                    for j in 0..n {
                        rows.push(
                            (0..=t)
                                .flat_map(|r| {
                                    [
                                        (r * nb + nc + j, sign * st.charge_efficiency[j]),
                                        (r * nb + nc + n + j, -sign / st.discharge_efficiency[j]),
                                    ]
                                })
                                .collect(),
                        );
                    }
                }
            }
        }
        rows
    }

    /// `P` with `(P·v)[q] = v[perm[q]]`, read back through the public
    /// gather: QP slot `q` holds stage-major entry `perm[q]`.
    fn permutation(skel: &RiccatiSkeleton, dim: usize) -> Vec<usize> {
        let ids: Vec<f64> = (0..dim).map(|k| k as f64).collect();
        let mut q = Vec::new();
        skel.to_qp_order(&ids, &mut q);
        q.iter().map(|&v| v as usize).collect()
    }

    #[test]
    fn idc_major_layout_is_an_exact_permutation_of_the_stage_major_one() {
        let config = MpcConfig::default();
        for storage in [false, true] {
            let p = problem(storage);
            let mut skel = RiccatiSkeleton::build(&config, &p).unwrap();
            let dim = config.control_horizon * p.block_size();
            let perm = permutation(&skel, dim);
            let mut seen = perm.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..dim).collect::<Vec<_>>(), "not a permutation");

            // P·H_old·Pᵀ == H_new, entry by entry and exactly.
            let qp = skel.qp_mut();
            let h_new = densify(qp.hessian());
            let h_old = stage_major_hessian(&config, &p);
            for a in 0..dim {
                for (b, &v) in h_new.row(a).iter().enumerate() {
                    assert!(
                        v == h_old[perm[a]][perm[b]],
                        "storage={storage} H[{a},{b}] = {v} vs {}",
                        h_old[perm[a]][perm[b]]
                    );
                }
            }
            // Separable: the subdiagonal block between IDC j's last stage
            // and IDC j+1's first stage is exactly zero.
            let h = qp.hessian();
            for j in 0..p.num_idcs() - 1 {
                let k = j * config.control_horizon + config.control_horizon - 1;
                assert!(h.sub(k).iter().all(|&v| v == 0.0), "block {k}");
            }

            // Every constraint row is the stage-major row with its columns
            // mapped through the same P, in the same order.
            let mut inv = vec![0; dim];
            for (q, &k) in perm.iter().enumerate() {
                inv[k] = q;
            }
            let old_rows = stage_major_rows(&config, &p);
            let new_rows: Vec<&SparseRow> = qp.rows().collect();
            assert_eq!(new_rows.len(), old_rows.len());
            for (r, (new, old)) in new_rows.iter().zip(&old_rows).enumerate() {
                let mapped: Vec<(usize, f64)> = old.iter().map(|&(k, v)| (inv[k], v)).collect();
                assert_eq!(new.entries(), &mapped[..], "storage={storage} row {r}");
            }
        }
    }

    #[test]
    fn qp_order_round_trips() {
        let config = MpcConfig::default();
        for storage in [false, true] {
            let p = problem(storage);
            let skel = RiccatiSkeleton::build(&config, &p).unwrap();
            let dim = config.control_horizon * p.block_size();
            let y: Vec<f64> = (0..dim).map(|k| 0.5 * k as f64 - 3.0).collect();
            let (mut q, mut back) = (Vec::new(), Vec::new());
            skel.to_qp_order(&y, &mut q);
            assert_ne!(q, y, "the IDC-major order must differ here");
            skel.to_stage_order(&q, &mut back);
            assert_eq!(back, y);
            // The other direction, from a QP-order vector.
            skel.to_stage_order(&y, &mut back);
            skel.to_qp_order(&back, &mut q);
            assert_eq!(q, y);
        }
    }

    /// The QP-order gradient is the stage-major one permuted.
    #[test]
    fn gradient_follows_the_permutation() {
        let config = MpcConfig::default();
        let p = problem(true);
        let skel = RiccatiSkeleton::build(&config, &p).unwrap();
        let (n, c, nb) = (p.num_idcs(), p.num_portals(), p.block_size());
        let rhs: Vec<f64> = (0..(config.prediction_horizon + config.control_horizon) * n)
            .map(|k| 0.25 * k as f64 + 1.0)
            .collect();
        let mut grad = Vec::new();
        skel.gradient_into(&rhs, &mut grad);
        let mut stage_major = Vec::new();
        skel.to_stage_order(&grad, &mut stage_major);
        for t in 0..config.control_horizon {
            for j in 0..n {
                let g = stage_major[t * nb + j * c];
                assert_ne!(g, 0.0);
                for i in 0..c {
                    assert_eq!(stage_major[t * nb + j * c + i], g);
                }
                assert_eq!(stage_major[t * nb + n * c + j], g);
                assert_eq!(stage_major[t * nb + n * c + n + j], -g);
            }
        }
    }

    #[test]
    fn cumulative_and_delta_round_trip() {
        let x = vec![1.0, 2.0, 3.0, -1.0, 0.5, 4.0];
        let mut y = Vec::new();
        to_cumulative(2, &x, &mut y);
        assert_eq!(y, vec![1.0, 2.0, 4.0, 1.0, 4.5, 5.0]);
        to_deltas(2, &mut y);
        for (a, b) in y.iter().zip(&x) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// Every inequality row of the skeleton stays inside one IDC, so the
    /// banded QP derives one chain per IDC (the storage SoC rows span
    /// stages, not IDCs). Solving through the per-chain working-set factor
    /// then matches the same QP posed as one dense block, and passes an
    /// independent KKT certificate.
    #[test]
    fn skeleton_has_one_chain_per_idc_and_solves_like_one_dense_block() {
        use idc_linalg::lu::Lu;
        use idc_opt::banded_qp::BandedWorkspace;

        let config = MpcConfig::default();
        let beta2 = config.control_horizon;
        for storage in [false, true] {
            let p = problem(storage);
            let mut skel = RiccatiSkeleton::build(&config, &p).unwrap();
            let qp = skel.qp_mut();
            qp.prepare().unwrap();
            let per_idc = beta2 * qp.hessian().nb();
            let me = beta2 * p.num_portals();
            let rows: Vec<SparseRow> = qp.rows().cloned().collect();
            let chains = qp.inequality_chains().unwrap().to_vec();
            assert_eq!(chains.len(), rows.len() - me);
            for (row, &c) in rows[me..].iter().zip(&chains) {
                let idc = row.entries()[0].0 / per_idc;
                assert!(row.entries().iter().all(|&(k, _)| k / per_idc == idc));
                assert_eq!(c, idc, "storage={storage} row {row:?}");
            }

            // Data around a strictly feasible x0 (distinct slacks, so the
            // optimum's active set has no ties), with a gradient that
            // drives the optimum onto some of the inequalities.
            let n = qp.num_vars();
            let x0: Vec<f64> = (0..n).map(|k| ((k * 7 % 11) as f64 - 5.0) * 0.1).collect();
            let g: Vec<f64> = (0..n).map(|k| 4.0 * ((k * 5 % 13) as f64 - 6.0)).collect();
            let b_eq: Vec<f64> = rows[..me].iter().map(|r| r.dot(&x0)).collect();
            let b_in: Vec<f64> = rows[me..]
                .iter()
                .enumerate()
                .map(|(i, r)| r.dot(&x0) + 0.05 + 0.01 * (i % 7) as f64)
                .collect();
            qp.set_gradient(&g).unwrap();
            qp.set_equality_rhs(&b_eq).unwrap();
            qp.set_inequality_rhs(&b_in).unwrap();
            let sol = qp
                .warm_start(&x0, &[], &mut BandedWorkspace::new())
                .unwrap();

            let h = densify(qp.hessian());
            let mut one = BlockTridiag::new(n, 1);
            one.diag_mut(0).copy_from_slice(h.as_slice());
            let mut dense = BandedQp::new(one, g.clone()).unwrap();
            for (row, &b) in rows[..me].iter().zip(&b_eq) {
                dense = dense.equality(row.clone(), b);
            }
            for (row, &b) in rows[me..].iter().zip(&b_in) {
                dense = dense.inequality(row.clone(), b);
            }
            let dense_sol = dense
                .warm_start(&x0, &[], &mut BandedWorkspace::new())
                .unwrap();
            assert!(!sol.active_set().is_empty());
            assert_eq!(
                sol.active_set(),
                dense_sol.active_set(),
                "storage={storage}"
            );
            let dense_obj = dense.objective_at(dense_sol.x());
            let scale = 1.0 + dense_obj.abs();
            assert!((qp.objective_at(sol.x()) - dense_obj).abs() <= 1e-8 * scale);

            // KKT certificate at the returned active set W:
            // [H Cᵀ; C 0]·[x; μ] = [−g; b] over the equalities and W, solved
            // by LU, reproduces x with μ_W ≥ 0.
            let working: Vec<(&SparseRow, f64)> = rows[..me]
                .iter()
                .zip(b_eq.iter().copied())
                .chain(sol.active_set().iter().map(|&i| (&rows[me + i], b_in[i])))
                .collect();
            let dim = n + working.len();
            let mut kkt = Matrix::zeros(dim, dim);
            let mut rhs = vec![0.0; dim];
            for i in 0..n {
                for j in 0..n {
                    kkt[(i, j)] = h[(i, j)];
                }
                rhs[i] = -g[i];
            }
            for (r, (row, b)) in working.iter().enumerate() {
                for &(i, c) in row.entries() {
                    kkt[(n + r, i)] += c;
                    kkt[(i, n + r)] += c;
                }
                rhs[n + r] = *b;
            }
            let z = Lu::factor(&kkt).unwrap().solve(&rhs).unwrap();
            let zscale = 1.0 + z.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for (zi, xi) in z[..n].iter().zip(sol.x()) {
                assert!((zi - xi).abs() <= 1e-7 * zscale, "{zi} vs {xi}");
            }
            assert!(z[n + me..].iter().all(|&mu| mu >= -1e-7 * zscale));
        }
    }

    #[test]
    fn single_stage_transform_is_identity() {
        let x = vec![3.0, -2.0];
        let mut y = Vec::new();
        to_cumulative(2, &x, &mut y);
        assert_eq!(y, x);
        to_deltas(2, &mut y);
        assert_eq!(y, x);
    }
}
