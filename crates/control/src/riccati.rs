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
//! and the Hessian becomes **block-tridiagonal** — the tracking term touches
//! one stage per prediction row and the smoothing/ridge term couples only
//! adjacent stages (it is a first-order difference in `y`). The stages play
//! the role of the time recursion in a Riccati sweep: [`idc_linalg::banded`]
//! factors the Hessian by a backward block-Cholesky recursion and solves in
//! `O(β₂·(NC)²)` instead of `O(nv²)`, and [`idc_opt::banded_qp`] keeps the
//! working-set Schur complement factored incrementally across active-set
//! changes.
//!
//! Constraint rows are emitted in the order the controller assembles their
//! right-hand sides (conservation `t`-major × portal, then capacity
//! `t`-major × IDC, then non-negativity `t`-major × entry, then the storage
//! families), so warm-start active sets, the receding-horizon seed shift in
//! [`crate::mpc`], and reported active sets share one indexing with the
//! sharded backend. The objective is the eq. 42 least squares without its
//! constant `bᵀQb`.

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
    /// Stage block size: `N·C`, plus `2N` rate variables with storage.
    nb: usize,
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
        let beta1 = config.prediction_horizon;
        let beta2 = config.control_horizon;
        let tw = config.tracking_weight;
        let sw = config.smoothing_weight;
        let ridge = config.input_ridge;

        // ---- Hessian: H_y = 2·(Ŝ + B̂) with Ŝ the stagewise tracking
        // normal matrix and B̂ the difference operator's normal matrix.
        //
        // Tracking row (s, j) reads b₁_j·Σ_i y_{τ(s)}[j·C+i] with
        // τ(s) = min(s, β₂−1), so stage τ < β₂−1 receives one row per IDC
        // and the final stage receives the β₁−β₂+1 tail rows. Each row
        // contributes a rank-one `b₁²·𝟙𝟙ᵀ` coupling within its IDC block.
        // With storage the row also reads `+b₁·y[γc_j] − b₁·y[γd_j]` (rate
        // changes in req/s equivalents), extending the rank-one pattern to
        // the rate entries with a sign flip on the discharge column.
        //
        // Smoothing row (t, j) reads the same pattern of (y_t − y_{t−1})
        // and the ridge penalizes (y_t − y_{t−1}) entrywise; a stage
        // appears in the difference at `t` and (except the last) at `t+1`,
        // hence the 2-vs-1 diagonal count, with `−B` on the subdiagonal
        // blocks.
        let signed_entries = |j: usize| -> Vec<(usize, f64)> {
            let mut e: Vec<(usize, f64)> = (0..c).map(|a| (j * c + a, 1.0)).collect();
            if storage.is_some() {
                e.push((nc + j, 1.0));
                e.push((nc + n + j, -1.0));
            }
            e
        };
        let mut h = BlockTridiag::new(nb, beta2);
        for tau in 0..beta2 {
            let track_count = if tau + 1 < beta2 {
                1.0
            } else {
                (beta1 - beta2 + 1) as f64
            };
            let smooth_count = if tau + 1 < beta2 { 2.0 } else { 1.0 };
            let block = h.diag_mut(tau);
            for j in 0..n {
                let b1 = problem.b1_mw[j];
                let couple = 2.0
                    * b1
                    * b1
                    * (tw * problem.tracking_multiplier[j] * track_count + sw * smooth_count);
                let entries = signed_entries(j);
                for &(ia, sa) in &entries {
                    for &(ib, sb) in &entries {
                        block[ia * nb + ib] = couple * sa * sb;
                    }
                }
            }
            for d in 0..nb {
                block[d * nb + d] += 2.0 * ridge * smooth_count;
            }
        }
        for tau in 0..beta2.saturating_sub(1) {
            let block = h.sub_mut(tau);
            for j in 0..n {
                let b1 = problem.b1_mw[j];
                let couple = -2.0 * sw * b1 * b1;
                let entries = signed_entries(j);
                for &(ia, sa) in &entries {
                    for &(ib, sb) in &entries {
                        block[ia * nb + ib] = couple * sa * sb;
                    }
                }
            }
            for d in 0..nb {
                block[d * nb + d] -= 2.0 * ridge;
            }
        }

        let mut qp = BandedQp::new(h, vec![0.0; beta2 * nb])?;
        // Constraint rows in the controller's rhs order; rhs values are
        // per-step and rewritten in place.
        for t in 0..beta2 {
            for i in 0..c {
                let mut row = SparseRow::new();
                for j in 0..n {
                    row.push(t * nb + j * c + i, 1.0);
                }
                qp = qp.equality(row, 0.0);
            }
        }
        for t in 0..beta2 {
            for j in 0..n {
                let mut row = SparseRow::new();
                for i in 0..c {
                    row.push(t * nb + j * c + i, 1.0);
                }
                qp = qp.inequality(row, 0.0);
            }
        }
        for t in 0..beta2 {
            for idx in 0..nc {
                qp = qp.inequality(SparseRow::from_entries(vec![(t * nb + idx, -1.0)]), 0.0);
            }
        }
        if let Some(st) = storage {
            // Storage families in the controller's rhs order. In y-space
            // the rate boxes are stage-local single entries (the
            // cumulative rate change at stage t IS y_t's rate entry); the
            // SoC rows sum the rate entries over stages ≤ t — multi-stage
            // rows are fine here, only the Hessian must stay banded.
            for sign in [1.0, -1.0] {
                for t in 0..beta2 {
                    for j in 0..n {
                        qp = qp.inequality(
                            SparseRow::from_entries(vec![(t * nb + nc + j, sign)]),
                            0.0,
                        );
                    }
                }
            }
            for sign in [1.0, -1.0] {
                for t in 0..beta2 {
                    for j in 0..n {
                        qp = qp.inequality(
                            SparseRow::from_entries(vec![(t * nb + nc + n + j, sign)]),
                            0.0,
                        );
                    }
                }
            }
            for sign in [1.0, -1.0] {
                for t in 0..beta2 {
                    for j in 0..n {
                        let mut row = SparseRow::new();
                        for r in 0..=t {
                            row.push(r * nb + nc + j, sign * st.charge_efficiency[j]);
                            row.push(r * nb + nc + n + j, -sign / st.discharge_efficiency[j]);
                        }
                        qp = qp.inequality(row, 0.0);
                    }
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
            nb,
            grad_coeff,
        })
    }

    /// The underlying banded QP (for `prepare` and per-step rhs rewrites).
    pub fn qp_mut(&mut self) -> &mut BandedQp {
        &mut self.qp
    }

    /// Computes the y-space gradient from the per-step tracking rhs rows
    /// (`rhs[s·N + j] = reference − current power`).
    ///
    /// `g_y[τ, j, i] = −2·b₁_j·Q·mult_j · Σ_{s: min(s,β₂−1)=τ} rhs[s·N+j]` —
    /// the smoothing rows have zero targets and contribute nothing.
    pub fn gradient_into(&self, rhs: &[f64], grad: &mut Vec<f64>) {
        let (n, c, nb) = (self.n, self.c, self.nb);
        let nc = n * c;
        grad.clear();
        grad.resize(self.beta2 * nb, 0.0);
        for tau in 0..self.beta2 {
            for j in 0..n {
                let sum: f64 = if tau + 1 < self.beta2 {
                    rhs[tau * n + j]
                } else {
                    (self.beta2 - 1..self.beta1).map(|s| rhs[s * n + j]).sum()
                };
                let g = self.grad_coeff[j] * sum;
                for i in 0..c {
                    grad[tau * nb + j * c + i] = g;
                }
                if nb > nc {
                    // Rate entries share the workload coefficient (same
                    // b₁ scale), with the discharge column sign-flipped.
                    grad[tau * nb + nc + j] = g;
                    grad[tau * nb + nc + n + j] = -g;
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
