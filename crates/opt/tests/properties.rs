//! Property-based tests for the optimization solvers.

use idc_linalg::banded::BlockTridiag;
use idc_linalg::lu::Lu;
use idc_linalg::{vec_ops, Matrix};
use idc_opt::banded_qp::{BandedQp, BandedWorkspace, SparseRow};
use idc_opt::QpSolution;
use proptest::prelude::*;

/// Strategy: a strictly-positive diagonal Hessian of dimension `n`.
fn pd_diag(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.5f64..5.0, n)
}

/// A dense constraint row `aᵀx (= or ≤) b`.
type Row = (Vec<f64>, f64);

/// A convex QP over a diagonal Hessian, kept in dense form so the
/// optimality certificate below can be checked without the solver.
struct DiagQp {
    hdiag: Vec<f64>,
    g: Vec<f64>,
    eq: Vec<Row>,
    ineq: Vec<Row>,
}

impl DiagQp {
    /// The same program as a banded QP: `blocks` stages of
    /// `n / blocks` variables with a block-diagonal Hessian.
    fn banded(&self, blocks: usize, single_pivot: bool) -> BandedQp {
        let nb = self.g.len() / blocks;
        let mut h = BlockTridiag::new(nb, blocks);
        for (i, &d) in self.hdiag.iter().enumerate() {
            h.diag_mut(i / nb)[(i % nb) * nb + i % nb] = d;
        }
        let sparse = |a: &[f64]| {
            SparseRow::from_entries(
                a.iter()
                    .enumerate()
                    .filter(|(_, &c)| c != 0.0)
                    .map(|(i, &c)| (i, c))
                    .collect(),
            )
        };
        let mut qp = BandedQp::new(h, self.g.clone())
            .unwrap()
            .single_pivot(single_pivot);
        for (a, b) in &self.eq {
            qp = qp.equality(sparse(a), *b);
        }
        for (a, b) in &self.ineq {
            qp = qp.inequality(sparse(a), *b);
        }
        qp
    }

    /// KKT certificate at the solver's active set `W`: the dense system
    /// `[H Eᵀ A_Wᵀ; E 0 0; A_W 0 0]·[x; ν; λ] = [−g; b_eq; b_W]`, solved by
    /// LU, must reproduce the returned point with `λ_W ≥ 0`, and the point
    /// must be primal feasible.
    fn certify(&self, sol: &QpSolution) -> Result<(), String> {
        let n = self.g.len();
        let rows: Vec<&Row> = self
            .eq
            .iter()
            .chain(sol.active_set().iter().map(|&i| &self.ineq[i]))
            .collect();
        let dim = n + rows.len();
        let mut kkt = Matrix::zeros(dim, dim);
        let mut rhs = vec![0.0; dim];
        for i in 0..n {
            kkt[(i, i)] = self.hdiag[i];
            rhs[i] = -self.g[i];
        }
        for (r, (a, b)) in rows.iter().enumerate() {
            for (i, &c) in a.iter().enumerate() {
                kkt[(n + r, i)] = c;
                kkt[(i, n + r)] = c;
            }
            rhs[n + r] = *b;
        }
        let z = Lu::factor(&kkt)
            .and_then(|lu| lu.solve(&rhs))
            .map_err(|e| format!("singular working-set KKT system: {e}"))?;
        let x = sol.x();
        let tol = 1e-7 * (1.0 + vec_ops::norm_inf(&z));
        if !vec_ops::approx_eq(&z[..n], x, tol) {
            return Err(format!("KKT point {:?} vs solver {x:?}", &z[..n]));
        }
        if let Some(lam) = z[n + self.eq.len()..].iter().find(|&&l| l < -tol) {
            return Err(format!("negative working multiplier {lam}"));
        }
        let value = |a: &[f64]| vec_ops::dot(a, x);
        let feasible = self.eq.iter().all(|(a, b)| (value(a) - b).abs() <= tol)
            && self.ineq.iter().all(|(a, b)| value(a) <= b + tol);
        if !feasible {
            return Err(format!("primal infeasible point {x:?}"));
        }
        Ok(())
    }
}

/// A dense row with `coeff` at each of `at`.
fn unit_row(n: usize, at: &[usize], coeff: f64) -> Vec<f64> {
    let mut row = vec![0.0; n];
    for &i in at {
        row[i] = coeff;
    }
    row
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The QP optimum must pass the KKT certificate and weakly beat
    /// feasible perturbations (local optimality for a convex problem).
    #[test]
    fn qp_optimum_is_feasible_and_locally_optimal(
        hdiag in pd_diag(3),
        g in prop::collection::vec(-3.0f64..3.0, 3),
        cap in 0.5f64..3.0,
    ) {
        let dense = DiagQp {
            hdiag,
            g,
            eq: vec![(vec![1.0, 1.0, 1.0], 1.0)],
            ineq: vec![(unit_row(3, &[0], 1.0), cap), (unit_row(3, &[0], -1.0), cap)],
        };
        let mut qp = dense.banded(1, false);
        let sol = qp
            .warm_start(&[1.0 / 3.0; 3], &[], &mut BandedWorkspace::new())
            .unwrap();
        prop_assert!(dense.certify(&sol).is_ok(), "{:?}", dense.certify(&sol));
        let base = qp.objective_at(sol.x());
        // Perturb along the equality manifold.
        for (i, j) in [(0usize, 1usize), (1, 2), (0, 2)] {
            for eps in [1e-4, -1e-4] {
                let mut trial = sol.x().to_vec();
                trial[i] += eps;
                trial[j] -= eps;
                if qp.is_feasible(&trial, 1e-9) {
                    prop_assert!(qp.objective_at(&trial) >= base - 1e-8);
                }
            }
        }
    }

    /// Warm-started solves seeded with a perturbed previous optimum and a
    /// possibly-stale active set land on the cold solve's answer (from the
    /// simplex centres, with no seed) — same
    /// minimizer, objective and final active set — on random
    /// product-of-simplices QPs (one simplex per stage), and both pass the
    /// KKT certificate. This is the contract the MPC's shift-and-repair
    /// warm start relies on.
    #[test]
    fn qp_warm_start_matches_cold_solve(
        hdiag in pd_diag(6),
        g in prop::collection::vec(-2.0f64..2.0, 6),
        blend in 0.0f64..1.0,
    ) {
        let mut dense = DiagQp { hdiag, g, eq: Vec::new(), ineq: Vec::new() };
        for b in 0..2 {
            dense.eq.push((unit_row(6, &[3 * b, 3 * b + 1, 3 * b + 2], 1.0), 1.0));
            for k in 0..3 {
                dense.ineq.push((unit_row(6, &[3 * b + k], -1.0), 0.0));
            }
        }
        let mut qp = dense.banded(2, false);
        let mut ws = BandedWorkspace::new();
        let cold = qp.warm_start(&[1.0 / 3.0; 6], &[], &mut ws).unwrap();
        prop_assert!(dense.certify(&cold).is_ok(), "{:?}", dense.certify(&cold));
        // A feasible stand-in for the receding-horizon shift: blend the
        // optimum toward the simplex centers (stays on the equality
        // manifold and nonnegative), seeding with the now-stale set.
        let x0: Vec<f64> = cold.x().iter().map(|&x| (1.0 - blend) * x + blend / 3.0).collect();
        let warm = qp.warm_start(&x0, cold.active_set(), &mut ws).unwrap();
        prop_assert!(dense.certify(&warm).is_ok(), "{:?}", dense.certify(&warm));
        let (warm_obj, cold_obj) = (qp.objective_at(warm.x()), qp.objective_at(cold.x()));
        let obj_tol = 1e-8 * (1.0 + cold_obj.abs());
        prop_assert!(
            (warm_obj - cold_obj).abs() <= obj_tol,
            "warm objective {} vs cold {}", warm_obj, cold_obj
        );
        prop_assert!(
            vec_ops::approx_eq(warm.x(), cold.x(), 1e-6),
            "warm x {:?} vs cold {:?}", warm.x(), cold.x()
        );
        prop_assert_eq!(cold.active_set(), warm.active_set());
    }
}

/// A random block-tridiagonal SPD Hessian (nb = 2, 3 stages → 6 vars)
/// built from proptest-drawn entries.
fn banded_hessian(diag: &[f64], sub: &[f64]) -> BlockTridiag {
    let (nb, t) = (2, 3);
    let mut h = BlockTridiag::new(nb, t);
    for bt in 0..t {
        // Symmetric 2×2 stage block from 3 draws, diagonally boosted so the
        // assembled block-tridiagonal matrix stays positive definite.
        let d = &diag[bt * 3..bt * 3 + 3];
        let block = h.diag_mut(bt);
        block[0] = d[0].abs() + 3.0;
        block[3] = d[2].abs() + 3.0;
        block[1] = d[1];
        block[2] = d[1];
    }
    for bt in 0..t - 1 {
        h.sub_mut(bt).copy_from_slice(&sub[bt * 4..bt * 4 + 4]);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batched pivoting (multiple working-set changes per outer iteration)
    /// must reach the same certified optimum as the classical single-pivot
    /// loop on random box-constrained QPs.
    #[test]
    fn qp_batched_and_single_pivot_agree(
        hdiag in pd_diag(4),
        g in prop::collection::vec(-3.0f64..3.0, 4),
        cap in 0.3f64..2.0,
    ) {
        let mut dense = DiagQp { hdiag, g, eq: vec![(vec![1.0; 4], 1.0)], ineq: Vec::new() };
        for j in 0..4 {
            dense.ineq.push((unit_row(4, &[j], 1.0), cap));
            dense.ineq.push((unit_row(4, &[j], -1.0), cap));
        }
        let mut ws = BandedWorkspace::new();
        let x0 = [0.25; 4];
        let qp = dense.banded(1, false);
        let batched = qp.clone().warm_start(&x0, &[], &mut ws).unwrap();
        let single = dense.banded(1, true).warm_start(&x0, &[], &mut ws).unwrap();
        let (batched_obj, single_obj) = (qp.objective_at(batched.x()), qp.objective_at(single.x()));
        prop_assert!(
            (batched_obj - single_obj).abs() <= 1e-8 * (1.0 + single_obj.abs()),
            "batched {} vs single-pivot {}",
            batched_obj,
            single_obj
        );
        prop_assert!(dense.certify(&batched).is_ok(), "{:?}", dense.certify(&batched));
        prop_assert!(dense.certify(&single).is_ok(), "{:?}", dense.certify(&single));
    }

    /// Same batched ≡ single-pivot equivalence for the banded backend.
    #[test]
    fn banded_batched_and_single_pivot_agree(
        diag in prop::collection::vec(-1.0f64..1.0, 9),
        sub in prop::collection::vec(-0.4f64..0.4, 8),
        g in prop::collection::vec(-2.0f64..2.0, 6),
        cap in 0.3f64..2.0,
    ) {
        let n = 6;
        let build = |single: bool| {
            let mut qp = BandedQp::new(banded_hessian(&diag, &sub), g.clone())
                .unwrap()
                .single_pivot(single)
                .equality(
                    SparseRow::from_entries((0..n).map(|i| (i, 1.0)).collect()),
                    1.0,
                );
            for j in 0..n {
                qp = qp
                    .inequality(SparseRow::from_entries(vec![(j, 1.0)]), cap)
                    .inequality(SparseRow::from_entries(vec![(j, -1.0)]), cap);
            }
            qp
        };
        let mut ws = BandedWorkspace::new();
        let x0 = [1.0 / 6.0; 6];
        let batched = build(false).warm_start(&x0, &[], &mut ws).unwrap();
        let single = build(true).warm_start(&x0, &[], &mut ws).unwrap();
        let (batched_obj, single_obj) =
            (build(false).objective_at(batched.x()), build(false).objective_at(single.x()));
        prop_assert!(
            (batched_obj - single_obj).abs() <= 1e-8 * (1.0 + single_obj.abs()),
            "batched {} vs single-pivot {}",
            batched_obj,
            single_obj
        );
        prop_assert!(build(false).is_feasible(batched.x(), 1e-7));
    }
}
