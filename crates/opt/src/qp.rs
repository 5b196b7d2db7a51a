//! Quadratic programs without stage structure, posed as a single
//! [`BandedQp`] block that holds every variable (a dense Hessian and dense
//! constraint rows). These tests pin the active-set behaviour such problems
//! rely on: warm starts, retargeting, pivoting and factor rebuilds.

mod tests {
    use crate::banded_qp::{BandedQp, BandedWorkspace, SparseRow};
    use crate::Error;
    use idc_linalg::banded::BlockTridiag;

    fn assert_near(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    /// `min ½xᵀHx + gᵀx` over a dense Hessian given by rows.
    fn dense_qp(h: &[&[f64]], g: Vec<f64>) -> BandedQp {
        let n = g.len();
        let mut bt = BlockTridiag::new(n, 1);
        for (i, row) in h.iter().enumerate() {
            bt.diag_mut(0)[i * n..(i + 1) * n].copy_from_slice(row);
        }
        BandedQp::new(bt, g).unwrap()
    }

    /// A sparse row from dense coefficients.
    fn row(coeffs: &[f64]) -> SparseRow {
        SparseRow::from_entries(
            coeffs
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0.0)
                .map(|(i, &c)| (i, c))
                .collect(),
        )
    }

    /// Nocedal & Wright example 16.4: optimum (1.4, 1.7), constraint 0
    /// active.
    fn nocedal_16_4_qp() -> BandedQp {
        dense_qp(&[&[2.0, 0.0], &[0.0, 2.0]], vec![-2.0, -5.0])
            .inequality(row(&[-1.0, 2.0]), 2.0)
            .inequality(row(&[1.0, 2.0]), 6.0)
            .inequality(row(&[1.0, -2.0]), 2.0)
            .inequality(row(&[-1.0, 0.0]), 0.0)
            .inequality(row(&[0.0, -1.0]), 0.0)
    }

    #[test]
    fn unconstrained_qp_solves_newton_system() {
        // A coupled Hessian: the optimum solves Hx = −g.
        let h = [[4.0, 1.0], [1.0, 3.0]];
        let g = vec![-9.0, 1.0];
        let mut qp = dense_qp(&[&h[0], &h[1]], g.clone());
        let sol = qp
            .warm_start(&[0.0, 0.0], &[], &mut BandedWorkspace::new())
            .unwrap();
        assert_near(sol.x()[0], 28.0 / 11.0);
        assert_near(sol.x()[1], -13.0 / 11.0);
        for i in 0..2 {
            assert_near(h[i][0] * sol.x()[0] + h[i][1] * sol.x()[1], -g[i]);
        }
        assert!(sol.active_set().is_empty());
    }

    #[test]
    fn warm_start_with_seeded_active_set_matches_cold() {
        // Warm-started at the known optimum with its active set: must
        // converge immediately to the same point.
        let mut qp = nocedal_16_4_qp();
        let mut ws = BandedWorkspace::new();
        let cold = qp.warm_start(&[0.0, 0.0], &[], &mut ws).unwrap();
        let warm = qp.warm_start(cold.x(), cold.active_set(), &mut ws).unwrap();
        assert_near(warm.x()[0], cold.x()[0]);
        assert_near(warm.x()[1], cold.x()[1]);
        assert_eq!(warm.active_set(), cold.active_set());
        assert!(warm.iterations() <= cold.iterations());

        // Garbage seed entries (out of range, inactive) are tolerated.
        let sloppy = qp.warm_start(cold.x(), &[99, 1, 1, 0], &mut ws).unwrap();
        assert_near(sloppy.x()[0], cold.x()[0]);
        assert_near(sloppy.x()[1], cold.x()[1]);
    }

    #[test]
    fn rhs_and_gradient_mutators_retarget_cached_problem() {
        // min (x0−5)² + x1²  s.t. x1 = 0.5, x0 ≤ 2  → (2, 0.5)
        let mut qp = dense_qp(&[&[2.0, 0.0], &[0.0, 2.0]], vec![-10.0, 0.0])
            .equality(row(&[0.0, 1.0]), 0.5)
            .inequality(row(&[1.0, 0.0]), 2.0);
        let mut ws = BandedWorkspace::new();
        let first = qp.warm_start(&[0.0, 0.5], &[], &mut ws).unwrap();
        assert_near(first.x()[0], 2.0);
        assert_near(first.x()[1], 0.5);
        // Move the target, the bound and the equality level: same skeleton,
        // new step data → (1, 1).
        qp.set_gradient(&[-2.0, 0.0]).unwrap();
        qp.set_inequality_rhs(&[5.0]).unwrap();
        qp.set_equality_rhs(&[1.0]).unwrap();
        let second = qp.warm_start(&[0.0, 1.0], &[], &mut ws).unwrap();
        assert_near(second.x()[0], 1.0);
        assert_near(second.x()[1], 1.0);
        // Length mismatches are rejected.
        assert!(qp.set_gradient(&[1.0]).is_err());
        assert!(qp.set_equality_rhs(&[]).is_err());
        assert!(qp.set_inequality_rhs(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn infeasible_warm_start_is_rejected() {
        let mut qp = dense_qp(&[&[2.0]], vec![0.0]).inequality(row(&[1.0]), 1.0);
        assert!(matches!(
            qp.warm_start(&[5.0], &[], &mut BandedWorkspace::new()),
            Err(Error::Infeasible)
        ));
    }

    #[test]
    fn batched_and_single_pivot_reach_same_optimum() {
        let mut batched = nocedal_16_4_qp();
        let mut reference = nocedal_16_4_qp().single_pivot(true);
        let b = batched
            .warm_start(&[0.0, 0.0], &[], &mut BandedWorkspace::new())
            .unwrap();
        let s = reference
            .warm_start(&[0.0, 0.0], &[], &mut BandedWorkspace::new())
            .unwrap();
        assert_near(b.x()[0], s.x()[0]);
        assert_near(b.x()[1], s.x()[1]);
        assert_near(b.objective(), s.objective());
        assert!(b.iterations() <= s.iterations());
    }

    #[test]
    fn forced_refactorization_triggers_stability_rebuild() {
        // min (x−5)² s.t. x ≤ 2: the bound binds with multiplier 6, so a
        // poisoned factor yields a large refinement correction and the
        // rebuild path must fire — while the answer stays exact.
        let mut qp = dense_qp(&[&[2.0]], vec![-10.0]).inequality(row(&[1.0]), 2.0);
        let cold = qp
            .warm_start(&[0.0], &[], &mut BandedWorkspace::new())
            .unwrap();
        assert_near(cold.x()[0], 2.0);
        let mut ws = BandedWorkspace::new();
        ws.force_refactor_next();
        let warm = qp.warm_start(cold.x(), cold.active_set(), &mut ws).unwrap();
        assert_near(warm.x()[0], 2.0);
        // Initial (poisoned) build plus the stability rebuild.
        assert!(
            warm.stats().refactorizations >= 2,
            "stats: {:?}",
            warm.stats()
        );
    }
}
