//! Robustness of the factorizations on classically ill-conditioned inputs.

use idc_linalg::eigen::spd_condition_number;
use idc_linalg::{cholesky::Cholesky, lu, vec_ops, Matrix};

/// The n×n Hilbert matrix — the textbook ill-conditioned SPD matrix.
fn hilbert(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| 1.0 / (i + j + 1) as f64)
}

#[test]
fn hilbert_condition_number_grows_as_expected() {
    // κ(H_4) ≈ 1.55e4, κ(H_6) ≈ 1.5e7.
    let k4 = spd_condition_number(&hilbert(4)).unwrap();
    assert!((1e4..1e5).contains(&k4), "κ(H4) = {k4}");
    let k6 = spd_condition_number(&hilbert(6)).unwrap();
    assert!((1e6..1e8).contains(&k6), "κ(H6) = {k6}");
}

#[test]
fn lu_solves_hilbert_with_bounded_residual() {
    // Solution accuracy degrades with κ, but the *residual* ‖Ax − b‖ stays
    // small — the property the KKT solves actually rely on.
    for n in [4usize, 6, 8] {
        let h = hilbert(n);
        let x_true = vec![1.0; n];
        let b = h.mul_vec(&x_true).unwrap();
        let x = lu::solve(&h, &b).unwrap();
        let r = vec_ops::sub(&h.mul_vec(&x).unwrap(), &b);
        assert!(
            vec_ops::norm_inf(&r) < 1e-12,
            "n = {n}: residual {}",
            vec_ops::norm_inf(&r)
        );
    }
}

#[test]
fn cholesky_factors_hilbert_until_numerical_breakdown() {
    // H_10 is SPD in exact arithmetic; Cholesky must either factor it or
    // report NotPositiveDefinite — never panic or return NaN.
    for n in 2..=12 {
        match Cholesky::factor(&hilbert(n)) {
            Ok(c) => {
                let rebuilt = c.l().mul_mat(&c.l().transpose()).unwrap();
                let err = (&rebuilt - &hilbert(n)).unwrap().norm_max();
                assert!(err < 1e-12, "n = {n}: reconstruction error {err}");
            }
            Err(idc_linalg::Error::NotPositiveDefinite) => {
                assert!(n >= 11, "premature breakdown at n = {n}");
            }
            Err(other) => panic!("unexpected error at n = {n}: {other}"),
        }
    }
}

#[test]
fn scaled_systems_solve_across_ten_orders_of_magnitude() {
    // Mixed-unit systems (MW vs req/s) produce badly scaled matrices; the
    // partial-pivoting LU must cope.
    let a = Matrix::from_rows(&[&[1e-6, 2.0, 0.0], &[3.0, 1e6, 1.0], &[0.0, 4.0, 1e-3]]).unwrap();
    let x_true = [2.0, -1e-5, 30.0];
    let b = a.mul_vec(&x_true).unwrap();
    let x = lu::solve(&a, &b).unwrap();
    for (xi, ti) in x.iter().zip(&x_true) {
        assert!((xi - ti).abs() < 1e-9 * ti.abs().max(1.0), "{xi} vs {ti}");
    }
}
