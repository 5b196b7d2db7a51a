//! LU factorization with partial pivoting.
//!
//! The general dense solver of the workspace. No controller path factors
//! with it; the tests use it as the structure-blind reference that the
//! banded, Cholesky and working-set factors are checked against.

use crate::{Error, Matrix, Result};

/// An LU factorization `P·A = L·U` with partial (row) pivoting.
///
/// # Example
///
/// ```
/// use idc_linalg::{Matrix, lu::Lu};
///
/// # fn main() -> Result<(), idc_linalg::Error> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let lu = Lu::factor(&a)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed L (unit lower, below diagonal) and U (upper, on/above diagonal).
    lu: Matrix,
    /// Row permutation: row `i` of the factored matrix is row `piv[i]` of `A`.
    piv: Vec<usize>,
    /// +1.0 or −1.0 depending on the permutation parity.
    sign: f64,
}

impl Lu {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// * [`Error::NotSquare`] if `a` is rectangular.
    /// * [`Error::Singular`] if a pivot underflows working precision.
    pub fn factor(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(Error::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        let mut prow = Vec::with_capacity(n);
        let scale = lu.norm_max().max(1e-300);

        for k in 0..n {
            // Partial pivoting: bring the largest |entry| in column k to row k.
            let (p, pmag) = (k..n)
                .map(|i| (i, lu[(i, k)].abs()))
                .fold((k, -1.0), |acc, x| if x.1 > acc.1 { x } else { acc });
            if pmag <= f64::EPSILON * n as f64 * scale {
                return Err(Error::Singular);
            }
            if p != k {
                lu.swap_rows(k, p);
                piv.swap(k, p);
                sign = -sign;
            }
            let pivot = lu[(k, k)];
            // Eliminate on contiguous row tails: copying the pivot row's
            // tail out once per column lets the update run on two plain
            // slices, which the compiler vectorizes — the difference
            // between ~1 and ~8 flops per cycle on a dense factor.
            prow.clear();
            prow.extend_from_slice(&lu.row(k)[k + 1..]);
            for i in (k + 1)..n {
                let row = &mut lu.row_mut(i)[k..];
                let factor = row[0] / pivot;
                row[0] = factor;
                if factor == 0.0 {
                    continue;
                }
                for (v, &u) in row[1..].iter_mut().zip(&prow) {
                    *v -= factor * u;
                }
            }
        }
        Ok(Lu { lu, piv, sign })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `b.len()` differs from the
    /// factored dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(Error::DimensionMismatch {
                op: "lu_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Apply permutation.
        let mut x: Vec<f64> = self.piv.iter().map(|&p| b[p]).collect();
        // Forward substitution with unit-lower L.
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(x)
    }

    /// Solves `A X = B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `b.rows()` differs from the
    /// factored dimension.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(Error::DimensionMismatch {
                op: "lu_solve_matrix",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col = self.solve(&b.col(j))?;
            for i in 0..n {
                out[(i, j)] = col[i];
            }
        }
        Ok(out)
    }

    /// Determinant of the factored matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Explicit inverse. Prefer [`Lu::solve`] when only a solve is needed.
    ///
    /// # Errors
    ///
    /// Propagates solve failures (cannot occur for a successfully factored
    /// matrix, but the signature stays fallible for uniformity).
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }
}

/// One-shot convenience: solves `A x = b` by factoring `a`.
///
/// # Errors
///
/// Same failure modes as [`Lu::factor`] and [`Lu::solve`].
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    Lu::factor(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec_ops;

    #[test]
    fn solves_known_system() {
        let a =
            Matrix::from_rows(&[&[3.0, 2.0, -1.0], &[2.0, -2.0, 4.0], &[-1.0, 0.5, -1.0]]).unwrap();
        let x = solve(&a, &[1.0, -2.0, 0.0]).unwrap();
        assert!(vec_ops::approx_eq(&x, &[1.0, -2.0, -2.0], 1e-12));
    }

    #[test]
    fn residual_is_tiny_for_random_like_system() {
        let n = 12;
        // Deterministic pseudo-random fill.
        let a = Matrix::from_fn(n, n, |i, j| {
            let v = ((i * 37 + j * 101 + 13) % 97) as f64 / 97.0 - 0.5;
            if i == j {
                v + 3.0
            } else {
                v
            }
        });
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x = solve(&a, &b).unwrap();
        let r = vec_ops::sub(&a.mul_vec(&x).unwrap(), &b);
        assert!(vec_ops::norm_inf(&r) < 1e-10, "residual {r:?}");
    }

    #[test]
    fn detects_singularity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(Lu::factor(&a), Err(Error::Singular)));
    }

    #[test]
    fn rejects_rectangular() {
        assert!(matches!(
            Lu::factor(&Matrix::zeros(2, 3)),
            Err(Error::NotSquare { shape: (2, 3) })
        ));
    }

    #[test]
    fn determinant_matches_cofactor_expansion() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert!((Lu::factor(&a).unwrap().det() + 2.0).abs() < 1e-14);
        let i = Matrix::identity(5);
        assert!((Lu::factor(&i).unwrap().det() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]).unwrap();
        let inv = Lu::factor(&a).unwrap().inverse().unwrap();
        let prod = a.mul_mat(&inv).unwrap();
        let err = (&prod - &Matrix::identity(2)).unwrap().norm_max();
        assert!(err < 1e-13);
    }

    #[test]
    fn solve_matrix_solves_multiple_rhs() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[2.0, 4.0], &[4.0, 8.0]]).unwrap();
        let x = Lu::factor(&a).unwrap().solve_matrix(&b).unwrap();
        assert_eq!(x, Matrix::from_rows(&[&[1.0, 2.0], &[1.0, 2.0]]).unwrap());
    }

    #[test]
    fn solve_rejects_wrong_rhs_length() {
        let a = Matrix::identity(3);
        let lu = Lu::factor(&a).unwrap();
        assert!(lu.solve(&[1.0]).is_err());
        assert!(lu.solve_matrix(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!(vec_ops::approx_eq(&x, &[3.0, 2.0], 1e-15));
    }
}
