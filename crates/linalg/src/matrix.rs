use std::fmt;
use std::ops::{Index, IndexMut, Sub};

use crate::{Error, Result};

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the workhorse of the workspace: the MPC prediction matrices
/// `Θ` and `Ξ`, the state-space quadruple `(A, B, F, W)` and every KKT system
/// assembled by the optimizers are instances of this type.
///
/// # Example
///
/// ```
/// use idc_linalg::Matrix;
///
/// # fn main() -> Result<(), idc_linalg::Error> {
/// let a = Matrix::identity(2);
/// let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let c = a.mul_mat(&b)?;
/// assert_eq!(c, b);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Jagged`] if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(Error::Jagged);
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Creates a matrix by evaluating `f(i, j)` for each entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow of row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(Error::DimensionMismatch {
                op: "mul_vec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(v) {
                acc += a * b;
            }
            out[i] = acc;
        }
        Ok(out)
    }

    /// Returns `self * other`.
    ///
    /// The kernel is a row-major i-k-j loop, so each output entry sums its
    /// products in ascending `k`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the inner dimensions disagree.
    pub fn mul_mat(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(Error::DimensionMismatch {
                op: "mul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let dest = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &aik) in self.row(i).iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                for (d, &b) in dest.iter_mut().zip(other.row(k)) {
                    *d += aik * b;
                }
            }
        }
        Ok(out)
    }

    /// Multiplies every entry by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| x * s).collect(),
        }
    }

    /// In-place `self += s * other`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if shapes disagree.
    pub fn scaled_add_assign(&mut self, s: f64, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(Error::DimensionMismatch {
                op: "scaled_add",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
        Ok(())
    }

    /// Places `left` and `right` side by side.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the row counts differ.
    pub fn hstack(left: &Matrix, right: &Matrix) -> Result<Matrix> {
        if left.rows != right.rows {
            return Err(Error::DimensionMismatch {
                op: "hstack",
                lhs: left.shape(),
                rhs: right.shape(),
            });
        }
        let mut out = Matrix::zeros(left.rows, left.cols + right.cols);
        for i in 0..left.rows {
            out.row_mut(i)[..left.cols].copy_from_slice(left.row(i));
            out.row_mut(i)[left.cols..].copy_from_slice(right.row(i));
        }
        Ok(out)
    }

    /// Swaps rows `a` and `b` in place.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "row index out of bounds");
        if a == b {
            return;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (first, second) = self.data.split_at_mut(hi * self.cols);
        first[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut second[..self.cols]);
    }

    /// Largest absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Numerical rank via Gaussian elimination with partial pivoting.
    ///
    /// Entries whose pivot magnitude falls below
    /// `tol * max(rows, cols) * norm_max` are treated as zero. Pass
    /// `f64::EPSILON` for a LAPACK-like default.
    pub fn rank(&self, tol: f64) -> usize {
        let mut m = self.clone();
        let threshold = tol * self.rows.max(self.cols) as f64 * self.norm_max().max(1e-300);
        let mut rank = 0;
        let mut row = 0;
        for col in 0..m.cols {
            if row >= m.rows {
                break;
            }
            // Find pivot.
            let (pivot_row, pivot_val) = (row..m.rows)
                .map(|i| (i, m[(i, col)].abs()))
                .fold((row, 0.0), |acc, x| if x.1 > acc.1 { x } else { acc });
            if pivot_val <= threshold {
                continue;
            }
            m.swap_rows(row, pivot_row);
            let pivot = m[(row, col)];
            for i in (row + 1)..m.rows {
                let factor = m[(i, col)] / pivot;
                if factor == 0.0 {
                    continue;
                }
                for j in col..m.cols {
                    let v = m[(row, j)];
                    m[(i, j)] -= factor * v;
                }
            }
            rank += 1;
            row += 1;
        }
        rank
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:>10.4}", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Sub for &Matrix {
    type Output = Result<Matrix>;

    fn sub(self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(Error::DimensionMismatch {
                op: "sub",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22(a: f64, b: f64, c: f64, d: f64) -> Matrix {
        Matrix::from_rows(&[&[a, b], &[c, d]]).unwrap()
    }

    #[test]
    fn constructors_have_expected_shapes() {
        assert_eq!(Matrix::zeros(2, 3).shape(), (2, 3));
        assert_eq!(Matrix::identity(4).shape(), (4, 4));
    }

    #[test]
    fn from_rows_rejects_jagged_input() {
        let a: &[f64] = &[1.0, 2.0];
        let b: &[f64] = &[3.0];
        assert!(matches!(Matrix::from_rows(&[a, b]), Err(Error::Jagged)));
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(5.0, 6.0, 7.0, 8.0);
        let c = a.mul_mat(&b).unwrap();
        assert_eq!(c, m22(19.0, 22.0, 43.0, 50.0));
    }

    #[test]
    fn matmul_rejects_inner_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.mul_mat(&b).is_err());
    }

    #[test]
    fn matmul_matches_naive_sum_bitwise() {
        // Each entry sums in ascending `k`, like the naive triple loop.
        for &(m, k, n) in &[(1, 1, 1), (3, 64, 256), (5, 65, 257), (70, 130, 300)] {
            let a = Matrix::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
            let b = Matrix::from_fn(k, n, |i, j| ((i * 5 + j) % 13) as f64 - 6.0);
            let fast = a.mul_mat(&b).unwrap();
            let mut naive = Matrix::zeros(m, n);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0;
                    for p in 0..k {
                        acc += a[(i, p)] * b[(p, j)];
                    }
                    naive[(i, j)] = acc;
                }
            }
            assert_eq!(fast, naive, "shape ({m},{k},{n})");
        }
    }

    #[test]
    fn mul_vec_matches_hand_computation() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        assert_eq!(a.mul_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn transpose_is_involutive() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 10 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn stacking_places_blocks_side_by_side() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(5.0, 6.0, 7.0, 8.0);
        let h = Matrix::hstack(&a, &b).unwrap();
        assert_eq!(h.shape(), (2, 4));
        assert_eq!(h.row(0), &[1.0, 2.0, 5.0, 6.0]);
        assert_eq!(h.row(1), &[3.0, 4.0, 7.0, 8.0]);
    }

    #[test]
    fn stacking_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 2);
        let c = Matrix::zeros(3, 2);
        assert!(Matrix::hstack(&a, &c).is_err());
    }

    #[test]
    fn swap_rows_swaps() {
        let mut a = m22(1.0, 2.0, 3.0, 4.0);
        a.swap_rows(0, 1);
        assert_eq!(a, m22(3.0, 4.0, 1.0, 2.0));
        a.swap_rows(1, 1); // no-op
        assert_eq!(a, m22(3.0, 4.0, 1.0, 2.0));
    }

    #[test]
    fn norms_match_hand_computation() {
        assert_eq!(m22(1.0, -2.0, -3.0, 4.0).norm_max(), 4.0);
        assert_eq!(m22(1.0, -5.0, -3.0, 4.0).norm_max(), 5.0);
    }

    #[test]
    fn rank_detects_deficiency() {
        let full = m22(1.0, 2.0, 3.0, 4.0);
        assert_eq!(full.rank(f64::EPSILON), 2);
        let deficient = m22(1.0, 2.0, 2.0, 4.0);
        assert_eq!(deficient.rank(f64::EPSILON), 1);
        assert_eq!(Matrix::zeros(3, 3).rank(f64::EPSILON), 0);
        let rect = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]).unwrap();
        assert_eq!(rect.rank(f64::EPSILON), 2);
    }

    #[test]
    fn arithmetic_operators_work() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(4.0, 3.0, 2.0, 1.0);
        assert_eq!((&a - &b).unwrap(), m22(-3.0, -1.0, 1.0, 3.0));
        assert_eq!(a.scale(2.0), m22(2.0, 4.0, 6.0, 8.0));
        assert!((&a - &Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn scaled_add_assign_accumulates() {
        let mut a = m22(1.0, 2.0, 3.0, 4.0);
        let b = Matrix::identity(2);
        a.scaled_add_assign(10.0, &b).unwrap();
        assert_eq!(a, m22(11.0, 2.0, 3.0, 14.0));
        assert!(a.scaled_add_assign(1.0, &Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn debug_output_is_nonempty() {
        let s = format!("{:?}", Matrix::zeros(1, 1));
        assert!(s.contains("Matrix 1x1"));
    }
}
