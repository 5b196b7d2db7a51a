//! Cholesky factorization for symmetric positive-definite systems.
//!
//! The MPC Hessian `ΘᵀQΘ + R` of the condensed problem (paper eq. 42) is
//! symmetric positive definite whenever `R ≻ 0`, so equality-free solves use
//! Cholesky, which is roughly twice as fast as LU and certifies definiteness
//! as a side effect.

use crate::gemm::gemm_ws;
use crate::simd::{dispatch, Kernels};
use crate::workspace::Workspace;
use crate::{Error, Matrix, Result};

/// A lower-triangular Cholesky factor `A = L·Lᵀ`.
///
/// # Example
///
/// ```
/// use idc_linalg::{Matrix, cholesky::Cholesky};
///
/// # fn main() -> Result<(), idc_linalg::Error> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let chol = Cholesky::factor(&a)?;
/// let x = chol.solve(&[2.0, 1.0])?;
/// let r = a.mul_vec(&x)?;
/// assert!((r[0] - 2.0).abs() < 1e-12 && (r[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper
    /// triangle is assumed, not checked.
    ///
    /// # Errors
    ///
    /// * [`Error::NotSquare`] if `a` is rectangular.
    /// * [`Error::NotPositiveDefinite`] if a diagonal pivot is not strictly
    ///   positive.
    pub fn factor(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(Error::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut acc = a[(i, j)];
                for k in 0..j {
                    acc -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if acc <= 0.0 {
                        return Err(Error::NotPositiveDefinite);
                    }
                    l[(i, j)] = acc.sqrt();
                } else {
                    l[(i, j)] = acc / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrow of the lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` via forward/back substitution.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `b.len()` differs from the
    /// factored dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(Error::DimensionMismatch {
                op: "cholesky_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut x = b.to_vec();
        // L y = b
        for i in 0..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.l[(i, j)] * x[j];
            }
            x[i] = acc / self.l[(i, i)];
        }
        // Lᵀ x = y
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.l[(j, i)] * x[j];
            }
            x[i] = acc / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Log-determinant of `A` (numerically stable for large well-conditioned
    /// systems).
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

/// An incrementally maintained Cholesky factor with O(n²) row append and
/// O((n−k)²) row removal.
///
/// The active-set QP loop grows and shrinks the working-set Schur complement
/// `S_W = C_W·H⁻¹·C_Wᵀ` by one row per iteration. Refactoring from scratch is
/// O(n³) per iteration; this type instead maintains the packed lower factor
/// `L` of `S_W` under single row/column appends (one triangular solve),
/// end truncations (free), and interior removals (a Givens-style rank-1
/// update of the trailing block).
///
/// Storage is a packed row-major lower triangle (`row i` occupies
/// `i·(i+1)/2 .. i·(i+1)/2 + i + 1`), so no O(n²) dense buffer is touched on
/// append, and both triangular solves stream contiguous packed rows: the
/// forward solve as row dots, the backward solve as a row sweep
/// `x[..i] −= xᵢ·L[i, ..i]`. Both run on the [`simd`](crate::simd) dot/axpy
/// kernels, with the AVX2 or portable path picked once per solve.
#[derive(Debug, Clone, Default)]
pub struct UpdatableCholesky {
    n: usize,
    /// Packed row-major lower-triangular factor.
    l: Vec<f64>,
    /// Scratch for appends/removals.
    w: Vec<f64>,
}

impl UpdatableCholesky {
    /// Creates an empty (0×0) factor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets to the empty factor, keeping allocations.
    pub fn clear(&mut self) {
        self.n = 0;
        self.l.clear();
    }

    /// Current factored dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Appends one symmetric row/column to the factored matrix.
    ///
    /// `col` holds the new matrix entries `[a(new, 0), …, a(new, n−1),
    /// a(new, new)]`, i.e. length `n + 1`. Internally solves `L·w = col[..n]`
    /// and sets the new diagonal to `√(a(new,new) − wᵀw)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotPositiveDefinite`] (factor left unchanged) when the
    /// Schur complement of the new diagonal is not safely positive — the
    /// caller should fall back to a full refactorization.
    ///
    /// # Panics
    ///
    /// Panics if `col.len() != self.dim() + 1`.
    pub fn append(&mut self, col: &[f64]) -> Result<()> {
        let n = self.n;
        assert_eq!(col.len(), n + 1, "append column has wrong length");
        self.w.clear();
        self.w.extend_from_slice(&col[..n]);
        forward_packed(&self.l, &mut self.w);
        let d2 = col[n] - self.w.iter().map(|v| v * v).sum::<f64>();
        if d2 <= 0.0 || d2 <= 1e-12 * col[n].abs() {
            return Err(Error::NotPositiveDefinite);
        }
        self.l.extend_from_slice(&self.w);
        self.l.push(d2.sqrt());
        self.n += 1;
        Ok(())
    }

    /// Appends `k` symmetric rows/columns in one blocked operation.
    ///
    /// `cols` concatenates the [`append`](Self::append) columns of the `k`
    /// new rows: row `j` contributes the `n + j + 1` entries `[a(n+j, 0), …,
    /// a(n+j, n+j)]`, where `n` is the dimension before the call — total
    /// length `k·n + k·(k+1)/2`, i.e. exactly what `k` successive `append`
    /// calls would consume.
    ///
    /// The off-diagonal factor block `L21` comes from `k` triangular solves
    /// against the existing factor, the k×k Schur complement
    /// `S22 − L21·L21ᵀ` is downdated through the packed GEMM microkernel,
    /// and its own Cholesky factor is built in scratch. Diagonal pivots must
    /// pass the same relative positivity test as [`append`](Self::append).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotPositiveDefinite`] with the factor left
    /// **unchanged** (no partial commit, unlike a sequence of `append`
    /// calls) when any pivot fails; the caller can fall back to per-row
    /// appends to locate the offending row.
    ///
    /// # Panics
    ///
    /// Panics if `cols.len()` does not match `k` stacked append columns.
    pub fn append_block(&mut self, k: usize, cols: &[f64], ws: &mut Workspace) -> Result<()> {
        let n = self.n;
        assert_eq!(
            cols.len(),
            k * n + k * (k + 1) / 2,
            "append block has wrong length"
        );
        if k == 0 {
            return Ok(());
        }
        if k == 1 {
            return self.append(cols);
        }
        // L21 rows: solve L11·w = colsⱼ[..n] against the packed factor.
        let mut b = ws.take(k * n);
        for j in 0..k {
            let off = j * n + j * (j + 1) / 2;
            let row = &mut b[j * n..(j + 1) * n];
            row.copy_from_slice(&cols[off..off + n]);
            forward_packed(&self.l, row);
        }
        // Schur complement S22 − L21·L21ᵀ via GEMM (upper triangle of the
        // scratch is written by GEMM but never read below).
        let mut s22 = ws.take(k * k);
        for j in 0..k {
            let off = j * n + j * (j + 1) / 2;
            for i in 0..=j {
                s22[j * k + i] = cols[off + n + i];
            }
        }
        let mut bt = ws.take(n * k);
        for j in 0..k {
            for i in 0..n {
                bt[i * k + j] = b[j * n + i];
            }
        }
        if n > 0 {
            gemm_ws(k, k, n, -1.0, &b, n, &bt, k, 1.0, &mut s22, k, ws);
        }
        // Factor the Schur block in scratch; commit only on success.
        let mut result = crate::banded::chol_in_place_blocked(k, &mut s22, 1, ws);
        if result.is_ok() {
            for j in 0..k {
                let off = j * n + j * (j + 1) / 2;
                let d2 = s22[j * k + j] * s22[j * k + j];
                if d2 <= 1e-12 * cols[off + n + j].abs() {
                    result = Err(Error::NotPositiveDefinite);
                    break;
                }
            }
        }
        if result.is_ok() {
            for j in 0..k {
                self.l.extend_from_slice(&b[j * n..(j + 1) * n]);
                self.l.extend_from_slice(&s22[j * k..j * k + j + 1]);
            }
            self.n += k;
        }
        ws.put(b);
        ws.put(s22);
        ws.put(bt);
        result
    }

    /// Drops trailing rows/columns so the factor has dimension `new_dim`.
    ///
    /// This is exact and free: the leading principal factor of `L` is the
    /// factor of the leading principal submatrix.
    ///
    /// # Panics
    ///
    /// Panics if `new_dim > self.dim()`.
    pub fn truncate(&mut self, new_dim: usize) {
        assert!(new_dim <= self.n, "truncate beyond current dimension");
        self.n = new_dim;
        self.l.truncate(new_dim * (new_dim + 1) / 2);
    }

    /// Removes interior row/column `k` of the factored matrix.
    ///
    /// Rows above `k` are untouched; rows below shift up and the trailing
    /// block absorbs the deleted column through a positive rank-1
    /// (Givens-style) update, costing O((n−k)²).
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.dim()`.
    pub fn remove(&mut self, k: usize) {
        let n = self.n;
        assert!(k < n, "remove index out of bounds");
        if k == n - 1 {
            self.truncate(n - 1);
            return;
        }
        // Save the deleted column below the diagonal, then shift rows up.
        self.w.clear();
        for i in k + 1..n {
            self.w.push(self.l[i * (i + 1) / 2 + k]);
        }
        for i in k + 1..n {
            let old = i * (i + 1) / 2;
            let new = (i - 1) * i / 2;
            // Writes land strictly below the source row, so ascending order
            // never clobbers unread data.
            self.l.copy_within(old..old + k, new);
            self.l.copy_within(old + k + 1..old + i + 1, new + k);
        }
        self.n = n - 1;
        self.l.truncate(self.n * (self.n + 1) / 2);
        // Rank-1 update of the trailing block: A' = L₃₃L₃₃ᵀ + wwᵀ.
        let m = self.n - k;
        for t in 0..m {
            let row = k + t;
            let dpos = row * (row + 1) / 2 + row;
            let lkk = self.l[dpos];
            let x = self.w[t];
            let r = lkk.hypot(x);
            let c = r / lkk;
            let s = x / lkk;
            self.l[dpos] = r;
            for i in t + 1..m {
                let pos = (k + i) * (k + i + 1) / 2 + row;
                let updated = (self.l[pos] + s * self.w[i]) / c;
                self.l[pos] = updated;
                self.w[i] = c * self.w[i] - s * updated;
            }
        }
    }

    /// Solves `A·x = b` in place (`x` holds `b` on entry, the solution on
    /// exit): forward substitution by row dots, then the backward solve as a
    /// row sweep over the packed rows of `L`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        solve_packed(&self.l, x);
    }
}

dispatch! {
    /// Forward substitution `L·y = b` in place against the leading
    /// `x.len()` rows of a packed row-major lower factor.
    fn forward_packed(l: &[f64], x: &mut [f64]) => forward_with
}

dispatch! {
    /// Both triangular solves of `L·Lᵀ·x = b` in place, under one dispatch.
    fn solve_packed(l: &[f64], x: &mut [f64]) => solve_with
}

/// Forward substitution as row dots: `xᵢ = (bᵢ − L[i, ..i]·x[..i]) / Lᵢᵢ`.
#[inline(always)]
fn forward_with<K: Kernels>(k: K, l: &[f64], x: &mut [f64]) {
    for i in 0..x.len() {
        let row = &l[i * (i + 1) / 2..][..=i];
        let (done, rest) = x.split_at_mut(i);
        rest[0] = (rest[0] - k.dot(&row[..i], done)) / row[i];
    }
}

/// `L·y = b`, then `Lᵀ·x = y` as a row sweep: once `xᵢ` is final, its
/// contribution `xᵢ·L[i, ..i]` leaves the entries above it in one axpy over
/// the contiguous packed row (no strided column walk).
#[inline(always)]
fn solve_with<K: Kernels>(k: K, l: &[f64], x: &mut [f64]) {
    forward_with(k, l, x);
    for i in (0..x.len()).rev() {
        let row = &l[i * (i + 1) / 2..][..=i];
        let (above, rest) = x.split_at_mut(i);
        rest[0] /= row[i];
        k.axpy(-rest[0], &row[..i], above);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec_ops;

    #[test]
    fn factor_of_identity_is_identity() {
        let chol = Cholesky::factor(&Matrix::identity(4)).unwrap();
        assert_eq!(*chol.l(), Matrix::identity(4));
        assert_eq!(chol.log_det(), 0.0);
    }

    #[test]
    fn reconstruction_matches_input() {
        let a = Matrix::from_rows(&[&[6.0, 3.0, 1.0], &[3.0, 5.0, 2.0], &[1.0, 2.0, 4.0]]).unwrap();
        let chol = Cholesky::factor(&a).unwrap();
        let rebuilt = chol.l().mul_mat(&chol.l().transpose()).unwrap();
        assert!((&rebuilt - &a).unwrap().norm_max() < 1e-13);
    }

    #[test]
    fn solve_matches_lu() {
        let a = Matrix::from_rows(&[&[6.0, 3.0, 1.0], &[3.0, 5.0, 2.0], &[1.0, 2.0, 4.0]]).unwrap();
        let b = [1.0, -1.0, 2.5];
        let x_chol = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        let x_lu = crate::lu::solve(&a, &b).unwrap();
        assert!(vec_ops::approx_eq(&x_chol, &x_lu, 1e-12));
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::factor(&a),
            Err(Error::NotPositiveDefinite)
        ));
    }

    #[test]
    fn rejects_rectangular() {
        assert!(matches!(
            Cholesky::factor(&Matrix::zeros(2, 3)),
            Err(Error::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_wrong_rhs_length() {
        let chol = Cholesky::factor(&Matrix::identity(2)).unwrap();
        assert!(chol.solve(&[1.0, 2.0, 3.0]).is_err());
    }

    fn pseudo(seed: &mut u64) -> f64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        ((seed.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }

    fn random_spd(n: usize, seed: &mut u64) -> Matrix {
        let g = Matrix::from_fn(n, n, |_, _| pseudo(seed));
        let mut a = g.mul_mat(&g.transpose()).unwrap();
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    fn updatable_from(a: &Matrix) -> UpdatableCholesky {
        let mut up = UpdatableCholesky::new();
        for i in 0..a.rows() {
            let col: Vec<f64> = (0..=i).map(|j| a[(i, j)]).collect();
            up.append(&col).unwrap();
        }
        up
    }

    #[test]
    fn incremental_appends_match_batch_factor() {
        let mut seed = 0xabcdu64;
        let a = random_spd(7, &mut seed);
        let up = updatable_from(&a);
        assert_eq!(up.dim(), 7);
        let b: Vec<f64> = (0..7).map(|_| pseudo(&mut seed)).collect();
        let mut x = b.clone();
        up.solve_in_place(&mut x);
        let expect = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        assert!(vec_ops::approx_eq(&x, &expect, 1e-10));
    }

    #[test]
    fn interior_removal_matches_downdated_matrix() {
        let mut seed = 0x5eedu64;
        let n = 8;
        let a = random_spd(n, &mut seed);
        for k in [0, 3, n - 1] {
            let mut up = updatable_from(&a);
            up.remove(k);
            assert_eq!(up.dim(), n - 1);
            let keep: Vec<usize> = (0..n).filter(|&i| i != k).collect();
            let reduced = Matrix::from_fn(n - 1, n - 1, |i, j| a[(keep[i], keep[j])]);
            let b: Vec<f64> = (0..n - 1).map(|_| pseudo(&mut seed)).collect();
            let mut x = b.clone();
            up.solve_in_place(&mut x);
            let expect = Cholesky::factor(&reduced).unwrap().solve(&b).unwrap();
            assert!(vec_ops::approx_eq(&x, &expect, 1e-9), "k={k}");
        }
    }

    #[test]
    fn repeated_mutation_stays_consistent() {
        let mut seed = 0x77u64;
        let n = 10;
        let a = random_spd(n, &mut seed);
        let mut up = updatable_from(&a);
        up.remove(2);
        up.remove(5);
        up.truncate(6);
        let keep: Vec<usize> = (0..n).filter(|&i| i != 2 && i != 6).take(6).collect();
        let reduced = Matrix::from_fn(6, 6, |i, j| a[(keep[i], keep[j])]);
        let b: Vec<f64> = (0..6).map(|_| pseudo(&mut seed)).collect();
        let mut x = b.clone();
        up.solve_in_place(&mut x);
        let expect = Cholesky::factor(&reduced).unwrap().solve(&b).unwrap();
        assert!(vec_ops::approx_eq(&x, &expect, 1e-9));
    }

    #[test]
    fn block_append_matches_per_row_appends() {
        let mut seed = 0xb10cu64;
        let n = 9;
        let a = random_spd(n, &mut seed);
        for split in [0usize, 3, 7] {
            // Build the first `split` rows one at a time, the rest in a block.
            let mut up = UpdatableCholesky::new();
            for i in 0..split {
                let col: Vec<f64> = (0..=i).map(|j| a[(i, j)]).collect();
                up.append(&col).unwrap();
            }
            let mut cols = Vec::new();
            for i in split..n {
                cols.extend((0..=i).map(|j| a[(i, j)]));
            }
            let mut ws = Workspace::new();
            up.append_block(n - split, &cols, &mut ws).unwrap();
            assert_eq!(up.dim(), n);
            let b: Vec<f64> = (0..n).map(|_| pseudo(&mut seed)).collect();
            let mut x = b.clone();
            up.solve_in_place(&mut x);
            let expect = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
            assert!(vec_ops::approx_eq(&x, &expect, 1e-9), "split={split}");
        }
    }

    /// Random append / blocked-append / interior-remove sequences ending at
    /// dimension `m`, checked against a fresh dense factor of the surviving
    /// principal submatrix. The sizes straddle the 16- and 4-wide kernel
    /// blocks and their tails.
    #[test]
    fn mutated_factor_solves_match_dense_factor() {
        let mut seed = 0x50_1ceu64;
        let mut ws = Workspace::new();
        for m in [1usize, 3, 16, 17, 64, 200] {
            let pool = m + 12;
            let a = random_spd(pool, &mut seed);
            let mut up = UpdatableCholesky::new();
            // `order[r]` is the row of `a` held in factor row `r`.
            let mut order: Vec<usize> = Vec::new();
            let mut unused: Vec<usize> = (0..pool).rev().collect();
            let append_rows = |up: &mut UpdatableCholesky,
                               order: &mut Vec<usize>,
                               new: &[usize],
                               ws: &mut Workspace| {
                let mut cols = Vec::new();
                for (j, &gi) in new.iter().enumerate() {
                    let prefix = order.iter().chain(&new[..=j]);
                    cols.extend(prefix.map(|&gj| a[(gi, gj)]));
                }
                if new.len() == 1 {
                    up.append(&cols).unwrap();
                } else {
                    up.append_block(new.len(), &cols, ws).unwrap();
                }
                order.extend_from_slice(new);
            };
            for _ in 0..3 * m + 4 {
                let op = (pseudo(&mut seed).abs() * 3.0) as usize;
                if op == 2 && !order.is_empty() {
                    let pos = ((pseudo(&mut seed).abs() * order.len() as f64) as usize)
                        .min(order.len() - 1);
                    up.remove(pos);
                    unused.push(order.remove(pos));
                } else if !unused.is_empty() {
                    let want = if op == 1 { 1 + (m / 4).max(1) } else { 1 };
                    let k = want.min(unused.len());
                    let new: Vec<usize> = unused.split_off(unused.len() - k);
                    append_rows(&mut up, &mut order, &new, &mut ws);
                }
            }
            while order.len() > m {
                up.remove(0);
                unused.push(order.remove(0));
            }
            while order.len() < m {
                let new = vec![unused.pop().unwrap()];
                append_rows(&mut up, &mut order, &new, &mut ws);
            }
            assert_eq!(up.dim(), m);
            let reduced = Matrix::from_fn(m, m, |i, j| a[(order[i], order[j])]);
            let b: Vec<f64> = (0..m).map(|_| pseudo(&mut seed)).collect();
            let mut x = b.clone();
            up.solve_in_place(&mut x);
            let expect = Cholesky::factor(&reduced).unwrap().solve(&b).unwrap();
            let err = x
                .iter()
                .zip(&expect)
                .fold(0.0f64, |e, (u, v)| e.max((u - v).abs()));
            assert!(
                err <= 1e-10 * vec_ops::norm_inf(&expect),
                "m={m}: max error {err:.3e}"
            );
        }
    }

    #[test]
    fn block_append_rejects_indefinite_block_without_commit() {
        let mut up = UpdatableCholesky::new();
        up.append(&[4.0]).unwrap();
        // Rows 1 and 2 make the matrix singular (row 2 = row 1).
        let cols = [2.0, 2.0, 2.0, 2.0, 2.0];
        let mut ws = Workspace::new();
        assert!(matches!(
            up.append_block(2, &cols, &mut ws),
            Err(Error::NotPositiveDefinite)
        ));
        assert_eq!(up.dim(), 1, "failed block append must not commit rows");
        let mut x = vec![8.0];
        up.solve_in_place(&mut x);
        assert!((x[0] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn append_rejects_indefinite_extension_and_preserves_factor() {
        let mut up = UpdatableCholesky::new();
        up.append(&[4.0]).unwrap();
        // New row makes the 2×2 matrix singular: [[4, 2], [2, 1]].
        assert!(matches!(
            up.append(&[2.0, 1.0]),
            Err(Error::NotPositiveDefinite)
        ));
        assert_eq!(up.dim(), 1);
        let mut x = vec![8.0];
        up.solve_in_place(&mut x);
        assert!((x[0] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn log_det_matches_lu_det() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 9.0]]).unwrap();
        let ld = Cholesky::factor(&a).unwrap().log_det();
        let det = crate::lu::Lu::factor(&a).unwrap().det();
        assert!((ld - det.ln()).abs() < 1e-12);
    }
}
