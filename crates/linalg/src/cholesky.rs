//! Cholesky factorization for symmetric positive-definite systems.
//!
//! The MPC Hessian of paper eq. 42 is symmetric positive definite whenever
//! its input ridge `R ≻ 0`, so each IDC's chain of it is factored and
//! inverted by [`Cholesky`], which is roughly twice as fast as LU and
//! certifies definiteness as a side effect. The active-set loop's working
//! set is held by the rank-1-updatable [`UpdatableCholesky`] and
//! [`ArrowheadCholesky`].

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
    ///   positive (or is NaN).
    pub fn factor(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(Error::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        // Row by row: row `i` of `L` from the rows above it, each entry
        // one dot over the leading columns.
        for i in 0..n {
            let (done, rest) = l.as_mut_slice().split_at_mut(i * n);
            let li = &mut rest[..=i];
            let ai = a.row(i);
            for j in 0..i {
                let lj = &done[j * n..=j * n + j];
                let mut acc = ai[j];
                for (&x, &y) in li[..j].iter().zip(lj) {
                    acc -= x * y;
                }
                li[j] = acc / lj[j];
            }
            let mut acc = ai[i];
            for &x in &li[..i] {
                acc -= x * x;
            }
            if acc.is_nan() || acc <= 0.0 {
                return Err(Error::NotPositiveDefinite);
            }
            li[i] = acc.sqrt();
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

    /// The inverse `A⁻¹`, through `Z = L⁻¹`: `A⁻¹ = ZᵀZ`, formed on the
    /// lower triangle and mirrored, so the result is exactly symmetric.
    ///
    /// Plain row-slice loops that keep every multiply and add apart, so
    /// the result is the same bits on every host.
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        let l = self.l.as_slice();
        // Row `i` of `Z` is `(eᵢ − Σ_{k<i} L[i,k]·Z[k,..])/L[i,i]`, and
        // row `k` of `Z` is zero past column `k`.
        let mut z = vec![0.0; n * n];
        for i in 0..n {
            let (done, rest) = z.split_at_mut(i * n);
            let zi = &mut rest[..=i];
            zi[i] = 1.0;
            for (k, &lik) in l[i * n..i * n + i].iter().enumerate() {
                for (v, &zk) in zi.iter_mut().zip(&done[k * n..=k * n + k]) {
                    *v -= lik * zk;
                }
            }
            let d = l[i * n + i];
            for v in zi.iter_mut() {
                *v /= d;
            }
        }
        // A⁻¹[i, j] = Σ_{k≥i} Z[k,i]·Z[k,j] for j ≤ i: row `i` accumulates
        // the leading `i + 1` entries of every row of `Z` from `i` on.
        let mut inv = Matrix::zeros(n, n);
        let x = inv.as_mut_slice();
        for i in 0..n {
            let xi = &mut x[i * n..=i * n + i];
            for zk in z[i * n..].chunks_exact(n) {
                let c = zk[i];
                for (v, &w) in xi.iter_mut().zip(zk) {
                    *v += c * w;
                }
            }
        }
        for i in 0..n {
            for j in 0..i {
                x[j * n + i] = x[i * n + j];
            }
        }
        inv
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
/// Refactoring from scratch is O(n³); this type instead maintains the
/// lower factor `L` of a matrix `A = L·Lᵀ` under single row/column
/// appends (one triangular solve), end truncations (free), interior
/// removals (a Givens-style rank-1 update of the trailing block), and
/// rank-1 updates `A ± v·vᵀ`. It is the building block of
/// [`ArrowheadCholesky`], the active-set QP loop's working-set factor: one
/// `UpdatableCholesky` per independent chain of working rows, plus one for
/// the equality rows that couple them.
///
/// Storage is a packed column-major lower triangle with a capacity `cap`:
/// column `j` keeps `cap − j` slots, its diagonal first, so `L[i, j]`
/// (`i ≥ j`) lives at `j·cap − j(j+1)/2 + i` and the slots past the current
/// dimension are unused. Each column below its diagonal is therefore
/// contiguous, and that is the axis every O(n²) kernel walks: a rank-1
/// change's rotations sweep one column at a time against a contiguous
/// carry vector, the forward solve runs as column axpys
/// `x[j+1..] −= xⱼ·L[j+1.., j]` and the backward solve as column dots. An
/// append writes one strided row; the capacity doubles when it is reached,
/// so appends stay amortized O(n²), and a factor that never grows (the
/// arrowhead tail) is held without slack. Every kernel runs on the
/// [`simd`](crate::simd) paths, picked once per call, and the rotation
/// sweeps round bitwise alike on both.
#[derive(Debug, Clone, Default)]
pub struct UpdatableCholesky {
    n: usize,
    /// The largest dimension held without regrowing.
    cap: usize,
    /// Packed column-major lower triangle of `L`, `cap·(cap+1)/2` slots
    /// (see [`col_base`]).
    l: Vec<f64>,
    /// Reciprocals of the diagonal of `L`, so the triangular solves'
    /// serial chains multiply instead of divide.
    inv: Vec<f64>,
    /// Scratch for appends, removals and rank-1 changes.
    w: Vec<f64>,
    /// Second scratch vector (the downdate's rotation cosines).
    v: Vec<f64>,
}

impl UpdatableCholesky {
    /// Creates an empty (0×0) factor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets to the empty factor, keeping allocations.
    pub fn clear(&mut self) {
        self.n = 0;
        self.inv.clear();
    }

    /// Current factored dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Diagonal entry `L[i, i]`.
    fn diag(&self, i: usize) -> f64 {
        self.l[col_base(self.cap, i) + i]
    }

    /// Grows the capacity to hold dimension `need`, moving the held
    /// columns.
    fn reserve(&mut self, need: usize) {
        if need <= self.cap {
            return;
        }
        let (old, n) = (self.cap, self.n);
        let cap = need.max(2 * old);
        let mut l = vec![0.0; cap * (cap + 1) / 2];
        for j in 0..n {
            let (to, from) = (col_base(cap, j), col_base(old, j));
            l[to + j..to + n].copy_from_slice(&self.l[from + j..from + n]);
        }
        self.l = l;
        self.cap = cap;
    }

    /// Recomputes the diagonal reciprocals from row `from` on.
    fn refresh_inv(&mut self, from: usize) {
        self.inv.truncate(from);
        for i in from..self.n {
            self.inv.push(self.diag(i));
        }
        for d in &mut self.inv[from..] {
            *d = 1.0 / *d;
        }
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
        self.append_scaled(col, col[col.len() - 1])
    }

    /// [`append`](Self::append) with the pivot judged against `scale`
    /// instead of the new diagonal entry: the row is rejected when its
    /// pivot is at most `1e-12·|scale|`.
    fn append_scaled(&mut self, col: &[f64], scale: f64) -> Result<()> {
        let n = self.n;
        assert_eq!(col.len(), n + 1, "append column has wrong length");
        let mut w = std::mem::take(&mut self.w);
        w.clear();
        w.extend_from_slice(&col[..n]);
        forward_cols(self, &mut w);
        let d2 = col[n] - w.iter().map(|v| v * v).sum::<f64>();
        let result = if d2 <= 0.0 || d2 <= 1e-12 * scale.abs() {
            Err(Error::NotPositiveDefinite)
        } else {
            let d = d2.sqrt();
            self.reserve(n + 1);
            let cap = self.cap;
            for (j, &wj) in w.iter().enumerate() {
                self.l[col_base(cap, j) + n] = wj;
            }
            self.l[col_base(cap, n) + n] = d;
            self.inv.push(1.0 / d);
            self.n += 1;
            Ok(())
        };
        self.w = w;
        result
    }

    /// Appends `k` symmetric rows/columns in one blocked operation.
    ///
    /// `cols` concatenates the [`append`](Self::append) columns of the `k`
    /// new rows: row `j` contributes the `n + j + 1` entries `[a(n+j, 0), …,
    /// a(n+j, n+j)]`, where `n` is the dimension before the call — total
    /// length `k·n + k·(k+1)/2`, i.e. exactly what `k` successive `append`
    /// calls would consume.
    ///
    /// The off-diagonal factor block `L21 = F·L11⁻ᵀ` comes from forward
    /// substitution over its `n` columns (each of height `k`, in scratch
    /// from `ws`), the k×k Schur complement `S22 − L21·L21ᵀ` is assembled in
    /// place as one column axpy per entry of `L21`, and factored there by
    /// right-looking column sweeps. Diagonal pivots must pass the same
    /// relative positivity test as [`append`](Self::append).
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
        let row = |j: usize| &cols[j * n + j * (j + 1) / 2..][..n + j + 1];
        // L21, one column of height k per existing row.
        let mut l21 = ws.take(k * n);
        for j in 0..k {
            for (c, &f) in row(j)[..n].iter().enumerate() {
                l21[c * k + j] = f;
            }
        }
        couple_cols(self, &mut l21, k, 0);
        // S22 − L21·L21ᵀ in its place in L, factored there; the new rows
        // become part of the factor only once every pivot has passed.
        self.reserve(n + k);
        let cap = self.cap;
        let mut scale = ws.take(k);
        for j in 0..k {
            let a = row(j);
            for (i, &s) in a[n..].iter().enumerate() {
                self.l[col_base(cap, n + i) + n + j] = s;
            }
            scale[j] = a[n + j];
        }
        gram_downdate_cols(&mut self.l, cap, n, &l21, k);
        let result = factor_cols(&mut self.l, cap, n, &scale);
        if result.is_ok() {
            for (c, col) in l21.chunks_exact(k).enumerate() {
                let at = col_base(cap, c) + n;
                self.l[at..at + k].copy_from_slice(col);
            }
            self.n += k;
            self.refresh_inv(n);
        }
        ws.put(l21);
        ws.put(scale);
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
        self.inv.truncate(new_dim);
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
        self.remove_carrying(k, &mut Vec::new(), &mut []);
    }

    /// [`remove`](Self::remove) for a factor that continues below with
    /// `h = z.len()` carried rows `C` (`h × n`, stored column-major in
    /// `carried`: column `c` is `carried[c·h..(c+1)·h]`), i.e. the lower
    /// block-triangular factor `[L 0; C L₂]` of a larger matrix.
    ///
    /// Column `k` leaves `carried` with row `k`, and the Givens rotations
    /// that restore the trailing block are applied to the carried columns
    /// too, so the coupling `L·Cᵀ` of the kept rows is preserved exactly.
    /// What the rotations push out of `C` is left in `z`: the carried rows'
    /// Gram matrix `C·Cᵀ` shrinks by `z·zᵀ`, which the caller must add to
    /// `L₂·L₂ᵀ` (a rank-1 [`update`](Self::update)). With `h = 0` this is
    /// exactly [`remove`](Self::remove).
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.dim()` or `carried.len() != self.dim()·z.len()`.
    pub fn remove_carrying(&mut self, k: usize, carried: &mut Vec<f64>, z: &mut [f64]) {
        let n = self.n;
        let h = z.len();
        assert!(k < n, "remove index out of bounds");
        assert_eq!(carried.len(), n * h, "carried columns have wrong length");
        z.copy_from_slice(&carried[k * h..(k + 1) * h]);
        carried.copy_within((k + 1) * h.., k * h);
        carried.truncate((n - 1) * h);
        if k == n - 1 {
            self.truncate(n - 1);
            return;
        }
        let cap = self.cap;
        // Save the deleted column below the diagonal; the columns left of
        // it lose row k, the columns right of it move one column left and
        // one row up. Ascending order only ever writes data already read.
        let mut w = std::mem::take(&mut self.w);
        w.clear();
        let at = col_base(cap, k);
        w.extend_from_slice(&self.l[at + k + 1..at + n]);
        for j in 0..k {
            let at = col_base(cap, j);
            self.l.copy_within(at + k + 1..at + n, at + k);
        }
        for j in k + 1..n {
            let (from, to) = (col_base(cap, j), col_base(cap, j - 1));
            self.l.copy_within(from + j..from + n, to + j - 1);
        }
        self.n = n - 1;
        // Rank-1 update of the trailing block: A' = L₃₃L₃₃ᵀ + wwᵀ.
        rotate_in_cols(&mut self.l, cap, k, &mut w, carried, z);
        self.w = w;
        self.refresh_inv(k);
    }

    /// Rank-1 update: refactors `A + v·vᵀ` in place by Givens rotations,
    /// O(n²). Always succeeds (the sum stays positive definite).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()`.
    pub fn update(&mut self, v: &[f64]) {
        assert_eq!(v.len(), self.n, "update vector has wrong length");
        let mut w = std::mem::take(&mut self.w);
        w.clear();
        w.extend_from_slice(v);
        rotate_in_cols(&mut self.l, self.cap, 0, &mut w, &mut [], &mut []);
        self.w = w;
        self.refresh_inv(0);
    }

    /// Rank-1 downdate: refactors `A − v·vᵀ` in place, O(n²), as LINPACK
    /// `dchdd` (Gill, Golub, Murray & Saunders, 1974): `p = L⁻¹v`, then
    /// rotations that fold `p` into `L`.
    ///
    /// `1 − ‖p‖²` is the determinant ratio `det(A − vvᵀ)/det(A)`. The
    /// downdate is refused unless it exceeds both `0` and `min_ratio` — the
    /// caller's bound on how close to singular the result may come.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotPositiveDefinite`] with the factor **unchanged**
    /// when the ratio test fails; nothing is written before the test.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()`.
    pub fn downdate(&mut self, v: &[f64], min_ratio: f64) -> Result<()> {
        let n = self.n;
        assert_eq!(v.len(), n, "downdate vector has wrong length");
        let mut s = std::mem::take(&mut self.w);
        s.clear();
        s.extend_from_slice(v);
        forward_cols(self, &mut s);
        let ratio = 1.0 - s.iter().map(|p| p * p).sum::<f64>();
        let result = if ratio > 0.0 && ratio > min_ratio {
            let mut c = std::mem::take(&mut self.v);
            c.clear();
            c.resize(n, 0.0);
            downdate_rotations(ratio, &mut c, &mut s);
            downdate_cols(&mut self.l, self.cap, &c, &mut s, &mut [], &mut []);
            self.v = c;
            self.refresh_inv(0);
            Ok(())
        } else {
            Err(Error::NotPositiveDefinite)
        };
        self.w = s;
        result
    }

    /// Solves `A·x = b` in place (`x` holds `b` on entry, the solution on
    /// exit): forward substitution by column axpys, then the backward solve
    /// by column dots.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        solve_cols(self, x);
    }

    /// Forward substitution only: `x ← L⁻¹·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn forward_in_place(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        forward_cols(self, x);
    }

    /// Backward substitution only: `x ← L⁻ᵀ·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn backward_in_place(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        backward_cols(self, x);
    }
}

/// The cosines and sines of a `dchdd` downdate's rotations, taken from the
/// last entry of `p` to the first, turning `(p, √start)` into `(0, 1)`: `s`
/// holds `p` on entry and the sines on exit. Rotation `k` has the running
/// norm `νₖ = √(start + Σ_{i≥k} pᵢ²)`, cosine `νₖ₊₁/νₖ` and sine `pₖ/νₖ`.
/// The squared norms are one running sum, so the roots and quotients do
/// not wait on each other, unlike `dchdd`'s recurrence
/// `νₖ = √(νₖ₊₁² + pₖ²)`. Returns `ν₀²`, which a factor continuing above
/// (an arrowhead chain above its tail) starts its own rotations from.
fn downdate_rotations(start: f64, c: &mut [f64], s: &mut [f64]) -> f64 {
    // dchdd scales each pair by `νₖ₊₁ + |pₖ|` against overflow; here
    // `ν ≤ 1` and `|pₖ| < 1`, so the plain sums are safe.
    let mut sum = start;
    for (ck, p) in c.iter_mut().zip(s.iter()).rev() {
        sum += p * p;
        *ck = sum;
    }
    for ck in c.iter_mut() {
        *ck = ck.sqrt();
    }
    for (p, norm) in s.iter_mut().zip(c.iter()) {
        *p /= norm;
    }
    let mut next = start.sqrt();
    for ck in c.iter_mut().rev() {
        (*ck, next) = (next / *ck, *ck);
    }
    sum
}

/// Cholesky factor of a symmetric positive-definite matrix with arrowhead
/// block structure: `K` diagonal blocks `D_j` that only couple to each other
/// through a dense trailing block `G`,
///
/// ```text
///     ⎡ D₀            F₀ᵀ   ⎤            ⎡ L₀               ⎤
/// A = ⎢     ⋱         ⋮     ⎥,       L = ⎢     ⋱            ⎥
///     ⎢        D_K−1  F_K−1ᵀ⎥            ⎢        L_K−1     ⎥
///     ⎣ F₀  …  F_K−1  G     ⎦            ⎣ M₀  …  M_K−1  L_G ⎦
/// ```
///
/// with `L_j = chol(D_j)`, `M_j = F_j·L_j⁻ᵀ` and
/// `L_G = chol(G − Σ_j M_j·M_jᵀ)`. In the active-set QP the blocks are the
/// working general inequality rows of each independent Hessian chain and
/// the tail is the equality rows, so no work is spent on the exact zeros
/// between chains: a chain row's append costs a solve in its own `L_j`, one
/// new `M_j` column and a rank-1 downdate of `L_G`; a removal rotates only
/// its own chain (and `M_j`'s columns) and rank-1 updates `L_G`. Fixing or
/// freeing a bounded variable changes one chain's block and the tail by a
/// rank-1 term: [`downdate`](Self::downdate) and [`update`](Self::update).
///
/// Each `L_j` and `L_G` is an [`UpdatableCholesky`]; `M_j` is stored
/// column-major, one column of height `dim(G)` per row of chain `j`.
/// Vectors are ordered `[chain 0 | … | chain K−1 | tail]`.
///
/// The factor is built from scratch by [`build_chain`](Self::build_chain)
/// for every chain followed by [`build_tail`](Self::build_tail), then kept
/// current by [`append`](Self::append), [`remove`](Self::remove) and the
/// rank-1 changes.
#[derive(Debug, Clone, Default)]
pub struct ArrowheadCholesky {
    chains: Vec<ArrowChain>,
    /// Factor `L_G` of the tail's Schur complement.
    tail: UpdatableCholesky,
    /// Tail dimension `dim(G)`, the height of every coupling column.
    h: usize,
    /// Whether [`build_tail`](Self::build_tail) has run since the reset.
    built: bool,
    /// Scratch for a removal's leftover coupling column.
    z: Vec<f64>,
    /// Scratch pool for the blocked builds.
    ws: Workspace,
}

/// One diagonal block of an [`ArrowheadCholesky`].
#[derive(Debug, Clone, Default)]
struct ArrowChain {
    /// `L_j`.
    l: UpdatableCholesky,
    /// `M_j`, column-major: column `c` (chain row `c`) is
    /// `coupling[c·h..(c+1)·h]`.
    coupling: Vec<f64>,
}

impl ArrowheadCholesky {
    /// Creates an empty factor with no chains and an empty tail.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the factor and sets its shape: `chains` empty diagonal
    /// blocks and a tail of dimension `tail`, not yet built. Keeps
    /// allocations.
    pub fn reset(&mut self, chains: usize, tail: usize) {
        self.chains.truncate(chains);
        for chain in &mut self.chains {
            chain.l.clear();
            chain.coupling.clear();
        }
        self.chains.resize_with(chains, ArrowChain::default);
        self.tail.clear();
        self.h = tail;
        self.built = false;
    }

    /// Whether the tail has been built, so the factor can be appended to
    /// and solved with.
    pub fn is_built(&self) -> bool {
        self.built
    }

    /// Dimension of chain `j`'s block.
    pub fn chain_dim(&self, j: usize) -> usize {
        self.chains[j].l.dim()
    }

    /// Total factored dimension (the tail counts once built).
    pub fn dim(&self) -> usize {
        let chains: usize = self.chains.iter().map(|c| c.l.dim()).sum();
        chains + if self.built { self.h } else { 0 }
    }

    /// Factors chain `j`'s block from scratch: `cols` holds `D_j` in
    /// [`UpdatableCholesky::append_block`] layout (`k` rows of the packed
    /// lower triangle) and `coupling` holds `F_j` column-major (`k` columns
    /// of height `dim(G)`: the tail entries of each chain row). `L_j` comes
    /// from the blocked append and `M_j` by forward substitution over its
    /// columns.
    ///
    /// # Errors
    ///
    /// [`Error::NotPositiveDefinite`] (chain left empty) on a pivot that
    /// fails the relative test of [`UpdatableCholesky::append`].
    ///
    /// # Panics
    ///
    /// Panics if the tail is already built, the chain is not empty, or a
    /// buffer has the wrong length.
    pub fn build_chain(
        &mut self,
        j: usize,
        k: usize,
        cols: &[f64],
        coupling: &[f64],
    ) -> Result<()> {
        assert!(!self.built, "build_chain after build_tail");
        assert_eq!(
            coupling.len(),
            k * self.h,
            "coupling block has wrong length"
        );
        let chain = &mut self.chains[j];
        assert_eq!(chain.l.dim(), 0, "build_chain on a non-empty chain");
        chain.l.append_block(k, cols, &mut self.ws)?;
        chain.coupling.clear();
        chain.coupling.extend_from_slice(coupling);
        couple_cols(&chain.l, &mut chain.coupling, self.h, 0);
        Ok(())
    }

    /// Builds the tail `L_G = chol(G − Σ_j M_j·M_jᵀ)` from `g`, the packed
    /// lower triangle of `G` (row `e` holds `e + 1` entries). Each pivot
    /// must pass [`UpdatableCholesky::append`]'s relative test against
    /// `scale[e]`: `G`'s own diagonal, or, when `G` is itself a Schur
    /// complement, the diagonal of the matrix it was reduced from (as for
    /// a chain row's [`append`](Self::append)).
    ///
    /// # Errors
    ///
    /// [`Error::NotPositiveDefinite`] (tail left unbuilt) when the Schur
    /// complement is not safely positive definite.
    ///
    /// # Panics
    ///
    /// Panics if the tail is already built or a buffer has the wrong length.
    pub fn build_tail(&mut self, g: &[f64], scale: &[f64]) -> Result<()> {
        let h = self.h;
        assert!(!self.built, "tail already built");
        assert_eq!(g.len(), h * (h + 1) / 2, "tail block has wrong length");
        assert_eq!(scale.len(), h, "tail scales have wrong length");
        let tail = &mut self.tail;
        tail.clear();
        tail.reserve(h);
        let cap = tail.cap;
        for e in 0..h {
            for (c, &v) in g[e * (e + 1) / 2..][..=e].iter().enumerate() {
                tail.l[col_base(cap, c) + e] = v;
            }
        }
        for chain in &self.chains {
            gram_downdate_cols(&mut tail.l, cap, 0, &chain.coupling, h);
        }
        // A pivot must pass against the Schur complement's own diagonal
        // (the blocked append's test) and against `scale`.
        let mut eff = self.ws.take(h);
        for (e, s) in eff.iter_mut().enumerate() {
            *s = tail.diag(e).abs().max(scale[e].abs());
        }
        let result = factor_cols(&mut tail.l, cap, 0, &eff);
        if result.is_ok() {
            tail.n = h;
            tail.refresh_inv(0);
        }
        self.ws.put(eff);
        self.built = result.is_ok();
        result
    }

    /// Appends one row to the end of chain `j`: `col` is its
    /// [`UpdatableCholesky::append`] column within the chain (length
    /// `chain_dim(j) + 1`, the diagonal last) and `coupling` its `dim(G)`
    /// tail entries.
    ///
    /// The dense-equivalent pivot — the new row's Schur complement against
    /// every other row, tail included — is `d²·(1 − ‖L_G⁻¹m‖²)`, with `d²`
    /// the chain pivot and `m` the new `M_j` column. The row is rejected
    /// when that pivot is at most `1e-12·|scale|`, the test
    /// [`UpdatableCholesky::append`] applies to a dense factor holding the
    /// same rows when `scale` is the new diagonal entry `a(new, new)`. A
    /// caller whose matrix is itself a Schur complement passes the diagonal
    /// of the matrix it was reduced from, so the test reads as if the
    /// eliminated rows were still held.
    ///
    /// # Errors
    ///
    /// [`Error::NotPositiveDefinite`] with the factor **unchanged** when the
    /// pivot test fails.
    ///
    /// # Panics
    ///
    /// Panics if the tail is not built or a buffer has the wrong length.
    pub fn append(&mut self, j: usize, col: &[f64], coupling: &[f64], scale: f64) -> Result<()> {
        let h = self.h;
        assert!(self.built, "append before build_tail");
        assert_eq!(coupling.len(), h, "coupling column has wrong length");
        let chain = &mut self.chains[j];
        let b = chain.l.dim();
        chain.l.append_scaled(col, scale)?;
        let d = chain.l.diag(b);
        chain.coupling.extend_from_slice(coupling);
        couple_cols(&chain.l, &mut chain.coupling, h, b);
        let min_ratio = 1e-12 * scale.abs() / (d * d);
        let result = self.tail.downdate(&chain.coupling[b * h..], min_ratio);
        if result.is_err() {
            chain.coupling.truncate(b * h);
            chain.l.truncate(b);
        }
        result
    }

    /// Removes row `k` of chain `j`: the chain's rotations also rotate
    /// `M_j`'s columns, and what they push out of `M_j` re-enters the tail
    /// as a rank-1 update of `L_G`.
    ///
    /// # Panics
    ///
    /// Panics if the tail is not built or `k >= chain_dim(j)`.
    pub fn remove(&mut self, j: usize, k: usize) {
        assert!(self.built, "remove before build_tail");
        let chain = &mut self.chains[j];
        self.z.clear();
        self.z.resize(self.h, 0.0);
        chain.l.remove_carrying(k, &mut chain.coupling, &mut self.z);
        self.tail.update(&self.z);
    }

    /// Rank-1 update `A + v·vᵀ` for a `v` that is zero outside chain `j`'s
    /// rows and the tail: `v` holds its `chain_dim(j)` chain entries and
    /// `v_tail` its `dim(G)` tail entries. Givens rotations fold `v` into
    /// `L_j`, carrying `M_j`'s columns, and what they leave of the tail
    /// part re-enters `L_G` as a rank-1 update — the rotations of
    /// [`remove`](Self::remove) without the removal. Always succeeds.
    ///
    /// # Panics
    ///
    /// Panics if the tail is not built or a vector has the wrong length.
    pub fn update(&mut self, j: usize, v: &[f64], v_tail: &[f64]) {
        assert!(self.built, "update before build_tail");
        assert_eq!(v_tail.len(), self.h, "tail vector has wrong length");
        let chain = &mut self.chains[j];
        assert_eq!(v.len(), chain.l.dim(), "chain vector has wrong length");
        self.z.clear();
        self.z.extend_from_slice(v_tail);
        let mut w = std::mem::take(&mut chain.l.w);
        w.clear();
        w.extend_from_slice(v);
        rotate_in_cols(
            &mut chain.l.l,
            chain.l.cap,
            0,
            &mut w,
            &mut chain.coupling,
            &mut self.z,
        );
        chain.l.w = w;
        chain.l.refresh_inv(0);
        self.tail.update(&self.z);
    }

    /// Rank-1 downdate `A − v·vᵀ` for a `v` that is zero outside chain
    /// `j`'s rows and the tail (`v`, `v_tail` as in
    /// [`update`](Self::update)), as LINPACK `dchdd` on the whole factor:
    /// `p = L⁻¹v` costs a solve in `L_j`, one product with `M_j` and a
    /// solve in `L_G`; then the rotations run from the tail's last row back
    /// to the chain's first, the chain's also rotating `M_j`. Other chains
    /// meet zero entries of `p`, whose rotations are the identity.
    ///
    /// `1 − ‖p‖²` is the determinant ratio `det(A − vvᵀ)/det(A)`; the
    /// downdate is refused unless it exceeds both `0` and `min_ratio`.
    ///
    /// # Errors
    ///
    /// [`Error::NotPositiveDefinite`] with the factor **unchanged** when the
    /// ratio test fails.
    ///
    /// # Panics
    ///
    /// Panics if the tail is not built or a vector has the wrong length.
    pub fn downdate(&mut self, j: usize, v: &[f64], v_tail: &[f64], min_ratio: f64) -> Result<()> {
        let h = self.h;
        assert!(self.built, "downdate before build_tail");
        assert_eq!(v_tail.len(), h, "tail vector has wrong length");
        let chain = &mut self.chains[j];
        let b = chain.l.dim();
        assert_eq!(v.len(), b, "chain vector has wrong length");
        let mut s = std::mem::take(&mut chain.l.w);
        s.clear();
        s.extend_from_slice(v);
        forward_cols(&chain.l, &mut s);
        let mut st = std::mem::take(&mut self.z);
        st.clear();
        st.extend_from_slice(v_tail);
        if h > 0 {
            for (col, &pc) in chain.coupling.chunks_exact(h).zip(&s) {
                for (t, &m) in st.iter_mut().zip(col) {
                    *t -= pc * m;
                }
            }
        }
        forward_cols(&self.tail, &mut st);
        let ratio = 1.0 - s.iter().chain(&st).map(|p| p * p).sum::<f64>();
        let result = if ratio > 0.0 && ratio > min_ratio {
            // The cosines of the tail's rotations, then the chain's; `s`
            // and `st` end up holding the sines (see
            // `UpdatableCholesky::downdate`).
            let mut ct = std::mem::take(&mut self.tail.v);
            let mut cc = std::mem::take(&mut chain.l.v);
            ct.clear();
            ct.resize(h, 0.0);
            cc.clear();
            cc.resize(b, 0.0);
            let rest = downdate_rotations(ratio, &mut ct, &mut st);
            downdate_rotations(rest, &mut cc, &mut s);
            // The tail's sweep leaves its rows' carries in `st`, which the
            // chain's rotations then continue through `M_j`.
            downdate_cols(
                &mut self.tail.l,
                self.tail.cap,
                &ct,
                &mut st,
                &mut [],
                &mut [],
            );
            downdate_cols(
                &mut chain.l.l,
                chain.l.cap,
                &cc,
                &mut s,
                &mut chain.coupling,
                &mut st,
            );
            self.tail.v = ct;
            chain.l.v = cc;
            self.tail.refresh_inv(0);
            chain.l.refresh_inv(0);
            Ok(())
        } else {
            Err(Error::NotPositiveDefinite)
        };
        chain.l.w = s;
        self.z = st;
        result
    }

    /// Solves `A·x = b` in place, `x` ordered `[chain 0 | … | tail]`.
    ///
    /// # Panics
    ///
    /// Panics if the tail is not built or `x.len() != self.dim()`.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        assert!(self.built, "solve before build_tail");
        assert_eq!(x.len(), self.dim(), "dimension mismatch");
        solve_arrowhead(self, x);
    }
}

dispatch! {
    /// Forward substitution `L·y = b` in place against the leading
    /// `x.len()` rows of a factor.
    fn forward_cols(f: &UpdatableCholesky, x: &mut [f64]) => forward_with
}

dispatch! {
    /// Backward substitution `Lᵀ·y = b` in place against the leading
    /// `x.len()` rows of a factor.
    fn backward_cols(f: &UpdatableCholesky, x: &mut [f64]) => backward_with
}

dispatch! {
    /// Both triangular solves of `L·Lᵀ·x = b` in place, under one dispatch.
    fn solve_cols(f: &UpdatableCholesky, x: &mut [f64]) => solve_with
}

dispatch! {
    /// Both triangular solves of an [`ArrowheadCholesky`], under one
    /// dispatch.
    fn solve_arrowhead(f: &ArrowheadCholesky, x: &mut [f64]) => arrowhead_solve_with
}

dispatch! {
    /// Rank-1 update of the trailing block from row `from` of a
    /// column-major factor (with its carried columns), by Givens rotations
    /// down the columns.
    fn rotate_in_cols(l: &mut [f64], cap: usize, from: usize, w: &mut [f64], carried: &mut [f64], z: &mut [f64]) => rotate_in_with
}

dispatch! {
    /// Applies a downdate's rotations to a column-major factor whose
    /// columns continue in carried rows.
    fn downdate_cols(l: &mut [f64], cap: usize, c: &[f64], s: &mut [f64], carried: &mut [f64], z: &mut [f64]) => downdate_with
}

dispatch! {
    /// Forward substitution of coupling columns `from..` against a factor.
    fn couple_cols(f: &UpdatableCholesky, coupling: &mut [f64], h: usize, from: usize) => couple_with
}

dispatch! {
    /// Subtracts the Gram matrix of coupling columns from a column-major
    /// lower block.
    fn gram_downdate_cols(l: &mut [f64], cap: usize, from: usize, coupling: &[f64], h: usize) => gram_downdate_with
}

dispatch! {
    /// Factors a column-major lower block in place, with relative pivot
    /// tests.
    fn factor_cols(l: &mut [f64], cap: usize, from: usize, scale: &[f64]) -> Result<()> => factor_with
}

/// Forward substitution as column axpys: once `xⱼ = bⱼ·inv[j]` is final
/// (`inv[j] = 1/Lⱼⱼ`), its contribution `xⱼ·L[j+1.., j]` leaves the entries
/// below it in one axpy over the contiguous column, split on the grid of
/// the previous column's (see [`grid_lead`]).
#[inline(always)]
fn forward_with<K: Kernels>(k: K, f: &UpdatableCholesky, x: &mut [f64]) {
    let n = x.len();
    for j in 0..n {
        let at = col_base(f.cap, j);
        let col = &f.l[at + j + 1..at + n];
        let (head, below) = x.split_at_mut(j + 1);
        let xj = head[j] * f.inv[j];
        head[j] = xj;
        let (c0, c1) = col.split_at(grid_lead(j + 1, col.len()));
        let (y0, y1) = below.split_at_mut(c0.len());
        k.axpy(-xj, c0, y0);
        k.axpy(-xj, c1, y1);
    }
}

/// `Lᵀ·x = y` as column dots: `xᵢ = (yᵢ − L[i+1.., i]·x[i+1..]) / Lᵢᵢ`,
/// each column contiguous below its diagonal. The dot starts at the first
/// multiple of 4 that lies one to four entries past the newest entry, so
/// its vector loads meet entries stored several rows earlier; those one to
/// four newest entries are subtracted after it, one at a time, the newest
/// last.
#[inline(always)]
fn backward_with<K: Kernels>(k: K, f: &UpdatableCholesky, x: &mut [f64]) {
    let n = x.len();
    for i in (0..n).rev() {
        let at = col_base(f.cap, i);
        let col = &f.l[at + i + 1..at + n];
        let (head, done) = x.split_at_mut(i + 1);
        let lead = (4 - (i + 1) % 4).min(col.len());
        let mut acc = head[i];
        if lead < col.len() {
            acc -= k.dot(&col[lead..], &done[lead..]);
        }
        for r in (0..lead).rev() {
            acc -= col[r] * done[r];
        }
        head[i] = acc * f.inv[i];
    }
}

/// `L·y = b`, then `Lᵀ·x = y`.
#[inline(always)]
fn solve_with<K: Kernels>(k: K, f: &UpdatableCholesky, x: &mut [f64]) {
    forward_with(k, f, x);
    backward_with(k, f, x);
}

/// The entries of a `len`-long sweep from index `from` of its vector that
/// precede the next multiple of 4. A sweep done in two parts split there
/// runs its vector passes on the same 4-entry grid as the sweeps before
/// and after it, so each vector load meets one earlier store and can be
/// forwarded from it: a load straddling two recent stores waits for both
/// to reach the cache.
#[inline(always)]
fn grid_lead(from: usize, len: usize) -> usize {
    (from.next_multiple_of(4) - from).min(len)
}

/// Block forward substitution down the arrowhead (each chain, then the
/// tail less `Σ M_j·y_j`), the tail's full solve, and block backward
/// substitution (each chain less `M_jᵀ·x_G`).
#[inline(always)]
fn arrowhead_solve_with<K: Kernels>(k: K, f: &ArrowheadCholesky, x: &mut [f64]) {
    let h = f.h;
    let (body, tail) = x.split_at_mut(x.len() - h);
    let mut off = 0;
    for chain in &f.chains {
        let xj = &mut body[off..off + chain.l.n];
        forward_with(k, &chain.l, xj);
        if h > 0 {
            let mut cols = chain.coupling.chunks_exact(h).zip(xj.iter());
            loop {
                match [cols.next(), cols.next(), cols.next(), cols.next()] {
                    [Some(c0), Some(c1), Some(c2), Some(c3)] => {
                        k.axpy4([-c0.1, -c1.1, -c2.1, -c3.1], [c0.0, c1.0, c2.0, c3.0], tail)
                    }
                    rest => {
                        for (col, &v) in rest.into_iter().flatten() {
                            k.axpy(-v, col, tail);
                        }
                        break;
                    }
                }
            }
        }
        off += chain.l.n;
    }
    solve_with(k, &f.tail, tail);
    if h > 0 {
        let mut off = 0;
        for chain in &f.chains {
            let xj = &mut body[off..off + chain.l.n];
            for (col, v) in chain.coupling.chunks_exact(h).zip(xj.iter_mut()) {
                *v -= k.dot(col, tail);
            }
            off += chain.l.n;
        }
    }
    let mut off = 0;
    for chain in &f.chains {
        backward_with(k, &chain.l, &mut body[off..off + chain.l.n]);
        off += chain.l.n;
    }
}

/// Adds `w·wᵀ` to the trailing block that starts at row `from` (`w` holds
/// its `n − from` entries and is consumed): column by column, a Givens
/// rotation folds `w`'s leading entry into the diagonal and is applied to
/// the rest of the contiguous column against the rest of `w`, then to
/// carried column `from + t` against the carried leftover `z` (see
/// [`UpdatableCholesky::remove_carrying`]).
#[inline(always)]
fn rotate_in_with<K: Kernels>(
    k: K,
    l: &mut [f64],
    cap: usize,
    from: usize,
    w: &mut [f64],
    carried: &mut [f64],
    z: &mut [f64],
) {
    let h = z.len();
    let n = from + w.len();
    for t in 0..w.len() {
        let row = from + t;
        let at = col_base(cap, row);
        let col = &mut l[at + row..at + n];
        let lkk = col[0];
        let x = w[t];
        let r = (lkk * lkk + x * x).sqrt();
        let (c, s, inv_c) = (r / lkk, x / lkk, lkk / r);
        col[0] = r;
        k.rotate_in(c, s, inv_c, &mut col[1..], &mut w[t + 1..]);
        k.rotate_in(c, s, inv_c, &mut carried[row * h..(row + 1) * h], z);
    }
}

/// The application half of LINPACK `dchdd` on a factor `[L 0; C L₂]`
/// whose `L₂` part was swept first (`C`: `h = z.len()` carried rows,
/// column-major as in [`UpdatableCholesky::remove_carrying`]; `h = 0` for
/// a factor on its own). Rotation `i`, from the last to the first, mixes
/// column `i` of `L` from its diagonal down with those rows' running
/// carries `s[i..]`, then carried column `i` with the carried rows'
/// carries `z`. Every row meets its rotations in the same order as in a
/// row-by-row sweep, so each entry rounds as it would there. Rotation
/// `i`'s sine is read before column `i` is swept and never again, so its
/// slot in `s` then holds row `i`'s carry.
#[inline(always)]
fn downdate_with<K: Kernels>(
    k: K,
    l: &mut [f64],
    cap: usize,
    c: &[f64],
    s: &mut [f64],
    carried: &mut [f64],
    z: &mut [f64],
) {
    let n = c.len();
    let h = z.len();
    for i in (0..n).rev() {
        let (ci, si) = (c[i], s[i]);
        s[i] = 0.0;
        let at = col_base(cap, i);
        // On the grid of the previous rotation's carries (see `grid_lead`).
        let (l0, l1) = l[at + i..at + n].split_at_mut(grid_lead(i, n - i));
        let (s0, s1) = s[i..].split_at_mut(l0.len());
        k.rotate(ci, si, l0, s0);
        k.rotate(ci, si, l1, s1);
        k.rotate(ci, si, &mut carried[i * h..(i + 1) * h], z);
    }
}

/// Forward substitution of the coupling columns `from..`:
/// `m_i = (f_i − Σ_{c<i} L[i, c]·m_c) / L[i, i]`, turning the raw tail
/// entries `F` of each chain row into `M = F·L⁻ᵀ` in place.
#[inline(always)]
fn couple_with<K: Kernels>(
    k: K,
    f: &UpdatableCholesky,
    coupling: &mut [f64],
    h: usize,
    from: usize,
) {
    if h == 0 {
        return;
    }
    for i in from..coupling.len() / h {
        let (done, rest) = coupling.split_at_mut(i * h);
        let mi = &mut rest[..h];
        for (c, col) in done.chunks_exact(h).enumerate() {
            k.axpy(-f.l[col_base(f.cap, c) + i], col, mi);
        }
        for v in mi.iter_mut() {
            *v *= f.inv[i];
        }
    }
}

/// `A −= m·mᵀ` on the lower triangle of the `m.len()`-square block of a
/// packed column-major `a` whose leading row and column are `from`, one
/// column axpy per entry of `m`. `a` is the factor's storage less its first
/// `shift` entries.
#[inline(always)]
fn sub_outer<K: Kernels>(k: K, a: &mut [f64], shift: usize, cap: usize, from: usize, m: &[f64]) {
    for (e, &me) in m.iter().enumerate() {
        let at = col_base(cap, from + e) + from + e - shift;
        k.axpy(-me, &m[e..], &mut a[at..at + m.len() - e]);
    }
}

/// `A −= Σ_c m_c·m_cᵀ` over the coupling columns `m_c` of height `h`, on
/// the block whose leading row and column are `from`.
#[inline(always)]
fn gram_downdate_with<K: Kernels>(
    k: K,
    l: &mut [f64],
    cap: usize,
    from: usize,
    coupling: &[f64],
    h: usize,
) {
    if h == 0 {
        return;
    }
    for m in coupling.chunks_exact(h) {
        sub_outer(k, l, 0, cap, from, m);
    }
}

/// Right-looking Cholesky, in place, of the `scale.len()`-square lower
/// block whose leading row and column are `from`: each pivot column is
/// divided by the root of its diagonal, and its outer product leaves the
/// trailing block. A pivot `d` fails when its square is not positive or
/// at most `1e-12·|scale[j]|`.
#[inline(always)]
fn factor_with<K: Kernels>(
    k: K,
    l: &mut [f64],
    cap: usize,
    from: usize,
    scale: &[f64],
) -> Result<()> {
    let end = from + scale.len();
    for (j, s) in (from..end).zip(scale) {
        // Column j's storage ends where column j + 1's begins.
        let split = col_base(cap, j + 1) + j + 1;
        let (head, rest) = l.split_at_mut(split);
        let at = col_base(cap, j);
        let col = &mut head[at + j..at + end];
        if col[0] <= 0.0 {
            return Err(Error::NotPositiveDefinite);
        }
        let d = col[0].sqrt();
        if d * d <= 1e-12 * s.abs() {
            return Err(Error::NotPositiveDefinite);
        }
        col[0] = d;
        for v in &mut col[1..] {
            *v /= d;
        }
        sub_outer(k, rest, split, cap, j + 1, &col[1..]);
    }
    Ok(())
}

/// Where column `j` of a packed column-major lower factor with column
/// capacity `cap` would hold row 0: `L[i, j]` (`i ≥ j`) lives at
/// `col_base(cap, j) + i`. Column `j` keeps `cap − j` slots, rows `j` up to
/// the capacity.
#[inline(always)]
fn col_base(cap: usize, j: usize) -> usize {
    j * cap - j * (j + 1) / 2
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

    /// `Cholesky::inverse` against `Lu::inverse` on SPD matrices of the
    /// widths the controller's chains take (15 and 48 among them), and
    /// exactly symmetric.
    #[test]
    fn inverse_matches_lu_inverse() {
        let mut seed = 0x1b7e_u64;
        for n in [1usize, 2, 3, 5, 8, 15, 16, 48] {
            let a = random_spd(n, &mut seed);
            let inv = Cholesky::factor(&a).unwrap().inverse();
            let lu = crate::lu::Lu::factor(&a).unwrap().inverse().unwrap();
            let scale = lu.norm_max();
            assert!((&inv - &lu).unwrap().norm_max() <= 1e-10 * scale, "n = {n}");
            for i in 0..n {
                for j in 0..i {
                    assert_eq!(inv[(i, j)].to_bits(), inv[(j, i)].to_bits());
                }
            }
        }
        assert_eq!(
            Cholesky::factor(&Matrix::zeros(0, 0)).unwrap().inverse(),
            Matrix::zeros(0, 0)
        );
    }

    #[test]
    fn rejects_nan_pivot() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, f64::NAN]]).unwrap();
        assert!(matches!(
            Cholesky::factor(&a),
            Err(Error::NotPositiveDefinite)
        ));
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

    /// `L[i, j]` of a factor.
    fn at(up: &UpdatableCholesky, i: usize, j: usize) -> f64 {
        up.l[col_base(up.cap, j) + i]
    }

    /// The held lower triangle, packed row-major (row `i` holds `i + 1`
    /// entries): what a factor holds, whatever its capacity or the stale
    /// entries past its dimension.
    fn packed(up: &UpdatableCholesky) -> Vec<f64> {
        let n = up.dim();
        (0..n)
            .flat_map(|i| (0..=i).map(move |j| at(up, i, j)))
            .collect()
    }

    /// `L·Lᵀ` of a factor, densely.
    fn gram(up: &UpdatableCholesky) -> Matrix {
        let n = up.dim();
        Matrix::from_fn(n, n, |i, j| {
            (0..=i.min(j)).map(|k| at(up, i, k) * at(up, j, k)).sum()
        })
    }

    #[test]
    fn rank_one_update_and_downdate_match_dense_reference() {
        let mut seed = 0x0dd5u64;
        for n in [1usize, 2, 5, 17] {
            let a = random_spd(n, &mut seed);
            let v: Vec<f64> = (0..n).map(|_| pseudo(&mut seed)).collect();
            let plus = Matrix::from_fn(n, n, |i, j| a[(i, j)] + v[i] * v[j]);
            let mut up = updatable_from(&a);
            up.update(&v);
            assert!((&gram(&up) - &plus).unwrap().norm_max() < 1e-12 * plus.norm_max());
            // Downdating the update returns to A.
            up.downdate(&v, 0.0).unwrap();
            assert!((&gram(&up) - &a).unwrap().norm_max() < 1e-12 * plus.norm_max());
            // A downdate that stays positive definite matches A − vvᵀ.
            let small: Vec<f64> = v.iter().map(|x| 0.5 * x).collect();
            let minus = Matrix::from_fn(n, n, |i, j| a[(i, j)] - small[i] * small[j]);
            let mut down = updatable_from(&a);
            down.downdate(&small, 0.0).unwrap();
            assert!((&gram(&down) - &minus).unwrap().norm_max() < 1e-12 * a.norm_max());
            let b: Vec<f64> = (0..n).map(|_| pseudo(&mut seed)).collect();
            let mut x = b.clone();
            down.solve_in_place(&mut x);
            let expect = crate::lu::solve(&minus, &b).unwrap();
            assert!(vec_ops::approx_eq(&x, &expect, 1e-9), "n={n}");
        }
    }

    #[test]
    fn downdate_refuses_indefinite_result_and_keeps_factor() {
        let mut seed = 0xdecu64;
        let n = 6;
        let a = random_spd(n, &mut seed);
        let mut up = updatable_from(&a);
        let before = up.l.clone();
        // v = L·e₀·√2 gives ‖L⁻¹v‖² = 2: A − vvᵀ is indefinite.
        let v: Vec<f64> = (0..n).map(|i| at(&up, i, 0) * 2f64.sqrt()).collect();
        assert!(matches!(
            up.downdate(&v, 0.0),
            Err(Error::NotPositiveDefinite)
        ));
        assert_eq!(up.l, before);
        // Exactly singular (ratio 0) is refused too, and a ratio bound
        // above the true ratio refuses a definite result.
        let unit: Vec<f64> = (0..n).map(|i| at(&up, i, 0)).collect();
        assert!(up.downdate(&unit, 0.0).is_err());
        let half: Vec<f64> = unit.iter().map(|x| 0.5 * x).collect();
        assert!(up.downdate(&half, 0.8).is_err());
        assert_eq!(up.l, before);
        up.downdate(&half, 0.7).unwrap();
    }

    #[test]
    fn split_solves_compose_to_full_solve() {
        let mut seed = 0x5b117u64;
        let a = random_spd(9, &mut seed);
        let up = updatable_from(&a);
        let b: Vec<f64> = (0..9).map(|_| pseudo(&mut seed)).collect();
        let (mut full, mut split) = (b.clone(), b);
        up.solve_in_place(&mut full);
        up.forward_in_place(&mut split);
        up.backward_in_place(&mut split);
        assert_eq!(full, split);
    }

    /// Vectors spanning an arrowhead Gram matrix: chain `j`'s rows live on
    /// their own coordinates `[j·dim, (j+1)·dim)`, tail rows on all of them.
    struct ArrowPool {
        chains: Vec<Vec<Vec<f64>>>,
        tail: Vec<Vec<f64>>,
    }

    impl ArrowPool {
        fn random(chains: usize, per_chain: usize, tail: usize, seed: &mut u64) -> Self {
            let dim = per_chain + tail + 2;
            let width = chains * dim;
            let chain_rows = (0..chains)
                .map(|j| {
                    (0..per_chain)
                        .map(|_| {
                            let mut v = vec![0.0; width];
                            for x in &mut v[j * dim..(j + 1) * dim] {
                                *x = pseudo(seed);
                            }
                            v
                        })
                        .collect()
                })
                .collect();
            let tail = (0..tail)
                .map(|_| (0..width).map(|_| pseudo(seed)).collect())
                .collect();
            ArrowPool {
                chains: chain_rows,
                tail,
            }
        }

        fn dot(a: &[f64], b: &[f64]) -> f64 {
            a.iter().zip(b).map(|(x, y)| x * y).sum()
        }

        /// Appends chain `j`'s pool row `r` behind `held[j]`.
        fn append(
            &self,
            f: &mut ArrowheadCholesky,
            held: &mut [Vec<usize>],
            j: usize,
            r: usize,
        ) -> Result<()> {
            let v = &self.chains[j][r];
            let mut col: Vec<f64> = held[j]
                .iter()
                .map(|&q| Self::dot(v, &self.chains[j][q]))
                .collect();
            col.push(Self::dot(v, v));
            let coupling: Vec<f64> = self.tail.iter().map(|t| Self::dot(v, t)).collect();
            f.append(j, &col, &coupling, col[col.len() - 1])?;
            held[j].push(r);
            Ok(())
        }

        /// The held rows, in factor order.
        fn rows<'a>(&'a self, held: &[Vec<usize>]) -> Vec<&'a [f64]> {
            let mut rows: Vec<&[f64]> = Vec::new();
            for (j, h) in held.iter().enumerate() {
                rows.extend(h.iter().map(|&r| self.chains[j][r].as_slice()));
            }
            rows.extend(self.tail.iter().map(|t| t.as_slice()));
            rows
        }

        fn gram(&self, held: &[Vec<usize>]) -> Matrix {
            let rows = self.rows(held);
            Matrix::from_fn(rows.len(), rows.len(), |i, j| Self::dot(rows[i], rows[j]))
        }

        /// A dense factor of the same rows in the same order.
        fn dense(&self, held: &[Vec<usize>]) -> UpdatableCholesky {
            updatable_from(&self.gram(held))
        }

        fn tail_diag(&self) -> Vec<f64> {
            self.tail.iter().map(|t| Self::dot(t, t)).collect()
        }

        fn tail_packed(&self) -> Vec<f64> {
            let mut g = Vec::new();
            for (e, t) in self.tail.iter().enumerate() {
                g.extend(self.tail[..=e].iter().map(|u| Self::dot(t, u)));
            }
            g
        }
    }

    #[test]
    fn arrowhead_appends_and_removes_match_dense_factor() {
        let mut seed = 0xa770u64;
        let pool = ArrowPool::random(3, 6, 4, &mut seed);
        let mut f = ArrowheadCholesky::new();
        f.reset(3, 4);
        f.build_tail(&pool.tail_packed(), &pool.tail_diag())
            .unwrap();
        let mut held = vec![Vec::new(); 3];
        for r in 0..5 {
            for j in 0..3 {
                pool.append(&mut f, &mut held, j, r).unwrap();
            }
        }
        f.remove(1, 2);
        held[1].remove(2);
        f.remove(0, 4); // the last row of a chain
        held[0].remove(4);
        for k in (0..5).rev() {
            f.remove(2, k); // empties chain 2
        }
        held[2].clear();
        pool.append(&mut f, &mut held, 2, 5).unwrap();
        assert_eq!(f.chain_dim(2), 1);
        let a = pool.gram(&held);
        let b: Vec<f64> = (0..a.rows()).map(|_| pseudo(&mut seed)).collect();
        let mut x = b.clone();
        f.solve_in_place(&mut x);
        let expect = crate::lu::solve(&a, &b).unwrap();
        assert!(vec_ops::approx_eq(&x, &expect, 1e-9));
    }

    /// A row that lies in the span of the tail rows plus its own chain's
    /// held rows is rejected by the arrowhead append with the factor
    /// unchanged, exactly where a dense factor holding the same rows (the
    /// new one last) rejects it; a row just off that span is accepted by
    /// both.
    #[test]
    fn arrowhead_rejects_dependent_row_where_dense_factor_does() {
        let mut seed = 0xdeb7u64;
        let mut pool = ArrowPool::random(2, 4, 3, &mut seed);
        // Confine tail row 0 to chain 1's coordinates, so a chain-1 row can
        // depend on it.
        let dim = pool.chains[1][0].len() / 2;
        pool.tail[0][..dim].fill(0.0);
        let mut f = ArrowheadCholesky::new();
        f.reset(2, 3);
        f.build_tail(&pool.tail_packed(), &pool.tail_diag())
            .unwrap();
        let mut held = vec![Vec::new(); 2];
        for r in 0..3 {
            pool.append(&mut f, &mut held, 0, r).unwrap();
            pool.append(&mut f, &mut held, 1, r).unwrap();
        }
        for eps in [0.0, 1e-3] {
            let mut row: Vec<f64> = (0..2 * dim)
                .map(|i| pool.chains[1][0][i] + pool.chains[1][2][i] - 0.7 * pool.tail[0][i])
                .collect();
            row[dim + 1] += eps;
            pool.chains[1][3] = row;
            let v = &pool.chains[1][3];
            let mut col: Vec<f64> = pool
                .rows(&held)
                .iter()
                .map(|r| ArrowPool::dot(v, r))
                .collect();
            col.push(ArrowPool::dot(v, v));
            let dense_ok = pool.dense(&held).append(&col).is_ok();
            let before = (f.dim(), f.chains[1].clone(), packed(&f.tail));
            let arrow = pool.append(&mut f, &mut held, 1, 3);
            assert_eq!(arrow.is_ok(), dense_ok, "eps={eps}");
            assert_eq!(arrow.is_ok(), eps > 0.0, "eps={eps}");
            if arrow.is_err() {
                let after = (f.dim(), f.chains[1].clone(), packed(&f.tail));
                assert_eq!(after.0, before.0);
                assert_eq!(packed(&after.1.l), packed(&before.1.l));
                assert_eq!(after.1.coupling, before.1.coupling);
                assert_eq!(after.2, before.2);
            } else {
                f.remove(1, 3);
                held[1].pop();
            }
        }
    }

    /// A rank-1 downdate then update of the arrowhead, with `v` on one
    /// chain's rows and the tail, matches a fresh dense factor of
    /// `A ∓ v·vᵀ` in every solve; a downdate that would make the matrix
    /// singular is refused with the factor unchanged.
    #[test]
    fn arrowhead_rank_one_changes_match_dense_factor() {
        let mut seed = 0x4a11u64;
        let pool = ArrowPool::random(3, 5, 4, &mut seed);
        let mut f = ArrowheadCholesky::new();
        f.reset(3, 4);
        f.build_tail(&pool.tail_packed(), &pool.tail_diag())
            .unwrap();
        let mut held = vec![Vec::new(); 3];
        for r in 0..3 {
            for j in 0..3 {
                pool.append(&mut f, &mut held, j, r).unwrap();
            }
        }
        let a = pool.gram(&held);
        let n = a.rows();
        // v lives on chain 1 (factor rows 3..6) and the tail (9..13).
        let mut v = vec![0.0; n];
        for i in (3..6).chain(9..13) {
            v[i] = 0.3 * pseudo(&mut seed);
        }
        let (chain_v, tail_v) = (v[3..6].to_vec(), v[9..13].to_vec());
        let b: Vec<f64> = (0..n).map(|_| pseudo(&mut seed)).collect();
        let solve_matches = |f: &ArrowheadCholesky, sign: f64| {
            let m = Matrix::from_fn(n, n, |i, j| a[(i, j)] + sign * v[i] * v[j]);
            let mut x = b.clone();
            f.solve_in_place(&mut x);
            let expect = crate::lu::solve(&m, &b).unwrap();
            assert!(vec_ops::approx_eq(&x, &expect, 1e-9), "sign {sign}");
        };
        f.downdate(1, &chain_v, &tail_v, 1e-12).unwrap();
        solve_matches(&f, -1.0);
        f.update(1, &chain_v, &tail_v);
        solve_matches(&f, 0.0);
        f.update(1, &chain_v, &tail_v);
        solve_matches(&f, 1.0);
        // Removing v·vᵀ twice from A + vvᵀ would pass through A − vvᵀ, but
        // scaling v until A − vvᵀ is singular must be refused untouched.
        let mut refused = f.clone();
        let before = (refused.tail.l.clone(), refused.chains[1].l.l.clone());
        let big: Vec<f64> = chain_v.iter().map(|x| 1e3 * x).collect();
        let big_tail: Vec<f64> = tail_v.iter().map(|x| 1e3 * x).collect();
        assert!(refused.downdate(1, &big, &big_tail, 1e-12).is_err());
        assert_eq!(
            (refused.tail.l.clone(), refused.chains[1].l.l.clone()),
            before
        );
    }

    /// The rotation sweeps as they ran on a packed row-major factor (row
    /// `i` at `i·(i+1)/2`), kept as the reference the column-major kernels
    /// must reproduce bit for bit.
    mod row_major {
        pub fn rotate_in(
            l: &mut [f64],
            k: usize,
            w: &mut [f64],
            carried: &mut [f64],
            z: &mut [f64],
        ) {
            let h = z.len();
            let m = w.len();
            for t in 0..m {
                let row = k + t;
                let dpos = row * (row + 1) / 2 + row;
                let lkk = l[dpos];
                let x = w[t];
                let r = (lkk * lkk + x * x).sqrt();
                let c = r / lkk;
                let s = x / lkk;
                let inv_c = lkk / r;
                l[dpos] = r;
                let mut pos = dpos;
                for i in t + 1..m {
                    pos += k + i;
                    let updated = (l[pos] + s * w[i]) * inv_c;
                    l[pos] = updated;
                    w[i] = c * w[i] - s * updated;
                }
                let col = &mut carried[row * h..(row + 1) * h];
                for (ce, ze) in col.iter_mut().zip(z.iter_mut()) {
                    let updated = (*ce + s * *ze) * inv_c;
                    *ce = updated;
                    *ze = c * *ze - s * updated;
                }
            }
        }

        pub fn downdate(l: &mut [f64], c: &[f64], s: &mut [f64]) {
            let n = c.len();
            for i in (0..n).rev() {
                let (ci, si) = (c[i], s[i]);
                s[i] = 0.0;
                for (j, carry) in s.iter_mut().enumerate().skip(i) {
                    let pos = j * (j + 1) / 2 + i;
                    let r = l[pos];
                    let t = ci * *carry + si * r;
                    l[pos] = ci * r - si * *carry;
                    *carry = t;
                }
            }
        }

        pub fn downdate_carrying(
            l: &mut [f64],
            c: &[f64],
            s: &mut [f64],
            carried: &mut [f64],
            z: &mut [f64],
        ) {
            let h = z.len();
            for i in (0..c.len()).rev() {
                let (ci, si) = (c[i], s[i]);
                s[i] = 0.0;
                for (j, carry) in s.iter_mut().enumerate().skip(i) {
                    let pos = j * (j + 1) / 2 + i;
                    let r = l[pos];
                    let t = ci * *carry + si * r;
                    l[pos] = ci * r - si * *carry;
                    *carry = t;
                }
                for (r, carry) in carried[i * h..(i + 1) * h].iter_mut().zip(z.iter_mut()) {
                    let t = ci * *carry + si * *r;
                    *r = ci * *r - si * *carry;
                    *carry = t;
                }
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs the column-major rotation kernels on kernel set `k` against
    /// the row-major references, from the same factor and inputs, and
    /// asserts that `L`, the carries and the carried columns agree bit for
    /// bit. The factor is grown by appends, so its capacity exceeds its
    /// dimension and the stale slots past it are in play.
    fn sweeps_match_row_major<K: Kernels>(k: K, path: &str) {
        let mut seed = 0x5ee9u64;
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 47, 48, 49, 72] {
            let a = random_spd(n, &mut seed);
            let up = updatable_from(&a);
            let rows = packed(&up);
            let vec = |len: usize, seed: &mut u64| -> Vec<f64> {
                (0..len).map(|_| pseudo(seed)).collect::<Vec<f64>>()
            };
            let check = |what: &str, col: &[f64], row: &[f64]| {
                assert_eq!(bits(col), bits(row), "{path} n={n}: {what}");
            };
            // A downdate's rotations, from p = L⁻¹v scaled inside the unit ball.
            let mut p = vec(n, &mut seed);
            up.forward_in_place(&mut p);
            let norm = p.iter().map(|x| x * x).sum::<f64>().sqrt();
            p.iter_mut().for_each(|x| *x *= 0.9 / norm);
            let mut c = vec![0.0; n];
            downdate_rotations(1.0 - 0.81, &mut c, &mut p);
            for h in [0, 5, 48] {
                let carried = vec(n * h, &mut seed);
                let z = vec(h, &mut seed);
                let (mut l, mut s, mut cc, mut zz) =
                    (up.l.clone(), p.clone(), carried.clone(), z.clone());
                downdate_with(k, &mut l, up.cap, &c, &mut s, &mut cc, &mut zz);
                let (mut lr, mut sr, mut cr, mut zr) = (rows.clone(), p.clone(), carried, z);
                if h == 0 {
                    row_major::downdate(&mut lr, &c, &mut sr);
                } else {
                    row_major::downdate_carrying(&mut lr, &c, &mut sr, &mut cr, &mut zr);
                }
                let swept = UpdatableCholesky { l, ..up.clone() };
                check("downdate L", &packed(&swept), &lr);
                check("downdate carries", &s, &sr);
                check("downdate carried columns", &cc, &cr);
                check("downdate carried leftover", &zz, &zr);
            }
            // Givens updates of the trailing block from row `from`.
            for from in [0, n / 2, n - 1] {
                for h in [0, 5, 48] {
                    let w = vec(n - from, &mut seed);
                    let carried = vec(n * h, &mut seed);
                    let z = vec(h, &mut seed);
                    let (mut l, mut ww, mut cc, mut zz) =
                        (up.l.clone(), w.clone(), carried.clone(), z.clone());
                    rotate_in_with(k, &mut l, up.cap, from, &mut ww, &mut cc, &mut zz);
                    let (mut lr, mut wr, mut cr, mut zr) = (rows.clone(), w, carried, z);
                    row_major::rotate_in(&mut lr, from, &mut wr, &mut cr, &mut zr);
                    let swept = UpdatableCholesky { l, ..up.clone() };
                    check("update L", &packed(&swept), &lr);
                    check("update carries", &ww, &wr);
                    check("update carried columns", &cc, &cr);
                    check("update carried leftover", &zz, &zr);
                }
            }
        }
    }

    /// The column-major rotation sweeps keep the row-major sweeps'
    /// arithmetic entry for entry, on the portable path and, when this CPU
    /// has it, the AVX2 path.
    #[test]
    fn rotation_sweeps_match_row_major_reference_bitwise() {
        sweeps_match_row_major(crate::simd::Portable, "portable");
        #[cfg(target_arch = "x86_64")]
        if crate::simd::avx2_available() {
            // SAFETY: the features were detected at runtime.
            let k = unsafe { crate::simd::Avx2::assume_available() };
            sweeps_match_row_major(k, "avx2");
        }
    }

    #[test]
    fn log_det_matches_lu_det() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 9.0]]).unwrap();
        let ld = Cholesky::factor(&a).unwrap().log_det();
        let det = crate::lu::Lu::factor(&a).unwrap().det();
        assert!((ld - det.ln()).abs() < 1e-12);
    }
}
