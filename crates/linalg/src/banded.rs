//! Symmetric block-tridiagonal matrices and their in-place block Cholesky.
//!
//! The MPC problem in cumulative-input coordinates has a Hessian that
//! couples only neighbouring stages of the same IDC. Ordered IDC-major, it
//! is symmetric block-tridiagonal with `N·β₂` diagonal blocks of size `C`
//! (`C + 2` with storage), and the subdiagonal block between one IDC's last
//! stage and the next IDC's first stage is zero. Factoring it block-row by
//! block-row is the matrix form of the Riccati backward recursion: O(N·β₂)
//! blocks of O(nb³) work instead of the O((N·β₂·C)³) dense factorization of
//! the condensed Hessian. A zero subdiagonal block gives a zero factor block
//! `M_t`, so the factor (and every solve through it) keeps such a
//! block-diagonal split exact.
//!
//! [`BlockTridiag`] stores only the diagonal and subdiagonal blocks;
//! [`BlockTridiagChol`] owns reusable factor storage so repeated
//! [`refactor`](BlockTridiagChol::refactor)/[`solve_in_place`](BlockTridiagChol::solve_in_place)
//! cycles are allocation-free. Every block size takes the same recursion:
//! each diagonal block is factored by a scalar Cholesky and each coupling
//! block by row-wise triangular substitution, while the stage couplings —
//! the `M·Mᵀ` downdate and the multi-right-hand-side corrections — route
//! through the packed [`gemm`](crate::gemm) microkernel.

use crate::gemm::gemm_ws;
use crate::workspace::Workspace;
use crate::{Error, Result};

/// Right-hand sides per chunk in [`BlockTridiagChol::solve_rows_in_place`].
const RHS_BAND: usize = 32;

/// A symmetric block-tridiagonal matrix stored as flat row-major blocks.
///
/// Block row `t` holds the diagonal block `D_t` (`nb × nb`) and, for
/// `t ≥ 1`, the subdiagonal block `O_{t-1}` sitting at block position
/// `(t, t-1)`. The superdiagonal is implied by symmetry (`O_{t-1}ᵀ`).
#[derive(Debug, Clone)]
pub struct BlockTridiag {
    nb: usize,
    nblocks: usize,
    diag: Vec<f64>,
    sub: Vec<f64>,
}

impl BlockTridiag {
    /// Creates a zero matrix with `nblocks` diagonal blocks of size `nb`.
    ///
    /// # Panics
    ///
    /// Panics if `nb == 0` or `nblocks == 0`.
    pub fn new(nb: usize, nblocks: usize) -> Self {
        assert!(nb > 0 && nblocks > 0, "empty block-tridiagonal matrix");
        BlockTridiag {
            nb,
            nblocks,
            diag: vec![0.0; nblocks * nb * nb],
            sub: vec![0.0; nblocks.saturating_sub(1) * nb * nb],
        }
    }

    /// Block size `nb`.
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Number of diagonal blocks.
    pub fn nblocks(&self) -> usize {
        self.nblocks
    }

    /// Total matrix dimension `nb · nblocks`.
    pub fn dim(&self) -> usize {
        self.nb * self.nblocks
    }

    /// Row-major view of diagonal block `D_t`.
    pub fn diag(&self, t: usize) -> &[f64] {
        let s = self.nb * self.nb;
        &self.diag[t * s..(t + 1) * s]
    }

    /// Mutable row-major view of diagonal block `D_t`.
    pub fn diag_mut(&mut self, t: usize) -> &mut [f64] {
        let s = self.nb * self.nb;
        &mut self.diag[t * s..(t + 1) * s]
    }

    /// Row-major view of subdiagonal block `O_t` at block position `(t+1, t)`.
    pub fn sub(&self, t: usize) -> &[f64] {
        let s = self.nb * self.nb;
        &self.sub[t * s..(t + 1) * s]
    }

    /// Mutable row-major view of subdiagonal block `O_t`.
    pub fn sub_mut(&mut self, t: usize) -> &mut [f64] {
        let s = self.nb * self.nb;
        &mut self.sub[t * s..(t + 1) * s]
    }

    /// Zeroes every block, keeping the shape and storage.
    pub fn clear(&mut self) {
        self.diag.fill(0.0);
        self.sub.fill(0.0);
    }

    /// Resizes to a new shape, zeroing all blocks and reusing storage.
    pub fn resize(&mut self, nb: usize, nblocks: usize) {
        assert!(nb > 0 && nblocks > 0, "empty block-tridiagonal matrix");
        self.nb = nb;
        self.nblocks = nblocks;
        self.diag.clear();
        self.diag.resize(nblocks * nb * nb, 0.0);
        self.sub.clear();
        self.sub.resize((nblocks - 1) * nb * nb, 0.0);
    }

    /// Multiplies `y ← A·x` (used by tests and iterative refinement).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` have length different from [`dim`](Self::dim).
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        let (nb, t) = (self.nb, self.nblocks);
        assert!(x.len() == nb * t && y.len() == nb * t, "dimension mismatch");
        y.fill(0.0);
        for bt in 0..t {
            let d = self.diag(bt);
            let xs = &x[bt * nb..(bt + 1) * nb];
            let ys = &mut y[bt * nb..(bt + 1) * nb];
            for i in 0..nb {
                let mut acc = 0.0;
                for j in 0..nb {
                    acc += d[i * nb + j] * xs[j];
                }
                ys[i] += acc;
            }
        }
        for bt in 0..t.saturating_sub(1) {
            let o = self.sub(bt);
            // y_{t+1} += O_t x_t  and  y_t += O_tᵀ x_{t+1}
            for i in 0..nb {
                let mut acc = 0.0;
                for j in 0..nb {
                    acc += o[i * nb + j] * x[bt * nb + j];
                }
                y[(bt + 1) * nb + i] += acc;
            }
            for j in 0..nb {
                let mut acc = 0.0;
                for i in 0..nb {
                    acc += o[i * nb + j] * x[(bt + 1) * nb + i];
                }
                y[bt * nb + j] += acc;
            }
        }
    }
}

/// Block Cholesky factor of a [`BlockTridiag`] matrix.
///
/// `A = L·Lᵀ` where `L` is block lower-bidiagonal: lower-triangular diagonal
/// blocks `L_t` and dense subdiagonal blocks `M_t = O_{t-1}·L_{t-1}^{-ᵀ}`.
/// The backward pass `L_t·L_tᵀ = D_t − M_t·M_tᵀ` is the Riccati recursion on
/// the value-function Hessian; the forward/backward substitution sweeps in
/// [`solve_in_place`](Self::solve_in_place) are the corresponding state and
/// co-state passes.
#[derive(Debug, Default, Clone)]
pub struct BlockTridiagChol {
    nb: usize,
    nblocks: usize,
    /// Diagonal factor blocks `L_t`, row-major, lower triangle significant.
    l: Vec<f64>,
    /// Subdiagonal factor blocks `M_t` (index `t-1`), row-major dense.
    m: Vec<f64>,
    /// Transpose scratch for the `M·Mᵀ` downdate.
    mt_scratch: Vec<f64>,
}

impl BlockTridiagChol {
    /// Creates an empty factor; call [`refactor`](Self::refactor) to fill it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total dimension of the factored matrix (0 before the first refactor).
    pub fn dim(&self) -> usize {
        self.nb * self.nblocks
    }

    /// Number of diagonal blocks (0 before the first refactor).
    pub fn nblocks(&self) -> usize {
        self.nblocks
    }

    /// Factors `a`, reusing all internal storage from previous calls.
    ///
    /// One scalar stage recursion at every block size: `M_t` by forward
    /// substitution row by row, the Riccati downdate `D_t − M_t·M_tᵀ`
    /// through the packed GEMM microkernel, and `L_t` by a scalar Cholesky
    /// of the downdated block.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotPositiveDefinite`] if a stage block loses positive
    /// definiteness during the recursion.
    pub fn refactor(&mut self, a: &BlockTridiag, ws: &mut Workspace) -> Result<()> {
        let (nb, t) = (a.nb(), a.nblocks());
        let s = nb * nb;
        self.nb = nb;
        self.nblocks = t;
        self.l.clear();
        self.l.resize(t * s, 0.0);
        self.m.clear();
        self.m.resize((t - 1) * s, 0.0);
        self.mt_scratch.clear();
        self.mt_scratch.resize(s, 0.0);

        self.l[..s].copy_from_slice(a.diag(0));
        chol_in_place(nb, &mut self.l[..s])?;
        for bt in 1..t {
            // M_t = O_{t-1} · L_{t-1}^{-ᵀ}: forward-substitute L_{t-1} against
            // each row of O_{t-1}.
            let (done_l, rest_l) = self.l.split_at_mut(bt * s);
            let lprev = &done_l[(bt - 1) * s..];
            let mblk = &mut self.m[(bt - 1) * s..bt * s];
            mblk.copy_from_slice(a.sub(bt - 1));
            for r in 0..nb {
                forward_subst(nb, lprev, &mut mblk[r * nb..(r + 1) * nb]);
            }
            // L_t·L_tᵀ = D_t − M_t·M_tᵀ (Riccati downdate), via packed GEMM.
            let lcur = &mut rest_l[..s];
            lcur.copy_from_slice(a.diag(bt));
            transpose_into(nb, mblk, &mut self.mt_scratch);
            gemm_ws(
                nb,
                nb,
                nb,
                -1.0,
                mblk,
                nb,
                &self.mt_scratch,
                nb,
                1.0,
                lcur,
                nb,
                ws,
            );
            chol_in_place(nb, lcur)?;
        }
        Ok(())
    }

    /// Solves `A·x = b` in place (`x` holds `b` on entry, the solution on
    /// exit).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()` or the factor is empty.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        let (nb, t) = (self.nb, self.nblocks);
        assert!(t > 0, "solve on empty factor");
        assert!(x.len() == nb * t, "dimension mismatch");
        let s = nb * nb;
        // Forward sweep: L y = b.
        forward_subst(nb, &self.l[..s], &mut x[..nb]);
        for bt in 1..t {
            let mblk = &self.m[(bt - 1) * s..bt * s];
            let (prev, cur) = x.split_at_mut(bt * nb);
            let yprev = &prev[(bt - 1) * nb..];
            let ycur = &mut cur[..nb];
            for i in 0..nb {
                let mut acc = 0.0;
                for j in 0..nb {
                    acc += mblk[i * nb + j] * yprev[j];
                }
                ycur[i] -= acc;
            }
            forward_subst(nb, &self.l[bt * s..(bt + 1) * s], ycur);
        }
        // Backward sweep: Lᵀ x = y.
        back_subst_transposed(nb, &self.l[(t - 1) * s..], &mut x[(t - 1) * nb..]);
        for bt in (0..t - 1).rev() {
            let mblk = &self.m[bt * s..(bt + 1) * s];
            let (cur, next) = x.split_at_mut((bt + 1) * nb);
            let xnext = &next[..nb];
            let xcur = &mut cur[bt * nb..];
            for j in 0..nb {
                let mut acc = 0.0;
                for i in 0..nb {
                    acc += mblk[i * nb + j] * xnext[i];
                }
                xcur[j] -= acc;
            }
            back_subst_transposed(nb, &self.l[bt * s..(bt + 1) * s], xcur);
        }
    }

    /// Multi-right-hand-side [`solve_in_place`](Self::solve_in_place) over
    /// the block range `first..first + count`: each row of the row-major
    /// `nrhs × (count·nb)` buffer `x` is an independent RHS on those blocks.
    ///
    /// The full range (`0`, [`nblocks`](Self::nblocks)) solves with `A`.
    /// When `A` splits at both ends of the range — zero subdiagonal blocks
    /// into `first` and out of `first + count − 1`, so the factor's `M`
    /// blocks there are exactly zero — a range solve equals the full solve
    /// of a right-hand side that is zero outside the range, bitwise on the
    /// range, and the full solve is `±0` everywhere else. An independent
    /// chain of Hessian blocks is solved at its own width this way.
    ///
    /// Stage-coupling corrections are batched through GEMM over bands of
    /// right-hand sides, so the result is not bitwise identical to per-row
    /// [`solve_in_place`](Self::solve_in_place) calls (different reduction
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the factor, if
    /// `x.len() != nrhs · count · nb`, or if the factor is empty.
    pub fn solve_rows_in_place(
        &self,
        x: &mut [f64],
        nrhs: usize,
        first: usize,
        count: usize,
        ws: &mut Workspace,
    ) {
        let nb = self.nb;
        assert!(self.nblocks > 0, "solve on empty factor");
        assert!(
            count > 0 && first + count <= self.nblocks,
            "block range {first}+{count} outside {} blocks",
            self.nblocks
        );
        let (t, dim) = (count, nb * count);
        assert_eq!(x.len(), nrhs * dim, "dimension mismatch");
        if nrhs == 0 {
            return;
        }
        let s = nb * nb;
        // The range's own factor blocks: `L` of blocks first.., and the `M`
        // blocks coupling consecutive blocks inside it.
        let l = &self.l[first * s..(first + t) * s];
        let m = &self.m[first * s..(first + t - 1) * s];
        // Shared read-only Mᵀ blocks for the forward corrections.
        let mut mts = ws.take((t - 1) * s);
        for bt in 0..t - 1 {
            transpose_into(nb, &m[bt * s..(bt + 1) * s], &mut mts[bt * s..(bt + 1) * s]);
        }
        let mut cloc = ws.take(RHS_BAND.min(nrhs) * nb);
        for rows in x.chunks_mut(RHS_BAND * dim) {
            let band = rows.len() / dim;
            // Forward sweep: L Y = B, rows as right-hand sides.
            for bt in 0..t {
                if bt > 0 {
                    // X_bt −= X_{bt−1}·M_btᵀ, computed into `cloc` to keep the
                    // GEMM operands non-aliasing, then accumulated.
                    gemm_ws(
                        band,
                        nb,
                        nb,
                        -1.0,
                        &rows[(bt - 1) * nb..],
                        dim,
                        &mts[(bt - 1) * s..bt * s],
                        nb,
                        0.0,
                        &mut cloc,
                        nb,
                        ws,
                    );
                    for r in 0..band {
                        for c in 0..nb {
                            rows[r * dim + bt * nb + c] += cloc[r * nb + c];
                        }
                    }
                }
                let lblk = &l[bt * s..(bt + 1) * s];
                for r in 0..band {
                    forward_subst(nb, lblk, &mut rows[r * dim + bt * nb..][..nb]);
                }
            }
            // Backward sweep: Lᵀ X = Y.
            for bt in (0..t).rev() {
                if bt + 1 < t {
                    // X_bt −= X_{bt+1}·M_{bt+1}.
                    gemm_ws(
                        band,
                        nb,
                        nb,
                        -1.0,
                        &rows[(bt + 1) * nb..],
                        dim,
                        &m[bt * s..(bt + 1) * s],
                        nb,
                        0.0,
                        &mut cloc,
                        nb,
                        ws,
                    );
                    for r in 0..band {
                        for c in 0..nb {
                            rows[r * dim + bt * nb + c] += cloc[r * nb + c];
                        }
                    }
                }
                let lblk = &l[bt * s..(bt + 1) * s];
                for r in 0..band {
                    back_subst_transposed(nb, lblk, &mut rows[r * dim + bt * nb..][..nb]);
                }
            }
        }
        ws.put(cloc);
        ws.put(mts);
    }
}

/// In-place dense Cholesky of the lower triangle of a row-major `n×n` block.
pub(crate) fn chol_in_place(n: usize, a: &mut [f64]) -> Result<()> {
    for i in 0..n {
        for j in 0..=i {
            let mut acc = a[i * n + j];
            for k in 0..j {
                acc -= a[i * n + k] * a[j * n + k];
            }
            if i == j {
                if acc <= 0.0 {
                    return Err(Error::NotPositiveDefinite);
                }
                a[i * n + j] = acc.sqrt();
            } else {
                a[i * n + j] = acc / a[j * n + j];
            }
        }
    }
    Ok(())
}

/// Solves `L·x = b` in place against the lower triangle of a row-major block.
fn forward_subst(n: usize, l: &[f64], x: &mut [f64]) {
    for i in 0..n {
        let mut acc = x[i];
        for j in 0..i {
            acc -= l[i * n + j] * x[j];
        }
        x[i] = acc / l[i * n + i];
    }
}

/// Solves `Lᵀ·x = y` in place against the lower triangle of a row-major block.
fn back_subst_transposed(n: usize, l: &[f64], x: &mut [f64]) {
    for i in (0..n).rev() {
        let mut acc = x[i];
        for j in (i + 1)..n {
            acc -= l[j * n + i] * x[j];
        }
        x[i] = acc / l[i * n + i];
    }
}

/// Transposes the row-major `n×n` block `src` into `dst`.
fn transpose_into(n: usize, src: &[f64], dst: &mut [f64]) {
    for i in 0..n {
        for j in 0..n {
            dst[j * n + i] = src[i * n + j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::Lu;
    use crate::Matrix;

    fn pseudo(seed: &mut u64) -> f64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        ((seed.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }

    /// Random diagonally dominant SPD block-tridiagonal matrix.
    fn random_spd(nb: usize, t: usize, seed: &mut u64) -> BlockTridiag {
        let mut a = BlockTridiag::new(nb, t);
        for bt in 0..t.saturating_sub(1) {
            for v in a.sub_mut(bt) {
                *v = pseudo(seed);
            }
        }
        for bt in 0..t {
            let d = a.diag_mut(bt);
            for i in 0..nb {
                for j in 0..i {
                    let v = pseudo(seed);
                    d[i * nb + j] = v;
                    d[j * nb + i] = v;
                }
                d[i * nb + i] = 3.0 * nb as f64 + pseudo(seed).abs();
            }
        }
        a
    }

    fn dense_of(a: &BlockTridiag) -> Matrix {
        let (nb, t) = (a.nb(), a.nblocks());
        let mut d = Matrix::zeros(nb * t, nb * t);
        for bt in 0..t {
            for i in 0..nb {
                for j in 0..nb {
                    d[(bt * nb + i, bt * nb + j)] = a.diag(bt)[i * nb + j];
                }
            }
        }
        for bt in 0..t.saturating_sub(1) {
            for i in 0..nb {
                for j in 0..nb {
                    let v = a.sub(bt)[i * nb + j];
                    d[((bt + 1) * nb + i, bt * nb + j)] = v;
                    d[(bt * nb + j, (bt + 1) * nb + i)] = v;
                }
            }
        }
        d
    }

    #[test]
    fn solve_matches_dense_lu() {
        let mut seed = 0xfeed_beefu64;
        for &(nb, t) in &[(1usize, 1usize), (2, 4), (5, 3), (8, 6), (3, 10)] {
            let a = random_spd(nb, t, &mut seed);
            let dense = dense_of(&a);
            let b: Vec<f64> = (0..nb * t).map(|_| pseudo(&mut seed)).collect();
            let mut chol = BlockTridiagChol::new();
            let mut ws = Workspace::new();
            chol.refactor(&a, &mut ws).unwrap();
            let mut x = b.clone();
            chol.solve_in_place(&mut x);
            let expect = Lu::factor(&dense).unwrap().solve(&b).unwrap();
            for (u, v) in x.iter().zip(&expect) {
                assert!((u - v).abs() < 1e-10 * (1.0 + v.abs()), "nb={nb} t={t}");
            }
        }
    }

    #[test]
    fn refactor_reuses_storage_across_calls() {
        let mut seed = 7u64;
        let mut chol = BlockTridiagChol::new();
        let mut ws = Workspace::new();
        let a = random_spd(4, 5, &mut seed);
        chol.refactor(&a, &mut ws).unwrap();
        let b = random_spd(4, 5, &mut seed);
        chol.refactor(&b, &mut ws).unwrap();
        let rhs: Vec<f64> = (0..20).map(|_| pseudo(&mut seed)).collect();
        let mut x = rhs.clone();
        chol.solve_in_place(&mut x);
        let mut back = vec![0.0; 20];
        b.mul_vec_into(&x, &mut back);
        for (u, v) in back.iter().zip(&rhs) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_indefinite_stage() {
        let mut a = BlockTridiag::new(2, 2);
        a.diag_mut(0).copy_from_slice(&[1.0, 0.0, 0.0, 1.0]);
        // Large off-diagonal coupling destroys definiteness of stage 1.
        a.sub_mut(0).copy_from_slice(&[5.0, 0.0, 0.0, 5.0]);
        a.diag_mut(1).copy_from_slice(&[1.0, 0.0, 0.0, 1.0]);
        let mut chol = BlockTridiagChol::new();
        let mut ws = Workspace::new();
        assert!(matches!(
            chol.refactor(&a, &mut ws),
            Err(Error::NotPositiveDefinite)
        ));
    }

    #[test]
    fn solve_rows_matches_per_row_solves() {
        let mut seed = 0x0def_aced_u64;
        for &(nb, t) in &[(6usize, 4usize), (131, 2)] {
            let a = random_spd(nb, t, &mut seed);
            let dim = nb * t;
            let nrhs = 5;
            let mut chol = BlockTridiagChol::new();
            let mut ws = Workspace::new();
            chol.refactor(&a, &mut ws).unwrap();
            let rhs: Vec<f64> = (0..nrhs * dim).map(|_| pseudo(&mut seed)).collect();
            let mut batch = rhs.clone();
            chol.solve_rows_in_place(&mut batch, nrhs, 0, t, &mut ws);
            for r in 0..nrhs {
                let mut x = rhs[r * dim..(r + 1) * dim].to_vec();
                chol.solve_in_place(&mut x);
                for (u, v) in batch[r * dim..(r + 1) * dim].iter().zip(&x) {
                    assert!((u - v).abs() < 1e-9 * (1.0 + v.abs()), "nb={nb} r={r}");
                }
            }
        }
    }

    /// Blocks `2..5` form an independent chain (zero subdiagonal blocks on
    /// both sides): a range solve over them equals the full solve of the
    /// same right-hand sides bitwise on the range, and the full solve is
    /// zero outside it.
    #[test]
    fn range_solve_matches_full_solve_on_an_independent_chain() {
        let mut seed = 0x5a11_ce55u64;
        for &nb in &[5usize, 130] {
            let (t, first, count) = (7, 2, 3);
            let mut a = random_spd(nb, t, &mut seed);
            a.sub_mut(first - 1).fill(0.0);
            a.sub_mut(first + count - 1).fill(0.0);
            let (dim, width, nrhs) = (nb * t, nb * count, 37);
            let mut chol = BlockTridiagChol::new();
            let mut ws = Workspace::new();
            chol.refactor(&a, &mut ws).unwrap();
            let mut ranged: Vec<f64> = (0..nrhs * width).map(|_| pseudo(&mut seed)).collect();
            let mut full = vec![0.0; nrhs * dim];
            for r in 0..nrhs {
                full[r * dim + first * nb..r * dim + (first + count) * nb]
                    .copy_from_slice(&ranged[r * width..(r + 1) * width]);
            }
            chol.solve_rows_in_place(&mut ranged, nrhs, first, count, &mut ws);
            chol.solve_rows_in_place(&mut full, nrhs, 0, t, &mut ws);
            for r in 0..nrhs {
                let row = &full[r * dim..(r + 1) * dim];
                let (lo, hi) = (first * nb, (first + count) * nb);
                assert_eq!(
                    &row[lo..hi],
                    &ranged[r * width..(r + 1) * width],
                    "nb={nb} r={r}"
                );
                assert!(row[..lo].iter().chain(&row[hi..]).all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn mul_vec_matches_dense() {
        let mut seed = 99u64;
        let a = random_spd(3, 4, &mut seed);
        let dense = dense_of(&a);
        let x: Vec<f64> = (0..12).map(|_| pseudo(&mut seed)).collect();
        let mut y = vec![0.0; 12];
        a.mul_vec_into(&x, &mut y);
        let expect = dense.mul_vec(&x).unwrap();
        for (u, v) in y.iter().zip(&expect) {
            assert!((u - v).abs() < 1e-12);
        }
    }
}
