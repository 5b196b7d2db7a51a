//! Symmetric block-tridiagonal matrices.
//!
//! The MPC problem in cumulative-input coordinates has a Hessian that
//! couples only neighbouring stages of the same IDC. Ordered IDC-major, it
//! is symmetric block-tridiagonal with `N·β₂` diagonal blocks of size `C`
//! (`C + 2` with storage), and the subdiagonal block between one IDC's last
//! stage and the next IDC's first stage is zero. [`BlockTridiag`] stores
//! only the diagonal and subdiagonal blocks; [`BlockTridiag::dense`] copies
//! a run of blocks out as a dense matrix, which is how each IDC's chain is
//! factored (by [`Cholesky`](crate::cholesky::Cholesky)) and inverted.

use crate::Matrix;

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

    /// Dense copy of the diagonal blocks `first..end` and the couplings
    /// between them (both triangles), `(end − first)·nb` square.
    ///
    /// # Panics
    ///
    /// Panics unless `first < end ≤ nblocks`.
    pub fn dense(&self, first: usize, end: usize) -> Matrix {
        assert!(
            first < end && end <= self.nblocks,
            "block range {first}..{end}"
        );
        let nb = self.nb;
        let w = (end - first) * nb;
        let mut m = Matrix::zeros(w, w);
        for bt in first..end {
            let at = (bt - first) * nb;
            for (i, row) in self.diag(bt).chunks_exact(nb).enumerate() {
                m.row_mut(at + i)[at..at + nb].copy_from_slice(row);
            }
            if bt + 1 < end {
                for (i, row) in self.sub(bt).chunks_exact(nb).enumerate() {
                    m.row_mut(at + nb + i)[at..at + nb].copy_from_slice(row);
                    for (j, &v) in row.iter().enumerate() {
                        m[(at + j, at + nb + i)] = v;
                    }
                }
            }
        }
        m
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::Cholesky;
    use crate::lu::Lu;
    use crate::Error;

    fn pseudo(seed: &mut u64) -> f64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        ((seed.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }

    /// Random symmetric block-tridiagonal matrix.
    fn random(nb: usize, t: usize, seed: &mut u64) -> BlockTridiag {
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

    /// A chain copied out dense and inverted by Cholesky solves like
    /// dense LU.
    #[test]
    fn solve_matches_dense_lu() {
        let mut seed = 0xfeed_beefu64;
        for &(nb, t) in &[(1usize, 1usize), (2, 4), (5, 3), (8, 6), (3, 10)] {
            let a = random(nb, t, &mut seed);
            let dense = a.dense(0, t);
            let b: Vec<f64> = (0..nb * t).map(|_| pseudo(&mut seed)).collect();
            let x = Cholesky::factor(&dense)
                .unwrap()
                .inverse()
                .mul_vec(&b)
                .unwrap();
            let expect = Lu::factor(&dense).unwrap().solve(&b).unwrap();
            for (u, v) in x.iter().zip(&expect) {
                assert!((u - v).abs() < 1e-10 * (1.0 + v.abs()), "nb={nb} t={t}");
            }
        }
    }

    #[test]
    fn rejects_indefinite_stage() {
        let mut a = BlockTridiag::new(2, 2);
        a.diag_mut(0).copy_from_slice(&[1.0, 0.0, 0.0, 1.0]);
        // Large off-diagonal coupling destroys definiteness of stage 1.
        a.sub_mut(0).copy_from_slice(&[5.0, 0.0, 0.0, 5.0]);
        a.diag_mut(1).copy_from_slice(&[1.0, 0.0, 0.0, 1.0]);
        assert!(matches!(
            Cholesky::factor(&a.dense(0, 2)),
            Err(Error::NotPositiveDefinite)
        ));
    }

    #[test]
    fn mul_vec_matches_dense() {
        let mut seed = 99u64;
        let a = random(3, 4, &mut seed);
        let dense = a.dense(0, 4);
        let x: Vec<f64> = (0..12).map(|_| pseudo(&mut seed)).collect();
        let mut y = vec![0.0; 12];
        a.mul_vec_into(&x, &mut y);
        let expect = dense.mul_vec(&x).unwrap();
        for (u, v) in y.iter().zip(&expect) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    /// A run of blocks is the matching square of the whole dense matrix,
    /// which is symmetric and zero outside the tridiagonal band.
    #[test]
    fn dense_range_is_a_square_of_the_full_matrix() {
        let mut seed = 0x5a11_ce55u64;
        let (nb, t) = (2, 5);
        let a = random(nb, t, &mut seed);
        let full = a.dense(0, t);
        assert_eq!(full, full.transpose());
        for i in 0..nb * t {
            for j in 0..nb * t {
                if (i / nb).abs_diff(j / nb) > 1 {
                    assert_eq!(full[(i, j)], 0.0, "({i}, {j})");
                }
            }
        }
        assert_eq!(full[(nb + 1, 0)], a.sub(0)[nb]);
        let (first, end) = (1, 4);
        let w = (end - first) * nb;
        assert_eq!(
            a.dense(first, end),
            full.block(first * nb, first * nb, w, w)
        );
    }
}
