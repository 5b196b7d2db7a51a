//! Small-matrix blocked GEMM with packed panels and a SIMD microkernel.
//!
//! The banded MPC backend factors many small (`c × c`, `c ≤ ~32`) blocks per
//! step, which is exactly the regime where a register-blocked microkernel with
//! packed operands beats the naive triple loop: the 4×8 tile keeps eight
//! accumulators live across the full `k` loop and streams both operands from
//! contiguous panels.
//!
//! Two kernels are provided and selected once at runtime:
//!
//! * an AVX2+FMA kernel (`f64x4` broadcasts against two 4-lane columns), and
//! * a portable register-blocked fallback the autovectorizer handles well.
//!
//! Matrices are row-major with an explicit leading dimension, so callers can
//! multiply sub-blocks of larger buffers without copying. Edge tiles are
//! zero-padded during packing and written back partially, so arbitrary shapes
//! (including non-multiples of the 4×8 tile) are supported.

use crate::simd::avx2_available;
use crate::workspace::Workspace;

/// Rows per microkernel tile.
pub const MR: usize = 4;
/// Columns per microkernel tile.
pub const NR: usize = 8;

/// `C ← α·A·B + β·C` on row-major slices with explicit leading dimensions.
///
/// `a` is `m×k` with leading dimension `lda`, `b` is `k×n` with leading
/// dimension `ldb`, `c` is `m×n` with leading dimension `ldc`. When `beta`
/// is exactly zero, `c` is overwritten without being read (so it may contain
/// garbage, matching BLAS semantics).
///
/// Packing buffers are drawn from (and returned to) `ws`, so repeated calls
/// against a long-lived workspace are allocation-free.
///
/// # Panics
///
/// Panics if a slice is too short for its stated shape or if a leading
/// dimension is smaller than the row width.
pub fn gemm_ws(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    ws: &mut Workspace,
) {
    check_operand("a", m, k, lda, a.len());
    check_operand("b", k, n, ldb, b.len());
    check_operand("c", m, n, ldc, c.len());
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || alpha == 0.0 {
        scale_c(m, n, beta, c, ldc);
        return;
    }

    let m_tiles = m.div_ceil(MR);
    let n_tiles = n.div_ceil(NR);
    let mut apack = ws.take(m_tiles * MR * k);
    let mut bpack = ws.take(n_tiles * NR * k);
    pack_a(m, k, a, lda, &mut apack);
    pack_b(k, n, b, ldb, &mut bpack);

    let use_avx2 = avx2_available();
    let mut acc = [0.0f64; MR * NR];
    for it in 0..m_tiles {
        let i0 = it * MR;
        let mr = MR.min(m - i0);
        let ap = &apack[it * MR * k..(it + 1) * MR * k];
        for jt in 0..n_tiles {
            let j0 = jt * NR;
            let nr = NR.min(n - j0);
            let bp = &bpack[jt * NR * k..(jt + 1) * NR * k];
            if use_avx2 {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: AVX2+FMA availability was checked at runtime.
                unsafe {
                    avx2::kernel_4x8(k, ap, bp, &mut acc);
                }
                #[cfg(not(target_arch = "x86_64"))]
                kernel_4x8_portable(k, ap, bp, &mut acc);
            } else {
                kernel_4x8_portable(k, ap, bp, &mut acc);
            }
            write_back(&acc, alpha, beta, c, ldc, i0, j0, mr, nr);
        }
    }

    ws.put(apack);
    ws.put(bpack);
}

fn check_operand(name: &str, rows: usize, cols: usize, ld: usize, len: usize) {
    assert!(
        ld >= cols.max(1),
        "gemm: leading dimension of {name} ({ld}) smaller than row width ({cols})"
    );
    if rows > 0 {
        let need = (rows - 1) * ld + cols;
        assert!(
            len >= need,
            "gemm: {name} slice too short ({len} < {need}) for {rows}x{cols} ld {ld}"
        );
    }
}

fn scale_c(m: usize, n: usize, beta: f64, c: &mut [f64], ldc: usize) {
    for i in 0..m {
        let row = &mut c[i * ldc..i * ldc + n];
        if beta == 0.0 {
            row.fill(0.0);
        } else if beta != 1.0 {
            for v in row {
                *v *= beta;
            }
        }
    }
}

/// Packs `a` (m×k, row-major, ld `lda`) into MR-row panels: panel `it` holds,
/// for each depth `p`, the MR column entries `a[i0..i0+MR][p]` contiguously,
/// zero-padded past row `m`.
fn pack_a(m: usize, k: usize, a: &[f64], lda: usize, out: &mut [f64]) {
    out.fill(0.0);
    let m_tiles = m.div_ceil(MR);
    for it in 0..m_tiles {
        let i0 = it * MR;
        let mr = MR.min(m - i0);
        let panel = &mut out[it * MR * k..(it + 1) * MR * k];
        for i in 0..mr {
            let src = &a[(i0 + i) * lda..(i0 + i) * lda + k];
            for (p, &v) in src.iter().enumerate() {
                panel[p * MR + i] = v;
            }
        }
    }
}

/// Packs `b` (k×n, row-major, ld `ldb`) into NR-column panels: panel `jt`
/// holds, for each depth `p`, the NR row entries `b[p][j0..j0+NR]`
/// contiguously, zero-padded past column `n`.
fn pack_b(k: usize, n: usize, b: &[f64], ldb: usize, out: &mut [f64]) {
    out.fill(0.0);
    let n_tiles = n.div_ceil(NR);
    for jt in 0..n_tiles {
        let j0 = jt * NR;
        let nr = NR.min(n - j0);
        let panel = &mut out[jt * NR * k..(jt + 1) * NR * k];
        for p in 0..k {
            panel[p * NR..p * NR + nr].copy_from_slice(&b[p * ldb + j0..p * ldb + j0 + nr]);
        }
    }
}

fn write_back(
    acc: &[f64; MR * NR],
    alpha: f64,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    i0: usize,
    j0: usize,
    mr: usize,
    nr: usize,
) {
    for i in 0..mr {
        let row = &mut c[(i0 + i) * ldc + j0..(i0 + i) * ldc + j0 + nr];
        let src = &acc[i * NR..i * NR + nr];
        if beta == 0.0 {
            for (dst, &v) in row.iter_mut().zip(src) {
                *dst = alpha * v;
            }
        } else {
            for (dst, &v) in row.iter_mut().zip(src) {
                *dst = alpha * v + beta * *dst;
            }
        }
    }
}

/// Portable 4×8 microkernel: `acc = Ap·Bp` over packed panels.
///
/// The eight running sums per output row live in fixed-size arrays so the
/// autovectorizer can keep them in registers.
fn kernel_4x8_portable(k: usize, ap: &[f64], bp: &[f64], acc: &mut [f64; MR * NR]) {
    let mut c0 = [0.0f64; NR];
    let mut c1 = [0.0f64; NR];
    let mut c2 = [0.0f64; NR];
    let mut c3 = [0.0f64; NR];
    for p in 0..k {
        let a = &ap[p * MR..p * MR + MR];
        let b = &bp[p * NR..p * NR + NR];
        for j in 0..NR {
            c0[j] += a[0] * b[j];
            c1[j] += a[1] * b[j];
            c2[j] += a[2] * b[j];
            c3[j] += a[3] * b[j];
        }
    }
    acc[..NR].copy_from_slice(&c0);
    acc[NR..2 * NR].copy_from_slice(&c1);
    acc[2 * NR..3 * NR].copy_from_slice(&c2);
    acc[3 * NR..4 * NR].copy_from_slice(&c3);
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{MR, NR};
    use std::arch::x86_64::*;

    /// AVX2+FMA 4×8 microkernel over packed panels.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 and FMA, `ap.len() ≥ k·MR`,
    /// and `bp.len() ≥ k·NR`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn kernel_4x8(k: usize, ap: &[f64], bp: &[f64], acc: &mut [f64; MR * NR]) {
        debug_assert!(ap.len() >= k * MR && bp.len() >= k * NR);
        let mut c00 = _mm256_setzero_pd();
        let mut c01 = _mm256_setzero_pd();
        let mut c10 = _mm256_setzero_pd();
        let mut c11 = _mm256_setzero_pd();
        let mut c20 = _mm256_setzero_pd();
        let mut c21 = _mm256_setzero_pd();
        let mut c30 = _mm256_setzero_pd();
        let mut c31 = _mm256_setzero_pd();
        let a_ptr = ap.as_ptr();
        let b_ptr = bp.as_ptr();
        for p in 0..k {
            let b0 = _mm256_loadu_pd(b_ptr.add(p * NR));
            let b1 = _mm256_loadu_pd(b_ptr.add(p * NR + 4));
            let a0 = _mm256_set1_pd(*a_ptr.add(p * MR));
            c00 = _mm256_fmadd_pd(a0, b0, c00);
            c01 = _mm256_fmadd_pd(a0, b1, c01);
            let a1 = _mm256_set1_pd(*a_ptr.add(p * MR + 1));
            c10 = _mm256_fmadd_pd(a1, b0, c10);
            c11 = _mm256_fmadd_pd(a1, b1, c11);
            let a2 = _mm256_set1_pd(*a_ptr.add(p * MR + 2));
            c20 = _mm256_fmadd_pd(a2, b0, c20);
            c21 = _mm256_fmadd_pd(a2, b1, c21);
            let a3 = _mm256_set1_pd(*a_ptr.add(p * MR + 3));
            c30 = _mm256_fmadd_pd(a3, b0, c30);
            c31 = _mm256_fmadd_pd(a3, b1, c31);
        }
        let out = acc.as_mut_ptr();
        _mm256_storeu_pd(out, c00);
        _mm256_storeu_pd(out.add(4), c01);
        _mm256_storeu_pd(out.add(NR), c10);
        _mm256_storeu_pd(out.add(NR + 4), c11);
        _mm256_storeu_pd(out.add(2 * NR), c20);
        _mm256_storeu_pd(out.add(2 * NR + 4), c21);
        _mm256_storeu_pd(out.add(3 * NR), c30);
        _mm256_storeu_pd(out.add(3 * NR + 4), c31);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn naive(m: usize, n: usize, k: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                for j in 0..n {
                    c[i * n + j] += av * b[p * n + j];
                }
            }
        }
        c
    }

    fn pseudo(seed: &mut u64) -> f64 {
        // xorshift64*; deterministic values in [-1, 1)
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        ((seed.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }

    #[test]
    fn matches_naive_on_assorted_shapes() {
        let mut seed = 0x1234_5678_9abc_def1u64;
        for &(m, n, k) in &[
            (1, 1, 1),
            (4, 8, 4),
            (5, 9, 7),
            (3, 17, 2),
            (12, 24, 12),
            (16, 16, 16),
            (7, 5, 11),
            (1, 8, 3),
            (9, 1, 9),
        ] {
            let a: Vec<f64> = (0..m * k).map(|_| pseudo(&mut seed)).collect();
            let b: Vec<f64> = (0..k * n).map(|_| pseudo(&mut seed)).collect();
            let expect = naive(m, n, k, &a, &b);
            let mut c = vec![f64::NAN; m * n];
            let mut ws = Workspace::new();
            gemm_ws(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n, &mut ws);
            for (x, y) in c.iter().zip(&expect) {
                assert!((x - y).abs() < 1e-12 * (1.0 + y.abs()), "{m}x{n}x{k}");
            }
        }
    }

    #[test]
    fn alpha_beta_and_leading_dimensions() {
        let mut seed = 42u64;
        let (m, n, k) = (5, 6, 4);
        let (lda, ldb, ldc) = (k + 3, n + 2, n + 5);
        let a: Vec<f64> = (0..m * lda).map(|_| pseudo(&mut seed)).collect();
        let b: Vec<f64> = (0..k * ldb).map(|_| pseudo(&mut seed)).collect();
        let c0: Vec<f64> = (0..m * ldc).map(|_| pseudo(&mut seed)).collect();
        let mut c = c0.clone();
        let mut ws = Workspace::new();
        gemm_ws(m, n, k, 2.5, &a, lda, &b, ldb, -0.5, &mut c, ldc, &mut ws);
        for i in 0..m {
            for j in 0..n {
                let mut dot = 0.0;
                for p in 0..k {
                    dot += a[i * lda + p] * b[p * ldb + j];
                }
                let expect = 2.5 * dot - 0.5 * c0[i * ldc + j];
                assert!((c[i * ldc + j] - expect).abs() < 1e-12);
            }
        }
        // Padding columns untouched.
        for i in 0..m {
            for j in n..ldc {
                assert_eq!(c[i * ldc + j], c0[i * ldc + j]);
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_nan_garbage() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [f64::NAN; 4];
        let mut ws = Workspace::new();
        gemm_ws(2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c, 2, &mut ws);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn zero_k_scales_existing_c() {
        let mut c = [2.0, 4.0];
        let mut ws = Workspace::new();
        gemm_ws(1, 2, 0, 1.0, &[], 1, &[], 2, 0.5, &mut c, 2, &mut ws);
        assert_eq!(c, [1.0, 2.0]);
    }

    #[test]
    fn agrees_with_matrix_mul() {
        let mut seed = 7u64;
        let (m, n, k) = (13, 11, 9);
        let a = Matrix::from_fn(m, k, |_, _| pseudo(&mut seed));
        let b = Matrix::from_fn(k, n, |_, _| pseudo(&mut seed));
        let expect = a.mul_mat(&b).unwrap();
        let mut c = vec![0.0; m * n];
        gemm_ws(
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            k,
            b.as_slice(),
            n,
            0.0,
            &mut c,
            n,
            &mut Workspace::new(),
        );
        for (x, y) in c.iter().zip(expect.as_slice()) {
            assert!((x - y).abs() < 1e-12 * (1.0 + y.abs()));
        }
    }
}
