//! Vectorised level-1 kernels (`dot`, `axpy`, plane rotations) with
//! runtime path selection.
//!
//! The active-set QP loop spends its time in O(m²) working-set kernels —
//! triangular solves and rank-1 rotation sweeps over the column-major
//! working-set factor, and the `p = t − M·C_Gᵀλ` sweep over each chain's
//! free-set inverse `M` — whose inner loops are dot products, axpys and
//! rotations over a few hundred entries. Each kernel has two paths:
//!
//! * an AVX2+FMA path (four independent 4-lane accumulators, so the FMA
//!   latency chain does not serialize the reduction), and
//! * a portable path with four scalar accumulators the autovectorizer can
//!   pair into SSE2 registers.
//!
//! The path is picked once per *kernel call* — a whole triangular solve or
//! a whole sweep such as [`axpy_rows`] — not once per inner product:
//! callers write one generic body over the crate-private `Kernels` trait
//! and expose it through the `dispatch!` macro, which compiles the body a
//! second time under `target_feature(avx2, fma)` so the AVX2 inner loops
//! inline into it. Tiny daemon QPs therefore pay one feature check per
//! solve, not one per row.
//!
//! The two paths sum in different orders (and the AVX2 one fuses the
//! multiply-add), so results agree to rounding, not bitwise; each host is
//! deterministic on its own. The rotation kernels are the exception: they
//! are elementwise and keep every multiply and add apart, so the working-set
//! factor's rotation sweeps — every bound fix, free and row removal — round
//! bitwise alike on both paths (and like the scalar formulas they vectorise).

/// Whether this CPU supports AVX2 and FMA. The single detection point for
/// every SIMD kernel in the crate; the answer is cached after the first
/// call.
pub(crate) fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// A set of level-1 kernels that generic bodies are monomorphized over.
/// Operands are read up to the shorter length.
pub(crate) trait Kernels: Copy {
    /// `Σ aᵢ·bᵢ`.
    fn dot(self, a: &[f64], b: &[f64]) -> f64;
    /// `y += alpha·x`.
    fn axpy(self, alpha: f64, x: &[f64], y: &mut [f64]);
    /// Four fused axpys, `y += Σⱼ alpha[j]·x[j]`, applied per entry in `j`
    /// order — the same roundings as four successive [`Kernels::axpy`]
    /// calls, for a quarter of the `y` traffic. Panics if an `x[j]` is
    /// shorter than `y`.
    fn axpy4(self, alpha: [f64; 4], x: [&[f64]; 4], y: &mut [f64]);
    /// One rotation of a Cholesky downdate, entrywise:
    /// `(x, y) ← (c·x − s·y, c·y + s·x)`. Every product is rounded before
    /// its sum (never fused), so each path rounds exactly like the scalar
    /// formula.
    fn rotate(self, c: f64, s: f64, x: &mut [f64], y: &mut [f64]);
    /// One rotation of a Cholesky update, entrywise: `x ← (x + s·y)·inv_c`,
    /// then `y ← c·y − s·x` with the new `x`. Unfused, as
    /// [`Kernels::rotate`].
    fn rotate_in(self, c: f64, s: f64, inv_c: f64, x: &mut [f64], y: &mut [f64]);
}

/// The portable kernel set; valid on every target.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Portable;

impl Kernels for Portable {
    #[inline(always)]
    fn dot(self, a: &[f64], b: &[f64]) -> f64 {
        portable::dot(a, b)
    }

    #[inline(always)]
    fn axpy(self, alpha: f64, x: &[f64], y: &mut [f64]) {
        portable::axpy(alpha, x, y);
    }

    #[inline(always)]
    fn axpy4(self, alpha: [f64; 4], x: [&[f64]; 4], y: &mut [f64]) {
        portable::axpy4(alpha, x, y);
    }

    #[inline(always)]
    fn rotate(self, c: f64, s: f64, x: &mut [f64], y: &mut [f64]) {
        portable::rotate(c, s, x, y);
    }

    #[inline(always)]
    fn rotate_in(self, c: f64, s: f64, inv_c: f64, x: &mut [f64], y: &mut [f64]) {
        portable::rotate_in(c, s, inv_c, x, y);
    }
}

/// The AVX2+FMA kernel set. Only [`dispatch!`] constructs it, after
/// [`avx2_available`] returned `true`.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx2(());

#[cfg(target_arch = "x86_64")]
impl Avx2 {
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[inline(always)]
    pub(crate) unsafe fn assume_available() -> Self {
        Avx2(())
    }
}

#[cfg(target_arch = "x86_64")]
impl Kernels for Avx2 {
    #[inline(always)]
    fn dot(self, a: &[f64], b: &[f64]) -> f64 {
        // SAFETY: an `Avx2` value exists only when the features are present.
        unsafe { avx2::dot(a, b) }
    }

    #[inline(always)]
    fn axpy(self, alpha: f64, x: &[f64], y: &mut [f64]) {
        // SAFETY: as above.
        unsafe { avx2::axpy(alpha, x, y) }
    }

    #[inline(always)]
    fn axpy4(self, alpha: [f64; 4], x: [&[f64]; 4], y: &mut [f64]) {
        // SAFETY: as above.
        unsafe { avx2::axpy4(alpha, x, y) }
    }

    #[inline(always)]
    fn rotate(self, c: f64, s: f64, x: &mut [f64], y: &mut [f64]) {
        // SAFETY: as above.
        unsafe { avx2::rotate(c, s, x, y) }
    }

    #[inline(always)]
    fn rotate_in(self, c: f64, s: f64, inv_c: f64, x: &mut [f64], y: &mut [f64]) {
        // SAFETY: as above.
        unsafe { avx2::rotate_in(c, s, inv_c, x, y) }
    }
}

/// Defines `fn $name(args) -> ret` that runs the generic body
/// `$body(kernels, args)` on the AVX2+FMA path when the CPU has it (with
/// the whole body compiled under those target features) and on the
/// portable path otherwise. The feature check runs once per call.
macro_rules! dispatch {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? => $body:path) => {
        $(#[$meta])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                /// # Safety
                ///
                /// The CPU must support AVX2 and FMA.
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn with_avx2($($arg: $ty),*) $(-> $ret)? {
                    // SAFETY: only called after the runtime feature check.
                    $body(unsafe { $crate::simd::Avx2::assume_available() }, $($arg),*)
                }
                if $crate::simd::avx2_available() {
                    // SAFETY: AVX2 and FMA were detected at runtime.
                    return unsafe { with_avx2($($arg),*) };
                }
            }
            $body($crate::simd::Portable, $($arg),*)
        }
    };
}
pub(crate) use dispatch;

dispatch! {
    /// `y += alpha · Σₖ coeffs[k] · a[rows[k]]` — a transposed
    /// matrix-vector product over a gathered subset of the rows of a
    /// row-major matrix `a` with row stride `stride`, each row read over its
    /// first `y.len()` columns, as one sweep that folds four rows into each
    /// pass over `y`. Rows with a zero coefficient are skipped; the rest are
    /// added in order, with the same roundings as one axpy per row.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `coeffs` differ in length, if `y.len()` exceeds
    /// `stride`, or if a row runs past the end of `a`.
    pub fn axpy_rows(
        alpha: f64,
        a: &[f64],
        stride: usize,
        rows: &[usize],
        coeffs: &[f64],
        y: &mut [f64],
    ) => axpy_rows_with
}

#[inline(always)]
fn axpy_rows_with<K: Kernels>(
    k: K,
    alpha: f64,
    a: &[f64],
    stride: usize,
    rows: &[usize],
    coeffs: &[f64],
    y: &mut [f64],
) {
    assert_eq!(rows.len(), coeffs.len(), "axpy_rows: length mismatch");
    let width = y.len();
    assert!(width <= stride, "axpy_rows: width past the stride");
    let mut terms = rows
        .iter()
        .zip(coeffs)
        .filter(|&(_, &c)| c != 0.0)
        .map(|(&r, &c)| (alpha * c, &a[r * stride..r * stride + width]));
    loop {
        match [terms.next(), terms.next(), terms.next(), terms.next()] {
            [Some(t0), Some(t1), Some(t2), Some(t3)] => {
                k.axpy4([t0.0, t1.0, t2.0, t3.0], [t0.1, t1.1, t2.1, t3.1], y)
            }
            rest => {
                for (c, row) in rest.into_iter().flatten() {
                    k.axpy(c, row, y);
                }
                break;
            }
        }
    }
}

dispatch! {
    /// `A += alpha·u·uᵀ` on the leading `u.len() × u.len()` block of a
    /// row-major matrix `a` with row stride `stride`: each row `r` with
    /// `u[r] ≠ 0` gains `alpha·u[r]·u`, in one axpy per row.
    ///
    /// # Panics
    ///
    /// Panics if `u.len()` exceeds `stride` or the block runs past `a`.
    pub fn add_outer(alpha: f64, u: &[f64], a: &mut [f64], stride: usize) => add_outer_with
}

#[inline(always)]
fn add_outer_with<K: Kernels>(k: K, alpha: f64, u: &[f64], a: &mut [f64], stride: usize) {
    let n = u.len();
    assert!(n <= stride, "add_outer: width past the stride");
    for (r, &ur) in u.iter().enumerate() {
        if ur != 0.0 {
            k.axpy(alpha * ur, u, &mut a[r * stride..r * stride + n]);
        }
    }
}

mod portable {
    /// Four scalar accumulators over 4-wide chunks, then a scalar tail.
    #[inline(always)]
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mut acc = [0.0f64; 4];
        let mut ca = a.chunks_exact(4);
        let mut cb = b.chunks_exact(4);
        for (x, y) in (&mut ca).zip(&mut cb) {
            for l in 0..4 {
                acc[l] += x[l] * y[l];
            }
        }
        let mut tail = 0.0;
        for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
            tail += x * y;
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
    }

    #[inline(always)]
    pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    #[inline(always)]
    pub fn axpy4(alpha: [f64; 4], x: [&[f64]; 4], y: &mut [f64]) {
        let n = y.len();
        let [x0, x1, x2, x3] = x.map(|xj| &xj[..n]);
        for i in 0..n {
            y[i] = y[i] + alpha[0] * x0[i] + alpha[1] * x1[i] + alpha[2] * x2[i] + alpha[3] * x3[i];
        }
    }

    #[inline(always)]
    pub fn rotate(c: f64, s: f64, x: &mut [f64], y: &mut [f64]) {
        for (xi, yi) in x.iter_mut().zip(y.iter_mut()) {
            let (a, b) = (*xi, *yi);
            *xi = c * a - s * b;
            *yi = c * b + s * a;
        }
    }

    #[inline(always)]
    pub fn rotate_in(c: f64, s: f64, inv_c: f64, x: &mut [f64], y: &mut [f64]) {
        for (xi, yi) in x.iter_mut().zip(y.iter_mut()) {
            let a = (*xi + s * *yi) * inv_c;
            *xi = a;
            *yi = c * *yi - s * a;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Horizontal sum of the four lanes.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn hsum(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd::<1>(v);
        let s = _mm_add_pd(lo, hi);
        _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)))
    }

    /// AVX2+FMA dot product: four independent accumulators over 16-wide
    /// blocks, a 4-wide loop, then a scalar FMA tail.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    pub unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut acc2 = _mm256_setzero_pd();
        let mut acc3 = _mm256_setzero_pd();
        let mut i = 0;
        // SAFETY (all loads): every offset read is below `n`.
        while i + 16 <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(pa.add(i)), _mm256_loadu_pd(pb.add(i)), acc0);
            acc1 = _mm256_fmadd_pd(
                _mm256_loadu_pd(pa.add(i + 4)),
                _mm256_loadu_pd(pb.add(i + 4)),
                acc1,
            );
            acc2 = _mm256_fmadd_pd(
                _mm256_loadu_pd(pa.add(i + 8)),
                _mm256_loadu_pd(pb.add(i + 8)),
                acc2,
            );
            acc3 = _mm256_fmadd_pd(
                _mm256_loadu_pd(pa.add(i + 12)),
                _mm256_loadu_pd(pb.add(i + 12)),
                acc3,
            );
            i += 16;
        }
        while i + 4 <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(pa.add(i)), _mm256_loadu_pd(pb.add(i)), acc0);
            i += 4;
        }
        let mut sum = hsum(_mm256_add_pd(
            _mm256_add_pd(acc0, acc1),
            _mm256_add_pd(acc2, acc3),
        ));
        while i < n {
            sum = (*pa.add(i)).mul_add(*pb.add(i), sum);
            i += 1;
        }
        sum
    }

    /// AVX2+FMA `y += alpha·x`, 16 entries per pass.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    pub unsafe fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len().min(y.len());
        let (px, py) = (x.as_ptr(), y.as_mut_ptr());
        let va = _mm256_set1_pd(alpha);
        let mut i = 0;
        // SAFETY (all loads/stores): every offset touched is below `n`.
        while i + 16 <= n {
            for o in [0, 4, 8, 12] {
                let yv = _mm256_fmadd_pd(
                    va,
                    _mm256_loadu_pd(px.add(i + o)),
                    _mm256_loadu_pd(py.add(i + o)),
                );
                _mm256_storeu_pd(py.add(i + o), yv);
            }
            i += 16;
        }
        while i + 4 <= n {
            let yv = _mm256_fmadd_pd(va, _mm256_loadu_pd(px.add(i)), _mm256_loadu_pd(py.add(i)));
            _mm256_storeu_pd(py.add(i), yv);
            i += 4;
        }
        while i < n {
            *py.add(i) = alpha.mul_add(*px.add(i), *py.add(i));
            i += 1;
        }
    }

    /// AVX2+FMA `y += Σⱼ alpha[j]·x[j]`: one load and store of `y` per
    /// four FMAs, applied in `j` order.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    ///
    /// # Panics
    ///
    /// Panics if an `x[j]` is shorter than `y`.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    pub unsafe fn axpy4(alpha: [f64; 4], x: [&[f64]; 4], y: &mut [f64]) {
        let n = y.len();
        assert!(x.iter().all(|xj| xj.len() >= n), "axpy4: short operand");
        let [p0, p1, p2, p3] = x.map(<[f64]>::as_ptr);
        let py = y.as_mut_ptr();
        // Broadcast outside any closure: a closure does not inherit this
        // function's target features, so the intrinsic would be outlined.
        let a0 = _mm256_set1_pd(alpha[0]);
        let a1 = _mm256_set1_pd(alpha[1]);
        let a2 = _mm256_set1_pd(alpha[2]);
        let a3 = _mm256_set1_pd(alpha[3]);
        let mut i = 0;
        // SAFETY (all loads/stores): every offset touched is below `n`.
        while i + 4 <= n {
            let mut yv = _mm256_loadu_pd(py.add(i));
            yv = _mm256_fmadd_pd(a0, _mm256_loadu_pd(p0.add(i)), yv);
            yv = _mm256_fmadd_pd(a1, _mm256_loadu_pd(p1.add(i)), yv);
            yv = _mm256_fmadd_pd(a2, _mm256_loadu_pd(p2.add(i)), yv);
            yv = _mm256_fmadd_pd(a3, _mm256_loadu_pd(p3.add(i)), yv);
            _mm256_storeu_pd(py.add(i), yv);
            i += 4;
        }
        while i < n {
            let mut v = *py.add(i);
            v = alpha[0].mul_add(*p0.add(i), v);
            v = alpha[1].mul_add(*p1.add(i), v);
            v = alpha[2].mul_add(*p2.add(i), v);
            v = alpha[3].mul_add(*p3.add(i), v);
            *py.add(i) = v;
            i += 1;
        }
    }

    /// AVX2 `(x, y) ← (c·x − s·y, c·y + s·x)`, multiplies and adds kept
    /// apart so every entry rounds as the scalar formula does.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA (the path's shared features; no
    /// multiply-add is fused here).
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    pub unsafe fn rotate(c: f64, s: f64, x: &mut [f64], y: &mut [f64]) {
        let n = x.len().min(y.len());
        let (px, py) = (x.as_mut_ptr(), y.as_mut_ptr());
        let (vc, vs) = (_mm256_set1_pd(c), _mm256_set1_pd(s));
        let mut i = 0;
        // SAFETY (all loads/stores): every offset touched is below `n`.
        while i + 4 <= n {
            let xv = _mm256_loadu_pd(px.add(i));
            let yv = _mm256_loadu_pd(py.add(i));
            let xn = _mm256_sub_pd(_mm256_mul_pd(vc, xv), _mm256_mul_pd(vs, yv));
            let yn = _mm256_add_pd(_mm256_mul_pd(vc, yv), _mm256_mul_pd(vs, xv));
            _mm256_storeu_pd(px.add(i), xn);
            _mm256_storeu_pd(py.add(i), yn);
            i += 4;
        }
        while i < n {
            let (a, b) = (*px.add(i), *py.add(i));
            *px.add(i) = c * a - s * b;
            *py.add(i) = c * b + s * a;
            i += 1;
        }
    }

    /// AVX2 `x ← (x + s·y)·inv_c; y ← c·y − s·x`, unfused as
    /// [`rotate`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA (the path's shared features; no
    /// multiply-add is fused here).
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    pub unsafe fn rotate_in(c: f64, s: f64, inv_c: f64, x: &mut [f64], y: &mut [f64]) {
        let n = x.len().min(y.len());
        let (px, py) = (x.as_mut_ptr(), y.as_mut_ptr());
        let (vc, vs, vi) = (_mm256_set1_pd(c), _mm256_set1_pd(s), _mm256_set1_pd(inv_c));
        let mut i = 0;
        // SAFETY (all loads/stores): every offset touched is below `n`.
        while i + 4 <= n {
            let yv = _mm256_loadu_pd(py.add(i));
            let xn = _mm256_mul_pd(
                _mm256_add_pd(_mm256_loadu_pd(px.add(i)), _mm256_mul_pd(vs, yv)),
                vi,
            );
            let yn = _mm256_sub_pd(_mm256_mul_pd(vc, yv), _mm256_mul_pd(vs, xn));
            _mm256_storeu_pd(px.add(i), xn);
            _mm256_storeu_pd(py.add(i), yn);
            i += 4;
        }
        while i < n {
            let a = (*px.add(i) + s * *py.add(i)) * inv_c;
            *px.add(i) = a;
            *py.add(i) = c * *py.add(i) - s * a;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn pseudo(seed: &mut u64) -> f64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        ((seed.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }

    /// The AVX2 kernel set when this CPU has it.
    #[cfg(target_arch = "x86_64")]
    fn avx2() -> Option<Avx2> {
        // SAFETY: constructed only after the runtime feature check.
        avx2_available().then(|| unsafe { Avx2::assume_available() })
    }

    /// Lengths 0–67 cover the 16-wide blocks, the 4-wide loop and every
    /// scalar tail length on both paths.
    #[test]
    fn dot_paths_agree_for_every_tail_length() {
        let mut seed = 0xd07u64;
        for len in 0..=67 {
            let a: Vec<f64> = (0..len).map(|_| pseudo(&mut seed)).collect();
            let b: Vec<f64> = (0..len).map(|_| 10.0 * pseudo(&mut seed)).collect();
            let scale: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
            let tol = 1e-13 * scale;
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let p = Portable.dot(&a, &b);
            assert!((p - naive).abs() <= tol, "portable len={len}");
            #[cfg(target_arch = "x86_64")]
            if let Some(k) = avx2() {
                let v = k.dot(&a, &b);
                assert!(
                    (v - p).abs() <= tol,
                    "avx2 vs portable len={len}: {v} vs {p}"
                );
            }
        }
    }

    #[test]
    fn axpy_paths_agree_for_every_tail_length() {
        let mut seed = 0xa9e7u64;
        for len in 0..=67 {
            let x: Vec<f64> = (0..len).map(|_| pseudo(&mut seed)).collect();
            let y0: Vec<f64> = (0..len).map(|_| pseudo(&mut seed)).collect();
            let alpha = 3.0 * pseudo(&mut seed);
            let tol = |i: usize| 1e-13 * ((alpha * x[i]).abs() + y0[i].abs());
            let mut p = y0.clone();
            Portable.axpy(alpha, &x, &mut p);
            for i in 0..len {
                assert!((p[i] - (y0[i] + alpha * x[i])).abs() <= tol(i));
            }
            #[cfg(target_arch = "x86_64")]
            if let Some(k) = avx2() {
                let mut v = y0.clone();
                k.axpy(alpha, &x, &mut v);
                for i in 0..len {
                    assert!((v[i] - p[i]).abs() <= tol(i), "len={len} i={i}");
                }
            }
        }
    }

    const ROWS: [usize; 9] = [7, 0, 3, 3, 8, 1, 5, 2, 4];
    const COEFFS: [f64; 9] = [0.5, -1.25, 0.0, 2.0, 1.0, -0.75, 0.3, 1.5, -2.0];

    fn sweep_operands() -> (Matrix, Vec<f64>) {
        let mut seed = 0x5eedu64;
        let a = Matrix::from_fn(9, 23, |_, _| pseudo(&mut seed));
        let y0 = (0..23).map(|_| pseudo(&mut seed)).collect();
        (a, y0)
    }

    /// Runs the fused sweep on kernel set `k`, checks that it rounds
    /// exactly like one axpy per nonzero row, and returns the result.
    fn fused_sweep<K: Kernels>(k: K) -> Vec<f64> {
        let (a, y0) = sweep_operands();
        let mut fused = y0.clone();
        axpy_rows_with(k, -2.0, a.as_slice(), 23, &ROWS, &COEFFS, &mut fused);
        let mut each = y0;
        for (&r, &c) in ROWS.iter().zip(&COEFFS) {
            if c != 0.0 {
                k.axpy(-2.0 * c, a.row(r), &mut each);
            }
        }
        assert_eq!(fused, each);
        fused
    }

    #[test]
    fn axpy_rows_rounds_like_row_by_row_axpys() {
        #[allow(unused_mut)]
        let mut best = fused_sweep(Portable);
        #[cfg(target_arch = "x86_64")]
        if let Some(k) = avx2() {
            best = fused_sweep(k);
        }
        // The dispatched entry point takes the best path this CPU has.
        let (a, mut y) = sweep_operands();
        axpy_rows(-2.0, a.as_slice(), 23, &ROWS, &COEFFS, &mut y);
        assert_eq!(y, best);
    }

    /// A sweep over the leading `w` columns of each row (odd widths, so
    /// the fused passes have tails) equals the full-width sweep of the
    /// same rows with their trailing columns zeroed, on those `w` entries
    /// bitwise, and leaves the rest of a full-width `y` alone.
    fn span_sweep_matches_full_rows<K: Kernels>(k: K) {
        let rows = [0, 1, 3, 4, 8, 2, 5, 8, 0, 6, 7, 2, 3];
        let coeffs: Vec<f64> = (0..rows.len()).map(|i| 0.5 + i as f64).collect();
        for w in [0, 1, 5, 13, 22] {
            let (mut a, y0) = sweep_operands();
            let mut prefix = y0[..w].to_vec();
            axpy_rows_with(k, -1.5, a.as_slice(), 23, &rows, &coeffs, &mut prefix);
            for r in 0..a.rows() {
                a.row_mut(r)[w..].fill(0.0);
            }
            let mut full = y0.clone();
            axpy_rows_with(k, -1.5, a.as_slice(), 23, &rows, &coeffs, &mut full);
            for (i, (s, f)) in prefix.iter().zip(&full).enumerate() {
                assert!(s == f, "width {w}, entry {i}: {s} vs {f}");
            }
            assert!(full[w..].iter().zip(&y0[w..]).all(|(f, y)| f == y));
        }
    }

    /// The rank-1 update touches the leading block only and matches a dense
    /// outer product.
    #[test]
    fn add_outer_updates_the_leading_block() {
        let (a, _) = sweep_operands();
        let mut m = a.as_slice()[..9 * 23].to_vec();
        let u = [0.5, 0.0, -1.25, 2.0, 0.0, 1.0, -0.75];
        add_outer(-2.0, &u, &mut m, 23);
        for r in 0..9 {
            for c in 0..23 {
                let expect = if r < 7 && c < 7 && u[r] != 0.0 {
                    a[(r, c)] - 2.0 * u[r] * u[c]
                } else {
                    a[(r, c)]
                };
                assert!((m[r * 23 + c] - expect).abs() <= 1e-15, "({r}, {c})");
            }
        }
    }

    #[test]
    fn span_sweep_equals_full_row_sweep() {
        span_sweep_matches_full_rows(Portable);
        #[cfg(target_arch = "x86_64")]
        if let Some(k) = avx2() {
            span_sweep_matches_full_rows(k);
        }
    }
}
