//! Free functions over `&[f64]` vectors.
//!
//! The optimizers and the MPC controller shuttle a lot of flat vectors
//! around (stacked `ΔU` inputs, residuals, KKT right-hand sides); these
//! helpers keep that code readable without committing to a vector newtype.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Maximum absolute entry; 0 for an empty slice, and NaN entries are
/// skipped. Runs on the [`simd`](crate::simd) paths, which return the
/// serial fold's bits.
pub fn norm_inf(a: &[f64]) -> f64 {
    crate::simd::norm_inf(a)
}

/// In-place `y += alpha * x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Element-wise `a - b` as a new vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Element-wise `a + b` as a new vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// `alpha * a` as a new vector.
pub fn scale(alpha: f64, a: &[f64]) -> Vec<f64> {
    a.iter().map(|x| alpha * x).collect()
}

/// Sum of all entries.
pub fn sum(a: &[f64]) -> f64 {
    a.iter().sum()
}

/// Largest entry; `f64::NEG_INFINITY` for an empty slice.
pub fn max(a: &[f64]) -> f64 {
    a.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x))
}

/// Smallest entry; `f64::INFINITY` for an empty slice.
pub fn min(a: &[f64]) -> f64 {
    a.iter().fold(f64::INFINITY, |m, &x| m.min(x))
}

/// `true` when `a` and `b` agree entry-wise within `tol`.
pub fn approx_eq(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }

    #[test]
    fn elementwise_helpers() {
        assert_eq!(sub(&[3.0, 2.0], &[1.0, 1.0]), vec![2.0, 1.0]);
        assert_eq!(add(&[3.0, 2.0], &[1.0, 1.0]), vec![4.0, 3.0]);
        assert_eq!(scale(2.0, &[1.0, -2.0]), vec![2.0, -4.0]);
        assert_eq!(sum(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(max(&[1.0, 5.0, -2.0]), 5.0);
        assert_eq!(min(&[1.0, 5.0, -2.0]), -2.0);
    }

    #[test]
    fn approx_eq_respects_tolerance() {
        assert!(approx_eq(&[1.0], &[1.0 + 1e-12], 1e-9));
        assert!(!approx_eq(&[1.0], &[1.1], 1e-9));
        assert!(!approx_eq(&[1.0], &[1.0, 2.0], 1e-9));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_length_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
