//! Dense linear-algebra substrate for the `idc-mpc` workspace.
//!
//! This crate provides exactly the numerical kernels required by the
//! reproduction of *"Dynamic Control of Electricity Cost with Power Demand
//! Smoothing and Peak Shaving for Distributed Internet Data Centers"*
//! (ICDCS 2012):
//!
//! * a row-major dense [`Matrix`] type with the usual arithmetic,
//! * [LU](lu::Lu) and [Cholesky](cholesky::Cholesky) factorizations — the
//!   latter factors and inverts each IDC's chain of the
//!   [block-tridiagonal](banded) MPC Hessian — and the rank-1-updatable
//!   working-set Cholesky factor the MPC's constrained least squares is
//!   solved with,
//! * the scaling-and-squaring [Padé matrix exponential](expm::expm) used for
//!   zero-order-hold discretization of the continuous-time cost model
//!   (`Φ = e^{A·Ts}`, paper eq. 23–25),
//! * rank / norm utilities used by the controllability test of Sec. IV-C,
//! * runtime-dispatched AVX2+FMA [`dot`/`axpy` kernels](simd), which the
//!   working-set Cholesky solves of the active-set QP loop run on.
//!
//! The crate is dependency-free and deterministic; all routines operate on
//! `f64`.
//!
//! # Example
//!
//! ```
//! use idc_linalg::{Matrix, lu::Lu};
//!
//! # fn main() -> Result<(), idc_linalg::Error> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let x = Lu::factor(&a)?.solve(&[1.0, 2.0])?;
//! let r = a.mul_vec(&x)?;
//! assert!((r[0] - 1.0).abs() < 1e-12 && (r[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod banded;
pub mod cholesky;
pub mod eigen;
mod error;
pub mod expm;
pub mod lu;
mod matrix;
pub mod simd;
pub mod vec_ops;
pub mod workspace;

pub use error::Error;
pub use matrix::Matrix;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;
