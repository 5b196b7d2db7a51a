//! From-scratch optimization solvers for the `idc-mpc` workspace.
//!
//! The ICDCS 2012 paper's MPC step (eq. 42–45) is a **convex quadratic
//! program**, solved here by a primal active-set method over a
//! [block-tridiagonal Hessian with sparse constraint rows](banded_qp): the
//! working-set Schur complement is updated incrementally and each KKT step
//! costs a banded Cholesky solve. The solver starts from a feasible point
//! its caller supplies; the MPC controller builds one by its warm-start
//! repair. (The paper's other optimization problem, the eq. 46 control
//! reference, is separable and solved exactly by a merit-order fill in
//! `idc-control`, with no solver from this crate.)
//!
//! The Rust convex-optimization crate ecosystem is thin, which is why the
//! solver is implemented from scratch on top of [`idc_linalg`]. It is
//! deterministic: identical inputs give bit-identical solutions.
//!
//! # Example: a two-variable QP
//!
//! ```
//! use idc_linalg::banded::BlockTridiag;
//! use idc_opt::banded_qp::{BandedQp, BandedWorkspace, SparseRow};
//!
//! # fn main() -> Result<(), idc_opt::Error> {
//! // min (x0 − 3)² + (x1 − 3)²  s.t.  x0 + x1 = 4,  x0 ≤ 1:
//! // one block of two variables, Hessian 2·I, gradient −6 per variable.
//! let mut h = BlockTridiag::new(2, 1);
//! h.diag_mut(0).copy_from_slice(&[2.0, 0.0, 0.0, 2.0]);
//! let mut qp = BandedQp::new(h, vec![-6.0, -6.0])?
//!     .equality(SparseRow::from_entries(vec![(0, 1.0), (1, 1.0)]), 4.0)
//!     .inequality(SparseRow::from_entries(vec![(0, 1.0)]), 1.0);
//! // Start from a feasible point with an empty working-set seed.
//! let sol = qp.warm_start(&[0.0, 4.0], &[], &mut BandedWorkspace::new())?;
//! assert!((sol.x()[0] - 1.0).abs() < 1e-9);
//! assert!((sol.x()[1] - 3.0).abs() < 1e-9);
//! assert_eq!(sol.active_set(), &[0]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod active_set;
pub mod banded_qp;
mod error;
#[cfg(test)]
mod qp;

pub use active_set::{QpSolution, WARM_TOL};
pub use error::Error;
pub use idc_obs::SolveStats;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;
