//! From-scratch optimization solvers for the `idc-mpc` workspace.
//!
//! The ICDCS 2012 paper needs two optimizers:
//!
//! 1. a **linear program** for the MPC control reference (paper eq. 46 — the
//!    Rao et al. INFOCOM'10 instantaneous cost minimum), solved here by a
//!    [two-phase primal simplex](linprog) with Bland's anti-cycling rule;
//! 2. a **convex quadratic program** for the MPC step (paper eq. 42–45),
//!    solved here by a primal active-set method over a
//!    [block-tridiagonal Hessian with sparse constraint rows](banded_qp):
//!    the working-set Schur complement is updated incrementally and each
//!    KKT step costs a banded Cholesky solve.
//!
//! The Rust convex-optimization crate ecosystem is thin, which is why these
//! solvers are implemented from scratch on top of [`idc_linalg`]. They are
//! deterministic: identical inputs give bit-identical solutions.
//!
//! # Example: the paper's reference LP in miniature
//!
//! ```
//! use idc_opt::linprog::LinearProgram;
//!
//! // Two IDCs, one portal with 10 units of work. IDC 0 is cheaper but can
//! // hold at most 6 units; the optimum saturates it.
//! # fn main() -> Result<(), idc_opt::Error> {
//! let lp = LinearProgram::minimize(vec![1.0, 3.0])
//!     .equality(vec![1.0, 1.0], 10.0)
//!     .inequality(vec![1.0, 0.0], 6.0)
//!     .solve()?;
//! assert!((lp.x()[0] - 6.0).abs() < 1e-9);
//! assert!((lp.x()[1] - 4.0).abs() < 1e-9);
//! assert!((lp.objective() - 18.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod active_set;
pub mod banded_qp;
mod error;
pub mod linprog;
#[cfg(test)]
mod qp;

pub use active_set::{QpSolution, WARM_TOL};
pub use error::Error;
pub use idc_obs::SolveStats;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;
