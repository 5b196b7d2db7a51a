//! From-scratch dense optimization solvers for the `idc-mpc` workspace.
//!
//! The ICDCS 2012 paper needs two optimizers:
//!
//! 1. a **linear program** for the MPC control reference (paper eq. 46 — the
//!    Rao et al. INFOCOM'10 instantaneous cost minimum), solved here by a
//!    [two-phase primal simplex](linprog) with Bland's anti-cycling rule;
//! 2. a **convex quadratic program** for the condensed MPC problem
//!    (paper eq. 42–45 — a constrained least-squares problem in `ΔU`),
//!    solved here by a [primal active-set method](qp) on LU-factored KKT
//!    systems, with a [penalized projected-gradient](projgrad) alternative
//!    used for ablation benchmarks.
//!
//! The Rust convex-optimization crate ecosystem is thin, which is why these
//! solvers are implemented from scratch on top of [`idc_linalg`]. They are
//! dense and deterministic — appropriate for the problem sizes of the paper
//! (tens to a few hundred variables).
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
pub mod lsq;
pub mod projgrad;
pub mod qp;

pub use active_set::WARM_TOL;
pub use error::Error;
pub use idc_obs::SolveStats;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;
