use std::fmt;

/// Errors produced by the optimization solvers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded below over the feasible region.
    Unbounded,
    /// The solver exhausted its iteration budget without converging.
    IterationLimit {
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// Problem data had inconsistent dimensions.
    DimensionMismatch {
        /// Human-readable description of the inconsistency.
        what: String,
    },
    /// A numerical kernel failed (singular KKT system etc.).
    Numerical(idc_linalg::Error),
    /// A working-set index log does not fit the problem it was replayed
    /// on (see [`crate::banded_qp::BandedQp::replay`]).
    BadFactorLog {
        /// Which part of the log failed, and why.
        what: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Infeasible => write!(f, "problem is infeasible"),
            Error::Unbounded => write!(f, "objective is unbounded below"),
            Error::IterationLimit { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
            Error::DimensionMismatch { what } => write!(f, "dimension mismatch: {what}"),
            Error::Numerical(e) => write!(f, "numerical failure: {e}"),
            Error::BadFactorLog { what } => write!(f, "working-set log rejected: {what}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Numerical(e) => Some(e),
            _ => None,
        }
    }
}

impl From<idc_linalg::Error> for Error {
    fn from(e: idc_linalg::Error) -> Self {
        Error::Numerical(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(Error::Infeasible.to_string(), "problem is infeasible");
        assert_eq!(
            Error::IterationLimit { iterations: 7 }.to_string(),
            "no convergence after 7 iterations"
        );
        let wrapped: Error = idc_linalg::Error::Singular.into();
        assert!(wrapped.to_string().contains("singular"));
    }

    #[test]
    fn source_exposes_numerical_cause() {
        use std::error::Error as _;
        let wrapped: Error = idc_linalg::Error::Singular.into();
        assert!(wrapped.source().is_some());
        assert!(Error::Unbounded.source().is_none());
    }
}
