use std::fmt;

/// Errors produced by the linear-algebra kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Two operands had incompatible shapes.
    DimensionMismatch {
        /// Human-readable name of the failing operation.
        op: &'static str,
        /// Shape of the left / first operand, `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right / second operand, `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// An operation that requires a square matrix received a rectangular one.
    NotSquare {
        /// Shape of the offending matrix.
        shape: (usize, usize),
    },
    /// A factorization encountered an (numerically) singular matrix.
    Singular,
    /// Cholesky factorization was attempted on a matrix that is not
    /// symmetric positive definite.
    NotPositiveDefinite,
    /// Rows of a jagged input had differing lengths.
    Jagged,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            Error::NotSquare { shape } => {
                write!(f, "matrix must be square, got {}x{}", shape.0, shape.1)
            }
            Error::Singular => write!(f, "matrix is singular to working precision"),
            Error::NotPositiveDefinite => {
                write!(f, "matrix is not symmetric positive definite")
            }
            Error::Jagged => write!(f, "rows have inconsistent lengths"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = Error::DimensionMismatch {
            op: "mul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        assert_eq!(e.to_string(), "dimension mismatch in mul: 2x3 vs 4x5");
        assert_eq!(
            Error::Singular.to_string(),
            "matrix is singular to working precision"
        );
        assert_eq!(
            Error::NotSquare { shape: (1, 2) }.to_string(),
            "matrix must be square, got 1x2"
        );
        assert_eq!(Error::Jagged.to_string(), "rows have inconsistent lengths");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
