//! # hkrr-linalg
//!
//! Dense linear-algebra substrate for the `hkrr` workspace.
//!
//! The paper's reference implementation (STRUMPACK) sits on top of
//! LAPACK/ScaLAPACK.  This crate re-implements the pieces the hierarchical
//! formats and the kernel-ridge-regression pipeline actually need, from
//! scratch and with shared-memory parallelism via rayon:
//!
//! * a row-major dense [`Matrix`] type with the usual constructors and views,
//! * parallel BLAS-like kernels ([`blas`]): GEMM, GEMV, SYRK, dot/axpy/nrm2,
//! * Householder and column-pivoted QR ([`qr`]),
//! * one-sided Jacobi SVD ([`svd`]),
//! * a symmetric Jacobi eigensolver ([`eig`]) used by the PCA clustering,
//! * LU with partial pivoting ([`lu`]), Cholesky ([`cholesky`]) and
//!   triangular solves ([`triangular`]),
//! * low-rank factors and truncation helpers ([`low_rank`]),
//! * matrix-free preconditioned conjugate gradients with a
//!   [`Preconditioner`] trait ([`iterative`]) — the Krylov side of the
//!   HSS-preconditioned solver path,
//! * a deterministic PCG64 random generator ([`random`]) so every experiment
//!   in the workspace is reproducible without an external RNG crate,
//! * the [`LinearOperator`] trait that provides the *partially matrix-free*
//!   interface (element access + matvec) the randomized HSS construction
//!   requires.
//!
//! All routines are written for the matrix sizes that occur inside
//! hierarchical formats (leaf blocks and skinny sampling matrices, typically
//! well under a few thousand rows), favouring robustness and clarity over
//! squeezing the last flop out of the machine.
//!
//! ## Dense backends
//!
//! Every level-3 product (GEMM/SYRK/TRSM) and bulk distance kernel routes
//! through a single dispatch seam, the [`DenseBackend`] trait ([`backend`]):
//! a `scalar` reference and a cache-blocked `avx2` SIMD substrate, chosen
//! at startup by runtime feature detection (`avx2` when the CPU reports
//! AVX2+FMA, `scalar` otherwise) or pinned via the `HKRR_DENSE_BACKEND`
//! environment variable.  Results are bitwise deterministic within a
//! backend at any thread count and accuracy-bounded across backends.
//!
//! ## Mixed precision
//!
//! The mixed-precision factor store is storage, not a second backend:
//! [`MatrixF32`] holds demoted factor blocks and [`LuF32`] demoted
//! eliminated-block factorizations. They are applied by three widened
//! kernels that read f32 and compute in f64 —
//! [`MatrixF32::gemv_f64`], [`MatrixF32::gemv_t_f64`] and
//! [`LuF32::solve_f64`] — which call no [`DenseBackend`], so the
//! `HKRR_DENSE_BACKEND` choice does not change them.

#![warn(missing_docs)]

pub mod backend;
pub mod blas;
pub mod cholesky;
pub mod eig;
pub mod iterative;
pub mod low_rank;
pub mod lu;
pub mod matrix;
pub mod matrix_f32;
pub mod operator;
pub mod qr;
pub mod random;
pub mod svd;
pub mod triangular;

pub use backend::{dense_backend, BackendKind, DenseBackend};
pub use iterative::{pcg, JacobiPreconditioner, PcgOptions, PcgResult, Preconditioner};
pub use low_rank::LowRank;
pub use lu::{is_permutation, LuF32};
pub use matrix::Matrix;
pub use matrix_f32::MatrixF32;
pub use operator::LinearOperator;
pub use random::Pcg64;

/// Convenience result alias used across the workspace for fallible
/// factorizations.
pub type LinalgResult<T> = Result<T, LinalgError>;

/// Errors produced by the factorization routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// The operation requires matching dimensions and they do not match.
    DimensionMismatch {
        /// Human-readable description of the offending operation.
        context: String,
    },
    /// The matrix is singular (or numerically singular) where a
    /// non-singular matrix is required.
    Singular {
        /// Index of the pivot (row/column) at which singularity was detected.
        pivot: usize,
    },
    /// Cholesky factorization was attempted on a matrix that is not
    /// (numerically) positive definite.
    NotPositiveDefinite {
        /// Index of the diagonal entry that failed.
        pivot: usize,
    },
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular at pivot {pivot}")
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite at pivot {pivot}")
            }
            LinalgError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = LinalgError::DimensionMismatch {
            context: "gemm A(2x3) * B(4x5)".to_string(),
        };
        assert!(e.to_string().contains("gemm"));
        let e = LinalgError::Singular { pivot: 3 };
        assert!(e.to_string().contains('3'));
        let e = LinalgError::NotPositiveDefinite { pivot: 1 };
        assert!(e.to_string().contains("positive definite"));
        let e = LinalgError::NoConvergence { iterations: 100 };
        assert!(e.to_string().contains("100"));
    }
}
