//! # hkrr-kernel
//!
//! Kernel functions, pairwise-distance utilities and the *partially
//! matrix-free* kernel-matrix operator used by the hierarchical solvers.
//!
//! The central type is [`KernelMatrix`]: it holds the (reordered) training
//! points and a [`KernelFunction`] and exposes the kernel matrix
//! `K_ij = K(x_i, x_j)` through the [`hkrr_linalg::LinearOperator`] trait —
//! individual entries and parallel matrix-vector and matrix-block
//! products — without ever storing the full `n x n` matrix.  This mirrors
//! the interface STRUMPACK's randomized HSS construction consumes.  Each
//! product — a matvec, or a `matmat` over a whole block of vectors —
//! evaluates every kernel entry once, one row at a time, through the
//! backend's bulk distance kernel (radial kernels).
//!
//! Radial kernel evaluation and the bulk distance helpers in [`distance`]
//! route through the active [`hkrr_linalg::DenseBackend`], so they pick up
//! the SIMD substrate on hosts that support it.

#![warn(missing_docs)]

pub mod distance;
pub mod kernel_matrix;
pub mod kernels;
pub mod normalize;

pub use distance::{distances_to_center_into, pairwise_sq_distances_into};
pub use kernel_matrix::{cross_scores_into, CrossKernel, KernelMatrix};
pub use kernels::KernelFunction;
pub use normalize::{NormalizationStats, Normalizer};
