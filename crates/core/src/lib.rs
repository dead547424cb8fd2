//! # hkrr-core
//!
//! Kernel ridge regression with hierarchical matrix approximations — the
//! paper's Algorithm 1, end to end:
//!
//! 0. **Preprocess**: normalize the features and reorder the training
//!    points with a clustering method (NP / KD / PCA / 2MN) so the kernel
//!    matrix has low-rank off-diagonal blocks,
//! 1. **Assemble** the (implicit) kernel matrix `K_ij = exp(-‖x_i-x_j‖²/2h²)`,
//! 2. **Train**: solve `(K + λI) w = y` with one of the solver back ends
//!    (dense Cholesky baseline, HSS + ULV, HSS with H-matrix accelerated
//!    sampling, or loose-HSS-preconditioned conjugate gradients on the
//!    exact operator),
//! 3. **Predict**: `y'_i = sign(w · K'(x'_i, ·))` for every test point,
//!    with one-vs-all reduction for multi-class problems.
//!
//! Every training run produces a [`TrainingReport`] with the metrics the
//! paper reports: compressed-matrix memory, maximum HSS rank, and the time
//! split into H construction, HSS sampling, the rest of HSS construction,
//! factorization, and solve (Table 4).
//!
//! The same phases are wrapped in `hkrr_telemetry` spans (`train.*`), so a
//! run with `HKRR_TRACE=<path>` set produces a chrome://tracing timeline
//! whose span durations reconcile with the report's timing fields — see
//! `docs/OBSERVABILITY.md`.

#![warn(missing_docs)]

pub mod config;
pub mod handle;
pub mod model;
pub mod multiclass;
pub mod report;

pub use config::{KrrConfig, SolverKind};
pub use handle::{DecisionModel, ModelHandle};
pub use hkrr_hss::FactorPrecision;
pub use model::{accuracy, check_finite_features, KrrModel, ModelParts, TrainedFactors};
pub use multiclass::MulticlassKrr;
pub use report::TrainingReport;

/// Errors surfaced by the training pipeline.
#[derive(Debug)]
pub enum KrrError {
    /// The training inputs are inconsistent (sizes, labels).
    InvalidInput(String),
    /// A linear-algebra kernel failed.
    Linalg(hkrr_linalg::LinalgError),
    /// HSS compression failed.
    Hss(hkrr_hss::construct::HssError),
}

impl std::fmt::Display for KrrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KrrError::InvalidInput(s) => write!(f, "invalid input: {s}"),
            KrrError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            KrrError::Hss(e) => write!(f, "HSS error: {e}"),
        }
    }
}

impl std::error::Error for KrrError {}

impl From<hkrr_linalg::LinalgError> for KrrError {
    fn from(e: hkrr_linalg::LinalgError) -> Self {
        KrrError::Linalg(e)
    }
}

impl From<hkrr_hss::construct::HssError> for KrrError {
    fn from(e: hkrr_hss::construct::HssError) -> Self {
        KrrError::Hss(e)
    }
}
