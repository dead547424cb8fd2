//! # hkrr-datasets
//!
//! Synthetic stand-ins for the datasets used in the paper's evaluation.
//!
//! The paper evaluates on UCI datasets (SUSY, HEPMASS, COVTYPE, GAS, PEN,
//! LETTER) and the extended MNIST-8M digits.  Those raw datasets are not
//! available offline, so this crate generates seeded Gaussian-mixture
//! datasets matched in **dimension**, **size** and **class structure** to
//! each of them.  The phenomena the paper studies — the benefit of
//! clustering-based reordering, rank growth with dimension and bandwidth,
//! near-linear memory and factorization scaling — depend on that geometric
//! structure rather than on the exact UCI feature values, so the synthetic
//! stand-ins preserve the relevant behaviour.  Each stand-in's dimension,
//! cluster structure and paper hyperparameters are listed in [`registry`].

pub mod generator;
pub mod multiclass;
pub mod registry;

pub use generator::{generate, Dataset};
pub use multiclass::{generate_multiclass, MulticlassDataset};
pub use registry::{all_table2_specs, spec_by_name, DatasetSpec};
