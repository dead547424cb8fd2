//! The training pipeline composed from the layers' public functions, in
//! the order and with the options `KrrModel::fit` uses, with the operators
//! and the preconditioner wrapped so each call into a layer is spanned and
//! counted. The composed weights must equal `KrrModel::fit`'s bitwise.

use crate::ops::{EvalCounter, Layer, TracedOp, TracedPrecond};
use crate::spans::Recorder;
use hkrr_clustering::cluster;
use hkrr_core::{KrrConfig, KrrModel, SolverKind};
use hkrr_hmatrix::{build_hmatrix, HOptions};
use hkrr_hss::construct::compress_symmetric;
use hkrr_hss::{HssOptions, UlvFactorization};
use hkrr_kernel::{KernelMatrix, NormalizationStats};
use hkrr_linalg::iterative::{pcg, PcgOptions};
use hkrr_linalg::operator::ShiftedOperator;
use hkrr_linalg::{LinearOperator, Matrix};

/// What the composed fit produced, besides its spans.
pub struct Composed {
    pub weights: Vec<f64>,
    pub h_bytes: usize,
    pub hss_bytes: usize,
    pub ulv_bytes: usize,
    pub max_rank: usize,
    /// Columns of each sampling product, in call order.
    pub sample_cols: Vec<usize>,
    pub pcg_iterations: usize,
}

fn err(e: impl std::fmt::Display) -> String {
    format!("composed fit: {e}")
}

/// Fits one model under a `core.fit` span (child of `parent`, tagged
/// `tag`). Supports the two solvers the workloads use.
pub fn compose_fit(
    train: &Matrix,
    labels: &[f64],
    config: &KrrConfig,
    rec: &Recorder,
    parent: Option<u64>,
    tag: u64,
    evals: &EvalCounter,
) -> Result<Composed, String> {
    let fit = rec.span("core.fit", parent, tag);
    let fit_id = Some(fit.id());
    let norm = NormalizationStats::fit(train, config.normalization);
    let normalized = norm.transform(train);
    let ordering = {
        let _s = rec.span("clustering.cluster", fit_id, tag);
        cluster(&normalized, config.clustering, config.leaf_size)
    };
    let permuted = normalized.select_rows(ordering.permutation());
    let permuted_labels: Vec<f64> = ordering.apply(labels);
    let km = KernelMatrix::new(permuted.clone(), config.kernel());
    let tree = ordering.tree().clone();

    let mut out = Composed {
        weights: Vec::new(),
        h_bytes: 0,
        hss_bytes: 0,
        ulv_bytes: 0,
        max_rank: 0,
        sample_cols: Vec::new(),
        pcg_iterations: 0,
    };
    match config.solver {
        SolverKind::HssWithHSampling => {
            let h = {
                let s = rec.span("hmatrix.build", fit_id, tag);
                let op = TracedOp::new(&km, Layer::Kernel, rec, Some(s.id()), evals);
                let opts = HOptions {
                    tolerance: config.tolerance,
                    eta: config.eta,
                    max_rank: 0,
                };
                build_hmatrix(&op, &permuted, ordering.tree(), &opts)
            };
            out.h_bytes = h.memory_bytes();
            let mut hss = {
                let s = rec.span("hss.compress", fit_id, tag);
                let entries = TracedOp::new(&km, Layer::Kernel, rec, Some(s.id()), evals);
                let sampler = TracedOp::new(&h, Layer::HMatrix, rec, Some(s.id()), evals);
                let opts = HssOptions {
                    tolerance: config.tolerance,
                    seed: config.seed,
                    ..HssOptions::default()
                };
                let hss = compress_symmetric(&entries, &sampler, tree, &opts).map_err(err)?;
                out.sample_cols = sampler.matmat_cols();
                hss
            };
            out.max_rank = hss.max_rank();
            out.hss_bytes = hss.memory_bytes();
            hss.set_diagonal_shift(config.lambda);
            let ulv = {
                let _s = rec.span("ulv.factor", fit_id, tag);
                UlvFactorization::factor(&hss).map_err(err)?
            };
            out.ulv_bytes = ulv.memory_bytes();
            out.weights = {
                let _s = rec.span("ulv.solve", fit_id, tag);
                ulv.solve(&permuted_labels).map_err(err)?
            };
        }
        SolverKind::HssPcg => {
            let mut hss = {
                let s = rec.span("hss.compress", fit_id, tag);
                let op = TracedOp::new(&km, Layer::Kernel, rec, Some(s.id()), evals);
                let opts = HssOptions {
                    tolerance: config.tolerance * config.pcg_loosening,
                    seed: config.seed,
                    ..HssOptions::default()
                };
                let hss = compress_symmetric(&op, &op, tree, &opts).map_err(err)?;
                out.sample_cols = op.matmat_cols();
                hss
            };
            out.max_rank = hss.max_rank();
            out.hss_bytes = hss.memory_bytes();
            hss.set_diagonal_shift(config.lambda);
            let ulv = {
                let _s = rec.span("ulv.factor", fit_id, tag);
                UlvFactorization::factor(&hss).map_err(err)?
            };
            out.ulv_bytes = ulv.memory_bytes();
            let s = rec.span("pcg", fit_id, tag);
            let op = TracedOp::new(&km, Layer::Kernel, rec, Some(s.id()), evals);
            let shifted = ShiftedOperator::new(&op, config.lambda);
            let pre = TracedPrecond::new(&ulv, rec, Some(s.id()));
            let opts = PcgOptions {
                tolerance: config.pcg_tolerance,
                max_iterations: config.pcg_max_iterations,
            };
            let result = pcg(&shifted, &permuted_labels, &pre, &opts).map_err(err)?;
            if !result.converged {
                return Err(err(format!(
                    "PCG did not converge in {} iterations",
                    result.iterations
                )));
            }
            out.pcg_iterations = result.iterations;
            out.weights = result.x;
        }
        other => {
            return Err(err(format!(
                "solver {} is not composed here",
                other.label()
            )))
        }
    }
    Ok(out)
}

/// Relative residual ‖(K + λI)w − y‖ / ‖y‖ of a fitted model against the
/// labels it was trained on (original order), from one exact kernel
/// matvec.
pub fn relative_residual(model: &KrrModel, labels: &[f64]) -> f64 {
    let km = KernelMatrix::new(model.train_points().clone(), model.kernel());
    let w = model.weights();
    let mut kw = vec![0.0; w.len()];
    km.matvec(w, &mut kw);
    let lambda = model.config().lambda;
    let (mut r2, mut y2) = (0.0, 0.0);
    for (i, &orig) in model.permutation().iter().enumerate() {
        let y = labels[orig];
        r2 += (kw[i] + lambda * w[i] - y).powi(2);
        y2 += y * y;
    }
    (r2 / y2).sqrt()
}

pub fn bitwise_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
