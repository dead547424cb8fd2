//! The binary kernel-ridge-regression classifier (Algorithm 1 of the paper).

use crate::config::{KrrConfig, SolverKind};
use crate::report::TrainingReport;
use crate::KrrError;
use hkrr_clustering::cluster;
use hkrr_hmatrix::{build_hmatrix, HOptions};
use hkrr_hss::construct::{compress_symmetric, HssOptions};
use hkrr_hss::{FactorPrecision, HssMatrix, UlvFactorization};
use hkrr_kernel::{cross_scores_into, KernelMatrix, NormalizationStats};
use hkrr_linalg::iterative::{pcg, PcgOptions, PcgResult};
use hkrr_linalg::operator::ShiftedOperator;
use hkrr_linalg::{cholesky, is_permutation, LinalgError, Matrix};
use hkrr_telemetry::log::{self, Level};
use std::time::Instant;

/// The compressed training operator and its factorization, retained after
/// an HSS fit so serving-side persistence can round-trip them and a loaded
/// model can solve for new label vectors without re-compressing or
/// re-factoring anything.
#[derive(Debug, Clone)]
pub struct TrainedFactors {
    /// The compressed `K + λI` (the shift is recorded in
    /// [`HssMatrix::diagonal_shift`]).
    pub hss: HssMatrix,
    /// Its ULV factorization, reusable for many right-hand sides.
    pub ulv: UlvFactorization,
}

/// Everything a [`KrrModel`] is made of, for persistence: the inverse of
/// the model's accessors, consumed by [`KrrModel::from_parts`].
#[derive(Debug, Clone)]
pub struct ModelParts {
    /// Normalized, reordered training points.
    pub train_points: Matrix,
    /// Weight vector in the reordered index space.
    pub weights: Vec<f64>,
    /// The kernel function.
    pub kernel: hkrr_kernel::KernelFunction,
    /// Normalization statistics fitted on the raw training data.
    pub norm_stats: NormalizationStats,
    /// Training report.
    pub report: TrainingReport,
    /// Training configuration.
    pub config: KrrConfig,
    /// Clustering permutation: position `i` of the reordered training set
    /// holds original point `permutation[i]`.
    pub permutation: Vec<usize>,
    /// Retained compressed operator + factorization (HSS solvers only).
    pub factors: Option<TrainedFactors>,
}

/// A trained binary classifier.
#[derive(Debug, Clone)]
pub struct KrrModel {
    /// Normalized, reordered training points (the order the weights refer to).
    train_points: Matrix,
    /// Weight vector `w = (K + λI)^{-1} y` in the reordered index space.
    weights: Vec<f64>,
    kernel: hkrr_kernel::KernelFunction,
    norm_stats: NormalizationStats,
    report: TrainingReport,
    config: KrrConfig,
    /// Clustering permutation (original index of each reordered position).
    permutation: Vec<usize>,
    /// Compressed operator + ULV factors, retained by the HSS solvers.
    factors: Option<TrainedFactors>,
}

impl KrrModel {
    /// Trains a classifier on `train` (rows are points) with ±1 `labels`.
    pub fn fit(train: &Matrix, labels: &[f64], config: &KrrConfig) -> Result<KrrModel, KrrError> {
        config.validate().map_err(KrrError::InvalidInput)?;
        let n = train.nrows();
        if n == 0 {
            return Err(KrrError::InvalidInput("empty training set".to_string()));
        }
        if labels.len() != n {
            return Err(KrrError::InvalidInput(format!(
                "{} labels for {} training points",
                labels.len(),
                n
            )));
        }
        if labels.iter().any(|l| !l.is_finite() || *l == 0.0) {
            return Err(KrrError::InvalidInput(
                "labels must be finite, non-zero (±1)".to_string(),
            ));
        }
        check_finite_features(train)?;

        // Resolve the effective factor precision (env override included)
        // up front, and store the *effective* value in the model's config
        // so persistence and `solve_new_labels` see what actually ran.
        let mut config = *config;
        if config.solver == SolverKind::HssPcg {
            config.factor_precision = effective_factor_precision(&config);
        }
        let config = &config;

        let mut report = TrainingReport::new(config.solver, n, train.ncols());
        let mut fit_span = hkrr_telemetry::span!("train.fit");
        fit_span.annotate("n", n);
        fit_span.annotate("solver", format!("{:?}", config.solver));

        // Step 0a: normalization (fit on train only).
        let norm_stats = NormalizationStats::fit(train, config.normalization);
        let normalized = norm_stats.transform(train);

        // Step 0b: clustering-based reordering.
        let t = Instant::now();
        let ordering = {
            let _span = hkrr_telemetry::span!("train.clustering");
            cluster(&normalized, config.clustering, config.leaf_size)
        };
        report.clustering_seconds = t.elapsed().as_secs_f64();
        let permuted = normalized.select_rows(ordering.permutation());
        let permuted_labels: Vec<f64> = ordering.apply(labels);

        // Step 1: the (implicit) kernel matrix on the reordered points.
        let kernel = config.kernel();
        let km = KernelMatrix::new(permuted.clone(), kernel);

        // Step 2: solve (K + λI) w = y with the requested solver.
        let (weights, factors) = match config.solver {
            SolverKind::DenseCholesky => {
                let t = Instant::now();
                let k_dense = {
                    let _span = hkrr_telemetry::span!("train.assembly");
                    km.assemble_regularized(config.lambda)
                };
                // Dense assembly is its own phase — not HSS work (the
                // perf JSON reports the HSS fields as compression time).
                report.assembly_seconds = t.elapsed().as_secs_f64();
                report.matrix_memory_bytes = k_dense.memory_bytes();

                let t = Instant::now();
                let factor = {
                    let _span = hkrr_telemetry::span!("train.cholesky");
                    cholesky::cholesky(&k_dense)?
                };
                report.factorization_seconds = t.elapsed().as_secs_f64();

                let t = Instant::now();
                let w = {
                    let _span = hkrr_telemetry::span!("train.solve");
                    factor.solve(&permuted_labels)?
                };
                report.solve_seconds = t.elapsed().as_secs_f64();
                (w, None)
            }
            SolverKind::Hss | SolverKind::HssWithHSampling => {
                let hss_opts = HssOptions {
                    tolerance: config.tolerance,
                    seed: config.seed,
                    ..HssOptions::default()
                };
                let tree = ordering.tree().clone();

                // Optional H-matrix sampler (the paper's accelerated
                // sampling path).
                let sampler_h = if config.solver == SolverKind::HssWithHSampling {
                    let t = Instant::now();
                    let _span = hkrr_telemetry::span!("train.h_sampler");
                    let h = build_hmatrix(
                        &km,
                        &permuted,
                        ordering.tree(),
                        &HOptions {
                            tolerance: config.tolerance,
                            eta: config.eta,
                            max_rank: 0,
                        },
                    );
                    report.h_construction_seconds = t.elapsed().as_secs_f64();
                    report.sampler_memory_bytes = h.memory_bytes();
                    Some(h)
                } else {
                    None
                };

                let mut hss = {
                    let _span = hkrr_telemetry::span!("train.hss_compress");
                    match &sampler_h {
                        Some(h) => compress_symmetric(&km, h, tree, &hss_opts)?,
                        None => compress_symmetric(&km, &km, tree, &hss_opts)?,
                    }
                };
                report.hss_sampling_seconds = hss.construction_stats().sampling_seconds;
                report.hss_other_seconds = hss.construction_stats().other_seconds;
                report.matrix_memory_bytes = hss.memory_bytes();
                report.max_rank = hss.max_rank();
                log_compression_event(&report, &hss);

                hss.set_diagonal_shift(config.lambda);

                let t = Instant::now();
                let factor = {
                    let _span = hkrr_telemetry::span!("train.ulv_factor");
                    UlvFactorization::factor(&hss)?
                };
                report.factorization_seconds = t.elapsed().as_secs_f64();

                let t = Instant::now();
                let w = {
                    let _span = hkrr_telemetry::span!("train.solve");
                    factor.solve(&permuted_labels)?
                };
                report.solve_seconds = t.elapsed().as_secs_f64();
                record_factor_bytes(&mut report, &factor);
                (w, Some(TrainedFactors { hss, ulv: factor }))
            }
            SolverKind::HssPcg => {
                // Compress an order of magnitude looser than the direct
                // path: the result is only a preconditioner, so its error
                // is removed by the Krylov iteration instead of ending up
                // in the weights.
                let hss_opts = HssOptions {
                    tolerance: config.tolerance * config.pcg_loosening,
                    seed: config.seed,
                    ..HssOptions::default()
                };
                let tree = ordering.tree().clone();
                let mut hss = {
                    let _span = hkrr_telemetry::span!("train.hss_compress");
                    compress_symmetric(&km, &km, tree, &hss_opts)?
                };
                report.hss_sampling_seconds = hss.construction_stats().sampling_seconds;
                report.hss_other_seconds = hss.construction_stats().other_seconds;
                report.matrix_memory_bytes = hss.memory_bytes();
                report.max_rank = hss.max_rank();
                log_compression_event(&report, &hss);

                hss.set_diagonal_shift(config.lambda);

                let t = Instant::now();
                let mut factor = {
                    let _span = hkrr_telemetry::span!("train.ulv_factor");
                    UlvFactorization::factor(&hss)?
                };
                // Always factor in f64 (exact pivoting), then demote the
                // store: the demotion error behaves like extra compression
                // looseness, which PCG removes anyway.
                if config.factor_precision == FactorPrecision::F32 {
                    let _span = hkrr_telemetry::span!("train.ulv_demote");
                    factor = factor.to_f32();
                }
                report.factorization_seconds = t.elapsed().as_secs_f64();
                record_factor_bytes(&mut report, &factor);

                // PCG on the *exact* regularized kernel operator: only
                // matvecs, nothing assembled, nothing compressed.
                let t = Instant::now();
                let mut pcg_span = hkrr_telemetry::span!("train.pcg");
                let result = run_pcg(&km, config, &factor, &permuted_labels)?;
                pcg_span.annotate("iterations", result.iterations);
                drop(pcg_span);
                report.pcg_seconds = t.elapsed().as_secs_f64();
                report.pcg_iterations = result.iterations;
                report.pcg_residual_history = result.residual_history.clone();
                (result.x, Some(TrainedFactors { hss, ulv: factor }))
            }
        };

        Ok(KrrModel {
            train_points: permuted,
            weights,
            kernel,
            norm_stats,
            report,
            config: *config,
            permutation: ordering.permutation().to_vec(),
            factors,
        })
    }

    /// Rebuilds a model from persisted parts, validating their mutual
    /// consistency. The numerical content is taken as-is, so a
    /// save → load round trip reproduces predictions bitwise.
    pub fn from_parts(parts: ModelParts) -> Result<KrrModel, KrrError> {
        let ModelParts {
            train_points,
            weights,
            kernel,
            norm_stats,
            report,
            config,
            permutation,
            factors,
        } = parts;
        let n = train_points.nrows();
        if weights.len() != n {
            return Err(KrrError::InvalidInput(format!(
                "{} weights for {} training points",
                weights.len(),
                n
            )));
        }
        if norm_stats.dim() != train_points.ncols() {
            return Err(KrrError::InvalidInput(format!(
                "normalization covers {} features, training points have {}",
                norm_stats.dim(),
                train_points.ncols()
            )));
        }
        if permutation.len() != n || !is_permutation(&permutation) {
            return Err(KrrError::InvalidInput(format!(
                "clustering permutation is not a permutation of 0..{n}"
            )));
        }
        if let Some(f) = &factors {
            if f.hss.dim() != n || f.ulv.dim() != n {
                return Err(KrrError::InvalidInput(format!(
                    "retained factors are {}x{} / {}x{}, model has {n} points",
                    f.hss.dim(),
                    f.hss.dim(),
                    f.ulv.dim(),
                    f.ulv.dim()
                )));
            }
        }
        Ok(KrrModel {
            train_points,
            weights,
            kernel,
            norm_stats,
            report,
            config,
            permutation,
            factors,
        })
    }

    /// Decomposes the model into its persistable parts (the inverse of
    /// [`KrrModel::from_parts`]).
    pub fn into_parts(self) -> ModelParts {
        ModelParts {
            train_points: self.train_points,
            weights: self.weights,
            kernel: self.kernel,
            norm_stats: self.norm_stats,
            report: self.report,
            config: self.config,
            permutation: self.permutation,
            factors: self.factors,
        }
    }

    /// Raw decision values `w · K'(x'_i, ·)` for each test point.
    pub fn decision_values(&self, test: &Matrix) -> Vec<f64> {
        let mut out = vec![0.0; test.nrows()];
        self.decision_values_into(test, &mut out);
        out
    }

    /// [`KrrModel::decision_values`] into a caller-provided buffer, so hot
    /// serving paths can reuse allocations across prediction batches (no
    /// per-call clone of the training points either — the cross-kernel is
    /// evaluated against borrowed storage).
    ///
    /// # Panics
    /// Panics when `out.len() != test.nrows()` or the test dimension does
    /// not match the training dimension.
    pub fn decision_values_into(&self, test: &Matrix, out: &mut [f64]) {
        let test_n = self.norm_stats.transform(test);
        cross_scores_into(&test_n, &self.train_points, self.kernel, &self.weights, out);
    }

    /// Predicted ±1 labels (Step 4 of Algorithm 1).
    pub fn predict(&self, test: &Matrix) -> Vec<f64> {
        let mut out = vec![0.0; test.nrows()];
        self.predict_into(test, &mut out);
        out
    }

    /// [`KrrModel::predict`] into a caller-provided buffer.
    pub fn predict_into(&self, test: &Matrix, out: &mut [f64]) {
        self.decision_values_into(test, out);
        for s in out.iter_mut() {
            *s = if *s >= 0.0 { 1.0 } else { -1.0 };
        }
    }

    /// Solves `(K + λI) w = y` for a fresh label vector using the retained
    /// ULV factorization — no re-clustering, re-compression or
    /// re-factorization. `labels` are given in the *original* training
    /// order (the same order [`KrrModel::fit`] consumed); the stored
    /// clustering permutation is applied internally.
    ///
    /// Returns the new weight vector (in the reordered index space, like
    /// [`KrrModel::weights`]). Fails for models trained with the dense
    /// solver, which retains no factorization.
    pub fn solve_new_labels(&self, labels: &[f64]) -> Result<Vec<f64>, KrrError> {
        if labels.len() != self.num_train() {
            return Err(KrrError::InvalidInput(format!(
                "{} labels for {} training points",
                labels.len(),
                self.num_train()
            )));
        }
        let factors = self.factors.as_ref().ok_or_else(|| {
            KrrError::InvalidInput(
                "model retains no factorization (dense solver, or factors discarded)".to_string(),
            )
        })?;
        let permuted: Vec<f64> = self.permutation.iter().map(|&i| labels[i]).collect();
        if self.config.solver == SolverKind::HssPcg {
            // The retained ULV is only a preconditioner of the exact
            // system: re-run PCG with it, exactly as `fit` did, so new
            // weights carry the same accuracy as the originals. The
            // point-matrix clone is one O(n·d) copy against the
            // O(iters·n²·d) the iteration itself costs, and routing both
            // paths through the same KernelMatrix keeps the arithmetic
            // bitwise identical to training.
            let km = KernelMatrix::new(self.train_points.clone(), self.kernel);
            return Ok(run_pcg(&km, &self.config, &factors.ulv, &permuted)?.x);
        }
        Ok(factors.ulv.solve(&permuted)?)
    }

    /// The weight vector (in the reordered training index space).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The normalized, reordered training points the weights refer to.
    pub fn train_points(&self) -> &Matrix {
        &self.train_points
    }

    /// The kernel function the model predicts with.
    pub fn kernel(&self) -> hkrr_kernel::KernelFunction {
        self.kernel
    }

    /// The normalization statistics fitted on the raw training data.
    pub fn norm_stats(&self) -> &NormalizationStats {
        &self.norm_stats
    }

    /// The clustering permutation: position `i` of the reordered training
    /// set holds original point `permutation()[i]`.
    pub fn permutation(&self) -> &[usize] {
        &self.permutation
    }

    /// The retained compressed operator + ULV factorization (`None` for the
    /// dense solver or after [`KrrModel::discard_factors`]).
    pub fn factors(&self) -> Option<&TrainedFactors> {
        self.factors.as_ref()
    }

    /// Drops the retained factorization to reclaim memory. Prediction is
    /// unaffected; [`KrrModel::solve_new_labels`] stops working.
    pub fn discard_factors(&mut self) {
        self.factors = None;
    }

    /// Raw input feature dimension the model expects at prediction time.
    pub fn dim(&self) -> usize {
        self.norm_stats.dim()
    }

    /// Performance report of the training run.
    pub fn report(&self) -> &TrainingReport {
        &self.report
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &KrrConfig {
        &self.config
    }

    /// Number of training points.
    pub fn num_train(&self) -> usize {
        self.train_points.nrows()
    }
}

/// Resolves the factor-storage precision for an `hss-pcg` fit: the
/// `HKRR_FACTOR_PRECISION` environment variable (`f64` or `f32`,
/// case-insensitive) overrides [`KrrConfig::factor_precision`] so CI and
/// benchmark matrices can flip the whole suite without touching code.
/// An unparseable value panics loudly — a silently ignored typo would run
/// the entire suite at the wrong precision.
fn effective_factor_precision(config: &KrrConfig) -> FactorPrecision {
    match std::env::var("HKRR_FACTOR_PRECISION") {
        Ok(raw) => FactorPrecision::parse(&raw)
            .unwrap_or_else(|| panic!("HKRR_FACTOR_PRECISION must be `f64` or `f32`, got `{raw}`")),
        Err(_) => config.factor_precision,
    }
}

/// One structured event-log line per HSS compression (see
/// `hkrr_telemetry::log`): the rank/bytes/wall summary an operator reads
/// off `HKRR_LOG` to see where a slow fit spent its time. No-op (one
/// relaxed load) when event logging is off.
fn log_compression_event(report: &TrainingReport, hss: &HssMatrix) {
    log::event(Level::Info, "train.hss_compress")
        .num("n", hss.dim())
        .num("max_rank", report.max_rank)
        .num("bytes", report.matrix_memory_bytes)
        .num("samples", hss.construction_stats().samples_used)
        .num("restarts", hss.construction_stats().restarts)
        .num("sampling_us", (report.hss_sampling_seconds * 1e6) as u64)
        .num("other_us", (report.hss_other_seconds * 1e6) as u64)
        .emit();
}

/// Records the retained factor store's memory in the report and publishes
/// it as the `hkrr_train_factor_bytes{precision}` gauge, so the f32 memory
/// win is visible both per-run and on a metrics scrape. Also lands the
/// `train.ulv_factor` event-log line (precision, bytes, wall).
fn record_factor_bytes(report: &mut TrainingReport, ulv: &UlvFactorization) {
    report.factor_bytes = ulv.memory_bytes();
    hkrr_telemetry::global()
        .gauge(
            "hkrr_train_factor_bytes",
            "Memory of the retained ULV factor store after training, in bytes",
            &[("precision", ulv.precision().as_str())],
        )
        .set(report.factor_bytes as f64);
    log::event(Level::Info, "train.ulv_factor")
        .field("precision", ulv.precision().as_str())
        .num("bytes", report.factor_bytes)
        .num("wall_us", (report.factorization_seconds * 1e6) as u64)
        .emit();
}

/// The PCG step of the `hss-pcg` solver: conjugate gradients on the exact
/// shifted kernel operator, preconditioned by the loose-tolerance ULV
/// factorization. Shared between [`KrrModel::fit`] and
/// [`KrrModel::solve_new_labels`] so a re-solve performs the identical
/// arithmetic (and reproduces the training weights bitwise for the
/// original labels).
fn run_pcg(
    km: &KernelMatrix,
    config: &KrrConfig,
    ulv: &UlvFactorization,
    rhs: &[f64],
) -> Result<PcgResult, KrrError> {
    let shifted = ShiftedOperator::new(km, config.lambda);
    let opts = PcgOptions {
        tolerance: config.pcg_tolerance,
        max_iterations: config.pcg_max_iterations,
    };
    let result = pcg(&shifted, rhs, ulv, &opts)?;
    if !result.converged {
        return Err(KrrError::Linalg(LinalgError::NoConvergence {
            iterations: result.iterations,
        }));
    }
    if log::enabled() {
        // Residual milestones: the first iteration crossing each decade,
        // so convergence stalls are visible in the event log without
        // shipping the whole history.
        let mut milestone = 0.1_f64;
        for (i, &r) in result.residual_history.iter().enumerate() {
            if r <= milestone {
                log::event(Level::Debug, "train.pcg_milestone")
                    .num("iteration", i)
                    .num("residual", r)
                    .emit();
                while milestone >= r && milestone > f64::MIN_POSITIVE {
                    milestone /= 10.0;
                }
            }
        }
        log::event(Level::Info, "train.pcg")
            .num("iterations", result.iterations)
            .num(
                "final_residual",
                result.residual_history.last().copied().unwrap_or(0.0),
            )
            .emit();
    }
    Ok(result)
}

/// Rejects a training set with a NaN or infinite feature, naming the first
/// one. Normalization, clustering (a NaN breaks the median split's sort)
/// and the kernel all need finite coordinates, so every fit checks this
/// before it touches the data.
pub fn check_finite_features(train: &Matrix) -> Result<(), KrrError> {
    match train.data().iter().position(|x| !x.is_finite()) {
        None => Ok(()),
        Some(at) => Err(KrrError::InvalidInput(format!(
            "feature {} of point {} is {}; features must be finite",
            at % train.ncols(),
            at / train.ncols(),
            train.data()[at]
        ))),
    }
}

/// Classification accuracy: the fraction of predictions whose sign matches
/// the true label (Eq. 2.1 of the paper).
pub fn accuracy(predicted: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(predicted.len(), truth.len(), "accuracy: length mismatch");
    if predicted.is_empty() {
        return 0.0;
    }
    let correct = predicted
        .iter()
        .zip(truth.iter())
        .filter(|(p, t)| p.signum() == t.signum())
        .count();
    correct as f64 / predicted.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{KrrConfig, SolverKind};
    use hkrr_clustering::ClusteringMethod;
    use hkrr_datasets::generate;
    use hkrr_datasets::registry::LETTER;

    fn quick_config(solver: SolverKind) -> KrrConfig {
        KrrConfig {
            h: LETTER.default_h,
            lambda: LETTER.default_lambda,
            solver,
            ..KrrConfig::default()
        }
    }

    #[test]
    fn dense_baseline_classifies_separable_data() {
        let ds = generate(&LETTER, 400, 120, 1);
        let model = KrrModel::fit(
            &ds.train,
            &ds.train_labels,
            &quick_config(SolverKind::DenseCholesky),
        )
        .unwrap();
        let pred = model.predict(&ds.test);
        let acc = accuracy(&pred, &ds.test_labels);
        assert!(acc > 0.9, "dense accuracy {acc}");
        assert_eq!(model.num_train(), 400);
    }

    #[test]
    fn hss_solver_matches_dense_accuracy() {
        let ds = generate(&LETTER, 500, 150, 2);
        let dense = KrrModel::fit(
            &ds.train,
            &ds.train_labels,
            &quick_config(SolverKind::DenseCholesky),
        )
        .unwrap();
        let hss =
            KrrModel::fit(&ds.train, &ds.train_labels, &quick_config(SolverKind::Hss)).unwrap();
        let acc_dense = accuracy(&dense.predict(&ds.test), &ds.test_labels);
        let acc_hss = accuracy(&hss.predict(&ds.test), &ds.test_labels);
        assert!(
            (acc_dense - acc_hss).abs() <= 0.03,
            "dense {acc_dense} vs HSS {acc_hss}"
        );
        assert!(hss.report().max_rank > 0);
    }

    #[test]
    fn h_sampling_path_produces_usable_model() {
        let ds = generate(&LETTER, 400, 100, 3);
        let model = KrrModel::fit(
            &ds.train,
            &ds.train_labels,
            &quick_config(SolverKind::HssWithHSampling),
        )
        .unwrap();
        let acc = accuracy(&model.predict(&ds.test), &ds.test_labels);
        assert!(acc > 0.85, "hss+h accuracy {acc}");
        assert!(model.report().h_construction_seconds >= 0.0);
        assert!(model.report().sampler_memory_bytes > 0);
    }

    #[test]
    fn hss_pcg_solves_the_exact_system_with_loose_compression() {
        let ds = generate(&LETTER, 500, 150, 2);
        let dense = KrrModel::fit(
            &ds.train,
            &ds.train_labels,
            &quick_config(SolverKind::DenseCholesky),
        )
        .unwrap();
        let hss =
            KrrModel::fit(&ds.train, &ds.train_labels, &quick_config(SolverKind::Hss)).unwrap();
        let pcg_model = KrrModel::fit(
            &ds.train,
            &ds.train_labels,
            &quick_config(SolverKind::HssPcg),
        )
        .unwrap();

        // PCG runs on the exact operator, so its predictions match the
        // dense (exact) solver to solver precision — accuracy the direct
        // HSS path cannot reach at its compression tolerance.
        let dv_dense = dense.decision_values(&ds.test);
        let dv_pcg = pcg_model.decision_values(&ds.test);
        let rmse = dv_dense
            .iter()
            .zip(dv_pcg.iter())
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
            .sqrt()
            / (dv_dense.len() as f64).sqrt();
        assert!(rmse < 1e-6, "hss-pcg vs dense prediction RMSE {rmse}");

        // Same test accuracy as the direct HSS solve.
        let acc_hss = accuracy(&hss.predict(&ds.test), &ds.test_labels);
        let acc_pcg = accuracy(&pcg_model.predict(&ds.test), &ds.test_labels);
        assert!(
            (acc_hss - acc_pcg).abs() <= 0.02,
            "hss {acc_hss} vs hss-pcg {acc_pcg}"
        );

        // The preconditioner really was compressed 10× looser (the
        // memory payoff is asserted on the medium workload in the
        // integration suite; on tiny problems compressed size is not
        // monotone in the tolerance).
        let r = pcg_model.report();
        assert!(r.max_rank > 0);
        assert_eq!(pcg_model.config().pcg_loosening, 10.0);
        // Iteration metrics are recorded.
        assert!(r.pcg_iterations > 0);
        assert!(r.pcg_seconds > 0.0);
        assert_eq!(r.pcg_residual_history.len(), r.pcg_iterations + 1);
        assert_eq!(r.pcg_residual_history[0], 1.0);
        assert!(
            r.pcg_residual_history.last().unwrap() <= &pcg_model.config().pcg_tolerance,
            "history {:?}",
            r.pcg_residual_history
        );
    }

    #[test]
    fn hss_pcg_solve_new_labels_reruns_pcg_bitwise() {
        let ds = generate(&LETTER, 260, 30, 21);
        let model = KrrModel::fit(
            &ds.train,
            &ds.train_labels,
            &quick_config(SolverKind::HssPcg),
        )
        .unwrap();
        // The identical PCG arithmetic on the identical inputs: bitwise.
        let w = model.solve_new_labels(&ds.train_labels).unwrap();
        assert_eq!(w, model.weights());
        // A genuinely different right-hand side gives different weights.
        let flipped: Vec<f64> = ds.train_labels.iter().map(|l| -l).collect();
        assert_ne!(model.solve_new_labels(&flipped).unwrap(), model.weights());
    }

    #[test]
    fn dense_assembly_time_is_not_misattributed_to_hss() {
        let ds = generate(&LETTER, 300, 30, 8);
        let dense = KrrModel::fit(
            &ds.train,
            &ds.train_labels,
            &quick_config(SolverKind::DenseCholesky),
        )
        .unwrap();
        let r = dense.report();
        assert!(r.assembly_seconds > 0.0);
        assert_eq!(r.hss_other_seconds, 0.0);
        assert_eq!(r.hss_sampling_seconds, 0.0);
        // HSS solvers never assemble the dense matrix.
        let hss =
            KrrModel::fit(&ds.train, &ds.train_labels, &quick_config(SolverKind::Hss)).unwrap();
        assert_eq!(hss.report().assembly_seconds, 0.0);
    }

    #[test]
    fn hss_memory_is_reported_and_below_dense_for_clustered_order() {
        let ds = generate(&LETTER, 600, 50, 4);
        let cfg =
            quick_config(SolverKind::Hss).with_clustering(ClusteringMethod::TwoMeans { seed: 1 });
        let model = KrrModel::fit(&ds.train, &ds.train_labels, &cfg).unwrap();
        let dense_bytes = 600 * 600 * 8;
        assert!(model.report().matrix_memory_bytes > 0);
        assert!(
            model.report().matrix_memory_bytes < dense_bytes,
            "HSS memory {} should be below dense {}",
            model.report().matrix_memory_bytes,
            dense_bytes
        );
    }

    #[test]
    fn predictions_are_signs() {
        let ds = generate(&LETTER, 200, 40, 5);
        let model =
            KrrModel::fit(&ds.train, &ds.train_labels, &quick_config(SolverKind::Hss)).unwrap();
        for p in model.predict(&ds.test) {
            assert!(p == 1.0 || p == -1.0);
        }
        // Decision values carry the magnitudes used by one-vs-all.
        let dv = model.decision_values(&ds.test);
        assert_eq!(dv.len(), 40);
        assert!(dv.iter().any(|v| v.abs() > 0.0));
    }

    #[test]
    fn into_parts_from_parts_roundtrips_predictions_bitwise() {
        let ds = generate(&LETTER, 300, 60, 11);
        let model =
            KrrModel::fit(&ds.train, &ds.train_labels, &quick_config(SolverKind::Hss)).unwrap();
        let reference = model.decision_values(&ds.test);
        let rebuilt = KrrModel::from_parts(model.clone().into_parts()).unwrap();
        assert_eq!(rebuilt.decision_values(&ds.test), reference);
        assert_eq!(rebuilt.weights(), model.weights());
        assert_eq!(rebuilt.permutation(), model.permutation());
        assert!(rebuilt.factors().is_some(), "HSS fit retains its factors");
        assert_eq!(rebuilt.dim(), 16);
    }

    #[test]
    fn from_parts_rejects_inconsistent_pieces() {
        let ds = generate(&LETTER, 100, 10, 12);
        let model =
            KrrModel::fit(&ds.train, &ds.train_labels, &quick_config(SolverKind::Hss)).unwrap();
        // Wrong weight count.
        let mut parts = model.clone().into_parts();
        parts.weights.pop();
        assert!(matches!(
            KrrModel::from_parts(parts),
            Err(KrrError::InvalidInput(_))
        ));
        // Corrupted permutation.
        let mut parts = model.clone().into_parts();
        parts.permutation[0] = parts.permutation[1];
        assert!(matches!(
            KrrModel::from_parts(parts),
            Err(KrrError::InvalidInput(_))
        ));
    }

    #[test]
    fn buffered_prediction_paths_match_allocating_ones() {
        let ds = generate(&LETTER, 250, 70, 13);
        let model =
            KrrModel::fit(&ds.train, &ds.train_labels, &quick_config(SolverKind::Hss)).unwrap();
        let dv = model.decision_values(&ds.test);
        let pred = model.predict(&ds.test);
        let mut buf = vec![f64::NAN; 70];
        model.decision_values_into(&ds.test, &mut buf);
        assert_eq!(buf, dv);
        model.predict_into(&ds.test, &mut buf);
        assert_eq!(buf, pred);
    }

    #[test]
    fn solve_new_labels_reuses_the_factorization() {
        let ds = generate(&LETTER, 200, 20, 14);
        let model =
            KrrModel::fit(&ds.train, &ds.train_labels, &quick_config(SolverKind::Hss)).unwrap();
        // Solving for the original labels reproduces the weights bitwise:
        // the exact same stored factors, the exact same arithmetic.
        let w = model.solve_new_labels(&ds.train_labels).unwrap();
        assert_eq!(w, model.weights());
        // Flipped labels flip the weights' meaning — a genuinely new solve.
        let flipped: Vec<f64> = ds.train_labels.iter().map(|l| -l).collect();
        let w_flipped = model.solve_new_labels(&flipped).unwrap();
        assert_ne!(w_flipped, model.weights());
        // Dense models retain no factors.
        let dense = KrrModel::fit(
            &ds.train,
            &ds.train_labels,
            &quick_config(SolverKind::DenseCholesky),
        )
        .unwrap();
        assert!(dense.factors().is_none());
        assert!(dense.solve_new_labels(&ds.train_labels).is_err());
        // Wrong label count is rejected before touching the factors.
        assert!(model.solve_new_labels(&ds.train_labels[..10]).is_err());
        // Discarding factors frees them (and disables new solves).
        let mut discarded = model.clone();
        discarded.discard_factors();
        assert!(discarded.factors().is_none());
        assert!(discarded.solve_new_labels(&ds.train_labels).is_err());
        assert_eq!(
            discarded.decision_values(&ds.test),
            model.decision_values(&ds.test)
        );
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let ds = generate(&LETTER, 50, 10, 6);
        let cfg = quick_config(SolverKind::DenseCholesky);
        // Wrong label count.
        assert!(matches!(
            KrrModel::fit(&ds.train, &ds.train_labels[..40], &cfg),
            Err(KrrError::InvalidInput(_))
        ));
        // Zero labels.
        let zeros = vec![0.0; 50];
        assert!(matches!(
            KrrModel::fit(&ds.train, &zeros, &cfg),
            Err(KrrError::InvalidInput(_))
        ));
        // Empty training set.
        assert!(matches!(
            KrrModel::fit(&Matrix::zeros(0, 16), &[], &cfg),
            Err(KrrError::InvalidInput(_))
        ));
        // Invalid hyperparameter.
        assert!(KrrModel::fit(&ds.train, &ds.train_labels, &cfg.with_h(-1.0)).is_err());
    }

    #[test]
    fn non_finite_features_are_rejected_by_every_solver() {
        let ds = generate(&LETTER, 60, 10, 7);
        for solver in [
            SolverKind::DenseCholesky,
            SolverKind::Hss,
            SolverKind::HssWithHSampling,
            SolverKind::HssPcg,
        ] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut train = ds.train.clone();
                train[(17, 3)] = bad;
                match KrrModel::fit(&train, &ds.train_labels, &quick_config(solver)) {
                    Err(KrrError::InvalidInput(msg)) => {
                        assert!(msg.contains("point 17"), "{solver:?}, {bad}: {msg}")
                    }
                    other => panic!("{solver:?}, {bad}: expected InvalidInput, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn accuracy_metric() {
        assert_eq!(
            accuracy(&[1.0, -1.0, 1.0, 1.0], &[1.0, -1.0, -1.0, 1.0]),
            0.75
        );
        assert_eq!(accuracy(&[], &[]), 0.0);
        assert_eq!(accuracy(&[2.5, -0.1], &[1.0, -1.0]), 1.0);
    }

    #[test]
    fn report_time_breakdown_is_populated() {
        let ds = generate(&LETTER, 300, 30, 7);
        let model =
            KrrModel::fit(&ds.train, &ds.train_labels, &quick_config(SolverKind::Hss)).unwrap();
        let r = model.report();
        assert_eq!(r.num_train, 300);
        assert_eq!(r.dim, 16);
        assert!(r.total_seconds() > 0.0);
        assert!(r.hss_construction_seconds() > 0.0);
        assert!(r.factorization_seconds >= 0.0);
    }
}
