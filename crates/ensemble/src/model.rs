//! The sharded ensemble: parallel per-shard training and routed,
//! inverse-distance-weighted prediction.

use crate::report::EnsembleReport;
use crate::shard::{ShardPlan, ShardStrategy, MAX_SHARDS};
use hkrr_core::{DecisionModel, KrrConfig, KrrError, KrrModel};
use hkrr_linalg::Matrix;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Additive guard in the inverse-distance weights, so a query sitting
/// exactly on a centroid gets a finite (huge) weight instead of a division
/// by zero.
const WEIGHT_EPSILON: f64 = 1e-12;

/// Configuration of one ensemble fit.
#[derive(Debug, Clone, Copy)]
pub struct EnsembleConfig {
    /// Number of shards `k` (1 ⇒ the ensemble degenerates to the
    /// monolithic model, bitwise).
    pub shards: usize,
    /// How many nearest shards answer each query (`m`); `m = shards` is the
    /// weighted full-average baseline.
    pub route_nearest: usize,
    /// Sharding strategy (cluster-tree truncation or random baseline).
    pub strategy: ShardStrategy,
    /// Per-shard training configuration; its clustering method and leaf
    /// size also drive the cluster sharding.
    pub base: KrrConfig,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        EnsembleConfig {
            shards: 4,
            route_nearest: 2,
            strategy: ShardStrategy::Cluster,
            base: KrrConfig::default(),
        }
    }
}

impl EnsembleConfig {
    /// Validates the ensemble-level knobs plus the embedded base config.
    pub fn validate(&self) -> Result<(), String> {
        self.base.validate()?;
        if self.shards == 0 {
            return Err("shards must be at least 1".to_string());
        }
        if self.shards > MAX_SHARDS {
            return Err(format!(
                "shards {} exceeds the maximum {MAX_SHARDS}",
                self.shards
            ));
        }
        if self.route_nearest == 0 || self.route_nearest > self.shards {
            return Err(format!(
                "route_nearest must be in 1..={}, got {}",
                self.shards, self.route_nearest
            ));
        }
        Ok(())
    }

    /// Returns a copy with a different shard count (clamping
    /// `route_nearest` into range).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self.route_nearest = self.route_nearest.min(shards).max(1);
        self
    }
}

/// Routes raw queries to their `m` nearest shard centroids.
#[derive(Debug, Clone)]
pub struct Router {
    centroids: Matrix,
    route_nearest: usize,
}

impl Router {
    /// Builds a router over `k × d` centroids.
    pub fn new(centroids: Matrix, route_nearest: usize) -> Result<Router, String> {
        if centroids.nrows() == 0 {
            return Err("router needs at least one centroid".to_string());
        }
        if route_nearest == 0 || route_nearest > centroids.nrows() {
            return Err(format!(
                "route_nearest must be in 1..={}, got {route_nearest}",
                centroids.nrows()
            ));
        }
        Ok(Router {
            centroids,
            route_nearest,
        })
    }

    /// The shard centroids (`k × d`, raw feature space).
    pub fn centroids(&self) -> &Matrix {
        &self.centroids
    }

    /// How many shards answer each query.
    pub fn route_nearest(&self) -> usize {
        self.route_nearest
    }

    /// The `m` nearest shards for one raw query: `(shard, squared
    /// distance)` pairs ordered by ascending distance (ties by shard id).
    pub fn route(&self, query: &[f64]) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(self.centroids.nrows());
        self.route_into(query, &mut out);
        out
    }

    /// [`Router::route`] into a reused buffer.
    ///
    /// # Panics
    /// Panics when the query dimension does not match the centroids.
    pub fn route_into(&self, query: &[f64], out: &mut Vec<(usize, f64)>) {
        assert_eq!(
            query.len(),
            self.centroids.ncols(),
            "router: query dimension mismatch"
        );
        out.clear();
        let be = hkrr_linalg::dense_backend();
        for s in 0..self.centroids.nrows() {
            out.push((s, be.sq_distance(self.centroids.row(s), query)));
        }
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out.truncate(self.route_nearest);
    }
}

/// Combines `(squared distance, score)` contributions by inverse-distance
/// weighting. The contributions are first sorted by a total order on their
/// *values* (distance, then score), so the result is independent of the
/// order the shards were stored in — with `m = k`, routing is bitwise
/// permutation-invariant in the shard order. A single contribution is
/// returned verbatim, which is what makes a 1-shard ensemble reproduce the
/// monolithic model bitwise.
///
/// This is the *one* definition of the ensemble combining rule. The
/// distributed shard router (`hkrr_serve::router`) calls it on scores it
/// collected over TCP, which is what makes routed predictions bitwise
/// identical to the in-process [`EnsembleKrr`] on the same shard set.
///
/// # Panics
/// Panics (debug assertion) when `contributions` is empty — a query must
/// reach at least one shard.
pub fn combine_scores(contributions: &mut [(f64, f64)]) -> f64 {
    debug_assert!(!contributions.is_empty());
    if contributions.len() == 1 {
        return contributions[0].1;
    }
    contributions.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut numerator = 0.0;
    let mut denominator = 0.0;
    for &(d2, score) in contributions.iter() {
        let w = 1.0 / (d2.sqrt() + WEIGHT_EPSILON);
        numerator += w * score;
        denominator += w;
    }
    numerator / denominator
}

/// Everything an [`EnsembleKrr`] is made of, for persistence — the inverse
/// of its accessors, consumed by [`EnsembleKrr::from_parts`].
#[derive(Debug, Clone)]
pub struct EnsembleParts {
    /// Per-shard trained models, in shard order.
    pub models: Vec<KrrModel>,
    /// Shard centroids (`k × d`, raw feature space).
    pub centroids: Matrix,
    /// Sharding strategy the ensemble was trained with.
    pub strategy: ShardStrategy,
    /// How many nearest shards answer each query.
    pub route_nearest: usize,
    /// Wall-clock time of the whole parallel fit.
    pub fit_wall_seconds: f64,
    /// Per-shard wall-clock fit times.
    pub shard_wall_seconds: Vec<f64>,
}

/// A cluster-sharded ensemble of independently trained [`KrrModel`]s with
/// centroid-routed, inverse-distance-weighted prediction.
#[derive(Debug)]
pub struct EnsembleKrr {
    models: Vec<KrrModel>,
    router: Router,
    strategy: ShardStrategy,
    report: EnsembleReport,
    /// Cumulative routed-query count per shard (serving telemetry).
    shard_loads: Vec<AtomicU64>,
}

impl Clone for EnsembleKrr {
    fn clone(&self) -> Self {
        EnsembleKrr {
            models: self.models.clone(),
            router: self.router.clone(),
            strategy: self.strategy,
            report: self.report.clone(),
            // Telemetry counters restart on the clone.
            shard_loads: (0..self.models.len()).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl EnsembleKrr {
    /// Trains one model per shard, in parallel over the shards.
    ///
    /// `labels` are ±1, in the same order as `train`'s rows (exactly like
    /// [`KrrModel::fit`]); each shard trains on its own rows and labels
    /// with `config.base`.
    pub fn fit(
        train: &Matrix,
        labels: &[f64],
        config: &EnsembleConfig,
    ) -> Result<EnsembleKrr, KrrError> {
        config.validate().map_err(KrrError::InvalidInput)?;
        if labels.len() != train.nrows() {
            return Err(KrrError::InvalidInput(format!(
                "{} labels for {} training points",
                labels.len(),
                train.nrows()
            )));
        }
        // Before sharding: the shard plan clusters the raw points.
        hkrr_core::check_finite_features(train)?;
        let fit_start = Instant::now();
        let plan = ShardPlan::build(
            train,
            config.shards,
            config.strategy,
            config.base.clustering,
            config.base.leaf_size,
        )
        .map_err(KrrError::InvalidInput)?;

        // The shards are independent `(K_s + λI) w_s = y_s` problems: train
        // them concurrently. Each shard's arithmetic is identical to a
        // standalone fit on its rows, so the schedule stays bitwise
        // deterministic across thread counts.
        let indexed: Vec<(usize, &[usize])> = plan
            .shards()
            .iter()
            .map(|v| v.as_slice())
            .enumerate()
            .collect();
        let fitted: Result<Vec<(KrrModel, f64)>, KrrError> = indexed
            .par_iter()
            .with_min_len(1)
            .map(|&(shard, indices)| {
                let shard_points = train.select_rows(indices);
                let shard_labels: Vec<f64> = indices.iter().map(|&i| labels[i]).collect();
                let t = Instant::now();
                let mut span = hkrr_telemetry::span!("ensemble.fit_shard");
                span.annotate("shard", shard);
                span.annotate("rows", indices.len());
                let model = KrrModel::fit(&shard_points, &shard_labels, &config.base)?;
                let wall = t.elapsed();
                hkrr_telemetry::log::event(hkrr_telemetry::log::Level::Info, "ensemble.fit_shard")
                    .num("shard", shard)
                    .num("rows", indices.len())
                    .num("max_rank", model.report().max_rank)
                    .num("factor_bytes", model.report().factor_bytes)
                    .num("wall_us", wall.as_micros())
                    .emit();
                Ok((model, wall.as_secs_f64()))
            })
            .collect();
        let fitted = fitted?;
        let fit_wall_seconds = fit_start.elapsed().as_secs_f64();

        let (models, shard_wall_seconds): (Vec<KrrModel>, Vec<f64>) = fitted.into_iter().unzip();
        let report = EnsembleReport {
            strategy: config.strategy,
            shard_sizes: models.iter().map(KrrModel::num_train).collect(),
            shard_reports: models.iter().map(|m| m.report().clone()).collect(),
            shard_wall_seconds,
            fit_wall_seconds,
        };
        let router = Router::new(plan.centroids().clone(), config.route_nearest)
            .map_err(KrrError::InvalidInput)?;
        let shard_loads = (0..models.len()).map(|_| AtomicU64::new(0)).collect();
        Ok(EnsembleKrr {
            models,
            router,
            strategy: config.strategy,
            report,
            shard_loads,
        })
    }

    /// Rebuilds an ensemble from persisted parts, validating their mutual
    /// consistency. Numerical content is taken as-is, so a save → load
    /// round trip reproduces predictions bitwise.
    pub fn from_parts(parts: EnsembleParts) -> Result<EnsembleKrr, KrrError> {
        let EnsembleParts {
            models,
            centroids,
            strategy,
            route_nearest,
            fit_wall_seconds,
            shard_wall_seconds,
        } = parts;
        if models.is_empty() {
            return Err(KrrError::InvalidInput(
                "ensemble needs at least one shard model".to_string(),
            ));
        }
        if models.len() > MAX_SHARDS {
            return Err(KrrError::InvalidInput(format!(
                "{} shards exceed the maximum {MAX_SHARDS}",
                models.len()
            )));
        }
        let dim = models[0].dim();
        if models.iter().any(|m| m.dim() != dim) {
            return Err(KrrError::InvalidInput(
                "shard models disagree on the feature dimension".to_string(),
            ));
        }
        if centroids.shape() != (models.len(), dim) {
            return Err(KrrError::InvalidInput(format!(
                "centroids are {}x{}, expected {}x{dim}",
                centroids.nrows(),
                centroids.ncols(),
                models.len()
            )));
        }
        if shard_wall_seconds.len() != models.len() {
            return Err(KrrError::InvalidInput(format!(
                "{} shard wall times for {} shards",
                shard_wall_seconds.len(),
                models.len()
            )));
        }
        let router = Router::new(centroids, route_nearest).map_err(KrrError::InvalidInput)?;
        let report = EnsembleReport {
            strategy,
            shard_sizes: models.iter().map(KrrModel::num_train).collect(),
            shard_reports: models.iter().map(|m| m.report().clone()).collect(),
            shard_wall_seconds,
            fit_wall_seconds,
        };
        let shard_loads = (0..models.len()).map(|_| AtomicU64::new(0)).collect();
        Ok(EnsembleKrr {
            models,
            router,
            strategy,
            report,
            shard_loads,
        })
    }

    /// Decomposes the ensemble into its persistable parts (the inverse of
    /// [`EnsembleKrr::from_parts`]).
    pub fn into_parts(self) -> EnsembleParts {
        EnsembleParts {
            models: self.models,
            centroids: self.router.centroids,
            strategy: self.strategy,
            route_nearest: self.router.route_nearest,
            fit_wall_seconds: self.report.fit_wall_seconds,
            shard_wall_seconds: self.report.shard_wall_seconds,
        }
    }

    /// The per-shard models, in shard order.
    pub fn models(&self) -> &[KrrModel] {
        &self.models
    }

    /// The prediction router.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The sharding strategy the ensemble was trained with.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// The ensemble-level training report.
    pub fn report(&self) -> &EnsembleReport {
        &self.report
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.models.len()
    }

    /// Raw input feature dimension.
    pub fn dim(&self) -> usize {
        self.models[0].dim()
    }

    /// Total training points across all shards.
    pub fn num_train(&self) -> usize {
        self.models.iter().map(KrrModel::num_train).sum()
    }

    /// Cumulative routed-query count per shard since construction (or the
    /// last clone). One query routed to `m` shards counts once per shard.
    pub fn shard_loads(&self) -> Vec<u64> {
        self.shard_loads
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Raw decision values for each test point (allocating form; delegates
    /// to the [`DecisionModel`] default so the logic lives in one place).
    pub fn decision_values(&self, test: &Matrix) -> Vec<f64> {
        DecisionModel::decision_values(self, test)
    }

    /// Decision values into a caller buffer: route every query to its `m`
    /// nearest shard centroids, evaluate each shard once over the queries
    /// routed to it (batched, buffer-reusing), and combine by
    /// inverse-distance weighting.
    ///
    /// # Panics
    /// Panics when `out.len() != test.nrows()` or the dimensions mismatch.
    pub fn decision_values_into(&self, test: &Matrix, out: &mut [f64]) {
        assert_eq!(out.len(), test.nrows(), "ensemble: output length mismatch");
        assert_eq!(test.ncols(), self.dim(), "ensemble: query dimension");
        let m = self.router.route_nearest;
        let k = self.models.len();

        // Phase 1: routing. Remember each query's (shard, distance) picks
        // and build the per-shard query lists.
        let mut routes: Vec<(usize, f64)> = Vec::with_capacity(test.nrows() * m);
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut scratch = Vec::with_capacity(k);
        for i in 0..test.nrows() {
            self.router.route_into(test.row(i), &mut scratch);
            for &(s, d2) in scratch.iter() {
                per_shard[s].push(i);
                routes.push((s, d2));
            }
        }

        // Phase 2: one batched evaluation per shard over exactly the
        // queries routed to it.
        let mut shard_scores: Vec<Vec<f64>> = vec![Vec::new(); k];
        for (s, queries) in per_shard.iter().enumerate() {
            if queries.is_empty() {
                continue;
            }
            self.shard_loads[s].fetch_add(queries.len() as u64, Ordering::Relaxed);
            let sub = test.select_rows(queries);
            let scores = &mut shard_scores[s];
            scores.resize(queries.len(), 0.0);
            self.models[s].decision_values_into(&sub, scores);
        }

        // Phase 3: combine. Walk the routes in query order, pulling each
        // shard's scores in the order its queries were appended.
        let mut cursors = vec![0usize; k];
        let mut contributions: Vec<(f64, f64)> = Vec::with_capacity(m);
        for (i, slot) in out.iter_mut().enumerate() {
            contributions.clear();
            for &(s, d2) in &routes[i * m..(i + 1) * m] {
                let score = shard_scores[s][cursors[s]];
                cursors[s] += 1;
                contributions.push((d2, score));
            }
            *slot = combine_scores(&mut contributions);
        }
    }

    /// Predicted ±1 labels (allocating form; delegates to the
    /// [`DecisionModel`] default — the thresholding rule has exactly one
    /// definition, in `hkrr_core::handle`).
    pub fn predict(&self, test: &Matrix) -> Vec<f64> {
        DecisionModel::predict(self, test)
    }

    /// Predicted ±1 labels into a caller buffer (delegates to the
    /// [`DecisionModel`] default).
    pub fn predict_into(&self, test: &Matrix, out: &mut [f64]) {
        DecisionModel::predict_into(self, test, out);
    }
}

impl DecisionModel for EnsembleKrr {
    fn dim(&self) -> usize {
        EnsembleKrr::dim(self)
    }

    fn num_train(&self) -> usize {
        EnsembleKrr::num_train(self)
    }

    fn decision_values_into(&self, test: &Matrix, out: &mut [f64]) {
        EnsembleKrr::decision_values_into(self, test, out);
    }

    fn num_models(&self) -> usize {
        self.num_shards()
    }

    fn model_loads(&self) -> Vec<u64> {
        self.shard_loads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hkrr_core::SolverKind;
    use hkrr_datasets::generate;
    use hkrr_datasets::registry::LETTER;

    fn ensemble_config(shards: usize, route_nearest: usize) -> EnsembleConfig {
        EnsembleConfig {
            shards,
            route_nearest,
            strategy: ShardStrategy::Cluster,
            base: KrrConfig {
                h: LETTER.default_h,
                lambda: LETTER.default_lambda,
                solver: SolverKind::Hss,
                ..KrrConfig::default()
            },
        }
    }

    #[test]
    fn four_shard_ensemble_classifies_and_reports() {
        let ds = generate(&LETTER, 400, 100, 1);
        let cfg = ensemble_config(4, 2);
        let ens = EnsembleKrr::fit(&ds.train, &ds.train_labels, &cfg).unwrap();
        assert_eq!(ens.num_shards(), 4);
        assert_eq!(ens.num_train(), 400);
        assert_eq!(ens.dim(), 16);
        let acc = hkrr_core::accuracy(&ens.predict(&ds.test), &ds.test_labels);
        assert!(acc > 0.85, "ensemble accuracy {acc}");
        let r = ens.report();
        assert_eq!(r.num_shards(), 4);
        assert_eq!(r.num_train(), 400);
        assert!(r.fit_wall_seconds > 0.0);
        assert!(r.sum_factorization_seconds() > 0.0);
        assert_eq!(r.shard_wall_seconds.len(), 4);
        // Every query routed to exactly 2 shards.
        assert_eq!(ens.shard_loads().iter().sum::<u64>(), 2 * 100);
    }

    #[test]
    fn non_finite_features_are_rejected_before_sharding() {
        let ds = generate(&LETTER, 120, 10, 3);
        let cfg = ensemble_config(3, 1);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut train = ds.train.clone();
            train[(40, 5)] = bad;
            match EnsembleKrr::fit(&train, &ds.train_labels, &cfg) {
                Err(KrrError::InvalidInput(msg)) => {
                    assert!(msg.contains("point 40"), "{bad}: {msg}")
                }
                Err(other) => panic!("{bad}: expected InvalidInput, got {other:?}"),
                Ok(_) => panic!("{bad}: expected InvalidInput, got a model"),
            }
        }
    }

    #[test]
    fn single_shard_ensemble_is_the_monolithic_model_bitwise() {
        let ds = generate(&LETTER, 220, 50, 2);
        let cfg = ensemble_config(1, 1);
        let ens = EnsembleKrr::fit(&ds.train, &ds.train_labels, &cfg).unwrap();
        let mono = KrrModel::fit(&ds.train, &ds.train_labels, &cfg.base).unwrap();
        assert_eq!(
            ens.decision_values(&ds.test),
            mono.decision_values(&ds.test)
        );
        assert_eq!(ens.models()[0].weights(), mono.weights());
    }

    #[test]
    fn buffered_paths_match_allocating_ones() {
        let ds = generate(&LETTER, 240, 60, 3);
        let ens = EnsembleKrr::fit(&ds.train, &ds.train_labels, &ensemble_config(3, 2)).unwrap();
        let dv = ens.decision_values(&ds.test);
        let pred = ens.predict(&ds.test);
        let mut buf = vec![f64::NAN; 60];
        ens.decision_values_into(&ds.test, &mut buf);
        assert_eq!(buf, dv);
        ens.predict_into(&ds.test, &mut buf);
        assert_eq!(buf, pred);
        for p in pred {
            assert!(p == 1.0 || p == -1.0);
        }
    }

    #[test]
    fn route_all_matches_weighted_average_of_every_shard() {
        let ds = generate(&LETTER, 240, 20, 4);
        let k = 3;
        let ens = EnsembleKrr::fit(&ds.train, &ds.train_labels, &ensemble_config(k, k)).unwrap();
        // Reference: per-shard scores combined by hand.
        for i in 0..ds.test.nrows() {
            let query = ds.test.submatrix(i, i + 1, 0, ds.test.ncols());
            let mut contributions: Vec<(f64, f64)> = ens
                .router()
                .route(query.row(0))
                .into_iter()
                .map(|(s, d2)| (d2, ens.models()[s].decision_values(&query)[0]))
                .collect();
            let expected = combine_scores(&mut contributions);
            assert_eq!(ens.decision_values(&query)[0], expected, "query {i}");
        }
    }

    #[test]
    fn parts_roundtrip_is_bitwise_and_validated() {
        let ds = generate(&LETTER, 200, 40, 5);
        let ens = EnsembleKrr::fit(&ds.train, &ds.train_labels, &ensemble_config(2, 2)).unwrap();
        let reference = ens.decision_values(&ds.test);
        let rebuilt = EnsembleKrr::from_parts(ens.clone().into_parts()).unwrap();
        assert_eq!(rebuilt.decision_values(&ds.test), reference);
        assert_eq!(rebuilt.num_shards(), 2);

        // Inconsistent parts are rejected.
        let mut parts = ens.clone().into_parts();
        parts.models.pop();
        assert!(EnsembleKrr::from_parts(parts).is_err());
        let mut parts = ens.clone().into_parts();
        parts.route_nearest = 9;
        assert!(EnsembleKrr::from_parts(parts).is_err());
        let mut parts = ens.clone().into_parts();
        parts.shard_wall_seconds.pop();
        assert!(EnsembleKrr::from_parts(parts).is_err());
        let mut parts = ens.into_parts();
        parts.models.clear();
        parts.shard_wall_seconds.clear();
        assert!(EnsembleKrr::from_parts(parts).is_err());
    }

    #[test]
    fn invalid_configs_and_inputs_are_rejected() {
        let ds = generate(&LETTER, 100, 10, 6);
        let mut cfg = ensemble_config(0, 1);
        assert!(EnsembleKrr::fit(&ds.train, &ds.train_labels, &cfg).is_err());
        cfg = ensemble_config(2, 3);
        assert!(EnsembleKrr::fit(&ds.train, &ds.train_labels, &cfg).is_err());
        cfg = ensemble_config(2, 2);
        assert!(EnsembleKrr::fit(&ds.train, &ds.train_labels[..50], &cfg).is_err());
        assert!(ensemble_config(MAX_SHARDS + 1, 1).validate().is_err());
        // with_shards clamps route_nearest into range.
        let clamped = ensemble_config(4, 4).with_shards(2);
        assert_eq!(clamped.route_nearest, 2);
        clamped.validate().unwrap();
    }

    #[test]
    fn router_orders_by_distance_and_respects_m() {
        let centroids = Matrix::from_rows(&[vec![0.0, 0.0], vec![10.0, 0.0], vec![0.0, 10.0]]);
        let router = Router::new(centroids, 2).unwrap();
        let picks = router.route(&[1.0, 0.0]);
        assert_eq!(picks.len(), 2);
        assert_eq!(picks[0].0, 0);
        assert_eq!(picks[1].0, 1);
        assert!(picks[0].1 < picks[1].1);
        assert!(Router::new(Matrix::zeros(0, 2), 1).is_err());
        assert!(Router::new(Matrix::zeros(3, 2), 4).is_err());
    }
}
