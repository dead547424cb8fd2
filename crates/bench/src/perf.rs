//! JSON perf-tracking harness: the machine-readable pipeline trajectory.
//!
//! [`run`] executes a fixed workload matrix — solver (dense Cholesky vs HSS
//! vs HSS with H-matrix-accelerated sampling vs HSS-preconditioned CG)
//! crossed with thread counts (1 / 2 / all) over a small and a medium
//! problem, plus cluster-sharded ensembles at `k = 2` and `k = 4` — and
//! records wall times per phase (construction, factorization, solve, PCG),
//! achieved parallel speedups, compression ratios, PCG iteration counts,
//! per-shard factorization times, router overhead, and test accuracy.
//! [`PerfReport::to_json`] serializes the result as `BENCH_pipeline.json`
//! (schema `hkrr-perf/5`) so CI can archive one snapshot per commit and
//! future PRs are judged against recorded numbers instead of anecdotes.
//!
//! Schema `/4` adds a `dense_substrate` section: for every dense backend
//! available on the host (`scalar`, and `avx2` where supported) it records
//! GEMM GFLOP/s at n = 256 / 512 and a bulk pairwise-distance timing, each
//! with its speedup over the scalar reference. CI gates on the GEMM
//! speedup via `HKRR_REQUIRE_GEMM_SPEEDUP` (see `perf_snapshot`).
//!
//! Schema `/5` adds `hss-pcg-f32` rows — the HSS-preconditioned CG solver
//! with its ULV factors demoted to f32 storage — and a `factor_bytes`
//! field on every case, so the snapshot tracks the mixed-precision memory
//! win (f32 rows must come in well under half the f64 factor bytes)
//! alongside the iteration-count cost it pays for it.
//!
//! Every solver case's phase times and `total_seconds` come from the
//! model's [`TrainingReport`](hkrr_core::TrainingReport), so the total is
//! the sum of the timed phases and leaves out normalization and the row
//! permutation; an ensemble case's total is its fit wall time.
//!
//! The dense baseline runs once per workload (at the full thread count):
//! its wall time anchors the dense-vs-hierarchical comparison, while the
//! speedup rows compare each HSS solver against its own single-thread run.
//! The `ensemble-k{2,4}` rows run at the full thread count; their
//! `accuracy_vs_hss` field records the accuracy delta against the
//! monolithic `hss` row of the same workload.
//!
//! JSON is emitted by the workspace's shared hand-rolled writer (the build
//! is offline, without serde) and checked by the shared syntax validator
//! before anything is written to disk; both live in [`crate::json`] and are
//! shared with the serving snapshot (`BENCH_serve.json`).

use crate::json::JsonWriter;
use crate::{dataset, test_accuracy, with_threads};
use hkrr_clustering::ClusteringMethod;
use hkrr_core::{accuracy, FactorPrecision, KrrConfig, KrrModel, SolverKind};
use hkrr_datasets::registry::{LETTER, SUSY};
use hkrr_datasets::DatasetSpec;
use hkrr_ensemble::{EnsembleConfig, EnsembleKrr, ShardStrategy};
use std::fmt::Write as _;
use std::time::Instant;

/// One problem instance of the workload matrix.
#[derive(Debug, Clone)]
pub struct PerfWorkload {
    /// Stable name used in the JSON (`"small"` / `"medium"`).
    pub name: &'static str,
    /// Synthetic stand-in generated for this workload.
    pub spec: DatasetSpec,
    /// Number of training points (already scaled by `HKRR_BENCH_SCALE`).
    pub n_train: usize,
    /// Number of test points.
    pub n_test: usize,
    /// RNG seed for the dataset.
    pub seed: u64,
}

/// Options describing the full snapshot run.
#[derive(Debug, Clone)]
pub struct PerfOptions {
    /// Problems to measure.
    pub workloads: Vec<PerfWorkload>,
    /// Thread counts for the hierarchical solvers (ascending, deduplicated).
    pub thread_counts: Vec<usize>,
}

impl PerfOptions {
    /// The standard small/medium matrix with 1 / 2 / all-threads sweeps,
    /// scaled by `HKRR_BENCH_SCALE`.
    pub fn standard() -> Self {
        let max_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut thread_counts = vec![1, 2, max_threads];
        thread_counts.sort_unstable();
        thread_counts.dedup();
        thread_counts.retain(|&t| t <= max_threads);
        PerfOptions {
            workloads: vec![
                PerfWorkload {
                    name: "small",
                    spec: LETTER,
                    n_train: crate::scaled(600),
                    n_test: crate::scaled(150).min(200),
                    seed: 42,
                },
                PerfWorkload {
                    name: "medium",
                    spec: SUSY,
                    n_train: crate::scaled(2000),
                    n_test: crate::scaled(300).min(400),
                    seed: 43,
                },
            ],
            thread_counts,
        }
    }
}

/// One measured (workload, solver, threads) cell.
#[derive(Debug, Clone)]
pub struct PerfCase {
    /// Workload name (`"small"` / `"medium"`).
    pub workload: String,
    /// Solver label (`"dense"`, `"hss"`, `"hss+h"`, `"hss-pcg"`,
    /// `"hss-pcg-f32"`, `"ensemble-k2"`, `"ensemble-k4"`).
    pub solver: String,
    /// Thread count the run was pinned to.
    pub threads: usize,
    /// Training-set size.
    pub n_train: usize,
    /// Test-set size.
    pub n_test: usize,
    /// Seconds in matrix construction (H sampler + HSS compression, or
    /// dense assembly).
    pub construction_seconds: f64,
    /// Seconds in the ULV factorization (or dense Cholesky).
    pub factorization_seconds: f64,
    /// Seconds in the weight solve.
    pub solve_seconds: f64,
    /// Seconds in the PCG iteration (`hss-pcg` rows only; 0 elsewhere).
    pub pcg_seconds: f64,
    /// PCG iterations performed (`hss-pcg` rows only; 0 elsewhere).
    pub pcg_iterations: usize,
    /// Training seconds: the sum of the report's timed phases, or the
    /// ensemble's fit wall time.
    pub total_seconds: f64,
    /// Test-set accuracy of the trained model.
    pub accuracy: f64,
    /// Memory of the (compressed or dense) training matrix, in bytes.
    pub matrix_memory_bytes: usize,
    /// Memory of the retained ULV factor store, in bytes (0 for dense;
    /// the shard sum for ensembles). The `hss-pcg-f32` rows must come in
    /// well under half their `hss-pcg` siblings.
    pub factor_bytes: usize,
    /// Dense bytes divided by compressed bytes (1.0 for the dense solver).
    pub compression_ratio: f64,
    /// Maximum HSS rank (0 for dense).
    pub max_rank: usize,
    /// Shard count (0 for the monolithic solvers).
    pub shards: usize,
    /// Per-shard factorization seconds (`ensemble-k*` rows only; empty
    /// elsewhere). Their sum is the shard-sum-vs-monolithic headline.
    pub shard_factorization_seconds: Vec<f64>,
    /// Seconds spent routing every test query to its nearest shard
    /// centroids (`ensemble-k*` rows only; 0 elsewhere) — the router's
    /// serving-side overhead.
    pub router_overhead_seconds: f64,
    /// `accuracy − accuracy(monolithic hss at full threads)` for the same
    /// workload (`ensemble-k*` rows only; 0 elsewhere).
    pub accuracy_vs_hss: f64,
}

/// Parallel speedup of one (workload, solver) pair: all-threads vs 1.
#[derive(Debug, Clone)]
pub struct PerfSpeedup {
    /// Workload name.
    pub workload: String,
    /// Solver label.
    pub solver: String,
    /// The "all" thread count the speedup compares against 1 thread.
    pub threads: usize,
    /// Construction speedup (t₁ / t_all).
    pub construction: f64,
    /// Factorization speedup.
    pub factorization: f64,
    /// Combined construction + factorization speedup (the tentpole metric).
    pub construct_plus_factor: f64,
    /// Total wall-clock speedup.
    pub total: f64,
    /// `accuracy(all threads) − accuracy(1 thread)`; the parallel schedules
    /// are bitwise deterministic, so this must be exactly zero.
    pub accuracy_delta: f64,
}

/// One GEMM measurement of the dense-substrate microbenchmark.
#[derive(Debug, Clone)]
pub struct GemmCell {
    /// Square matrix dimension.
    pub n: usize,
    /// Best-of-reps wall time of one `gemm_into` call.
    pub seconds: f64,
    /// Achieved GFLOP/s (`2 n³ / seconds / 1e9`).
    pub gflops: f64,
    /// Speedup over the scalar backend at the same size (1.0 for scalar).
    pub speedup_vs_scalar: f64,
}

/// Dense-substrate numbers for one backend.
#[derive(Debug, Clone)]
pub struct DenseSubstrateRow {
    /// Backend name (`"scalar"` / `"avx2"`).
    pub backend: String,
    /// GEMM cells at n = 256 and n = 512.
    pub gemm: Vec<GemmCell>,
    /// Best-of-reps wall time of one bulk pairwise squared-distance pass
    /// (1000 × 1000 pairs in 18 dimensions — the SUSY feature width).
    pub pairwise_dist_seconds: f64,
    /// Pairwise-distance speedup over the scalar backend (1.0 for scalar).
    pub pairwise_dist_speedup: f64,
}

/// The `dense_substrate` section: every available backend A/B-tested
/// against the scalar reference on the same inputs.
#[derive(Debug, Clone)]
pub struct DenseSubstrateReport {
    /// Name of the backend the rest of the snapshot ran under.
    pub active_backend: String,
    /// One row per available backend, scalar first.
    pub rows: Vec<DenseSubstrateRow>,
}

impl DenseSubstrateReport {
    /// Best GEMM speedup over scalar achieved by any non-scalar backend
    /// (0.0 when only the scalar backend is available).
    pub fn best_gemm_speedup(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.backend != "scalar")
            .flat_map(|r| r.gemm.iter().map(|g| g.speedup_vs_scalar))
            .fold(0.0, f64::max)
    }
}

/// The full snapshot: every measured cell plus derived speedups.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// `HKRR_BENCH_SCALE` in effect for the run.
    pub scale: f64,
    /// Hardware concurrency of the host.
    pub host_threads: usize,
    /// Every measured cell.
    pub cases: Vec<PerfCase>,
    /// All-threads-vs-1 speedups per (workload, hierarchical solver).
    pub speedups: Vec<PerfSpeedup>,
    /// Dense-backend A/B microbenchmarks (GEMM + pairwise distances).
    pub dense_substrate: DenseSubstrateReport,
}

/// One solver cell of the workload matrix: a back end plus the ULV
/// factor-storage precision (the `hss-pcg-f32` row of the snapshot).
#[derive(Debug, Clone, Copy, PartialEq)]
struct SolverCell {
    solver: SolverKind,
    factor_precision: FactorPrecision,
}

impl SolverCell {
    fn new(solver: SolverKind) -> Self {
        SolverCell {
            solver,
            factor_precision: FactorPrecision::F64,
        }
    }

    fn label(&self) -> String {
        match self.factor_precision {
            FactorPrecision::F64 => self.solver.label().to_string(),
            FactorPrecision::F32 => format!("{}-f32", self.solver.label()),
        }
    }
}

fn config_for(spec: &DatasetSpec, solver: SolverKind) -> KrrConfig {
    KrrConfig {
        h: spec.default_h,
        lambda: spec.default_lambda,
        clustering: ClusteringMethod::TwoMeans { seed: 7 },
        solver,
        ..KrrConfig::default()
    }
}

fn measure(
    workload: &PerfWorkload,
    ds: &hkrr_datasets::Dataset,
    cell: SolverCell,
    threads: usize,
) -> PerfCase {
    let cfg = config_for(&workload.spec, cell.solver).with_factor_precision(cell.factor_precision);
    let model = with_threads(threads, || {
        KrrModel::fit(&ds.train, &ds.train_labels, &cfg).expect("training failed")
    });
    let accuracy = test_accuracy(&model, ds);
    let report = model.report();
    let dense_bytes = workload.n_train * workload.n_train * std::mem::size_of::<f64>();
    let compression_ratio = if report.matrix_memory_bytes > 0 {
        dense_bytes as f64 / report.matrix_memory_bytes as f64
    } else {
        1.0
    };
    PerfCase {
        workload: workload.name.to_string(),
        solver: cell.label(),
        threads,
        n_train: workload.n_train,
        n_test: workload.n_test,
        construction_seconds: report.assembly_seconds
            + report.h_construction_seconds
            + report.hss_construction_seconds(),
        factorization_seconds: report.factorization_seconds,
        solve_seconds: report.solve_seconds,
        pcg_seconds: report.pcg_seconds,
        pcg_iterations: report.pcg_iterations,
        total_seconds: report.total_seconds(),
        accuracy,
        matrix_memory_bytes: report.matrix_memory_bytes,
        factor_bytes: report.factor_bytes,
        compression_ratio,
        max_rank: report.max_rank,
        shards: 0,
        shard_factorization_seconds: Vec::new(),
        router_overhead_seconds: 0.0,
        accuracy_vs_hss: 0.0,
    }
}

/// Measures one cluster-sharded ensemble cell at the given shard count.
fn measure_ensemble(
    workload: &PerfWorkload,
    ds: &hkrr_datasets::Dataset,
    k: usize,
    threads: usize,
    hss_accuracy: f64,
) -> PerfCase {
    let cfg = EnsembleConfig {
        shards: k,
        route_nearest: 2.min(k),
        strategy: ShardStrategy::Cluster,
        base: config_for(&workload.spec, SolverKind::Hss),
    };
    let ens = with_threads(threads, || {
        EnsembleKrr::fit(&ds.train, &ds.train_labels, &cfg).expect("ensemble training failed")
    });
    let report = ens.report();

    // Router overhead: the serving-side cost of picking shards, measured
    // as a pure routing pass over the full test set.
    let t = Instant::now();
    let mut picks = Vec::new();
    for i in 0..ds.test.nrows() {
        ens.router().route_into(ds.test.row(i), &mut picks);
    }
    let router_overhead_seconds = t.elapsed().as_secs_f64();

    let ens_accuracy = accuracy(&ens.predict(&ds.test), &ds.test_labels);
    let memory = report.total_matrix_memory_bytes();
    let dense_bytes = workload.n_train * workload.n_train * std::mem::size_of::<f64>();
    PerfCase {
        workload: workload.name.to_string(),
        solver: format!("ensemble-k{k}"),
        threads,
        n_train: workload.n_train,
        n_test: workload.n_test,
        construction_seconds: report
            .shard_reports
            .iter()
            .map(|r| r.hss_construction_seconds())
            .sum(),
        factorization_seconds: report.sum_factorization_seconds(),
        solve_seconds: report.shard_reports.iter().map(|r| r.solve_seconds).sum(),
        pcg_seconds: 0.0,
        pcg_iterations: 0,
        total_seconds: report.fit_wall_seconds,
        accuracy: ens_accuracy,
        matrix_memory_bytes: memory,
        factor_bytes: report.shard_reports.iter().map(|r| r.factor_bytes).sum(),
        compression_ratio: if memory > 0 {
            dense_bytes as f64 / memory as f64
        } else {
            1.0
        },
        max_rank: report.max_rank(),
        shards: k,
        shard_factorization_seconds: report
            .shard_reports
            .iter()
            .map(|r| r.factorization_seconds)
            .collect(),
        router_overhead_seconds,
        accuracy_vs_hss: ens_accuracy - hss_accuracy,
    }
}

fn ratio(baseline: f64, current: f64) -> f64 {
    if current > 0.0 {
        baseline / current
    } else {
        1.0
    }
}

/// Best-of-`reps` wall time of `f` in seconds.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// A/B-tests every available dense backend against the scalar reference:
/// square GEMM at the given sizes plus one bulk pairwise-distance pass.
///
/// The measurements call the backend instances directly (no global backend
/// switching), so the snapshot's active backend is untouched.
pub fn measure_dense_substrate(gemm_sizes: &[usize]) -> DenseSubstrateReport {
    use hkrr_linalg::backend::{self, BackendKind};
    use hkrr_linalg::random::gaussian_matrix;
    use hkrr_linalg::{Matrix, Pcg64};

    let reps = 3;
    let (dist_rows, dist_dim) = (1000usize, 18usize);
    let mut rng = Pcg64::seed_from_u64(2024);
    let inputs: Vec<(Matrix, Matrix)> = gemm_sizes
        .iter()
        .map(|&n| {
            (
                gaussian_matrix(&mut rng, n, n),
                gaussian_matrix(&mut rng, n, n),
            )
        })
        .collect();
    let x = gaussian_matrix(&mut rng, dist_rows, dist_dim);
    let y = gaussian_matrix(&mut rng, dist_rows, dist_dim);

    let mut rows = Vec::new();
    let mut scalar_gemm_seconds: Vec<f64> = Vec::new();
    let mut scalar_dist_seconds = 0.0;
    for kind in backend::available_backends() {
        let be = kind.instance();
        let mut gemm = Vec::new();
        for (i, &n) in gemm_sizes.iter().enumerate() {
            let (a, b) = &inputs[i];
            let mut c = Matrix::zeros(n, n);
            let seconds = best_of(reps, || be.gemm_into(a, b, &mut c));
            let gflops = 2.0 * (n as f64).powi(3) / seconds / 1e9;
            if kind == BackendKind::Scalar {
                scalar_gemm_seconds.push(seconds);
            }
            gemm.push(GemmCell {
                n,
                seconds,
                gflops,
                speedup_vs_scalar: ratio(scalar_gemm_seconds[i], seconds),
            });
        }
        let mut d = Matrix::zeros(dist_rows, dist_rows);
        let pairwise_dist_seconds = best_of(reps, || be.sq_dists_into(&x, &y, &mut d));
        if kind == BackendKind::Scalar {
            scalar_dist_seconds = pairwise_dist_seconds;
        }
        rows.push(DenseSubstrateRow {
            backend: kind.as_str().to_string(),
            gemm,
            pairwise_dist_seconds,
            pairwise_dist_speedup: ratio(scalar_dist_seconds, pairwise_dist_seconds),
        });
    }
    DenseSubstrateReport {
        active_backend: backend::active_kind().as_str().to_string(),
        rows,
    }
}

/// Runs the workload matrix and assembles the report.
pub fn run(opts: &PerfOptions) -> PerfReport {
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let max_threads = opts.thread_counts.iter().copied().max().unwrap_or(1);
    let mut cases = Vec::new();
    let mut speedups = Vec::new();

    for workload in &opts.workloads {
        // One dataset per workload, shared by every (solver, threads) cell.
        let ds = dataset(
            &workload.spec,
            workload.n_train,
            workload.n_test,
            workload.seed,
        );

        // Dense baseline: one run at full parallelism.
        cases.push(measure(
            workload,
            &ds,
            SolverCell::new(SolverKind::DenseCholesky),
            max_threads,
        ));

        let mut hss_accuracy = 0.0;
        for cell in [
            SolverCell::new(SolverKind::Hss),
            SolverCell::new(SolverKind::HssWithHSampling),
            SolverCell::new(SolverKind::HssPcg),
            SolverCell {
                solver: SolverKind::HssPcg,
                factor_precision: FactorPrecision::F32,
            },
        ] {
            let runs: Vec<PerfCase> = opts
                .thread_counts
                .iter()
                .map(|&t| measure(workload, &ds, cell, t))
                .collect();
            let base = runs.first().expect("at least one thread count").clone();
            let top = runs.last().expect("at least one thread count").clone();
            if cell == SolverCell::new(SolverKind::Hss) {
                // Anchor for the ensemble rows' accuracy_vs_hss delta.
                hss_accuracy = top.accuracy;
            }
            if top.threads > base.threads {
                speedups.push(PerfSpeedup {
                    workload: workload.name.to_string(),
                    solver: cell.label(),
                    threads: top.threads,
                    construction: ratio(base.construction_seconds, top.construction_seconds),
                    factorization: ratio(base.factorization_seconds, top.factorization_seconds),
                    construct_plus_factor: ratio(
                        base.construction_seconds + base.factorization_seconds,
                        top.construction_seconds + top.factorization_seconds,
                    ),
                    total: ratio(base.total_seconds, top.total_seconds),
                    accuracy_delta: top.accuracy - base.accuracy,
                });
            }
            cases.extend(runs);
        }

        // Cluster-sharded ensembles at k = 2 and 4, full thread count: the
        // shard-sum-vs-monolithic comparison rides in the same snapshot as
        // the solvers it is compared against.
        for k in [2usize, 4] {
            cases.push(measure_ensemble(
                workload,
                &ds,
                k,
                max_threads,
                hss_accuracy,
            ));
        }
    }

    PerfReport {
        scale: crate::bench_scale(),
        host_threads,
        cases,
        speedups,
        dense_substrate: measure_dense_substrate(&[256, 512]),
    }
}

impl PerfCase {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("workload", &self.workload);
        w.field_str("solver", &self.solver);
        w.field_usize("threads", self.threads);
        w.field_usize("n_train", self.n_train);
        w.field_usize("n_test", self.n_test);
        w.field_f64("construction_seconds", self.construction_seconds);
        w.field_f64("factorization_seconds", self.factorization_seconds);
        w.field_f64("solve_seconds", self.solve_seconds);
        w.field_f64("pcg_seconds", self.pcg_seconds);
        w.field_usize("pcg_iterations", self.pcg_iterations);
        w.field_f64("total_seconds", self.total_seconds);
        w.field_f64("accuracy", self.accuracy);
        w.field_usize("matrix_memory_bytes", self.matrix_memory_bytes);
        w.field_usize("factor_bytes", self.factor_bytes);
        w.field_f64("compression_ratio", self.compression_ratio);
        w.field_usize("max_rank", self.max_rank);
        w.field_usize("shards", self.shards);
        w.key("shard_factorization_seconds");
        w.begin_array();
        for &s in &self.shard_factorization_seconds {
            w.value_f64(s);
        }
        w.end_array();
        w.field_f64("router_overhead_seconds", self.router_overhead_seconds);
        w.field_f64("accuracy_vs_hss", self.accuracy_vs_hss);
        w.end_object();
    }
}

impl PerfSpeedup {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("workload", &self.workload);
        w.field_str("solver", &self.solver);
        w.field_usize("threads", self.threads);
        w.field_f64("construction", self.construction);
        w.field_f64("factorization", self.factorization);
        w.field_f64("construct_plus_factor", self.construct_plus_factor);
        w.field_f64("total", self.total);
        w.field_f64("accuracy_delta", self.accuracy_delta);
        w.end_object();
    }
}

impl DenseSubstrateReport {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("active_backend", &self.active_backend);
        w.key("backends");
        w.begin_array();
        for row in &self.rows {
            w.begin_object();
            w.field_str("backend", &row.backend);
            w.key("gemm");
            w.begin_array();
            for g in &row.gemm {
                w.begin_object();
                w.field_usize("n", g.n);
                w.field_f64("seconds", g.seconds);
                w.field_f64("gflops", g.gflops);
                w.field_f64("speedup_vs_scalar", g.speedup_vs_scalar);
                w.end_object();
            }
            w.end_array();
            w.field_f64("pairwise_dist_seconds", row.pairwise_dist_seconds);
            w.field_f64("pairwise_dist_speedup", row.pairwise_dist_speedup);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
}

impl PerfReport {
    /// Serializes the report (schema `hkrr-perf/5`).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", "hkrr-perf/5");
        w.field_f64("scale", self.scale);
        w.field_usize("host_threads", self.host_threads);
        w.key("dense_substrate");
        self.dense_substrate.write_json(&mut w);
        w.key("cases");
        w.begin_array();
        for case in &self.cases {
            case.write_json(&mut w);
        }
        w.end_array();
        w.key("speedups");
        w.begin_array();
        for speedup in &self.speedups {
            speedup.write_json(&mut w);
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Markdown table of the speedups and accuracy, for `$GITHUB_STEP_SUMMARY`.
    pub fn to_markdown_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "## Pipeline perf snapshot (scale {}, {} host threads)\n",
            self.scale, self.host_threads
        );
        let _ = writeln!(
            out,
            "### Dense substrate (active backend: `{}`)\n",
            self.dense_substrate.active_backend
        );
        let _ = writeln!(
            out,
            "| backend | gemm n | GFLOP/s | speedup vs scalar | pairwise dist (s) | dist speedup |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|");
        for row in &self.dense_substrate.rows {
            for (i, g) in row.gemm.iter().enumerate() {
                let (dist_s, dist_x) = if i == 0 {
                    (
                        format!("{:.4}", row.pairwise_dist_seconds),
                        format!("{:.2}", row.pairwise_dist_speedup),
                    )
                } else {
                    ("".to_string(), "".to_string())
                };
                let _ = writeln!(
                    out,
                    "| {} | {} | {:.2} | {:.2} | {} | {} |",
                    row.backend, g.n, g.gflops, g.speedup_vs_scalar, dist_s, dist_x
                );
            }
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "| workload | solver | threads | construct× | factor× | constr+factor× | total× | Δaccuracy |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
        for s in &self.speedups {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {:.2} | {:.2} | {:.2} | {:.2} | {:+.4} |",
                s.workload,
                s.solver,
                s.threads,
                s.construction,
                s.factorization,
                s.construct_plus_factor,
                s.total,
                s.accuracy_delta
            );
        }
        if self.speedups.is_empty() {
            let _ = writeln!(
                out,
                "\n_Single-threaded host: no parallel speedup rows recorded._"
            );
        }
        let _ = writeln!(
            out,
            "\n| workload | solver | threads | shards | total (s) | accuracy | Δacc vs hss | compression× | factors (MB) | max rank | pcg iters | router (s) |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|---|---|");
        for c in &self.cases {
            let pcg_iters = if c.solver.starts_with(SolverKind::HssPcg.label()) {
                c.pcg_iterations.to_string()
            } else {
                "—".to_string()
            };
            let factor_mb = if c.factor_bytes > 0 {
                format!("{:.2}", c.factor_bytes as f64 / (1024.0 * 1024.0))
            } else {
                "—".to_string()
            };
            let (shards, delta, router) = if c.shards > 0 {
                (
                    c.shards.to_string(),
                    format!("{:+.4}", c.accuracy_vs_hss),
                    format!("{:.4}", c.router_overhead_seconds),
                )
            } else {
                ("—".to_string(), "—".to_string(), "—".to_string())
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {:.3} | {:.4} | {} | {:.1} | {} | {} | {} | {} |",
                c.workload,
                c.solver,
                c.threads,
                shards,
                c.total_seconds,
                c.accuracy,
                delta,
                c.compression_ratio,
                factor_mb,
                c.max_rank,
                pcg_iters,
                router
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn tiny_snapshot_emits_well_formed_json() {
        // The hss-pcg rows below are compared against their hss-pcg-f32
        // siblings, so the suite-wide HKRR_FACTOR_PRECISION override (the
        // CI f32 leg) must not turn the f64 rows into f32 ones. No other
        // test in this binary fits hss-pcg, so removing the variable
        // cannot change what they run.
        std::env::remove_var("HKRR_FACTOR_PRECISION");
        // A deliberately tiny matrix so the test stays fast: one workload,
        // thread counts {1, 2} to force a speedup row even on 1-core hosts.
        let opts = PerfOptions {
            workloads: vec![PerfWorkload {
                name: "small",
                spec: hkrr_datasets::registry::LETTER,
                n_train: 160,
                n_test: 40,
                seed: 9,
            }],
            thread_counts: vec![1, 2],
        };
        let report = run(&opts);
        assert_eq!(
            report.cases.len(),
            1 + 4 * 2 + 2,
            "dense + 4 hierarchical solver cells × 2 threads + 2 ensembles"
        );
        assert_eq!(report.speedups.len(), 4);
        for s in &report.speedups {
            // Bitwise-deterministic parallel schedule: identical accuracy.
            assert_eq!(s.accuracy_delta, 0.0, "{}/{}", s.workload, s.solver);
        }
        // The hss-pcg / hss-pcg-f32 rows carry their iteration metrics;
        // direct rows are zero.
        for c in &report.cases {
            if c.solver.starts_with(SolverKind::HssPcg.label()) {
                assert!(c.pcg_iterations > 0, "{c:?}");
                assert!(c.pcg_seconds > 0.0, "{c:?}");
            } else {
                assert_eq!(c.pcg_iterations, 0, "{c:?}");
                assert_eq!(c.pcg_seconds, 0.0, "{c:?}");
            }
        }
        // Every ULV-producing row records its factor store; the f32 rows
        // come in under half their f64 siblings at the same thread count.
        for t in [1usize, 2] {
            let f64_row = report
                .cases
                .iter()
                .find(|c| c.solver == "hss-pcg" && c.threads == t)
                .unwrap();
            let f32_row = report
                .cases
                .iter()
                .find(|c| c.solver == "hss-pcg-f32" && c.threads == t)
                .unwrap();
            assert!(f64_row.factor_bytes > 0 && f32_row.factor_bytes > 0);
            assert!(
                f32_row.factor_bytes * 2 <= f64_row.factor_bytes,
                "f32 {} vs f64 {}",
                f32_row.factor_bytes,
                f64_row.factor_bytes
            );
            // Same compressed matrix, same accuracy contract: the outer
            // f64 iteration absorbs the factor demotion.
            assert!((f32_row.accuracy - f64_row.accuracy).abs() <= 0.05);
        }
        let dense_row = report.cases.iter().find(|c| c.solver == "dense").unwrap();
        assert_eq!(dense_row.factor_bytes, 0, "dense retains no ULV factors");
        // The ensemble rows record per-shard factorization times, the
        // router overhead, and the accuracy delta against the hss anchor.
        let hss_top = report
            .cases
            .iter()
            .find(|c| c.solver == "hss" && c.threads == 2)
            .unwrap()
            .clone();
        for k in [2usize, 4] {
            let row = report
                .cases
                .iter()
                .find(|c| c.solver == format!("ensemble-k{k}"))
                .unwrap_or_else(|| panic!("missing ensemble-k{k} row"));
            assert_eq!(row.shards, k);
            assert_eq!(row.shard_factorization_seconds.len(), k);
            let sum: f64 = row.shard_factorization_seconds.iter().sum();
            assert!((sum - row.factorization_seconds).abs() < 1e-12);
            assert!(row.router_overhead_seconds >= 0.0);
            assert!(
                (row.accuracy_vs_hss - (row.accuracy - hss_top.accuracy)).abs() < 1e-12,
                "{row:?}"
            );
        }
        // The dense-substrate section covers every available backend,
        // scalar first, with scalar pinned to speedup 1.0.
        let ds = &report.dense_substrate;
        assert!(!ds.rows.is_empty());
        assert_eq!(ds.rows[0].backend, "scalar");
        assert_eq!(ds.rows[0].pairwise_dist_speedup, 1.0);
        for row in &ds.rows {
            assert_eq!(row.gemm.len(), 2, "{row:?}");
            for g in &row.gemm {
                assert!(g.seconds > 0.0 && g.gflops > 0.0, "{row:?}");
                if row.backend == "scalar" {
                    assert_eq!(g.speedup_vs_scalar, 1.0, "{row:?}");
                }
            }
        }
        assert!(
            hkrr_linalg::backend::available_backends().len() == 1 || ds.best_gemm_speedup() > 0.0
        );

        let json = report.to_json();
        json::validate(&json).unwrap();
        for key in [
            "\"schema\":\"hkrr-perf/5\"",
            "\"hss-pcg-f32\"",
            "factor_bytes",
            "dense_substrate",
            "active_backend",
            "speedup_vs_scalar",
            "pairwise_dist_seconds",
            "\"gflops\"",
            "construction_seconds",
            "factorization_seconds",
            "pcg_seconds",
            "pcg_iterations",
            "compression_ratio",
            "construct_plus_factor",
            "accuracy_delta",
            "\"hss-pcg\"",
            "\"ensemble-k2\"",
            "\"ensemble-k4\"",
            "shard_factorization_seconds",
            "router_overhead_seconds",
            "accuracy_vs_hss",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let md = report.to_markdown_summary();
        assert!(md.contains("Dense substrate"));
        assert!(md.contains("speedup vs scalar"));
        assert!(md.contains("| workload | solver |"));
        assert!(md.contains("pcg iters"));
        assert!(md.contains("factors (MB)"));
        assert!(md.contains("hss-pcg-f32"));
        assert!(md.contains("ensemble-k4"));
        assert!(md.contains("Δacc vs hss"));
    }

    #[test]
    fn standard_options_cover_the_workload_matrix() {
        let opts = PerfOptions::standard();
        assert_eq!(opts.workloads.len(), 2);
        assert_eq!(opts.workloads[0].name, "small");
        assert_eq!(opts.workloads[1].name, "medium");
        assert!(!opts.thread_counts.is_empty());
        assert_eq!(opts.thread_counts[0], 1);
        let mut sorted = opts.thread_counts.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, opts.thread_counts, "ascending and deduplicated");
    }
}
