//! # hkrr-bench
//!
//! Shared helpers for the benchmark harness that regenerates every table
//! and figure of the paper's evaluation section.  Each table/figure has a
//! dedicated binary under `src/bin/`, named after it (`table2_preprocessing`,
//! `fig7_asymptotics`, …); the Criterion micro-benchmarks live under
//! `benches/`.
//!
//! Problem sizes default to laptop-scale values so every binary finishes in
//! seconds; set the environment variable `HKRR_BENCH_SCALE` (a positive
//! float) to scale the training-set sizes up or down.

pub mod json;
pub mod perf;
pub mod prom;

use hkrr_clustering::ClusteringMethod;
use hkrr_core::{accuracy, KrrConfig, KrrModel, SolverKind};
use hkrr_datasets::{generate, Dataset, DatasetSpec};

/// Reads the global size multiplier from `HKRR_BENCH_SCALE` (default 1.0).
pub fn bench_scale() -> f64 {
    std::env::var("HKRR_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(1.0)
}

/// Applies the global scale to a nominal problem size (minimum 64 points).
pub fn scaled(n: usize) -> usize {
    ((n as f64 * bench_scale()).round() as usize).max(64)
}

/// Generates the synthetic stand-in for a paper dataset at the given sizes.
pub fn dataset(spec: &DatasetSpec, n_train: usize, n_test: usize, seed: u64) -> Dataset {
    generate(spec, n_train, n_test, seed)
}

/// The default configuration used by the table/figure binaries for a given
/// dataset spec and clustering method.
pub fn config_for(
    spec: &DatasetSpec,
    clustering: ClusteringMethod,
    solver: SolverKind,
) -> KrrConfig {
    KrrConfig {
        h: spec.default_h,
        lambda: spec.default_lambda,
        clustering,
        solver,
        ..KrrConfig::default()
    }
}

/// Test-set accuracy of a trained model on a dataset.
pub fn test_accuracy(model: &KrrModel, ds: &Dataset) -> f64 {
    accuracy(&model.predict(&ds.test), &ds.test_labels)
}

/// Prints a simple aligned table to stdout.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (j, cell) in row.iter().enumerate().take(ncols) {
            widths[j] = widths[j].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(j, c)| format!("{:>width$}", c, width = widths[j]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1)))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Prints a named data series (for the "figure" binaries) as CSV-like rows.
pub fn print_series(title: &str, x_label: &str, columns: &[(&str, &[f64])], xs: &[f64]) {
    println!("\n== {title} ==");
    let names: Vec<&str> = columns.iter().map(|(n, _)| *n).collect();
    println!("{x_label},{}", names.join(","));
    for (i, x) in xs.iter().enumerate() {
        let vals: Vec<String> = columns
            .iter()
            .map(|(_, ys)| format!("{:.6e}", ys.get(i).copied().unwrap_or(f64::NAN)))
            .collect();
        println!("{x:.6},{}", vals.join(","));
    }
}

/// Runs a closure inside a rayon pool with the given number of threads —
/// the stand-in for "cores" in the paper's scaling experiments.
pub fn with_threads<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("failed to build rayon pool");
    pool.install(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hkrr_datasets::registry::LETTER;

    #[test]
    fn scale_defaults_to_one() {
        assert!(scaled(100) >= 64);
        assert_eq!(scaled(1000).max(64), scaled(1000));
    }

    #[test]
    fn train_and_score_helper() {
        let ds = dataset(&LETTER, 200, 50, 1);
        let cfg = config_for(
            &LETTER,
            ClusteringMethod::Natural,
            SolverKind::DenseCholesky,
        );
        let model = KrrModel::fit(&ds.train, &ds.train_labels, &cfg).unwrap();
        // The dense solver times assembly, factorization and solve, and
        // runs no compression or PCG phase.
        let report = model.report();
        assert!(report.assembly_seconds > 0.0);
        assert!(report.factorization_seconds > 0.0);
        assert!(report.solve_seconds > 0.0);
        assert_eq!(report.h_construction_seconds, 0.0);
        assert_eq!(report.hss_construction_seconds(), 0.0);
        assert_eq!(report.pcg_seconds, 0.0);
        assert!(test_accuracy(&model, &ds) > 0.8);
    }

    #[test]
    fn thread_pool_helper_runs_closure() {
        let result = with_threads(2, || (0..100).sum::<usize>());
        assert_eq!(result, 4950);
    }
}
