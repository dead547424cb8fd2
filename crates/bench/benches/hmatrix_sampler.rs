//! Criterion benchmarks for the H-matrix sampler: construction, matvec,
//! and the ablation the paper motivates — HSS construction with dense
//! sampling versus H-matrix accelerated sampling (Table 4's headline).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hkrr_clustering::{cluster, ClusteringMethod};
use hkrr_datasets::generate;
use hkrr_datasets::registry::SUSY;
use hkrr_hmatrix::{build_hmatrix, HOptions};
use hkrr_hss::{construct::compress_symmetric, HssOptions};
use hkrr_kernel::{KernelFunction, KernelMatrix, NormalizationStats, Normalizer};
use hkrr_linalg::random::{gaussian_matrix, Pcg64};
use hkrr_linalg::{LinearOperator, Matrix};
use std::hint::black_box;

fn setup(n: usize) -> (KernelMatrix, Matrix, hkrr_clustering::ClusterTree) {
    let ds = generate(&SUSY, n, 16, 7);
    let stats = NormalizationStats::fit(&ds.train, Normalizer::ZScore);
    let normalized = stats.transform(&ds.train);
    let ordering = cluster(&normalized, ClusteringMethod::TwoMeans { seed: 17 }, 16);
    let permuted = normalized.select_rows(ordering.permutation());
    (
        KernelMatrix::new(permuted.clone(), KernelFunction::gaussian(SUSY.default_h)),
        permuted,
        ordering.tree().clone(),
    )
}

fn bench_hmatrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("hmatrix");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let n = 800;
    let (km, permuted, tree) = setup(n);
    let hopts = HOptions {
        tolerance: 1e-2,
        ..Default::default()
    };

    group.bench_function(BenchmarkId::new("construct", n), |b| {
        b.iter(|| black_box(build_hmatrix(&km, &permuted, &tree, &hopts)));
    });

    let h = build_hmatrix(&km, &permuted, &tree, &hopts);
    group.bench_function(BenchmarkId::new("matvec_h", n), |b| {
        let x = vec![1.0; n];
        let mut y = vec![0.0; n];
        b.iter(|| {
            h.matvec(&x, &mut y);
            black_box(&y);
        });
    });
    group.bench_function(BenchmarkId::new("matvec_dense_kernel", n), |b| {
        let x = vec![1.0; n];
        let mut y = vec![0.0; n];
        b.iter(|| {
            LinearOperator::matvec(&km, &x, &mut y);
            black_box(&y);
        });
    });

    // Block products over the first sample block of HSS construction
    // (initial samples + oversampling = 42 columns), which is what the
    // construction asks of its sampler: the dense kernel operator
    // evaluates each entry once per block, the H-matrix streams each of
    // its blocks once per block.
    let defaults = HssOptions::default();
    let cols = defaults.initial_samples + defaults.oversampling;
    let block = gaussian_matrix(&mut Pcg64::seed_from_u64(5), n, cols);
    group.bench_function(BenchmarkId::new("matmat_dense_kernel", n), |b| {
        b.iter(|| black_box(LinearOperator::matmat(&km, &block)));
    });
    group.bench_function(BenchmarkId::new("matmat_h", n), |b| {
        b.iter(|| black_box(LinearOperator::matmat(&h, &block)));
    });

    // The paper's ablation: HSS construction sampled through the dense
    // kernel operator versus through the H-matrix.
    let hss_opts = HssOptions {
        tolerance: 1e-2,
        ..Default::default()
    };
    group.bench_function(BenchmarkId::new("hss_dense_sampling", n), |b| {
        b.iter(|| black_box(compress_symmetric(&km, &km, tree.clone(), &hss_opts).unwrap()));
    });
    group.bench_function(BenchmarkId::new("hss_h_sampling", n), |b| {
        b.iter(|| black_box(compress_symmetric(&km, &h, tree.clone(), &hss_opts).unwrap()));
    });
    group.finish();
}

criterion_group!(benches, bench_hmatrix);
criterion_main!(benches);
