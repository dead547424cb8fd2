//! Criterion micro-benchmarks for the dense linear-algebra substrate:
//! GEMM, QR, column-pivoted QR, SVD and Cholesky at the block sizes that
//! occur inside the hierarchical formats.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hkrr_linalg::random::{gaussian_matrix, Pcg64};
use hkrr_linalg::{blas, cholesky, low_rank, qr, svd};
use std::hint::black_box;

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &n in &[64usize, 128, 256] {
        let mut rng = Pcg64::seed_from_u64(1);
        let a = gaussian_matrix(&mut rng, n, n);
        let b = gaussian_matrix(&mut rng, n, n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(blas::matmul(&a, &b)));
        });
    }
    group.finish();
}

/// A/B rows per dense backend: the same GEMM and bulk pairwise-distance
/// pass through each backend instance directly (no global switching).
fn bench_dense_backends(c: &mut Criterion) {
    use hkrr_linalg::backend::available_backends;
    use hkrr_linalg::Matrix;

    let mut group = c.benchmark_group("gemm_backend");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &n in &[256usize, 512] {
        let mut rng = Pcg64::seed_from_u64(3);
        let a = gaussian_matrix(&mut rng, n, n);
        let b = gaussian_matrix(&mut rng, n, n);
        let mut out = Matrix::zeros(n, n);
        for kind in available_backends() {
            let be = kind.instance();
            group.bench_with_input(BenchmarkId::new(kind.as_str(), n), &n, |bench, _| {
                bench.iter(|| {
                    be.gemm_into(&a, &b, &mut out);
                    black_box(out.data()[0])
                });
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("pairwise_dist_backend");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let (rows, dim) = (1000usize, 18usize);
    let mut rng = Pcg64::seed_from_u64(4);
    let x = gaussian_matrix(&mut rng, rows, dim);
    let y = gaussian_matrix(&mut rng, rows, dim);
    let mut d = Matrix::zeros(rows, rows);
    for kind in available_backends() {
        let be = kind.instance();
        group.bench_function(kind.as_str(), |bench| {
            bench.iter(|| {
                be.sq_dists_into(&x, &y, &mut d);
                black_box(d.data()[0])
            });
        });
    }
    group.finish();
}

fn bench_factorizations(c: &mut Criterion) {
    let mut group = c.benchmark_group("factorizations");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let n = 96;
    let mut rng = Pcg64::seed_from_u64(2);
    let a = gaussian_matrix(&mut rng, n, n);
    let spd = {
        let mut m = blas::matmul(&a, &a.transpose());
        m.shift_diagonal(n as f64 * 0.1);
        m
    };
    group.bench_function("householder_qr_96", |b| {
        b.iter(|| black_box(qr::householder_qr(&a)))
    });
    group.bench_function("cpqr_96", |b| {
        b.iter(|| black_box(qr::column_pivoted_qr(&a, 1e-10, 0)))
    });
    group.bench_function("jacobi_svd_96", |b| {
        b.iter(|| black_box(svd::svd(&a).unwrap()))
    });
    group.bench_function("cholesky_96", |b| {
        b.iter(|| black_box(cholesky::cholesky(&spd).unwrap()))
    });
    group.finish();
}

/// The two factorizations that dominate an `hss+h` fit of 4000 LETTER
/// points (rank 173, 336 samples): the interpolative decomposition of a
/// node's transposed sample block (336 x 340, rank 170) and the ULV's full
/// QR of a node basis (346 x 173).
fn bench_hss_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("hss_shapes");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let mut rng = Pcg64::seed_from_u64(6);
    let samples = blas::matmul(
        &gaussian_matrix(&mut rng, 336, 170),
        &gaussian_matrix(&mut rng, 170, 340),
    );
    group.bench_function("interpolative_decomposition_336x340", |b| {
        b.iter(|| black_box(low_rank::interpolative_decomposition(&samples, 1e-8, 0)))
    });
    let basis = gaussian_matrix(&mut rng, 346, 173);
    group.bench_function("full_qr_346x173", |b| {
        b.iter(|| black_box(qr::full_qr(&basis)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_dense_backends,
    bench_factorizations,
    bench_hss_shapes
);
criterion_main!(benches);
