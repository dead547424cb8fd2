//! Cross-backend accuracy contract (proptest).
//!
//! The dense backends are deterministic *within* a backend (bitwise, at
//! any thread count) but only accuracy-bounded *across* backends: the
//! cache-blocked AVX2 substrate reassociates the k-reduction, so its
//! results may differ from the scalar reference in the last few ulps.
//! These properties pin that contract: for random shapes — including the
//! degenerate 0- and 1-dimension edges — every available backend must
//! agree with [`hkrr_linalg::backend::ScalarBackend`] componentwise to a
//! relative tolerance proportional to the reduction length.

use hkrr_linalg::backend::available_backends;
use hkrr_linalg::random::gaussian_matrix;
use hkrr_linalg::{Matrix, Pcg64};
use proptest::prelude::*;

/// Componentwise check: `|got − want| ≤ tol · max(1, |want|)` with
/// `tol = 1e-12 · (k + 1)` for a length-`k` reduction.
fn assert_componentwise_close(got: &Matrix, want: &Matrix, k: usize, what: &str) {
    assert_eq!(got.nrows(), want.nrows(), "{what}: row mismatch");
    assert_eq!(got.ncols(), want.ncols(), "{what}: col mismatch");
    let tol = 1e-12 * (k as f64 + 1.0);
    for i in 0..want.nrows() {
        for j in 0..want.ncols() {
            let (g, w) = (got[(i, j)], want[(i, j)]);
            assert!(
                (g - w).abs() <= tol * w.abs().max(1.0),
                "{what}: entry ({i},{j}) differs: {g} vs {w} (tol {tol:e})"
            );
        }
    }
}

/// Well-conditioned lower-triangular factor: unit-scale random strictly
/// lower part over a dominant diagonal.
fn lower_factor(rng: &mut Pcg64, m: usize) -> Matrix {
    let mut l = Matrix::zeros(m, m);
    for i in 0..m {
        for j in 0..i {
            l[(i, j)] = 0.3 * rng.next_gaussian();
        }
        l[(i, i)] = 2.0 + rng.next_f64();
    }
    l
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All three GEMM variants agree with scalar for arbitrary shapes,
    /// including empty (0) and degenerate (1) dimensions.
    #[test]
    fn gemm_variants_match_scalar(
        m in 0usize..48,
        k in 0usize..48,
        n in 0usize..48,
        seed in 0u64..1000,
    ) {
        let mut rng = Pcg64::seed_from_u64(seed);
        let a = gaussian_matrix(&mut rng, m, k);
        let b = gaussian_matrix(&mut rng, k, n);
        let at = a.transpose();
        let bt = b.transpose();
        let backends = available_backends();
        let scalar = backends[0].instance();

        let mut want = Matrix::zeros(m, n);
        scalar.gemm_into(&a, &b, &mut want);
        let mut want_tn = Matrix::zeros(m, n);
        scalar.gemm_tn_into(&at, &b, &mut want_tn);
        let mut want_nt = Matrix::zeros(m, n);
        scalar.gemm_nt_into(&a, &bt, &mut want_nt);

        for kind in &backends[1..] {
            let be = kind.instance();
            // Poison the output buffer: *_into must overwrite, not add.
            let mut got = Matrix::from_fn(m, n, |_, _| f64::NAN);
            be.gemm_into(&a, &b, &mut got);
            assert_componentwise_close(&got, &want, k, &format!("{kind} gemm"));
            let mut got_tn = Matrix::from_fn(m, n, |_, _| f64::NAN);
            be.gemm_tn_into(&at, &b, &mut got_tn);
            assert_componentwise_close(&got_tn, &want_tn, k, &format!("{kind} gemm_tn"));
            let mut got_nt = Matrix::from_fn(m, n, |_, _| f64::NAN);
            be.gemm_nt_into(&a, &bt, &mut got_nt);
            assert_componentwise_close(&got_nt, &want_nt, k, &format!("{kind} gemm_nt"));
        }
    }

    /// SYRK agrees with scalar and stays exactly symmetric per backend.
    #[test]
    fn syrk_matches_scalar_and_is_symmetric(
        m in 0usize..40,
        k in 0usize..40,
        seed in 0u64..1000,
    ) {
        let mut rng = Pcg64::seed_from_u64(seed ^ 0x5e5e);
        let a = gaussian_matrix(&mut rng, m, k);
        let backends = available_backends();
        let mut want = Matrix::zeros(m, m);
        backends[0].instance().syrk_into(&a, &mut want);
        for kind in &backends[1..] {
            let be = kind.instance();
            let mut got = Matrix::from_fn(m, m, |_, _| f64::NAN);
            be.syrk_into(&a, &mut got);
            assert_componentwise_close(&got, &want, k, &format!("{kind} syrk"));
            for i in 0..m {
                for j in 0..m {
                    assert_eq!(got[(i, j)], got[(j, i)], "{kind} syrk not bitwise symmetric");
                }
            }
        }
    }

    /// Triangular multi-RHS solves agree with scalar on well-conditioned
    /// factors (relative tolerance scaled by the sweep length).
    #[test]
    fn trsm_matches_scalar(
        m in 1usize..40,
        r in 0usize..24,
        seed in 0u64..1000,
    ) {
        let mut rng = Pcg64::seed_from_u64(seed ^ 0x7a7a);
        let l = lower_factor(&mut rng, m);
        let u = l.transpose();
        let b = gaussian_matrix(&mut rng, m, r);
        let backends = available_backends();
        let scalar = backends[0].instance();
        let mut want_l = b.clone();
        scalar.trsm_lower_into(&l, &mut want_l).unwrap();
        let mut want_u = b.clone();
        scalar.trsm_upper_into(&u, &mut want_u).unwrap();
        for kind in &backends[1..] {
            let be = kind.instance();
            let mut got_l = b.clone();
            be.trsm_lower_into(&l, &mut got_l).unwrap();
            assert_componentwise_close(&got_l, &want_l, m, &format!("{kind} trsm_lower"));
            let mut got_u = b.clone();
            be.trsm_upper_into(&u, &mut got_u).unwrap();
            assert_componentwise_close(&got_u, &want_u, m, &format!("{kind} trsm_upper"));
        }
    }

    /// The distance kernels agree with scalar across dimensions spanning
    /// the SIMD threshold (d = 8), including d = 0 and 1.
    #[test]
    fn distances_match_scalar(
        nx in 0usize..20,
        ny in 0usize..20,
        d in 0usize..40,
        seed in 0u64..1000,
    ) {
        let mut rng = Pcg64::seed_from_u64(seed ^ 0xd15);
        let x = gaussian_matrix(&mut rng, nx, d);
        let y = gaussian_matrix(&mut rng, ny, d);
        let backends = available_backends();
        let scalar = backends[0].instance();
        let mut want = Matrix::zeros(nx, ny);
        scalar.sq_dists_into(&x, &y, &mut want);
        let tol = 1e-12 * (d as f64 + 1.0);
        for kind in &backends[1..] {
            let be = kind.instance();
            let mut got = Matrix::from_fn(nx, ny, |_, _| f64::NAN);
            be.sq_dists_into(&x, &y, &mut got);
            assert_componentwise_close(&got, &want, d, &format!("{kind} sq_dists"));
            // Row/point forms agree with the matrix form entrywise.
            if ny > 0 {
                let mut row = vec![f64::NAN; nx];
                be.dists_to_point_into(&x, y.row(0), &mut row);
                for i in 0..nx {
                    assert!(
                        (row[i] - want[(i, 0)]).abs() <= tol * want[(i, 0)].abs().max(1.0),
                        "{kind} dists_to_point entry {i}: {} vs {}",
                        row[i],
                        want[(i, 0)]
                    );
                }
                if nx > 0 {
                    let d2 = be.sq_distance(x.row(0), y.row(0));
                    assert!(
                        (d2 - want[(0, 0)]).abs() <= tol * want[(0, 0)].abs().max(1.0),
                        "{kind} sq_distance: {d2} vs {}",
                        want[(0, 0)]
                    );
                    // Squared distances can never go negative (the backends
                    // compute Σ(x−y)², never the cancellation-prone
                    // ‖x‖²+‖y‖²−2x·y expansion).
                    assert!(d2 >= 0.0);
                }
            }
        }
    }
}

/// The scalar backend heads the availability list, so the properties above
/// always compare against the reference implementation.
#[test]
fn scalar_backend_is_first_and_always_available() {
    let backends = available_backends();
    assert!(!backends.is_empty());
    assert_eq!(backends[0].as_str(), "scalar");
}
