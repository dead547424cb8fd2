//! AVX2+FMA backend: explicit `std::arch` microkernels under the shared
//! cache-blocking driver from [`super::blocked`].
//!
//! This is the only module in the workspace that uses `unsafe` (the
//! workspace denies `unsafe_code`; the allow below scopes the exception to
//! this file).  Safety rests on two invariants:
//!
//! * every `#[target_feature(enable = "avx2,fma")]` function is only
//!   reachable through [`Avx2Backend`], which the selection layer in
//!   [`super`] hands out only after `is_x86_feature_detected!` confirmed
//!   both features at runtime;
//! * all pointer arithmetic stays inside slices whose lengths the packing
//!   driver guarantees (micropanels are allocated at `kc * MR` /
//!   `kc * NR` and the accumulator tile at `MR * NR`), re-checked here with
//!   debug assertions.
#![allow(unsafe_code)]

use super::blocked::{gemm_blocked, sq_dists_rowpar, syrk_via_nt, MicroKernel, Src};
use super::{
    check_gemm, check_gemm_nt, check_gemm_tn, check_sq_dists, check_syrk, trsm_lower_rowsweep,
    trsm_upper_rowsweep, DenseBackend,
};
use crate::matrix::Matrix;
use crate::LinalgResult;
use std::arch::x86_64::*;

pub(crate) static AVX2: Avx2Backend = Avx2Backend;

/// Cache-blocked [`DenseBackend`] with explicit AVX2+FMA microkernels.
///
/// Only handed out by the selection layer when the CPU reports `avx2` and
/// `fma` at runtime.
#[derive(Debug, Clone, Copy, Default)]
pub struct Avx2Backend;

/// 4×8 register tile: 8 ymm accumulators (4 rows × 2 four-lane columns),
/// one broadcast register for A and two loads for B per k step.
#[derive(Clone, Copy)]
struct Avx2Kernel;

/// # Safety
/// Requires avx2+fma (guaranteed by the selection layer), `a_panel` to hold
/// `kc * 4` doubles, `b_panel` `kc * 8` and `acc` exactly 32.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_4x8(kc: usize, a_panel: *const f64, b_panel: *const f64, acc: *mut f64) {
    let mut c00 = _mm256_setzero_pd();
    let mut c01 = _mm256_setzero_pd();
    let mut c10 = _mm256_setzero_pd();
    let mut c11 = _mm256_setzero_pd();
    let mut c20 = _mm256_setzero_pd();
    let mut c21 = _mm256_setzero_pd();
    let mut c30 = _mm256_setzero_pd();
    let mut c31 = _mm256_setzero_pd();
    for k in 0..kc {
        let b0 = _mm256_loadu_pd(b_panel.add(k * 8));
        let b1 = _mm256_loadu_pd(b_panel.add(k * 8 + 4));
        let a = a_panel.add(k * 4);
        let a0 = _mm256_set1_pd(*a);
        c00 = _mm256_fmadd_pd(a0, b0, c00);
        c01 = _mm256_fmadd_pd(a0, b1, c01);
        let a1 = _mm256_set1_pd(*a.add(1));
        c10 = _mm256_fmadd_pd(a1, b0, c10);
        c11 = _mm256_fmadd_pd(a1, b1, c11);
        let a2 = _mm256_set1_pd(*a.add(2));
        c20 = _mm256_fmadd_pd(a2, b0, c20);
        c21 = _mm256_fmadd_pd(a2, b1, c21);
        let a3 = _mm256_set1_pd(*a.add(3));
        c30 = _mm256_fmadd_pd(a3, b0, c30);
        c31 = _mm256_fmadd_pd(a3, b1, c31);
    }
    for (r, (lo, hi)) in [(c00, c01), (c10, c11), (c20, c21), (c30, c31)]
        .into_iter()
        .enumerate()
    {
        let dst = acc.add(r * 8);
        _mm256_storeu_pd(dst, _mm256_add_pd(_mm256_loadu_pd(dst), lo));
        _mm256_storeu_pd(dst.add(4), _mm256_add_pd(_mm256_loadu_pd(dst.add(4)), hi));
    }
}

impl MicroKernel for Avx2Kernel {
    const MR: usize = 4;
    const NR: usize = 8;
    // FMA pays for the packing much sooner than the portable kernel does
    // (measured crossover between 32³ and 64³ on the dev container).
    const SMALL_WORK: usize = 1 << 16;

    #[inline(always)]
    fn accumulate(self, kc: usize, a_panel: &[f64], b_panel: &[f64], acc: &mut [f64]) {
        debug_assert!(a_panel.len() >= kc * Self::MR);
        debug_assert!(b_panel.len() >= kc * Self::NR);
        debug_assert_eq!(acc.len(), Self::MR * Self::NR);
        // SAFETY: avx2+fma are verified before this backend is handed out,
        // and the slice lengths are asserted above.
        unsafe { micro_4x8(kc, a_panel.as_ptr(), b_panel.as_ptr(), acc.as_mut_ptr()) }
    }
}

/// # Safety
/// Requires avx2+fma and `x.len() == y.len()`.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sq_distance_body(x: &[f64], y: &[f64]) -> f64 {
    let d = x.len();
    let chunks = d / 4;
    let mut acc = _mm256_setzero_pd();
    for c in 0..chunks {
        let xv = _mm256_loadu_pd(x.as_ptr().add(c * 4));
        let yv = _mm256_loadu_pd(y.as_ptr().add(c * 4));
        let diff = _mm256_sub_pd(xv, yv);
        acc = _mm256_fmadd_pd(diff, diff, acc);
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    let mut tail = 0.0;
    for i in chunks * 4..d {
        let diff = x[i] - y[i];
        tail += diff * diff;
    }
    // Same fixed lane-reduction order as the portable unrolled kernel.
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

fn sq_distance_avx2(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "sq_distance: length mismatch");
    if x.len() < 8 {
        return super::scalar::SCALAR.sq_distance(x, y);
    }
    // SAFETY: avx2+fma are verified before this backend is handed out.
    unsafe { sq_distance_body(x, y) }
}

impl DenseBackend for Avx2Backend {
    fn name(&self) -> &'static str {
        "avx2"
    }

    fn gemm_into(&self, a: &Matrix, b: &Matrix, c: &mut Matrix) {
        check_gemm(a, b, c);
        gemm_blocked(Avx2Kernel, Src::Normal(a), Src::Normal(b), c);
    }

    fn gemm_tn_into(&self, a: &Matrix, b: &Matrix, c: &mut Matrix) {
        check_gemm_tn(a, b, c);
        gemm_blocked(Avx2Kernel, Src::Transposed(a), Src::Normal(b), c);
    }

    fn gemm_nt_into(&self, a: &Matrix, b: &Matrix, c: &mut Matrix) {
        check_gemm_nt(a, b, c);
        gemm_blocked(Avx2Kernel, Src::Normal(a), Src::Transposed(b), c);
    }

    fn syrk_into(&self, a: &Matrix, c: &mut Matrix) {
        check_syrk(a, c);
        syrk_via_nt(Avx2Kernel, a, c);
    }

    fn trsm_lower_into(&self, l: &Matrix, b: &mut Matrix) -> LinalgResult<()> {
        trsm_lower_rowsweep(l, b)
    }

    fn trsm_upper_into(&self, u: &Matrix, b: &mut Matrix) -> LinalgResult<()> {
        trsm_upper_rowsweep(u, b)
    }

    fn sq_distance(&self, x: &[f64], y: &[f64]) -> f64 {
        sq_distance_avx2(x, y)
    }

    fn sq_dists_into(&self, x: &Matrix, y: &Matrix, out: &mut Matrix) {
        check_sq_dists(x, y, out);
        sq_dists_rowpar(x, y, out, sq_distance_avx2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::scalar::SCALAR;
    use crate::blas::relative_error;
    use crate::random::{gaussian_matrix, Pcg64};

    fn available() -> bool {
        super::super::avx2_supported()
    }

    #[test]
    fn avx2_gemm_matches_scalar_over_awkward_shapes() {
        if !available() {
            return;
        }
        let mut rng = Pcg64::seed_from_u64(53);
        for (m, k, n) in [(1, 7, 3), (16, 16, 16), (61, 300, 47), (128, 128, 200)] {
            let a = gaussian_matrix(&mut rng, m, k);
            let b = gaussian_matrix(&mut rng, k, n);
            let mut c = Matrix::zeros(m, n);
            AVX2.gemm_into(&a, &b, &mut c);
            let mut c_ref = Matrix::zeros(m, n);
            SCALAR.gemm_into(&a, &b, &mut c_ref);
            assert!(
                relative_error(&c_ref, &c) < 1e-13,
                "gemm mismatch at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn avx2_transpose_variants_and_syrk_match_scalar() {
        if !available() {
            return;
        }
        let mut rng = Pcg64::seed_from_u64(59);
        let a = gaussian_matrix(&mut rng, 90, 40);
        let b = gaussian_matrix(&mut rng, 90, 35);
        let mut c = Matrix::zeros(40, 35);
        AVX2.gemm_tn_into(&a, &b, &mut c);
        let mut c_ref = Matrix::zeros(40, 35);
        SCALAR.gemm_tn_into(&a, &b, &mut c_ref);
        assert!(relative_error(&c_ref, &c) < 1e-13);

        let mut s = Matrix::zeros(90, 90);
        AVX2.syrk_into(&a, &mut s);
        let mut s_ref = Matrix::zeros(90, 90);
        SCALAR.syrk_into(&a, &mut s_ref);
        assert!(relative_error(&s_ref, &s) < 1e-13);
        for i in 0..90 {
            for j in 0..90 {
                assert_eq!(s[(i, j)].to_bits(), s[(j, i)].to_bits());
            }
        }
    }

    #[test]
    fn avx2_distance_is_nonnegative_and_close_to_scalar() {
        if !available() {
            return;
        }
        let mut rng = Pcg64::seed_from_u64(61);
        for d in [1, 7, 8, 16, 18, 31] {
            let x: Vec<f64> = (0..d).map(|_| rng.next_gaussian()).collect();
            let y: Vec<f64> = (0..d).map(|_| rng.next_gaussian()).collect();
            let got = AVX2.sq_distance(&x, &y);
            let want = SCALAR.sq_distance(&x, &y);
            assert!(got >= 0.0);
            assert!((got - want).abs() <= 1e-12 * want.max(1.0));
            assert_eq!(AVX2.sq_distance(&x, &x), 0.0);
        }
    }
}
