//! AVX2+FMA backend: a cache-blocking GEMM driver around an explicit
//! `std::arch` 4×8 FMA tile, plus a SIMD squared distance.
//!
//! The driver follows the classic GotoBLAS/BLIS decomposition: the k
//! dimension is split into `KC`-deep panels sized for L2, B is packed once
//! per k-panel into `NR`-wide column micropanels, and each `MC`-row block of
//! A is packed into `MR`-tall row micropanels that stay hot in L1 while the
//! register-tiled `MR×NR` FMA kernel sweeps the packed panels.  Products
//! too small to amortize the packing take plain sequential loops instead.
//!
//! Determinism: each output element accumulates its k-panel contributions in
//! a fixed panel order, and the rayon split is over disjoint `MC`-row blocks
//! of C whose boundaries do not depend on the thread count — so results are
//! bitwise-identical for any number of threads.
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
//!   `kc * NR` and the accumulator tile is an `MR * NR` array), which
//!   `accumulate` asserts before every microkernel call.
#![allow(unsafe_code)]

use super::{check_gemm, check_gemm_nt, check_gemm_tn, check_syrk, DenseBackend};
use crate::matrix::Matrix;
use rayon::prelude::*;
use std::arch::x86_64::*;

/// k-panel depth; an `MR×KC` A-micropanel plus a `KC×NR` B-micropanel fit
/// comfortably in L1, and a full `MC×KC` A-block in L2.
const KC: usize = 256;
/// Rows of C per parallel task (and per packed A-block).
const MC: usize = 96;
/// Tile height: rows of C per microkernel call.
const MR: usize = 4;
/// Tile width: columns of C per microkernel call.
const NR: usize = 8;
/// Below this many multiply-adds the packing overhead outweighs the
/// blocking win, and [`gemm_blocked`] runs the plain sequential loops of
/// [`gemm_small`] instead (the measured crossover lies between 32³ and
/// 64³).  HSS construction issues very many tiny per-node products, so
/// this threshold matters more end-to-end than peak large-GEMM throughput.
const SMALL_WORK: usize = 1 << 16;

pub(crate) static AVX2: Avx2Backend = Avx2Backend;

/// Cache-blocked [`DenseBackend`] with an explicit AVX2+FMA microkernel.
///
/// Only handed out by the selection layer when the CPU reports `avx2` and
/// `fma` at runtime.
#[derive(Debug, Clone, Copy, Default)]
pub struct Avx2Backend;

/// How the packing routines read a source operand.
#[derive(Clone, Copy)]
enum Src<'a> {
    /// Element `(i, j)` is `m[(i, j)]`.
    Normal(&'a Matrix),
    /// Element `(i, j)` is `m[(j, i)]` — packs the transpose without
    /// materializing it.
    Transposed(&'a Matrix),
}

impl Src<'_> {
    #[inline(always)]
    fn get(&self, i: usize, j: usize) -> f64 {
        match self {
            Src::Normal(m) => m[(i, j)],
            Src::Transposed(m) => m[(j, i)],
        }
    }

    /// Logical number of rows of the operand this source represents.
    fn nrows(&self) -> usize {
        match self {
            Src::Normal(m) => m.nrows(),
            Src::Transposed(m) => m.ncols(),
        }
    }

    /// Logical number of columns of the operand this source represents.
    fn ncols(&self) -> usize {
        match self {
            Src::Normal(m) => m.ncols(),
            Src::Transposed(m) => m.nrows(),
        }
    }
}

/// 4×8 register tile: 8 ymm accumulators (4 rows × 2 four-lane columns),
/// one broadcast register for A and two loads for B per k step.
/// `acc[r*NR + c] += Σ_k a_panel[k*MR + r] * b_panel[k*NR + c]`.
///
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

/// Safe entry to [`micro_4x8`] over one A- and one B-micropanel.
#[inline(always)]
fn accumulate(kc: usize, a_panel: &[f64], b_panel: &[f64], acc: &mut [f64; MR * NR]) {
    assert!(a_panel.len() >= kc * MR && b_panel.len() >= kc * NR);
    // SAFETY: avx2+fma are verified before this backend is handed out,
    // and the slice lengths are asserted above.
    unsafe { micro_4x8(kc, a_panel.as_ptr(), b_panel.as_ptr(), acc.as_mut_ptr()) }
}

/// Packs the `kc`-deep, `n`-wide slab of `b` starting at row `k0` into
/// `NR`-wide k-major micropanels, zero-padding the ragged last panel.
fn pack_b(b: &Src<'_>, k0: usize, kc: usize, n: usize, out: &mut [f64]) {
    let panels = n.div_ceil(NR);
    for p in 0..panels {
        let j0 = p * NR;
        let nr = NR.min(n - j0);
        let panel = &mut out[p * kc * NR..(p + 1) * kc * NR];
        for k in 0..kc {
            let dst = &mut panel[k * NR..k * NR + NR];
            for (c, d) in dst.iter_mut().enumerate().take(nr) {
                *d = b.get(k0 + k, j0 + c);
            }
            for d in dst.iter_mut().skip(nr) {
                *d = 0.0;
            }
        }
    }
}

/// Packs the `mc`-tall, `kc`-deep block of `a` starting at `(i0, k0)` into
/// `MR`-tall k-major micropanels, zero-padding the ragged last panel.
fn pack_a(a: &Src<'_>, i0: usize, k0: usize, mc: usize, kc: usize, out: &mut [f64]) {
    let panels = mc.div_ceil(MR);
    for p in 0..panels {
        let r0 = p * MR;
        let mr = MR.min(mc - r0);
        let panel = &mut out[p * kc * MR..(p + 1) * kc * MR];
        for k in 0..kc {
            let dst = &mut panel[k * MR..k * MR + MR];
            for (r, d) in dst.iter_mut().enumerate().take(mr) {
                *d = a.get(i0 + r0 + r, k0 + k);
            }
            for d in dst.iter_mut().skip(mr) {
                *d = 0.0;
            }
        }
    }
}

/// Cache-blocked `C = A·B` over possibly transposed sources; `c` is fully
/// overwritten.
fn gemm_blocked(a: Src<'_>, b: Src<'_>, c: &mut Matrix) {
    let m = a.nrows();
    let k = a.ncols();
    let n = b.ncols();
    c.data_mut().fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if m * n * k <= SMALL_WORK {
        gemm_small(a, b, c);
        return;
    }
    let n_panels = n.div_ceil(NR);
    let mut b_packed = vec![0.0f64; n_panels * KC * NR];
    let mut k0 = 0;
    while k0 < k {
        let kc = KC.min(k - k0);
        pack_b(&b, k0, kc, n, &mut b_packed[..n_panels * kc * NR]);
        let b_slab = &b_packed[..n_panels * kc * NR];
        let a_ref = &a;
        c.data_mut()
            .par_chunks_mut(MC * n)
            .enumerate()
            .for_each(|(blk, c_block)| {
                let i0 = blk * MC;
                let mc = MC.min(m - i0);
                let m_panels = mc.div_ceil(MR);
                let mut a_packed = vec![0.0f64; m_panels * kc * MR];
                pack_a(a_ref, i0, k0, mc, kc, &mut a_packed);
                let mut acc = [0.0f64; MR * NR];
                for pi in 0..m_panels {
                    let r0 = pi * MR;
                    let rows = MR.min(mc - r0);
                    let a_panel = &a_packed[pi * kc * MR..(pi + 1) * kc * MR];
                    for pj in 0..n_panels {
                        let j0 = pj * NR;
                        let cols = NR.min(n - j0);
                        let b_panel = &b_slab[pj * kc * NR..(pj + 1) * kc * NR];
                        acc.fill(0.0);
                        accumulate(kc, a_panel, b_panel, &mut acc);
                        for r in 0..rows {
                            let crow = &mut c_block[(r0 + r) * n + j0..(r0 + r) * n + j0 + cols];
                            let arow = &acc[r * NR..r * NR + cols];
                            for (cv, av) in crow.iter_mut().zip(arow.iter()) {
                                *cv += av;
                            }
                        }
                    }
                }
            });
        k0 += kc;
    }
}

/// Plain sequential loops for products too small to amortize packing.
///
/// Each transpose combination gets its own slice-based loop: HSS
/// construction calls into here hundreds of thousands of times per train,
/// and a per-element `Src::get` enum match is ~8× slower than these loops
/// at 16³ shapes.  Every element still accumulates its k-contributions in
/// ascending-`l` order, so the result is deterministic; the NT arm computes
/// `C[i,j]` and `C[j,i]` as the identical dot when `b` aliases `a`, keeping
/// `syrk_into` bitwise symmetric on this path too.
fn gemm_small(a: Src<'_>, b: Src<'_>, c: &mut Matrix) {
    let m = a.nrows();
    let k = a.ncols();
    match (a, b) {
        (Src::Normal(am), Src::Normal(bm)) => {
            for i in 0..m {
                let arow = am.row(i);
                let crow = c.row_mut(i);
                for (l, &ail) in arow.iter().enumerate() {
                    if ail == 0.0 {
                        continue;
                    }
                    for (cj, &bj) in crow.iter_mut().zip(bm.row(l).iter()) {
                        *cj += ail * bj;
                    }
                }
            }
        }
        (Src::Transposed(am), Src::Normal(bm)) => {
            for l in 0..k {
                let arow = am.row(l);
                let brow = bm.row(l);
                for (i, &ail) in arow.iter().enumerate() {
                    if ail == 0.0 {
                        continue;
                    }
                    for (cj, &bj) in c.row_mut(i).iter_mut().zip(brow.iter()) {
                        *cj += ail * bj;
                    }
                }
            }
        }
        (Src::Normal(am), Src::Transposed(bm)) => {
            for i in 0..m {
                let arow = am.row(i);
                let crow = c.row_mut(i);
                for (j, cj) in crow.iter_mut().enumerate() {
                    let mut s = 0.0;
                    for (&x, &y) in arow.iter().zip(bm.row(j).iter()) {
                        s += x * y;
                    }
                    *cj = s;
                }
            }
        }
        (Src::Transposed(_), Src::Transposed(_)) => {
            unreachable!("no backend entry point multiplies two transposed operands")
        }
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
    // Fixed lane-reduction order, independent of the call site.
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

impl DenseBackend for Avx2Backend {
    fn name(&self) -> &'static str {
        "avx2"
    }

    fn gemm_into(&self, a: &Matrix, b: &Matrix, c: &mut Matrix) {
        check_gemm(a, b, c);
        gemm_blocked(Src::Normal(a), Src::Normal(b), c);
    }

    fn gemm_tn_into(&self, a: &Matrix, b: &Matrix, c: &mut Matrix) {
        check_gemm_tn(a, b, c);
        gemm_blocked(Src::Transposed(a), Src::Normal(b), c);
    }

    fn gemm_nt_into(&self, a: &Matrix, b: &Matrix, c: &mut Matrix) {
        check_gemm_nt(a, b, c);
        gemm_blocked(Src::Normal(a), Src::Transposed(b), c);
    }

    /// `C = A·Aᵀ` through the NT product; both triangles come out of the
    /// same packed panels, so `C[i,j]` and `C[j,i]` are the identical fp sum.
    fn syrk_into(&self, a: &Matrix, c: &mut Matrix) {
        check_syrk(a, c);
        gemm_blocked(Src::Normal(a), Src::Transposed(a), c);
    }

    fn sq_distance(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "sq_distance: length mismatch");
        if x.len() < 8 {
            return super::scalar::SCALAR.sq_distance(x, y);
        }
        // SAFETY: avx2+fma are verified before this backend is handed out.
        unsafe { sq_distance_body(x, y) }
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
        // (97, 259, 101) crosses both an MC row block and a KC panel.
        for (m, k, n) in [
            (1, 7, 3),
            (16, 16, 16),
            (61, 300, 47),
            (97, 259, 101),
            (128, 128, 200),
        ] {
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
