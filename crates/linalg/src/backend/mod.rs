//! Pluggable dense-math backends behind a single dispatch seam.
//!
//! Every level-3 dense kernel in the workspace (GEMM in its three transpose
//! variants, SYRK, triangular multi-solves) and the squared-distance kernels
//! that feed kernel assembly, clustering and serve-time routing go through
//! the [`DenseBackend`] trait.  Two implementations ship today:
//!
//! * [`BackendKind::Scalar`] — the reference implementation.  Bit-for-bit
//!   the arithmetic the workspace had before the backend seam existed; the
//!   bitwise-reproducibility suites pin against it.
//! * [`BackendKind::Avx2`] — BLIS-style cache blocking (packed micropanels)
//!   around an explicit AVX2+FMA 4×8 microkernel via `std::arch`, plus a
//!   SIMD squared distance; selected only when the CPU reports the
//!   features at runtime.
//!
//! What the two share is provided by the trait itself: the triangular row
//! sweeps and the row-parallel distance loops over the backend's own
//! per-pair [`DenseBackend::sq_distance`].  A backend implements only its
//! name, the three GEMMs, SYRK and the per-pair distance.
//!
//! # Selection
//!
//! The active backend is chosen once, lazily, from the `HKRR_DENSE_BACKEND`
//! environment variable (`scalar`, `avx2` or `auto`); unset or `auto` picks
//! `avx2` when the CPU reports AVX2+FMA and `scalar` otherwise.  Benches
//! and tests may override the choice at runtime with [`set_active`].
//!
//! # Contract
//!
//! Results are *deterministic within a backend*: the same inputs on the same
//! backend produce bitwise-identical outputs regardless of thread count.
//! Across backends results are only *accuracy-bounded* against
//! [`BackendKind::Scalar`] (SIMD and blocking reorder floating-point sums),
//! which the cross-backend proptest suite enforces componentwise.
//!
//! The trait takes `&self` and plain `f64` buffers only. The
//! mixed-precision factor store does not go through it: its solve reads
//! f32 storage through the two widened GEMVs on
//! [`MatrixF32`](crate::MatrixF32) and
//! [`LuF32::solve_f64`](crate::LuF32::solve_f64), which compute in f64
//! and call no backend.

use crate::matrix::Matrix;
use crate::LinalgResult;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU8, Ordering};

#[cfg(target_arch = "x86_64")]
mod avx2;
mod scalar;

#[cfg(target_arch = "x86_64")]
pub use avx2::Avx2Backend;
pub use scalar::ScalarBackend;

/// Below this many output elements the row-parallel kernels run
/// sequentially; spawning rayon tasks for tiny blocks costs more than the
/// work itself.
pub(crate) const PAR_THRESHOLD: usize = 64 * 64;

/// In-place dense kernels every backend must provide.
///
/// A backend implements its name, the three GEMMs, SYRK and the per-pair
/// [`sq_distance`](DenseBackend::sq_distance); the triangular solves and the
/// bulk distance kernels are provided on top of those.
///
/// All `*_into` methods **overwrite** their output argument (they do not
/// accumulate), so callers can reuse buffers across calls without clearing
/// them.  Dimension mismatches panic, matching the historical free-function
/// behaviour in [`crate::blas`].
pub trait DenseBackend: Send + Sync {
    /// Short stable name of the backend (`"scalar"`, `"avx2"`).
    fn name(&self) -> &'static str;

    /// `C = A · B` with `A` being `m×k`, `B` `k×n` and `C` `m×n`.
    fn gemm_into(&self, a: &Matrix, b: &Matrix, c: &mut Matrix);

    /// `C = Aᵀ · B` with `A` being `k×m`, `B` `k×n` and `C` `m×n`.
    fn gemm_tn_into(&self, a: &Matrix, b: &Matrix, c: &mut Matrix);

    /// `C = A · Bᵀ` with `A` being `m×k`, `B` `n×k` and `C` `m×n`.
    fn gemm_nt_into(&self, a: &Matrix, b: &Matrix, c: &mut Matrix);

    /// Symmetric product `C = A · Aᵀ` with `A` being `m×k` and `C` `m×m`.
    ///
    /// The result is exactly symmetric: `C[i,j]` and `C[j,i]` are the same
    /// floating-point value.
    fn syrk_into(&self, a: &Matrix, c: &mut Matrix);

    /// In-place forward substitution `B ← L⁻¹ B` for lower-triangular `L`.
    ///
    /// Only the lower triangle (diagonal included) of `l` is read.  Returns
    /// [`crate::LinalgError::Singular`] on a zero diagonal entry; `b` is
    /// left partially updated in that case.
    fn trsm_lower_into(&self, l: &Matrix, b: &mut Matrix) -> LinalgResult<()> {
        trsm_lower_rowsweep(l, b)
    }

    /// In-place backward substitution `B ← U⁻¹ B` for upper-triangular `U`.
    ///
    /// Only the upper triangle (diagonal included) of `u` is read.  Returns
    /// [`crate::LinalgError::Singular`] on a zero diagonal entry; `b` is
    /// left partially updated in that case.
    fn trsm_upper_into(&self, u: &Matrix, b: &mut Matrix) -> LinalgResult<()> {
        trsm_upper_rowsweep(u, b)
    }

    /// Squared Euclidean distance between two equally-long points.
    ///
    /// Always evaluated as `Σ (xᵢ-yᵢ)²` (never the expanded
    /// `‖x‖²+‖y‖²−2x·y` form), so the result is non-negative under any
    /// summation order — kernel evaluations downstream rely on that.
    fn sq_distance(&self, x: &[f64], y: &[f64]) -> f64;

    /// All-pairs squared distances: `out[i,j] = ‖x_i − y_j‖²` for the rows
    /// of `x` (`m×d`) and `y` (`n×d`), with `out` being `m×n`.
    ///
    /// Every entry is one [`sq_distance`](DenseBackend::sq_distance) call;
    /// rows run in parallel once `out` holds 64 × 64 entries, which cannot
    /// change any entry.
    fn sq_dists_into(&self, x: &Matrix, y: &Matrix, out: &mut Matrix) {
        check_sq_dists(x, y, out);
        let n = y.nrows();
        let fill_row = |i: usize, row: &mut [f64]| {
            let xi = x.row(i);
            for (j, oj) in row.iter_mut().enumerate() {
                *oj = self.sq_distance(xi, y.row(j));
            }
        };
        if x.nrows() * n < PAR_THRESHOLD {
            for i in 0..x.nrows() {
                fill_row(i, out.row_mut(i));
            }
        } else {
            out.data_mut()
                .par_chunks_mut(n)
                .enumerate()
                .for_each(|(i, row)| fill_row(i, row));
        }
    }

    /// Squared distances from every row of `points` (`m×d`) to one point:
    /// `out[i] = ‖p_i − center‖²`.
    fn dists_to_point_into(&self, points: &Matrix, center: &[f64], out: &mut [f64]) {
        check_dists_to_point(points, center, out);
        for (i, oi) in out.iter_mut().enumerate() {
            *oi = self.sq_distance(points.row(i), center);
        }
    }
}

/// Identifies one of the shipped [`DenseBackend`] implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Reference implementation with the pre-seam arithmetic (bitwise pinned).
    Scalar,
    /// Cache-blocked kernels with an explicit AVX2+FMA microkernel.
    Avx2,
}

impl BackendKind {
    /// Stable lowercase name, matching the `HKRR_DENSE_BACKEND` values.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Avx2 => "avx2",
        }
    }

    /// Parses a `HKRR_DENSE_BACKEND`-style name (case-insensitive).
    pub fn parse(name: &str) -> Option<BackendKind> {
        match name.to_ascii_lowercase().as_str() {
            "scalar" => Some(BackendKind::Scalar),
            "avx2" => Some(BackendKind::Avx2),
            _ => None,
        }
    }

    /// Whether this backend can run on the current host.
    pub fn is_available(self) -> bool {
        match self {
            BackendKind::Scalar => true,
            BackendKind::Avx2 => avx2_supported(),
        }
    }

    /// The shared instance backing this kind.
    ///
    /// # Panics
    /// Panics if the backend is not available on this host (see
    /// [`BackendKind::is_available`]).
    pub fn instance(self) -> &'static dyn DenseBackend {
        match self {
            BackendKind::Scalar => &scalar::SCALAR,
            BackendKind::Avx2 => avx2_instance(),
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            BackendKind::Scalar => 1,
            BackendKind::Avx2 => 2,
        }
    }

    fn from_u8(v: u8) -> Option<BackendKind> {
        match v {
            1 => Some(BackendKind::Scalar),
            2 => Some(BackendKind::Avx2),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_supported() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_supported() -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
fn avx2_instance() -> &'static dyn DenseBackend {
    assert!(
        avx2_supported(),
        "avx2 backend requested but the CPU does not report avx2+fma"
    );
    &avx2::AVX2
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_instance() -> &'static dyn DenseBackend {
    panic!("avx2 backend requested on a non-x86_64 target")
}

/// 0 = not yet chosen; otherwise `BackendKind::to_u8`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The backends usable on this host, scalar first.
pub fn available_backends() -> Vec<BackendKind> {
    [BackendKind::Scalar, BackendKind::Avx2]
        .into_iter()
        .filter(|k| k.is_available())
        .collect()
}

/// Picks the default backend: `HKRR_DENSE_BACKEND` if set, otherwise
/// `avx2` when the CPU reports AVX2+FMA and `scalar` when it does not.
///
/// # Panics
/// Panics if `HKRR_DENSE_BACKEND` names an unknown or unavailable backend —
/// a misspelt override should fail loudly, not silently fall back.
fn default_kind() -> BackendKind {
    match std::env::var("HKRR_DENSE_BACKEND") {
        Ok(v) if !v.is_empty() && !v.eq_ignore_ascii_case("auto") => {
            let kind = BackendKind::parse(&v).unwrap_or_else(|| {
                panic!("HKRR_DENSE_BACKEND={v:?}: expected scalar, avx2 or auto")
            });
            assert!(
                kind.is_available(),
                "HKRR_DENSE_BACKEND={v:?}: backend not available on this host"
            );
            kind
        }
        _ => {
            if avx2_supported() {
                BackendKind::Avx2
            } else {
                BackendKind::Scalar
            }
        }
    }
}

/// Kind of the active backend, initializing it on first use.
pub fn active_kind() -> BackendKind {
    match BackendKind::from_u8(ACTIVE.load(Ordering::Acquire)) {
        Some(kind) => kind,
        None => {
            let kind = default_kind();
            // A concurrent first call may race; both compute the same
            // default, so whichever store wins is equivalent.
            ACTIVE.store(kind.to_u8(), Ordering::Release);
            kind
        }
    }
}

/// The active [`DenseBackend`], initializing it on first use.
///
/// This is the single dispatch seam: every dense level-3 product and
/// distance kernel in the workspace routes through the instance returned
/// here.
pub fn active() -> &'static dyn DenseBackend {
    active_kind().instance()
}

/// Alias for [`active`] under the name downstream crates import
/// (`hkrr_linalg::dense_backend()`).
pub fn dense_backend() -> &'static dyn DenseBackend {
    active()
}

/// Overrides the active backend (benches and cross-backend tests).
///
/// Returns an error if the backend is not available on this host.  Calls
/// running concurrently in other threads observe the switch on their next
/// [`active`] lookup, so tests that switch backends must not run in
/// parallel with work that assumes a pinned backend.
pub fn set_active(kind: BackendKind) -> Result<(), String> {
    if !kind.is_available() {
        return Err(format!("backend {kind} not available on this host"));
    }
    ACTIVE.store(kind.to_u8(), Ordering::Release);
    Ok(())
}

// ---------------------------------------------------------------------------
// Shared dimension checks (one panic message per operation, all backends).
// ---------------------------------------------------------------------------

pub(crate) fn check_gemm(a: &Matrix, b: &Matrix, c: &Matrix) {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "gemm: inner dimensions do not match ({}x{} * {}x{})",
        a.nrows(),
        a.ncols(),
        b.nrows(),
        b.ncols()
    );
    assert_eq!(
        (c.nrows(), c.ncols()),
        (a.nrows(), b.ncols()),
        "gemm: output shape mismatch"
    );
}

pub(crate) fn check_gemm_tn(a: &Matrix, b: &Matrix, c: &Matrix) {
    assert_eq!(a.nrows(), b.nrows(), "gemm_tn: row mismatch");
    assert_eq!(
        (c.nrows(), c.ncols()),
        (a.ncols(), b.ncols()),
        "gemm_tn: output shape mismatch"
    );
}

pub(crate) fn check_gemm_nt(a: &Matrix, b: &Matrix, c: &Matrix) {
    assert_eq!(a.ncols(), b.ncols(), "gemm_nt: col mismatch");
    assert_eq!(
        (c.nrows(), c.ncols()),
        (a.nrows(), b.nrows()),
        "gemm_nt: output shape mismatch"
    );
}

pub(crate) fn check_syrk(a: &Matrix, c: &Matrix) {
    assert_eq!(
        (c.nrows(), c.ncols()),
        (a.nrows(), a.nrows()),
        "syrk: output shape mismatch"
    );
}

pub(crate) fn check_trsm(t: &Matrix, b: &Matrix) {
    assert_eq!(
        t.nrows(),
        t.ncols(),
        "trsm: triangular factor must be square"
    );
    assert_eq!(t.nrows(), b.nrows(), "trsm: dim mismatch");
}

pub(crate) fn check_sq_dists(x: &Matrix, y: &Matrix, out: &Matrix) {
    assert_eq!(x.ncols(), y.ncols(), "sq_dists: point dimension mismatch");
    assert_eq!(
        (out.nrows(), out.ncols()),
        (x.nrows(), y.nrows()),
        "sq_dists: output shape mismatch"
    );
}

pub(crate) fn check_dists_to_point(points: &Matrix, center: &[f64], out: &[f64]) {
    assert_eq!(
        points.ncols(),
        center.len(),
        "dists_to_point: point dimension mismatch"
    );
    assert_eq!(
        points.nrows(),
        out.len(),
        "dists_to_point: output length mismatch"
    );
}

/// Row-sweep forward substitution `B ← L⁻¹ B`, the body of the provided
/// [`DenseBackend::trsm_lower_into`].
///
/// Element-for-element this performs the same scalar operation sequence as
/// solving column by column (each `b[i][c]` receives the subtractions in
/// ascending `j` order, then one divide), so the result does not depend on
/// how the independent per-column ops are batched.
fn trsm_lower_rowsweep(l: &Matrix, b: &mut Matrix) -> LinalgResult<()> {
    check_trsm(l, b);
    let n = l.nrows();
    let r = b.ncols();
    for i in 0..n {
        let d = l[(i, i)];
        if d == 0.0 {
            return Err(crate::LinalgError::Singular { pivot: i });
        }
        for j in 0..i {
            let lij = l[(i, j)];
            let (done, rest) = b.data_mut().split_at_mut(i * r);
            let bj = &done[j * r..(j + 1) * r];
            let bi = &mut rest[..r];
            for (bic, bjc) in bi.iter_mut().zip(bj.iter()) {
                *bic -= lij * bjc;
            }
        }
        for v in b.row_mut(i) {
            *v /= d;
        }
    }
    Ok(())
}

/// Row-sweep backward substitution `B ← U⁻¹ B`, the body of the provided
/// [`DenseBackend::trsm_upper_into`] (see [`trsm_lower_rowsweep`] for the
/// determinism argument).
fn trsm_upper_rowsweep(u: &Matrix, b: &mut Matrix) -> LinalgResult<()> {
    check_trsm(u, b);
    let n = u.nrows();
    let r = b.ncols();
    for i in (0..n).rev() {
        let d = u[(i, i)];
        if d == 0.0 {
            return Err(crate::LinalgError::Singular { pivot: i });
        }
        for j in (i + 1)..n {
            let uij = u[(i, j)];
            let (head, tail) = b.data_mut().split_at_mut(j * r);
            let bi = &mut head[i * r..(i + 1) * r];
            let bj = &tail[..r];
            for (bic, bjc) in bi.iter_mut().zip(bj.iter()) {
                *bic -= uij * bjc;
            }
        }
        for v in b.row_mut(i) {
            *v /= d;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::relative_error;
    use crate::random::{gaussian_matrix, Pcg64};

    #[test]
    fn kind_roundtrip_and_parse() {
        for kind in [BackendKind::Scalar, BackendKind::Avx2] {
            assert_eq!(BackendKind::parse(kind.as_str()), Some(kind));
            assert_eq!(BackendKind::from_u8(kind.to_u8()), Some(kind));
        }
        assert_eq!(BackendKind::parse("AVX2"), Some(BackendKind::Avx2));
        assert_eq!(BackendKind::parse("mmx"), None);
        assert_eq!(BackendKind::parse("blocked"), None);
    }

    #[test]
    fn active_backend_is_available() {
        let kind = active_kind();
        assert!(kind.is_available());
        assert_eq!(active().name(), kind.as_str());
    }

    #[test]
    fn every_backend_multiplies_correctly() {
        let mut rng = Pcg64::seed_from_u64(17);
        let a = gaussian_matrix(&mut rng, 13, 9);
        let b = gaussian_matrix(&mut rng, 9, 11);
        let reference = BackendKind::Scalar.instance();
        let mut c_ref = Matrix::zeros(13, 11);
        reference.gemm_into(&a, &b, &mut c_ref);
        for kind in available_backends() {
            let mut c = Matrix::zeros(13, 11);
            kind.instance().gemm_into(&a, &b, &mut c);
            assert!(
                relative_error(&c_ref, &c) < 1e-13,
                "backend {kind} disagrees with scalar"
            );
        }
    }

    #[test]
    fn gemm_is_bitwise_identical_at_one_and_four_threads() {
        // 210·140·190 multiply-adds is far above avx2's small-product
        // cutoff, so this runs the packed, row-block-parallel path.
        let mut rng = Pcg64::seed_from_u64(37);
        let a = gaussian_matrix(&mut rng, 210, 140);
        let b = gaussian_matrix(&mut rng, 140, 190);
        let at = a.transpose();
        let bt = b.transpose();
        let run = |threads: usize, kind: BackendKind| {
            let be = kind.instance();
            let mut c = Matrix::zeros(210, 190);
            let mut c_tn = Matrix::zeros(210, 190);
            let mut c_nt = Matrix::zeros(210, 190);
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    be.gemm_into(&a, &b, &mut c);
                    be.gemm_tn_into(&at, &b, &mut c_tn);
                    be.gemm_nt_into(&a, &bt, &mut c_nt);
                });
            (c, c_tn, c_nt)
        };
        for kind in available_backends() {
            let (c1, tn1, nt1) = run(1, kind);
            let (c4, tn4, nt4) = run(4, kind);
            assert_eq!(c1.data(), c4.data(), "{kind} gemm_into");
            assert_eq!(tn1.data(), tn4.data(), "{kind} gemm_tn_into");
            assert_eq!(nt1.data(), nt4.data(), "{kind} gemm_nt_into");
        }
    }

    #[test]
    fn zero_depth_products_overwrite_stale_output() {
        let stale = || Matrix::from_fn(4, 3, |_, _| 7.0);
        for kind in available_backends() {
            let be = kind.instance();
            let mut c = stale();
            be.gemm_into(&Matrix::zeros(4, 0), &Matrix::zeros(0, 3), &mut c);
            assert!(c.data().iter().all(|&v| v == 0.0), "{kind} gemm_into");
            let mut c = stale();
            be.gemm_tn_into(&Matrix::zeros(0, 4), &Matrix::zeros(0, 3), &mut c);
            assert!(c.data().iter().all(|&v| v == 0.0), "{kind} gemm_tn_into");
            let mut c = stale();
            be.gemm_nt_into(&Matrix::zeros(4, 0), &Matrix::zeros(3, 0), &mut c);
            assert!(c.data().iter().all(|&v| v == 0.0), "{kind} gemm_nt_into");
            // An empty output is a no-op, not a panic.
            let mut c = Matrix::zeros(0, 3);
            be.gemm_into(&Matrix::zeros(0, 5), &Matrix::zeros(5, 3), &mut c);
        }
    }

    #[test]
    fn sq_dists_equal_per_pair_sq_distance_bitwise() {
        let mut rng = Pcg64::seed_from_u64(43);
        // 20·30 pairs run the sequential loop, 90·70 the row-parallel one;
        // d = 3 and 18 sit on both sides of avx2's SIMD cutoff.
        for (m, n) in [(20, 30), (90, 70)] {
            assert_eq!(m * n < PAR_THRESHOLD, m == 20);
            for d in [3, 18] {
                let x = gaussian_matrix(&mut rng, m, d);
                let y = gaussian_matrix(&mut rng, n, d);
                for kind in available_backends() {
                    let be = kind.instance();
                    let mut out = Matrix::from_fn(m, n, |_, _| f64::NAN);
                    be.sq_dists_into(&x, &y, &mut out);
                    for i in 0..m {
                        for j in 0..n {
                            assert_eq!(
                                out[(i, j)].to_bits(),
                                be.sq_distance(x.row(i), y.row(j)).to_bits(),
                                "{kind} sq_dists {m}x{n}x{d} entry ({i},{j})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn trsm_rowsweep_solves_lower_and_upper() {
        let n = 8;
        let mut rng = Pcg64::seed_from_u64(5);
        let g = gaussian_matrix(&mut rng, n, n);
        let mut l = Matrix::zeros(n, n);
        let mut u = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if j < i {
                    l[(i, j)] = g[(i, j)];
                } else if j > i {
                    u[(i, j)] = g[(i, j)];
                }
            }
            l[(i, i)] = 2.0 + g[(i, i)].abs();
            u[(i, i)] = 2.0 + g[(i, i)].abs();
        }
        let b = gaussian_matrix(&mut rng, n, 5);
        let scalar = BackendKind::Scalar.instance();
        for kind in available_backends() {
            let be = kind.instance();
            let mut x = b.clone();
            be.trsm_lower_into(&l, &mut x).unwrap();
            let mut lx = Matrix::zeros(n, 5);
            scalar.gemm_into(&l, &x, &mut lx);
            assert!(relative_error(&b, &lx) < 1e-12, "{kind} trsm_lower_into");
            let mut y = b.clone();
            be.trsm_upper_into(&u, &mut y).unwrap();
            let mut uy = Matrix::zeros(n, 5);
            scalar.gemm_into(&u, &y, &mut uy);
            assert!(relative_error(&b, &uy) < 1e-12, "{kind} trsm_upper_into");
        }
    }

    #[test]
    fn trsm_reports_singularity() {
        let mut t = Matrix::identity(3);
        t[(1, 1)] = 0.0;
        for kind in available_backends() {
            let be = kind.instance();
            let mut b = Matrix::zeros(3, 2);
            assert!(matches!(
                be.trsm_lower_into(&t, &mut b),
                Err(crate::LinalgError::Singular { pivot: 1 })
            ));
            assert!(matches!(
                be.trsm_upper_into(&t, &mut b),
                Err(crate::LinalgError::Singular { pivot: 1 })
            ));
        }
    }
}
