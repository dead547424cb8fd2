//! Low-rank factors `U V^T` and compression helpers.
//!
//! Both hierarchical formats store their off-diagonal blocks as products of
//! two skinny matrices; this module provides the container plus the
//! SVD-based and rank-revealing-QR-based truncation routines that turn a
//! dense block into such a product at a requested tolerance.

use crate::blas;
use crate::matrix::Matrix;
use crate::qr::{column_pivoted_qr, column_pivoted_r};
use crate::svd::svd;

/// A rank-`k` factorization `A ≈ U V^T` with `U` of size `m x k` and `V`
/// of size `n x k`.
#[derive(Debug, Clone)]
pub struct LowRank {
    /// Left factor (`m x k`).
    pub u: Matrix,
    /// Right factor (`n x k`); the block is `U V^T`.
    pub v: Matrix,
}

impl LowRank {
    /// Builds a low-rank pair from the two factors.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn new(u: Matrix, v: Matrix) -> Self {
        assert_eq!(u.ncols(), v.ncols(), "LowRank::new: rank mismatch");
        LowRank { u, v }
    }

    /// Rank of the factorization (number of columns of `U`).
    pub fn rank(&self) -> usize {
        self.u.ncols()
    }

    /// Number of rows of the represented block.
    pub fn nrows(&self) -> usize {
        self.u.nrows()
    }

    /// Number of columns of the represented block.
    pub fn ncols(&self) -> usize {
        self.v.nrows()
    }

    /// An exactly-zero block of the given shape (rank 0).
    pub fn zero(nrows: usize, ncols: usize) -> Self {
        LowRank {
            u: Matrix::zeros(nrows, 0),
            v: Matrix::zeros(ncols, 0),
        }
    }

    /// Expands the factorization into a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.nrows(), self.ncols());
        self.to_dense_into(&mut out);
        out
    }

    /// Expands the factorization into a caller-provided buffer (`m x n`),
    /// overwriting it, through the active backend's in-place NT product.
    pub fn to_dense_into(&self, out: &mut Matrix) {
        assert_eq!(
            (out.nrows(), out.ncols()),
            (self.nrows(), self.ncols()),
            "LowRank::to_dense_into: output shape mismatch"
        );
        if self.rank() == 0 {
            out.data_mut().fill(0.0);
            return;
        }
        crate::backend::active().gemm_nt_into(&self.u, &self.v, out);
    }

    /// `y = (U V^T) x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols(), "LowRank::matvec: x length");
        assert_eq!(y.len(), self.nrows(), "LowRank::matvec: y length");
        if self.rank() == 0 {
            for yi in y.iter_mut() {
                *yi = 0.0;
            }
            return;
        }
        let mut t = vec![0.0; self.rank()];
        blas::gemv_t(&self.v, x, &mut t); // t = V^T x
        blas::gemv(&self.u, &t, y);
    }

    /// `y += alpha * (U V^T) x`.
    pub fn matvec_add(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        if self.rank() == 0 {
            return;
        }
        let mut t = vec![0.0; self.rank()];
        blas::gemv_t(&self.v, x, &mut t); // t = V^T x
        let mut z = vec![0.0; self.nrows()];
        blas::gemv(&self.u, &t, &mut z);
        blas::axpy(alpha, &z, y);
    }

    /// `y += alpha * (U V^T)^T x = alpha * V (U^T x)`.
    pub fn rmatvec_add(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        if self.rank() == 0 {
            return;
        }
        let mut t = vec![0.0; self.rank()];
        blas::gemv_t(&self.u, x, &mut t); // t = U^T x
        let mut z = vec![0.0; self.ncols()];
        blas::gemv(&self.v, &t, &mut z);
        blas::axpy(alpha, &z, y);
    }

    /// Memory footprint of the two factors in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.u.memory_bytes() + self.v.memory_bytes()
    }

    /// Recompresses the factorization to the requested tolerance, which can
    /// reduce the rank after additions or concatenations.
    pub fn recompress(&self, tol: f64, max_rank: usize) -> LowRank {
        if self.rank() == 0 {
            return self.clone();
        }
        compress_svd(&self.to_dense(), tol, max_rank)
    }
}

/// Truncated-SVD compression of a dense block.
///
/// Keeps every singular value above `tol * σ_max` (and at most `max_rank`
/// of them; `max_rank = 0` means unlimited).
pub fn compress_svd(a: &Matrix, tol: f64, max_rank: usize) -> LowRank {
    let f = match svd(a) {
        Ok(f) => f,
        Err(_) => {
            // Extremely unlikely; fall back to the full-rank representation.
            return LowRank::new(a.clone(), Matrix::identity(a.ncols()));
        }
    };
    if f.s.is_empty() || f.s[0] == 0.0 {
        return LowRank::zero(a.nrows(), a.ncols());
    }
    let cutoff = tol * f.s[0];
    let mut k = f.s.iter().filter(|&&x| x > cutoff).count();
    if max_rank > 0 {
        k = k.min(max_rank);
    }
    if k == 0 {
        return LowRank::zero(a.nrows(), a.ncols());
    }
    let mut u = Matrix::zeros(a.nrows(), k);
    let mut v = Matrix::zeros(a.ncols(), k);
    for j in 0..k {
        let sqrt_s = f.s[j].sqrt();
        for i in 0..a.nrows() {
            u[(i, j)] = f.u[(i, j)] * sqrt_s;
        }
        for i in 0..a.ncols() {
            v[(i, j)] = f.vt[(j, i)] * sqrt_s;
        }
    }
    LowRank::new(u, v)
}

/// Rank-revealing-QR compression of a dense block.
///
/// Cheaper than the SVD path for strongly rank-deficient blocks; the
/// resulting rank can be slightly larger than the SVD rank at the same
/// tolerance.
pub fn compress_rrqr(a: &Matrix, tol: f64, max_rank: usize) -> LowRank {
    let f = column_pivoted_qr(a, tol, max_rank);
    if f.rank == 0 {
        return LowRank::zero(a.nrows(), a.ncols());
    }
    // A P = Q R  =>  A = Q (R P^T); V^T = R P^T, so V = P R^T.
    let n = a.ncols();
    let mut v = Matrix::zeros(n, f.rank);
    for j in 0..n {
        // Column perm[j] of A corresponds to column j of R.
        for i in 0..f.rank {
            v[(f.perm[j], i)] = f.r[(i, j)];
        }
    }
    LowRank::new(f.q, v)
}

/// Interpolative decomposition `A ≈ A(:, cols) * T`.
///
/// Returns the selected column indices and the interpolation matrix `T`
/// (`k x n`), with `T(:, cols) = I`.  Used by the skeleton-style tests and
/// as an alternative compression inside the H-matrix ACA verification.
/// It reads only `R` and the permutation of the pivoted QR, so `Q` is never
/// formed.
pub fn interpolative_decomposition(a: &Matrix, tol: f64, max_rank: usize) -> (Vec<usize>, Matrix) {
    let (r, perm, k) = column_pivoted_r(a, tol, max_rank);
    id_from_pivoted_r(&r, &perm, k)
}

/// The interpolative decomposition read off a rank-`k` column-pivoted QR
/// `A P = Q R` (`R` is `k x n`, columns in `perm` order).
fn id_from_pivoted_r(r: &Matrix, perm: &[usize], k: usize) -> (Vec<usize>, Matrix) {
    let n = perm.len();
    if k == 0 {
        return (vec![], Matrix::zeros(0, n));
    }
    let cols: Vec<usize> = perm[..k].to_vec();
    // R = [R11 R12], T_pivoted = [I, R11^{-1} R12].
    let r11 = r.submatrix(0, k, 0, k);
    let r12 = r.submatrix(0, k, k, n);
    let lu = crate::lu::lu(&r11);
    let x = match lu.and_then(|f| f.solve_multi(&r12)) {
        Ok(x) => x,
        Err(_) => Matrix::zeros(k, n - k),
    };
    let mut t = Matrix::zeros(k, n);
    for j in 0..k {
        t[(j, perm[j])] = 1.0;
    }
    for j in 0..(n - k) {
        for i in 0..k {
            t[(i, perm[k + j])] = x[(i, j)];
        }
    }
    (cols, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{matmul, relative_error};
    use crate::random::{gaussian_matrix, Pcg64};

    fn rank_deficient(seed: u64, m: usize, n: usize, r: usize) -> Matrix {
        let mut rng = Pcg64::seed_from_u64(seed);
        let u = gaussian_matrix(&mut rng, m, r);
        let v = gaussian_matrix(&mut rng, r, n);
        matmul(&u, &v)
    }

    #[test]
    fn svd_compression_recovers_low_rank() {
        let a = rank_deficient(1, 30, 20, 4);
        let lr = compress_svd(&a, 1e-10, 0);
        assert_eq!(lr.rank(), 4);
        assert!(relative_error(&a, &lr.to_dense()) < 1e-9);
    }

    #[test]
    fn rrqr_compression_recovers_low_rank() {
        let a = rank_deficient(2, 25, 35, 6);
        let lr = compress_rrqr(&a, 1e-10, 0);
        assert!(lr.rank() >= 6 && lr.rank() <= 8);
        assert!(relative_error(&a, &lr.to_dense()) < 1e-8);
    }

    #[test]
    fn compression_respects_max_rank() {
        let mut rng = Pcg64::seed_from_u64(3);
        let a = gaussian_matrix(&mut rng, 20, 20);
        let lr = compress_svd(&a, 0.0, 5);
        assert_eq!(lr.rank(), 5);
        let lr2 = compress_rrqr(&a, 0.0, 5);
        assert_eq!(lr2.rank(), 5);
    }

    #[test]
    fn compression_error_tracks_tolerance() {
        // Matrix with geometrically decaying singular values.
        let n = 24;
        let d: Vec<f64> = (0..n).map(|i| (0.5_f64).powi(i as i32)).collect();
        let a = Matrix::from_diag(&d);
        let lr = compress_svd(&a, 1e-4, 0);
        let err = relative_error(&a, &lr.to_dense());
        assert!(err < 1e-3, "error {err} too large for tol 1e-4");
        assert!(lr.rank() < n, "compression should truncate");
    }

    #[test]
    fn zero_block_compresses_to_rank_zero() {
        let z = Matrix::zeros(10, 8);
        let lr = compress_svd(&z, 1e-8, 0);
        assert_eq!(lr.rank(), 0);
        assert!(lr.to_dense().approx_eq(&z, 0.0));
        assert_eq!(lr.memory_bytes(), 0);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = rank_deficient(4, 18, 12, 3);
        let lr = compress_svd(&a, 1e-12, 0);
        let mut rng = Pcg64::seed_from_u64(5);
        let x: Vec<f64> = (0..12).map(|_| rng.next_gaussian()).collect();
        let mut y_dense = vec![0.0; 18];
        crate::blas::gemv(&a, &x, &mut y_dense);
        let mut y_lr = vec![0.0; 18];
        lr.matvec(&x, &mut y_lr);
        for (a, b) in y_dense.iter().zip(y_lr.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn matvec_add_and_rmatvec_add() {
        let a = rank_deficient(6, 15, 10, 2);
        let lr = compress_svd(&a, 1e-12, 0);
        let mut rng = Pcg64::seed_from_u64(7);
        let x: Vec<f64> = (0..10).map(|_| rng.next_gaussian()).collect();
        let xt: Vec<f64> = (0..15).map(|_| rng.next_gaussian()).collect();

        let mut y = vec![1.0; 15];
        lr.matvec_add(2.0, &x, &mut y);
        let mut y_ref = vec![0.0; 15];
        crate::blas::gemv(&a, &x, &mut y_ref);
        for i in 0..15 {
            assert!((y[i] - (1.0 + 2.0 * y_ref[i])).abs() < 1e-9);
        }

        let mut z = vec![0.5; 10];
        lr.rmatvec_add(-1.0, &xt, &mut z);
        let mut z_ref = vec![0.0; 10];
        crate::blas::gemv_t(&a, &xt, &mut z_ref);
        for i in 0..10 {
            assert!((z[i] - (0.5 - z_ref[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn recompress_reduces_inflated_rank() {
        let a = rank_deficient(8, 20, 20, 3);
        // Build an artificially rank-10 representation of a rank-3 matrix.
        let fat = compress_svd(&a, 0.0, 10);
        assert_eq!(fat.rank(), 10);
        let slim = fat.recompress(1e-10, 0);
        assert_eq!(slim.rank(), 3);
        assert!(relative_error(&a, &slim.to_dense()) < 1e-9);
    }

    #[test]
    fn interpolative_decomposition_reconstructs() {
        let a = rank_deficient(9, 16, 22, 5);
        let (cols, t) = interpolative_decomposition(&a, 1e-10, 0);
        assert_eq!(cols.len(), 5);
        let skeleton = a.select_cols(&cols);
        let rec = matmul(&skeleton, &t);
        assert!(relative_error(&a, &rec) < 1e-8);
        // T restricted to the selected columns must be the identity.
        for (j, &c) in cols.iter().enumerate() {
            for i in 0..cols.len() {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((t[(i, c)] - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn interpolative_decomposition_equals_the_one_from_the_q_forming_cpqr() {
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = Pcg64::seed_from_u64(12);
        let cases = [
            (rank_deficient(11, 40, 36, 9), 1e-10, 0),
            (rank_deficient(13, 24, 50, 30), 1e-3, 0),
            (gaussian_matrix(&mut rng, 30, 30), 0.0, 12),
            (gaussian_matrix(&mut rng, 18, 7), 0.0, 0),
            (Matrix::zeros(8, 5), 1e-8, 0),
        ];
        for (a, tol, max_rank) in &cases {
            let (cols, t) = interpolative_decomposition(a, *tol, *max_rank);
            let f = column_pivoted_qr(a, *tol, *max_rank);
            let (cols_ref, t_ref) = id_from_pivoted_r(&f.r, &f.perm, f.rank);
            assert_eq!(cols, cols_ref);
            assert_eq!(t.shape(), t_ref.shape());
            assert_eq!(bits(&t), bits(&t_ref));
        }
    }

    #[test]
    fn memory_accounting_scales_with_rank() {
        let a = rank_deficient(10, 40, 40, 2);
        let lr = compress_svd(&a, 1e-10, 0);
        assert_eq!(lr.memory_bytes(), (40 * 2 + 40 * 2) * 8);
        assert!(lr.memory_bytes() < a.memory_bytes());
    }
}
