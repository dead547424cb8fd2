//! Householder QR and column-pivoted (rank-revealing) QR factorizations.
//!
//! [`Matrix`] is row-major, so every Householder reflector is applied
//! row-wise by one private helper: it accumulates the projections of all
//! columns while streaming the rows once, then updates the rows in a second
//! pass. Each entry gets the same products in the same summation order as
//! in a column-at-a-time loop, so the factors equal that loop's bit for bit
//! (the tests keep such a loop as the reference); only the memory access
//! order changes. The pivoted QR accumulates its column norms row-wise the
//! same way.

use crate::blas;
use crate::matrix::Matrix;
use std::ops::Range;

/// Thin QR factorization `A = Q R` with `Q` of size `m x k`, `R` of size
/// `k x n`, `k = min(m, n)`.
#[derive(Debug, Clone)]
pub struct QrFactors {
    /// Orthonormal factor (`m x k`).
    pub q: Matrix,
    /// Upper-triangular factor (`k x n`).
    pub r: Matrix,
}

/// Column-pivoted QR factorization `A P = Q R` with a numerical-rank
/// estimate.
#[derive(Debug, Clone)]
pub struct PivotedQr {
    /// Orthonormal factor (`m x k`).
    pub q: Matrix,
    /// Upper-triangular factor (`k x n`), columns in pivoted order.
    pub r: Matrix,
    /// Column permutation: column `j` of `R` corresponds to column
    /// `perm[j]` of `A`.
    pub perm: Vec<usize>,
    /// Numerical rank detected at the requested tolerance.
    pub rank: usize,
}

/// The unit Householder vector that maps `a[j.., j]` onto a multiple of
/// `e_1` (sign chosen against cancellation), or `None` when that part of
/// the column is zero.
fn householder_vector(a: &Matrix, j: usize) -> Option<Vec<f64>> {
    let mut v: Vec<f64> = (j..a.nrows()).map(|i| a[(i, j)]).collect();
    let alpha = blas::nrm2(&v);
    if alpha == 0.0 {
        return None;
    }
    let sign = if v[0] >= 0.0 { 1.0 } else { -1.0 };
    v[0] += sign * alpha;
    let vnorm = blas::nrm2(&v);
    if vnorm > 0.0 {
        blas::scal(1.0 / vnorm, &mut v);
    }
    Some(v)
}

/// Applies the reflector `I - 2 v v^T` to rows `row0..row0 + v.len()` and
/// columns `cols` of `a`, one row at a time.
///
/// Column `c` gets `p_c = 2 * sum_off v[off] * a[row0 + off, c]`, summed over
/// ascending `off` from zero, then `a[row0 + off, c] -= p_c * v[off]`:
/// entry for entry the arithmetic of a column-at-a-time loop. `proj` is
/// scratch space.
fn reflect(a: &mut Matrix, v: &[f64], row0: usize, cols: Range<usize>, proj: &mut Vec<f64>) {
    proj.clear();
    proj.resize(cols.len(), 0.0);
    for (off, &vi) in v.iter().enumerate() {
        for (p, &x) in proj.iter_mut().zip(&a.row(row0 + off)[cols.clone()]) {
            *p += vi * x;
        }
    }
    for p in proj.iter_mut() {
        *p *= 2.0;
    }
    for (off, &vi) in v.iter().enumerate() {
        for (x, &p) in a.row_mut(row0 + off)[cols.clone()].iter_mut().zip(&*proj) {
            *x -= p * vi;
        }
    }
}

/// Householder sweep over a copy of `a`: returns the reduced matrix (`R`
/// in its upper trapezoid, stale entries below it) and the `min(m, n)`
/// reflectors, `None` where the column was already zero.
fn householder_sweep(a: &Matrix) -> (Matrix, Vec<Option<Vec<f64>>>) {
    let (m, n) = a.shape();
    let mut r = a.clone();
    let mut proj = Vec::with_capacity(n);
    let vs = (0..m.min(n))
        .map(|j| {
            let v = householder_vector(&r, j)?;
            reflect(&mut r, &v, j, j..n, &mut proj);
            Some(v)
        })
        .collect();
    (r, vs)
}

/// The first `cols` columns of `Q = H_0 H_1 ... H_{k-1}`, formed by applying
/// the reflectors to `[I; 0]` from the last to the first.
///
/// Reflector `j` skips columns `< j`: rows `j..` are still exactly zero
/// there, so a full update would leave them unchanged.
fn form_q(m: usize, cols: usize, vs: &[Option<Vec<f64>>]) -> Matrix {
    let mut q = Matrix::zeros(m, cols);
    for i in 0..cols.min(m) {
        q[(i, i)] = 1.0;
    }
    let mut proj = Vec::with_capacity(cols);
    for (j, v) in vs.iter().enumerate().rev() {
        if let Some(v) = v {
            reflect(&mut q, v, j, j..cols, &mut proj);
        }
    }
    q
}

/// The upper trapezoid of the first `rows` rows of `a` (`rows <= ncols`).
fn upper_trapezoid(a: &Matrix, rows: usize) -> Matrix {
    let mut r = Matrix::zeros(rows, a.ncols());
    for i in 0..rows {
        r.row_mut(i)[i..].copy_from_slice(&a.row(i)[i..]);
    }
    r
}

/// Householder QR of a general rectangular matrix.
///
/// Returns the thin factorization; `Q` has orthonormal columns and
/// `Q R` reconstructs `A` to machine precision.
pub fn householder_qr(a: &Matrix) -> QrFactors {
    let (m, n) = a.shape();
    let k = m.min(n);
    let (r, vs) = householder_sweep(a);
    let mut q = form_q(m, k, &vs);
    let mut r_thin = upper_trapezoid(&r, k);
    // Normalize so that the diagonal of R is non-negative (convenient and
    // makes the factorization unique for full-rank A).
    for i in 0..k {
        if r_thin[(i, i)] < 0.0 {
            for j in i..n {
                r_thin[(i, j)] = -r_thin[(i, j)];
            }
            for row in 0..m {
                q[(row, i)] = -q[(row, i)];
            }
        }
    }
    QrFactors { q, r: r_thin }
}

/// Orthonormalizes the columns of `a` (thin Q factor only).
pub fn orthonormalize(a: &Matrix) -> Matrix {
    householder_qr(a).q
}

/// Full QR factorization `A = Q R` with a square orthogonal `Q` (`m x m`)
/// and `R` of size `m x n` (upper trapezoidal).
///
/// The ULV factorization needs the *full* orthogonal factor so it can zero
/// out the coupling rows of each HSS block; the thin factorization is not
/// enough there.
pub fn full_qr(a: &Matrix) -> (Matrix, Matrix) {
    let (m, n) = a.shape();
    let (mut r, vs) = householder_sweep(a);
    let q = form_q(m, m, &vs);
    // Zero the strictly-lower part of R below the diagonal.
    for i in 1..m {
        r.row_mut(i)[..i.min(n)].fill(0.0);
    }
    (q, r)
}

/// Overwrites `norms[c]` for `c >= col0` with the Euclidean norm of
/// `a[row0.., c]`, accumulating the squares row by row.
fn column_norms(a: &Matrix, row0: usize, col0: usize, norms: &mut [f64]) {
    let tail = &mut norms[col0..];
    tail.fill(0.0);
    for i in row0..a.nrows() {
        for (s, &x) in tail.iter_mut().zip(&a.row(i)[col0..]) {
            *s += x * x;
        }
    }
    for s in tail.iter_mut() {
        *s = s.sqrt();
    }
}

/// The column-pivoted Householder sweep behind [`column_pivoted_qr`] over a
/// copy of `a`: returns the reduced matrix, the column permutation and one
/// reflector per accepted step (so the rank is their count).
fn pivoted_sweep(
    a: &Matrix,
    tol: f64,
    max_rank: usize,
) -> (Matrix, Vec<usize>, Vec<Option<Vec<f64>>>) {
    let (m, n) = a.shape();
    let kmax = {
        let k = m.min(n);
        if max_rank == 0 {
            k
        } else {
            k.min(max_rank)
        }
    };
    let mut work = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut col_norms = vec![0.0; n];
    column_norms(&work, 0, 0, &mut col_norms);
    let norm_ref = col_norms.iter().cloned().fold(0.0_f64, f64::max);
    let mut vs = Vec::with_capacity(kmax);
    let mut proj = Vec::with_capacity(n);

    for j in 0..kmax {
        // Pivot: bring the column with the largest remaining norm to front.
        let (pivot, &pivot_norm) = col_norms[j..]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(off, v)| (j + off, v))
            .unwrap();
        if norm_ref == 0.0 || pivot_norm <= tol * norm_ref {
            break;
        }
        if pivot != j {
            // Swap columns j and pivot in the working matrix and bookkeeping.
            for i in 0..m {
                work.row_mut(i).swap(j, pivot);
            }
            perm.swap(j, pivot);
            col_norms.swap(j, pivot);
        }

        let Some(v) = householder_vector(&work, j) else {
            break;
        };
        reflect(&mut work, &v, j, j..n, &mut proj);
        vs.push(Some(v));

        // Recompute the trailing column norms exactly.  The classical
        // running downdate loses accuracy through cancellation and then
        // over-estimates the numerical rank; at the block sizes used inside
        // the hierarchical formats the exact recomputation is cheap.
        column_norms(&work, j + 1, j + 1, &mut col_norms);
    }
    (work, perm, vs)
}

/// Column-pivoted QR (Golub-Businger) with early termination.
///
/// The factorization stops as soon as the largest remaining column norm
/// drops below `tol` times the largest initial column norm, or after
/// `max_rank` steps (`max_rank = 0` means no cap).  This is the
/// rank-revealing workhorse behind low-rank compression and interpolative
/// decompositions.
pub fn column_pivoted_qr(a: &Matrix, tol: f64, max_rank: usize) -> PivotedQr {
    let (work, perm, vs) = pivoted_sweep(a, tol, max_rank);
    let rank = vs.len();
    PivotedQr {
        q: form_q(a.nrows(), rank, &vs),
        r: upper_trapezoid(&work, rank),
        perm,
        rank,
    }
}

/// [`column_pivoted_qr`]'s `R`, permutation and rank, without forming `Q`
/// (the interpolative decomposition never reads it).
pub(crate) fn column_pivoted_r(
    a: &Matrix,
    tol: f64,
    max_rank: usize,
) -> (Matrix, Vec<usize>, usize) {
    let (work, perm, vs) = pivoted_sweep(a, tol, max_rank);
    (upper_trapezoid(&work, vs.len()), perm, vs.len())
}

impl PivotedQr {
    /// Reconstructs the original matrix (undoing the column permutation).
    pub fn reconstruct(&self) -> Matrix {
        let qr = blas::matmul(&self.q, &self.r);
        let n = self.perm.len();
        let mut out = Matrix::zeros(qr.nrows(), n);
        for (j, &pj) in self.perm.iter().enumerate() {
            out.set_col(pj, &qr.col(j));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{matmul, matmul_tn, relative_error};
    use crate::random::{gaussian_matrix, Pcg64};

    fn check_orthonormal(q: &Matrix, tol: f64) {
        let qtq = matmul_tn(q, q);
        let eye = Matrix::identity(q.ncols());
        assert!(
            relative_error(&eye, &qtq) < tol,
            "Q^T Q deviates from identity by {}",
            relative_error(&eye, &qtq)
        );
    }

    #[test]
    fn qr_reconstructs_tall_matrix() {
        let mut rng = Pcg64::seed_from_u64(1);
        let a = gaussian_matrix(&mut rng, 30, 12);
        let f = householder_qr(&a);
        assert_eq!(f.q.shape(), (30, 12));
        assert_eq!(f.r.shape(), (12, 12));
        check_orthonormal(&f.q, 1e-12);
        assert!(relative_error(&a, &matmul(&f.q, &f.r)) < 1e-12);
    }

    #[test]
    fn qr_reconstructs_wide_matrix() {
        let mut rng = Pcg64::seed_from_u64(2);
        let a = gaussian_matrix(&mut rng, 8, 20);
        let f = householder_qr(&a);
        assert_eq!(f.q.shape(), (8, 8));
        assert_eq!(f.r.shape(), (8, 20));
        check_orthonormal(&f.q, 1e-12);
        assert!(relative_error(&a, &matmul(&f.q, &f.r)) < 1e-12);
    }

    #[test]
    fn qr_r_is_upper_triangular_with_nonneg_diag() {
        let mut rng = Pcg64::seed_from_u64(3);
        let a = gaussian_matrix(&mut rng, 15, 15);
        let f = householder_qr(&a);
        for i in 0..15 {
            assert!(f.r[(i, i)] >= 0.0);
            for j in 0..i {
                assert!(f.r[(i, j)].abs() < 1e-12);
            }
        }
    }

    #[test]
    fn qr_of_zero_matrix() {
        let a = Matrix::zeros(6, 4);
        let f = householder_qr(&a);
        assert!(matmul(&f.q, &f.r).approx_eq(&a, 1e-14));
    }

    #[test]
    fn orthonormalize_returns_orthonormal_basis() {
        let mut rng = Pcg64::seed_from_u64(4);
        let a = gaussian_matrix(&mut rng, 40, 10);
        let q = orthonormalize(&a);
        check_orthonormal(&q, 1e-12);
    }

    #[test]
    fn cpqr_detects_exact_low_rank() {
        let mut rng = Pcg64::seed_from_u64(5);
        let u = gaussian_matrix(&mut rng, 40, 5);
        let v = gaussian_matrix(&mut rng, 5, 30);
        let a = matmul(&u, &v); // rank 5 by construction
        let f = column_pivoted_qr(&a, 1e-10, 0);
        assert_eq!(f.rank, 5);
        check_orthonormal(&f.q, 1e-12);
        assert!(relative_error(&a, &f.reconstruct()) < 1e-10);
    }

    #[test]
    fn cpqr_full_rank_matrix() {
        let mut rng = Pcg64::seed_from_u64(6);
        let a = gaussian_matrix(&mut rng, 20, 20);
        let f = column_pivoted_qr(&a, 1e-14, 0);
        assert_eq!(f.rank, 20);
        assert!(relative_error(&a, &f.reconstruct()) < 1e-11);
    }

    #[test]
    fn cpqr_respects_max_rank_cap() {
        let mut rng = Pcg64::seed_from_u64(7);
        let a = gaussian_matrix(&mut rng, 30, 30);
        let f = column_pivoted_qr(&a, 0.0, 7);
        assert_eq!(f.rank, 7);
        assert_eq!(f.q.shape(), (30, 7));
        assert_eq!(f.r.shape(), (7, 30));
    }

    #[test]
    fn cpqr_pivot_diagonal_is_decreasing() {
        let mut rng = Pcg64::seed_from_u64(8);
        let a = gaussian_matrix(&mut rng, 25, 25);
        let f = column_pivoted_qr(&a, 1e-14, 0);
        for i in 1..f.rank {
            assert!(
                f.r[(i, i)].abs() <= f.r[(i - 1, i - 1)].abs() + 1e-10,
                "pivot magnitudes should be non-increasing"
            );
        }
    }

    #[test]
    fn cpqr_perm_is_a_permutation() {
        let mut rng = Pcg64::seed_from_u64(9);
        let a = gaussian_matrix(&mut rng, 10, 18);
        let f = column_pivoted_qr(&a, 1e-14, 0);
        let mut p = f.perm.clone();
        p.sort_unstable();
        assert_eq!(p, (0..18).collect::<Vec<_>>());
    }

    #[test]
    fn cpqr_zero_matrix_has_rank_zero() {
        let a = Matrix::zeros(12, 9);
        let f = column_pivoted_qr(&a, 1e-12, 0);
        assert_eq!(f.rank, 0);
    }

    #[test]
    fn full_qr_produces_square_orthogonal_q() {
        let mut rng = Pcg64::seed_from_u64(21);
        let a = gaussian_matrix(&mut rng, 14, 5);
        let (q, r) = full_qr(&a);
        assert_eq!(q.shape(), (14, 14));
        assert_eq!(r.shape(), (14, 5));
        let qtq = matmul_tn(&q, &q);
        assert!(relative_error(&Matrix::identity(14), &qtq) < 1e-12);
        assert!(relative_error(&a, &matmul(&q, &r)) < 1e-12);
        // R is upper trapezoidal.
        for j in 0..5 {
            for i in (j + 1)..14 {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn full_qr_of_wide_and_empty() {
        let mut rng = Pcg64::seed_from_u64(22);
        let a = gaussian_matrix(&mut rng, 4, 9);
        let (q, r) = full_qr(&a);
        assert_eq!(q.shape(), (4, 4));
        assert!(relative_error(&a, &matmul(&q, &r)) < 1e-12);

        let e = Matrix::zeros(3, 0);
        let (q, r) = full_qr(&e);
        assert!(q.approx_eq(&Matrix::identity(3), 0.0));
        assert_eq!(r.shape(), (3, 0));
    }

    // ---- Bitwise equality with the column-at-a-time loops ----------------

    /// The column-at-a-time Householder loops these factorizations used
    /// before the reflectors were applied row-wise, kept verbatim as the
    /// bitwise reference.
    mod columnwise {
        use crate::blas;
        use crate::matrix::Matrix;

        fn reflect_cols(a: &mut Matrix, v: &[f64], j: usize, cols: std::ops::Range<usize>) {
            for col in cols {
                let mut proj = 0.0;
                for (off, &vi) in v.iter().enumerate() {
                    proj += vi * a[(j + off, col)];
                }
                proj *= 2.0;
                for (off, &vi) in v.iter().enumerate() {
                    a[(j + off, col)] -= proj * vi;
                }
            }
        }

        fn reflectors(r: &mut Matrix) -> Vec<Vec<f64>> {
            let (m, n) = r.shape();
            let mut vs = Vec::new();
            for j in 0..m.min(n) {
                let mut v: Vec<f64> = (j..m).map(|i| r[(i, j)]).collect();
                let alpha = blas::nrm2(&v);
                if alpha == 0.0 {
                    vs.push(vec![0.0; m - j]);
                    continue;
                }
                let sign = if v[0] >= 0.0 { 1.0 } else { -1.0 };
                v[0] += sign * alpha;
                let vnorm = blas::nrm2(&v);
                if vnorm > 0.0 {
                    blas::scal(1.0 / vnorm, &mut v);
                }
                reflect_cols(r, &v, j, j..n);
                vs.push(v);
            }
            vs
        }

        fn accumulate_q(q: &mut Matrix, vs: &[Vec<f64>], skip_zero: bool) {
            let cols = q.ncols();
            for j in (0..vs.len()).rev() {
                if skip_zero && vs[j].iter().all(|&x| x == 0.0) {
                    continue;
                }
                reflect_cols(q, &vs[j], j, 0..cols);
            }
        }

        pub fn householder_qr(a: &Matrix) -> (Matrix, Matrix) {
            let (m, n) = a.shape();
            let k = m.min(n);
            let mut r = a.clone();
            let vs = reflectors(&mut r);
            let mut q = Matrix::zeros(m, k);
            for i in 0..k {
                q[(i, i)] = 1.0;
            }
            accumulate_q(&mut q, &vs, true);
            let mut r_thin = Matrix::zeros(k, n);
            for i in 0..k {
                for j in i..n {
                    r_thin[(i, j)] = r[(i, j)];
                }
            }
            for i in 0..k {
                if r_thin[(i, i)] < 0.0 {
                    for j in i..n {
                        r_thin[(i, j)] = -r_thin[(i, j)];
                    }
                    for row in 0..m {
                        q[(row, i)] = -q[(row, i)];
                    }
                }
            }
            (q, r_thin)
        }

        pub fn full_qr(a: &Matrix) -> (Matrix, Matrix) {
            let (m, n) = a.shape();
            let mut r = a.clone();
            let vs = reflectors(&mut r);
            let mut q = Matrix::identity(m);
            accumulate_q(&mut q, &vs, true);
            for j in 0..n {
                for i in (j + 1)..m {
                    r[(i, j)] = 0.0;
                }
            }
            (q, r)
        }

        pub fn column_pivoted_qr(
            a: &Matrix,
            tol: f64,
            max_rank: usize,
        ) -> (Matrix, Matrix, Vec<usize>, usize) {
            let (m, n) = a.shape();
            let kmax = if max_rank == 0 {
                m.min(n)
            } else {
                m.min(n).min(max_rank)
            };
            let mut work = a.clone();
            let mut perm: Vec<usize> = (0..n).collect();
            let mut col_norms: Vec<f64> = (0..n).map(|j| blas::nrm2(&work.col(j))).collect();
            let norm_ref = col_norms.iter().cloned().fold(0.0_f64, f64::max);
            let mut vs: Vec<Vec<f64>> = Vec::new();
            let mut rank = 0;
            for j in 0..kmax {
                let (pivot, &pivot_norm) = col_norms[j..]
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(off, v)| (j + off, v))
                    .unwrap();
                if norm_ref == 0.0 || pivot_norm <= tol * norm_ref {
                    break;
                }
                if pivot != j {
                    for i in 0..m {
                        let tmp = work[(i, j)];
                        work[(i, j)] = work[(i, pivot)];
                        work[(i, pivot)] = tmp;
                    }
                    perm.swap(j, pivot);
                    col_norms.swap(j, pivot);
                }
                let mut v: Vec<f64> = (j..m).map(|i| work[(i, j)]).collect();
                let alpha = blas::nrm2(&v);
                if alpha == 0.0 {
                    break;
                }
                let sign = if v[0] >= 0.0 { 1.0 } else { -1.0 };
                v[0] += sign * alpha;
                let vnorm = blas::nrm2(&v);
                blas::scal(1.0 / vnorm, &mut v);
                reflect_cols(&mut work, &v, j, j..n);
                vs.push(v);
                rank = j + 1;
                for col in (j + 1)..n {
                    let tail: Vec<f64> = ((j + 1)..m).map(|i| work[(i, col)]).collect();
                    col_norms[col] = blas::nrm2(&tail);
                }
            }
            let mut q = Matrix::zeros(m, rank);
            for i in 0..rank {
                q[(i, i)] = 1.0;
            }
            accumulate_q(&mut q, &vs, false);
            let mut r = Matrix::zeros(rank, n);
            for i in 0..rank {
                for jc in i..n {
                    r[(i, jc)] = work[(i, jc)];
                }
            }
            (q, r, perm, rank)
        }
    }

    fn bits(m: &Matrix) -> (usize, usize, Vec<u64>) {
        (
            m.nrows(),
            m.ncols(),
            m.data().iter().map(|x| x.to_bits()).collect(),
        )
    }

    /// Tall, wide, square and empty shapes, plus matrices with a zero column
    /// (first, middle and last), a duplicated column and exact low rank.
    fn shapes() -> Vec<Matrix> {
        let mut rng = Pcg64::seed_from_u64(40);
        let mut out = Vec::new();
        for &(m, n) in &[
            (37, 11),
            (9, 26),
            (19, 19),
            (1, 7),
            (7, 1),
            (0, 5),
            (5, 0),
            (0, 0),
        ] {
            out.push(gaussian_matrix(&mut rng, m, n));
        }
        for &zero_col in &[0, 6, 12] {
            let mut a = gaussian_matrix(&mut rng, 21, 13);
            for i in 0..21 {
                a[(i, zero_col)] = 0.0;
            }
            out.push(a);
        }
        let mut dup = gaussian_matrix(&mut rng, 15, 10);
        for i in 0..15 {
            dup[(i, 7)] = dup[(i, 2)];
        }
        out.push(dup);
        let u = gaussian_matrix(&mut rng, 30, 4);
        let v = gaussian_matrix(&mut rng, 4, 24);
        out.push(matmul(&u, &v));
        out.push(Matrix::zeros(6, 4));
        out
    }

    #[test]
    fn householder_qr_matches_the_columnwise_loops_bitwise() {
        for a in shapes() {
            let f = householder_qr(&a);
            let (q, r) = columnwise::householder_qr(&a);
            assert_eq!(bits(&f.q), bits(&q), "Q of a {:?} matrix", a.shape());
            assert_eq!(bits(&f.r), bits(&r), "R of a {:?} matrix", a.shape());
        }
    }

    #[test]
    fn full_qr_matches_the_columnwise_loops_bitwise() {
        for a in shapes() {
            let (q, r) = full_qr(&a);
            let (q_ref, r_ref) = columnwise::full_qr(&a);
            assert_eq!(bits(&q), bits(&q_ref), "Q of a {:?} matrix", a.shape());
            assert_eq!(bits(&r), bits(&r_ref), "R of a {:?} matrix", a.shape());
        }
    }

    #[test]
    fn cpqr_matches_the_columnwise_loops_bitwise() {
        // No cutoff, a tolerance cutoff (exact low rank stops early), and
        // max_rank caps below and above the rank.
        for a in shapes() {
            for &(tol, max_rank) in &[(0.0, 0), (1e-10, 0), (0.3, 0), (1e-12, 3), (0.0, 50)] {
                let f = column_pivoted_qr(&a, tol, max_rank);
                let (q, r, perm, rank) = columnwise::column_pivoted_qr(&a, tol, max_rank);
                let what = format!("{:?} matrix, tol {tol}, max_rank {max_rank}", a.shape());
                assert_eq!(f.rank, rank, "rank of a {what}");
                assert_eq!(f.perm, perm, "perm of a {what}");
                assert_eq!(bits(&f.q), bits(&q), "Q of a {what}");
                assert_eq!(bits(&f.r), bits(&r), "R of a {what}");
                let (r_only, perm_only, rank_only) = column_pivoted_r(&a, tol, max_rank);
                assert_eq!(bits(&r_only), bits(&r), "Q-free R of a {what}");
                assert_eq!((perm_only, rank_only), (perm, rank));
            }
        }
    }
}
