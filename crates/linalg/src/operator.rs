//! The *partially matrix-free* operator interface.
//!
//! STRUMPACK's randomized HSS construction only needs two things from the
//! input matrix: (1) products with blocks of random vectors, and (2) access
//! to selected entries.  The [`LinearOperator`] trait captures exactly that
//! contract, so the HSS and H-matrix code never has to materialize a full
//! kernel matrix.

use crate::blas;
use crate::matrix::Matrix;
use rayon::prelude::*;

/// A linear operator exposing entry access and matrix-vector products.
///
/// Implementors must be `Sync` so that sampling products can be evaluated
/// in parallel over columns of the random block.
pub trait LinearOperator: Sync {
    /// Number of rows of the operator.
    fn nrows(&self) -> usize;

    /// Number of columns of the operator.
    fn ncols(&self) -> usize;

    /// Entry `(i, j)` of the operator.
    fn entry(&self, i: usize, j: usize) -> f64;

    /// `y = A x`.
    ///
    /// The default implementation assembles each row on the fly from
    /// [`entry`](LinearOperator::entry); implementors with structure (dense
    /// storage, H-matrix, kernel closed form) should override it.
    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols(), "matvec: x length mismatch");
        assert_eq!(y.len(), self.nrows(), "matvec: y length mismatch");
        y.par_iter_mut().enumerate().for_each(|(i, yi)| {
            let mut s = 0.0;
            for (j, &xj) in x.iter().enumerate() {
                s += self.entry(i, j) * xj;
            }
            *yi = s;
        });
    }

    /// `y = A^T x`.
    fn rmatvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows(), "rmatvec: x length mismatch");
        assert_eq!(y.len(), self.ncols(), "rmatvec: y length mismatch");
        y.par_iter_mut().enumerate().for_each(|(j, yj)| {
            let mut s = 0.0;
            for (i, &xi) in x.iter().enumerate() {
                s += self.entry(i, j) * xi;
            }
            *yj = s;
        });
    }

    /// Multi-vector product `Y = A X`, parallel over the columns of `X`.
    ///
    /// The default runs one [`matvec`](LinearOperator::matvec) per column,
    /// so an operator that computes its entries (rather than storing them)
    /// evaluates every entry once per column, and one that stores them in
    /// blocks streams every block once per column. Such operators should
    /// override it to do that work once for the whole block of columns, as
    /// `hkrr_kernel::KernelMatrix` (each entry evaluated once) and
    /// `hkrr_hmatrix::HMatrix` (each block streamed once) do.
    fn matmat(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.nrows(), self.ncols(), "matmat: dimension mismatch");
        let cols: Vec<Vec<f64>> = (0..x.ncols())
            .into_par_iter()
            .map(|j| {
                let xj = x.col(j);
                let mut yj = vec![0.0; self.nrows()];
                self.matvec(&xj, &mut yj);
                yj
            })
            .collect();
        let mut y = Matrix::zeros(self.nrows(), x.ncols());
        for (j, col) in cols.iter().enumerate() {
            y.set_col(j, col);
        }
        y
    }

    /// Multi-vector transposed product `Y = A^T X`.
    fn rmatmat(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.nrows(), self.nrows(), "rmatmat: dimension mismatch");
        let cols: Vec<Vec<f64>> = (0..x.ncols())
            .into_par_iter()
            .map(|j| {
                let xj = x.col(j);
                let mut yj = vec![0.0; self.ncols()];
                self.rmatvec(&xj, &mut yj);
                yj
            })
            .collect();
        let mut y = Matrix::zeros(self.ncols(), x.ncols());
        for (j, col) in cols.iter().enumerate() {
            y.set_col(j, col);
        }
        y
    }

    /// Extracts the dense sub-block `A(rows, cols)`.
    ///
    /// The default implementation evaluates one output row per task in
    /// parallel — entry evaluation can be expensive (a closed-form kernel
    /// costs `O(d)` per entry), and the HSS construction extracts leaf and
    /// skeleton blocks on its hot path.
    fn sub_block(&self, rows: &[usize], cols: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(rows.len(), cols.len());
        if rows.is_empty() || cols.is_empty() {
            return out;
        }
        out.data_mut()
            .par_chunks_mut(cols.len())
            .enumerate()
            .for_each(|(oi, row)| {
                let i = rows[oi];
                for (oj, &j) in cols.iter().enumerate() {
                    row[oj] = self.entry(i, j);
                }
            });
        out
    }

    /// Assembles the full dense matrix (tests and tiny problems only).
    fn to_dense(&self) -> Matrix {
        let rows: Vec<usize> = (0..self.nrows()).collect();
        let cols: Vec<usize> = (0..self.ncols()).collect();
        self.sub_block(&rows, &cols)
    }
}

impl LinearOperator for Matrix {
    fn nrows(&self) -> usize {
        Matrix::nrows(self)
    }

    fn ncols(&self) -> usize {
        Matrix::ncols(self)
    }

    fn entry(&self, i: usize, j: usize) -> f64 {
        self[(i, j)]
    }

    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        blas::gemv(self, x, y);
    }

    fn rmatvec(&self, x: &[f64], y: &mut [f64]) {
        blas::gemv_t(self, x, y);
    }

    fn matmat(&self, x: &Matrix) -> Matrix {
        blas::matmul(self, x)
    }

    fn rmatmat(&self, x: &Matrix) -> Matrix {
        blas::matmul_tn(self, x)
    }

    fn sub_block(&self, rows: &[usize], cols: &[usize]) -> Matrix {
        self.select(rows, cols)
    }

    fn to_dense(&self) -> Matrix {
        self.clone()
    }
}

/// A symmetric permutation of an underlying operator: entry `(i, j)` of the
/// view is entry `(perm[i], perm[j])` of the inner operator.
///
/// This is how the clustering reordering (Step 0 of Algorithm 1) is applied
/// without copying or re-assembling the kernel matrix.
pub struct PermutedOperator<'a, T: LinearOperator> {
    inner: &'a T,
    perm: Vec<usize>,
}

impl<'a, T: LinearOperator> PermutedOperator<'a, T> {
    /// Creates the permuted view.
    ///
    /// # Panics
    /// Panics if the operator is not square or `perm` is not a permutation
    /// of `0..n`.
    pub fn new(inner: &'a T, perm: Vec<usize>) -> Self {
        assert_eq!(
            inner.nrows(),
            inner.ncols(),
            "PermutedOperator: must be square"
        );
        assert_eq!(perm.len(), inner.nrows(), "PermutedOperator: perm length");
        let mut check = perm.clone();
        check.sort_unstable();
        assert!(
            check.iter().enumerate().all(|(i, &p)| i == p),
            "PermutedOperator: perm is not a permutation"
        );
        PermutedOperator { inner, perm }
    }

    /// The permutation applied by this view.
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }
}

impl<'a, T: LinearOperator> LinearOperator for PermutedOperator<'a, T> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }

    fn ncols(&self) -> usize {
        self.inner.ncols()
    }

    fn entry(&self, i: usize, j: usize) -> f64 {
        self.inner.entry(self.perm[i], self.perm[j])
    }

    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        // (P A P^T) x = P (A (P^T x)).
        let n = self.nrows();
        let mut xp = vec![0.0; n];
        for (i, &p) in self.perm.iter().enumerate() {
            xp[p] = x[i];
        }
        let mut yp = vec![0.0; n];
        self.inner.matvec(&xp, &mut yp);
        for (i, &p) in self.perm.iter().enumerate() {
            y[i] = yp[p];
        }
    }

    fn rmatvec(&self, x: &[f64], y: &mut [f64]) {
        let n = self.nrows();
        let mut xp = vec![0.0; n];
        for (i, &p) in self.perm.iter().enumerate() {
            xp[p] = x[i];
        }
        let mut yp = vec![0.0; n];
        self.inner.rmatvec(&xp, &mut yp);
        for (i, &p) in self.perm.iter().enumerate() {
            y[i] = yp[p];
        }
    }
}

/// An operator shifted on the diagonal: `A + λ I`.
///
/// Used for the `K + λ I` system of kernel ridge regression without
/// touching the underlying kernel operator.
pub struct ShiftedOperator<'a, T: LinearOperator> {
    inner: &'a T,
    shift: f64,
}

impl<'a, T: LinearOperator> ShiftedOperator<'a, T> {
    /// Wraps `inner` as `inner + shift * I`.
    pub fn new(inner: &'a T, shift: f64) -> Self {
        assert_eq!(
            inner.nrows(),
            inner.ncols(),
            "ShiftedOperator: must be square"
        );
        ShiftedOperator { inner, shift }
    }

    /// The diagonal shift λ.
    pub fn shift(&self) -> f64 {
        self.shift
    }
}

impl<'a, T: LinearOperator> LinearOperator for ShiftedOperator<'a, T> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }

    fn ncols(&self) -> usize {
        self.inner.ncols()
    }

    fn entry(&self, i: usize, j: usize) -> f64 {
        let base = self.inner.entry(i, j);
        if i == j {
            base + self.shift
        } else {
            base
        }
    }

    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        self.inner.matvec(x, y);
        for (yi, xi) in y.iter_mut().zip(x.iter()) {
            *yi += self.shift * xi;
        }
    }

    fn rmatvec(&self, x: &[f64], y: &mut [f64]) {
        self.inner.rmatvec(x, y);
        for (yi, xi) in y.iter_mut().zip(x.iter()) {
            *yi += self.shift * xi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{gaussian_matrix, Pcg64};

    /// Minimal operator implemented only through `entry`, to exercise the
    /// trait's default methods.
    struct EntryOnly {
        m: Matrix,
    }

    impl LinearOperator for EntryOnly {
        fn nrows(&self) -> usize {
            self.m.nrows()
        }
        fn ncols(&self) -> usize {
            self.m.ncols()
        }
        fn entry(&self, i: usize, j: usize) -> f64 {
            self.m[(i, j)]
        }
    }

    #[test]
    fn default_matvec_matches_dense() {
        let mut rng = Pcg64::seed_from_u64(1);
        let m = gaussian_matrix(&mut rng, 20, 15);
        let op = EntryOnly { m: m.clone() };
        let x: Vec<f64> = (0..15).map(|_| rng.next_gaussian()).collect();
        let mut y1 = vec![0.0; 20];
        let mut y2 = vec![0.0; 20];
        op.matvec(&x, &mut y1);
        blas::gemv(&m, &x, &mut y2);
        for (a, b) in y1.iter().zip(y2.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn default_rmatvec_and_matmat() {
        let mut rng = Pcg64::seed_from_u64(2);
        let m = gaussian_matrix(&mut rng, 12, 9);
        let op = EntryOnly { m: m.clone() };
        let x: Vec<f64> = (0..12).map(|_| rng.next_gaussian()).collect();
        let mut y1 = vec![0.0; 9];
        let mut y2 = vec![0.0; 9];
        op.rmatvec(&x, &mut y1);
        blas::gemv_t(&m, &x, &mut y2);
        for (a, b) in y1.iter().zip(y2.iter()) {
            assert!((a - b).abs() < 1e-12);
        }

        let xs = gaussian_matrix(&mut rng, 9, 4);
        let y = op.matmat(&xs);
        let y_ref = blas::matmul(&m, &xs);
        assert!(blas::relative_error(&y_ref, &y) < 1e-12);

        let xs2 = gaussian_matrix(&mut rng, 12, 3);
        let yt = op.rmatmat(&xs2);
        let yt_ref = blas::matmul_tn(&m, &xs2);
        assert!(blas::relative_error(&yt_ref, &yt) < 1e-12);
    }

    #[test]
    fn sub_block_and_to_dense() {
        let m = Matrix::from_fn(5, 5, |i, j| (i * 5 + j) as f64);
        let op = EntryOnly { m: m.clone() };
        let b = op.sub_block(&[1, 3], &[0, 4]);
        assert_eq!(b[(0, 0)], m[(1, 0)]);
        assert_eq!(b[(1, 1)], m[(3, 4)]);
        assert!(op.to_dense().approx_eq(&m, 0.0));
    }

    #[test]
    fn matrix_implements_operator() {
        let mut rng = Pcg64::seed_from_u64(3);
        let m = gaussian_matrix(&mut rng, 10, 10);
        let x: Vec<f64> = (0..10).map(|_| rng.next_gaussian()).collect();
        let mut y = vec![0.0; 10];
        LinearOperator::matvec(&m, &x, &mut y);
        let mut y_ref = vec![0.0; 10];
        blas::gemv(&m, &x, &mut y_ref);
        assert_eq!(y, y_ref);
        assert_eq!(LinearOperator::entry(&m, 3, 4), m[(3, 4)]);
    }

    #[test]
    fn permuted_operator_matches_dense_permutation() {
        let mut rng = Pcg64::seed_from_u64(4);
        let base = gaussian_matrix(&mut rng, 8, 8);
        let m = base.add(&base.transpose()); // symmetric
        let perm = vec![3, 1, 4, 0, 7, 6, 2, 5];
        let view = PermutedOperator::new(&m, perm.clone());
        let dense_perm = m.permute_symmetric(&perm);
        assert!(view.to_dense().approx_eq(&dense_perm, 1e-14));

        let x: Vec<f64> = (0..8).map(|_| rng.next_gaussian()).collect();
        let mut y1 = vec![0.0; 8];
        let mut y2 = vec![0.0; 8];
        view.matvec(&x, &mut y1);
        blas::gemv(&dense_perm, &x, &mut y2);
        for (a, b) in y1.iter().zip(y2.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        let mut z1 = vec![0.0; 8];
        let mut z2 = vec![0.0; 8];
        view.rmatvec(&x, &mut z1);
        blas::gemv_t(&dense_perm, &x, &mut z2);
        for (a, b) in z1.iter().zip(z2.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        assert_eq!(view.permutation(), &perm[..]);
    }

    #[test]
    #[should_panic]
    fn permuted_operator_rejects_bad_permutation() {
        let m = Matrix::identity(4);
        let _ = PermutedOperator::new(&m, vec![0, 1, 1, 3]);
    }

    #[test]
    fn shifted_operator_adds_lambda() {
        let mut rng = Pcg64::seed_from_u64(5);
        let m = gaussian_matrix(&mut rng, 6, 6);
        let op = ShiftedOperator::new(&m, 2.5);
        assert_eq!(op.shift(), 2.5);
        assert!((op.entry(2, 2) - (m[(2, 2)] + 2.5)).abs() < 1e-15);
        assert_eq!(op.entry(1, 2), m[(1, 2)]);

        let x: Vec<f64> = (0..6).map(|_| rng.next_gaussian()).collect();
        let mut y = vec![0.0; 6];
        op.matvec(&x, &mut y);
        let mut y_ref = vec![0.0; 6];
        blas::gemv(&m, &x, &mut y_ref);
        for i in 0..6 {
            assert!((y[i] - (y_ref[i] + 2.5 * x[i])).abs() < 1e-12);
        }
        let mut shifted = m.clone();
        shifted.shift_diagonal(2.5);
        assert!(op.to_dense().approx_eq(&shifted, 1e-14));
    }
}
