//! The partially matrix-free kernel-matrix operator.

use crate::kernels::KernelFunction;
use hkrr_linalg::{LinearOperator, Matrix};
use rayon::prelude::*;

/// Kernel rows per parallel task in the operator products.
const ROW_CHUNK: usize = 16;

/// The kernel matrix `K_ij = K(x_i, x_j)` of a set of training points,
/// exposed through entry access and parallel matvecs without storing the
/// `n x n` matrix.
///
/// Each product (`matvec`, and `matmat` over a whole block) evaluates
/// every kernel entry exactly once, one row at a time: radial kernels fill
/// the row through the backend's bulk distance kernel and map it in
/// place, and the row is then applied to every column of the input. Rows
/// run in parallel in fixed chunks with one reusable row buffer per task;
/// the per-entry arithmetic is the sequential order, so `matmat` equals a
/// per-column `matvec` bit for bit at any thread count.
///
/// Reordering the training points (Step 0 of Algorithm 1) is done by
/// constructing the `KernelMatrix` from the permuted point set, so every
/// downstream consumer (HSS construction, H-matrix construction, dense
/// baseline) automatically sees the permuted matrix.
#[derive(Debug, Clone)]
pub struct KernelMatrix {
    points: Matrix,
    kernel: KernelFunction,
}

impl KernelMatrix {
    /// Creates the operator from an `n x d` matrix of data points (rows are
    /// points) and a kernel function.
    pub fn new(points: Matrix, kernel: KernelFunction) -> Self {
        KernelMatrix { points, kernel }
    }

    /// Number of data points `n`.
    pub fn len(&self) -> usize {
        self.points.nrows()
    }

    /// Returns `true` when there are no data points.
    pub fn is_empty(&self) -> bool {
        self.points.nrows() == 0
    }

    /// Dimension `d` of the data points.
    pub fn dim(&self) -> usize {
        self.points.ncols()
    }

    /// The kernel function.
    pub fn kernel(&self) -> KernelFunction {
        self.kernel
    }

    /// The underlying data points.
    pub fn points(&self) -> &Matrix {
        &self.points
    }

    /// Returns a new operator over the same points with a different
    /// bandwidth (cheap: the points are cloned, nothing is assembled).
    pub fn with_bandwidth(&self, h: f64) -> Self {
        KernelMatrix {
            points: self.points.clone(),
            kernel: self.kernel.with_bandwidth(h),
        }
    }

    /// Returns the operator over a permuted copy of the points, i.e. the
    /// symmetrically permuted kernel matrix `K(perm, perm)`.
    pub fn permuted(&self, perm: &[usize]) -> Self {
        KernelMatrix {
            points: self.points.select_rows(perm),
            kernel: self.kernel,
        }
    }

    /// Assembles the dense kernel matrix (baseline path / small problems).
    ///
    /// Radial kernels assemble in two bulk passes — the backend's all-pairs
    /// squared distances, then the radial map in place — which matches the
    /// per-entry path bitwise (same distance kernel, same evaluation).
    pub fn assemble_dense(&self) -> Matrix {
        let n = self.len();
        let mut k = Matrix::zeros(n, n);
        let kernel = self.kernel;
        let points = &self.points;
        if kernel.is_radial() {
            crate::distance::pairwise_sq_distances_into(points, points, &mut k);
            k.data_mut().par_chunks_mut(n.max(1)).for_each(|row| {
                for v in row.iter_mut() {
                    *v = kernel.evaluate_from_sq_dist(*v);
                }
            });
            return k;
        }
        k.data_mut()
            .par_chunks_mut(n)
            .enumerate()
            .for_each(|(i, row)| {
                let xi = points.row(i);
                for (j, v) in row.iter_mut().enumerate() {
                    *v = kernel.evaluate(xi, points.row(j));
                }
            });
        k
    }

    /// Assembles the dense `K + λI` matrix.
    pub fn assemble_regularized(&self, lambda: f64) -> Matrix {
        let mut k = self.assemble_dense();
        k.shift_diagonal(lambda);
        k
    }

    /// Evaluates row `i` of the kernel matrix into `row` (length `n`).
    ///
    /// Radial kernels take the two passes of
    /// [`assemble_dense`](Self::assemble_dense): the backend's distances
    /// from every point to `x_i`, then the radial map in place. Both match
    /// [`entry`](LinearOperator::entry) bitwise (the same distance kernel,
    /// the same evaluation). Other kernels evaluate per entry.
    fn eval_row(&self, i: usize, row: &mut [f64]) {
        let kernel = self.kernel;
        let xi = self.points.row(i);
        if kernel.is_radial() {
            crate::distance::distances_to_center_into(&self.points, xi, row);
            for v in row.iter_mut() {
                *v = kernel.evaluate_from_sq_dist(*v);
            }
        } else {
            for (j, v) in row.iter_mut().enumerate() {
                *v = kernel.evaluate(xi, self.points.row(j));
            }
        }
    }

    /// Calls `f(k_i, y_i)` for every row `i`, where `k_i` is row `i` of the
    /// kernel matrix and `y_i` the `width` entries of `y` that belong to
    /// it. Rows run in parallel in chunks of [`ROW_CHUNK`], each chunk
    /// evaluating its rows into one reusable buffer.
    fn for_each_row(&self, y: &mut [f64], width: usize, f: impl Fn(&[f64], &mut [f64]) + Sync) {
        let n = self.len();
        y.par_chunks_mut(ROW_CHUNK * width)
            .enumerate()
            .for_each(|(chunk, ys)| {
                let mut row = vec![0.0; n];
                for (r, yi) in ys.chunks_mut(width).enumerate() {
                    self.eval_row(chunk * ROW_CHUNK + r, &mut row);
                    f(&row, yi);
                }
            });
    }
}

impl LinearOperator for KernelMatrix {
    fn nrows(&self) -> usize {
        self.len()
    }

    fn ncols(&self) -> usize {
        self.len()
    }

    #[inline]
    fn entry(&self, i: usize, j: usize) -> f64 {
        self.kernel.evaluate(self.points.row(i), self.points.row(j))
    }

    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.len(), "KernelMatrix::matvec: x length");
        assert_eq!(y.len(), self.len(), "KernelMatrix::matvec: y length");
        self.for_each_row(y, 1, |k_i, y_i| {
            let mut s = 0.0;
            for (&kij, &xj) in k_i.iter().zip(x) {
                if xj != 0.0 {
                    s += kij * xj;
                }
            }
            y_i[0] = s;
        });
    }

    fn rmatvec(&self, x: &[f64], y: &mut [f64]) {
        // The kernel matrix is symmetric.
        self.matvec(x, y);
    }

    /// `Y = K X`, applying each kernel row to all columns of `X` at once:
    /// `y[i,c] += k_ik · x[k,c]` over ascending `k`, skipping zero `x`
    /// entries, which is exactly [`matvec`](LinearOperator::matvec)'s
    /// arithmetic for each column.
    fn matmat(&self, x: &Matrix) -> Matrix {
        assert_eq!(
            x.nrows(),
            self.len(),
            "KernelMatrix::matmat: dimension mismatch"
        );
        let width = x.ncols();
        let mut y = Matrix::zeros(self.len(), width);
        if width == 0 {
            return y;
        }
        self.for_each_row(y.data_mut(), width, |k_i, y_i| {
            for (k, &kik) in k_i.iter().enumerate() {
                for (yc, &xc) in y_i.iter_mut().zip(x.row(k)) {
                    if xc != 0.0 {
                        *yc += kik * xc;
                    }
                }
            }
        });
        y
    }

    fn sub_block(&self, rows: &[usize], cols: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(rows.len(), cols.len());
        let kernel = self.kernel;
        let points = &self.points;
        out.data_mut()
            .par_chunks_mut(cols.len().max(1))
            .enumerate()
            .for_each(|(oi, row)| {
                if oi >= rows.len() {
                    return;
                }
                let xi = points.row(rows[oi]);
                for (oj, v) in row.iter_mut().enumerate() {
                    *v = kernel.evaluate(xi, points.row(cols[oj]));
                }
            });
        out
    }
}

/// The rectangular cross-kernel `K'(i, j) = K(x'_i, x_j)` between test
/// points `x'` and training points `x` (Step 3 of Algorithm 1).
#[derive(Debug, Clone)]
pub struct CrossKernel {
    test_points: Matrix,
    train_points: Matrix,
    kernel: KernelFunction,
}

impl CrossKernel {
    /// Creates the cross-kernel operator (`m x n`: test rows, train cols).
    pub fn new(test_points: Matrix, train_points: Matrix, kernel: KernelFunction) -> Self {
        assert_eq!(
            test_points.ncols(),
            train_points.ncols(),
            "CrossKernel: test and train dimension mismatch"
        );
        CrossKernel {
            test_points,
            train_points,
            kernel,
        }
    }

    /// Number of test points.
    pub fn num_test(&self) -> usize {
        self.test_points.nrows()
    }

    /// Number of training points.
    pub fn num_train(&self) -> usize {
        self.train_points.nrows()
    }

    /// The kernel vector of test point `i` against all training points.
    pub fn kernel_vector(&self, i: usize) -> Vec<f64> {
        let xi = self.test_points.row(i);
        (0..self.num_train())
            .map(|j| self.kernel.evaluate(xi, self.train_points.row(j)))
            .collect()
    }

    /// All predictions `K' w` for a weight vector `w`, in parallel over the
    /// test points.
    pub fn predict_scores(&self, w: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.num_test()];
        self.predict_scores_into(w, &mut out);
        out
    }

    /// [`CrossKernel::predict_scores`] into a caller-provided buffer, so hot
    /// serving paths can reuse allocations across batches.
    pub fn predict_scores_into(&self, w: &[f64], out: &mut [f64]) {
        cross_scores_into(&self.test_points, &self.train_points, self.kernel, w, out);
    }
}

/// Batched cross-kernel scores `out_i = Σ_j K(test_i, train_j) w_j` against
/// borrowed point sets — the allocation-free core of prediction. Parallel
/// over the test rows; per-row arithmetic is the sequential `j` order, so
/// results are bitwise identical to a scalar loop (and across thread
/// counts).
///
/// # Panics
/// Panics when the point dimensions, weight length, or output length are
/// inconsistent.
pub fn cross_scores_into(
    test_points: &Matrix,
    train_points: &Matrix,
    kernel: KernelFunction,
    w: &[f64],
    out: &mut [f64],
) {
    assert_eq!(
        test_points.ncols(),
        train_points.ncols(),
        "cross_scores_into: test and train dimension mismatch"
    );
    assert_eq!(
        w.len(),
        train_points.nrows(),
        "cross_scores_into: weight length"
    );
    assert_eq!(
        out.len(),
        test_points.nrows(),
        "cross_scores_into: output length"
    );
    out.par_iter_mut().enumerate().for_each(|(i, oi)| {
        let xi = test_points.row(i);
        let mut s = 0.0;
        for (j, &wj) in w.iter().enumerate() {
            s += kernel.evaluate(xi, train_points.row(j)) * wj;
        }
        *oi = s;
    });
}

impl LinearOperator for CrossKernel {
    fn nrows(&self) -> usize {
        self.num_test()
    }

    fn ncols(&self) -> usize {
        self.num_train()
    }

    fn entry(&self, i: usize, j: usize) -> f64 {
        self.kernel
            .evaluate(self.test_points.row(i), self.train_points.row(j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hkrr_linalg::random::{gaussian_matrix, Pcg64};
    use hkrr_linalg::{blas, cholesky};

    fn random_points(seed: u64, n: usize, d: usize) -> Matrix {
        let mut rng = Pcg64::seed_from_u64(seed);
        gaussian_matrix(&mut rng, n, d)
    }

    #[test]
    fn kernel_matrix_is_symmetric_with_unit_diagonal() {
        let km = KernelMatrix::new(random_points(1, 30, 4), KernelFunction::gaussian(1.0));
        let k = km.assemble_dense();
        assert!(k.is_symmetric(1e-14));
        for i in 0..30 {
            assert!((k[(i, i)] - 1.0).abs() < 1e-14);
        }
        assert!(k.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn entry_matches_assembled_matrix() {
        let km = KernelMatrix::new(random_points(2, 15, 3), KernelFunction::gaussian(0.7));
        let k = km.assemble_dense();
        for i in 0..15 {
            for j in 0..15 {
                assert!((km.entry(i, j) - k[(i, j)]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn matvec_matches_dense_gemv() {
        let km = KernelMatrix::new(random_points(3, 40, 5), KernelFunction::gaussian(1.5));
        let k = km.assemble_dense();
        let mut rng = Pcg64::seed_from_u64(4);
        let x: Vec<f64> = (0..40).map(|_| rng.next_gaussian()).collect();
        let mut y1 = vec![0.0; 40];
        let mut y2 = vec![0.0; 40];
        km.matvec(&x, &mut y1);
        blas::gemv(&k, &x, &mut y2);
        for (a, b) in y1.iter().zip(y2.iter()) {
            assert!((a - b).abs() < 1e-11);
        }
        let mut y3 = vec![0.0; 40];
        km.rmatvec(&x, &mut y3);
        assert_eq!(y1, y3);
    }

    /// The per-entry reference: `Σ_j entry(i,j)·x_j` over ascending `j`,
    /// skipping zero `x_j` like the operator does.
    fn reference_matvec(km: &KernelMatrix, x: &[f64]) -> Vec<f64> {
        (0..km.len())
            .map(|i| {
                let mut s = 0.0;
                for (j, &xj) in x.iter().enumerate() {
                    if xj != 0.0 {
                        s += km.entry(i, j) * xj;
                    }
                }
                s
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A Gaussian block with about a quarter of its entries set to zero.
    fn sparse_block(seed: u64, n: usize, cols: usize) -> Matrix {
        let mut rng = Pcg64::seed_from_u64(seed);
        Matrix::from_fn(n, cols, |i, c| {
            let v = rng.next_gaussian();
            if (i * 7 + c * 3) % 4 == 0 {
                0.0
            } else {
                v
            }
        })
    }

    /// Pins `matvec` to the per-entry reference and every column of
    /// `matmat` to `matvec` of that column, bit for bit, at 1 thread and at
    /// the default thread count.
    fn check_products_bitwise(km: &KernelMatrix) {
        let n = km.len();
        assert_ne!(n % ROW_CHUNK, 0, "the last row chunk should be partial");
        let xs = sparse_block(31, n, 5);
        assert!(xs.data().contains(&0.0));
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let y_seq = one.install(|| km.matmat(&xs));
        let y_par = km.matmat(&xs);
        assert_eq!(y_seq.shape(), (n, 5));
        assert_eq!(bits(y_seq.data()), bits(y_par.data()));
        for c in 0..xs.ncols() {
            let xc = xs.col(c);
            let expected = bits(&reference_matvec(km, &xc));
            let mut seq = vec![f64::NAN; n];
            one.install(|| km.matvec(&xc, &mut seq));
            let mut par = vec![f64::NAN; n];
            km.matvec(&xc, &mut par);
            assert_eq!(bits(&seq), expected, "1-thread matvec, column {c}");
            assert_eq!(bits(&par), expected, "parallel matvec, column {c}");
            assert_eq!(bits(&y_par.col(c)), expected, "matmat column {c}");
        }
    }

    // n = 150 is not a multiple of the row chunk, and large enough that the
    // products split across threads.

    #[test]
    fn gaussian_products_match_per_entry_bitwise_on_the_simd_path() {
        // d = 9: the vectorized distance (d >= 8) plus a one-entry tail.
        let km = KernelMatrix::new(random_points(21, 150, 9), KernelFunction::gaussian(2.0));
        check_products_bitwise(&km);
    }

    #[test]
    fn gaussian_products_match_per_entry_bitwise_on_the_scalar_path() {
        let km = KernelMatrix::new(random_points(22, 150, 3), KernelFunction::gaussian(0.8));
        check_products_bitwise(&km);
    }

    #[test]
    fn laplacian_products_match_per_entry_bitwise() {
        let km = KernelMatrix::new(
            random_points(23, 150, 5),
            KernelFunction::Laplacian { h: 1.5 },
        );
        check_products_bitwise(&km);
    }

    #[test]
    fn polynomial_products_match_per_entry_bitwise() {
        // Non-radial: the per-entry fallback of the row evaluator.
        let km = KernelMatrix::new(
            random_points(24, 150, 4),
            KernelFunction::Polynomial { degree: 3, c: 1.0 },
        );
        check_products_bitwise(&km);
    }

    #[test]
    fn matmat_of_an_empty_block_is_empty() {
        let km = KernelMatrix::new(random_points(25, 20, 3), KernelFunction::gaussian(1.0));
        let y = km.matmat(&Matrix::zeros(20, 0));
        assert_eq!(y.shape(), (20, 0));
    }

    #[test]
    fn regularized_kernel_is_positive_definite() {
        let km = KernelMatrix::new(random_points(5, 25, 3), KernelFunction::gaussian(1.0));
        let k = km.assemble_regularized(1e-3);
        assert!(cholesky::cholesky(&k).is_ok());
    }

    #[test]
    fn permuted_operator_matches_symmetric_permutation() {
        let km = KernelMatrix::new(random_points(6, 12, 2), KernelFunction::gaussian(1.0));
        let k = km.assemble_dense();
        let perm: Vec<usize> = vec![5, 0, 7, 2, 9, 4, 11, 6, 1, 8, 3, 10];
        let kp = km.permuted(&perm).assemble_dense();
        assert!(kp.approx_eq(&k.permute_symmetric(&perm), 1e-14));
    }

    #[test]
    fn with_bandwidth_changes_offdiagonal_decay() {
        let km = KernelMatrix::new(random_points(7, 20, 3), KernelFunction::gaussian(1.0));
        let k_narrow = km.with_bandwidth(0.1).assemble_dense();
        let k_wide = km.with_bandwidth(10.0).assemble_dense();
        // Narrow bandwidth: near-identity; wide: near all-ones.
        let off_narrow: f64 = (0..20)
            .flat_map(|i| (0..20).filter(move |&j| j != i).map(move |j| (i, j)))
            .map(|(i, j)| k_narrow[(i, j)])
            .sum();
        let off_wide: f64 = (0..20)
            .flat_map(|i| (0..20).filter(move |&j| j != i).map(move |j| (i, j)))
            .map(|(i, j)| k_wide[(i, j)])
            .sum();
        assert!(off_narrow < 1.0);
        assert!(off_wide > 300.0);
    }

    #[test]
    fn sub_block_extracts_kernel_entries() {
        let km = KernelMatrix::new(random_points(8, 10, 2), KernelFunction::gaussian(1.0));
        let b = km.sub_block(&[0, 3, 5], &[1, 2]);
        assert_eq!(b.shape(), (3, 2));
        assert!((b[(1, 0)] - km.entry(3, 1)).abs() < 1e-15);
    }

    #[test]
    fn cross_kernel_entries_and_prediction() {
        let train = random_points(9, 20, 3);
        let test = random_points(10, 5, 3);
        let ck = CrossKernel::new(test.clone(), train.clone(), KernelFunction::gaussian(1.0));
        assert_eq!(ck.num_test(), 5);
        assert_eq!(ck.num_train(), 20);
        let kv = ck.kernel_vector(2);
        assert_eq!(kv.len(), 20);
        assert!((kv[7] - ck.entry(2, 7)).abs() < 1e-15);

        let mut rng = Pcg64::seed_from_u64(11);
        let w: Vec<f64> = (0..20).map(|_| rng.next_gaussian()).collect();
        let scores = ck.predict_scores(&w);
        for i in 0..5 {
            let manual = blas::dot(&ck.kernel_vector(i), &w);
            assert!((scores[i] - manual).abs() < 1e-12);
        }

        // The buffer-reusing path is the same arithmetic, bitwise.
        let mut buf = vec![f64::NAN; 5];
        ck.predict_scores_into(&w, &mut buf);
        assert_eq!(buf, scores);
        let mut free = vec![0.0; 5];
        cross_scores_into(&test, &train, KernelFunction::gaussian(1.0), &w, &mut free);
        assert_eq!(free, scores);
    }

    #[test]
    #[should_panic]
    fn cross_scores_into_rejects_bad_output_length() {
        let train = random_points(9, 20, 3);
        let test = random_points(10, 5, 3);
        let w = vec![0.0; 20];
        let mut out = vec![0.0; 4];
        cross_scores_into(&test, &train, KernelFunction::gaussian(1.0), &w, &mut out);
    }

    #[test]
    #[should_panic]
    fn cross_kernel_rejects_dimension_mismatch() {
        let _ = CrossKernel::new(
            Matrix::zeros(3, 2),
            Matrix::zeros(5, 4),
            KernelFunction::gaussian(1.0),
        );
    }

    #[test]
    fn kernel_matrix_accessors() {
        let km = KernelMatrix::new(random_points(12, 6, 4), KernelFunction::gaussian(2.0));
        assert_eq!(km.len(), 6);
        assert_eq!(km.dim(), 4);
        assert!(!km.is_empty());
        assert_eq!(km.kernel().bandwidth(), Some(2.0));
        assert_eq!(LinearOperator::nrows(&km), 6);
        assert_eq!(LinearOperator::ncols(&km), 6);
    }
}
