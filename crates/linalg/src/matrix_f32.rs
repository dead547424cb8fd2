//! Row-major single-precision dense matrix — the storage type of the
//! mixed-precision factor store.
//!
//! [`MatrixF32`] deliberately exposes only the surface the factor store
//! and the model codec need (construction, conversion from [`Matrix`],
//! row access, raw data) plus the two widened GEMVs the f32 ULV solve is
//! built from: it is a *storage* format for factors that are applied,
//! never re-factored, so the full f64 [`Matrix`] API (QR, submatrices,
//! stacking, …) has no f32 twin. Halving the bytes per entry halves both
//! the factor memory and the memory bandwidth of the preconditioner-apply
//! loop, which is exactly the win the paper's tolerance study licenses
//! for loose factors.

use crate::matrix::Matrix;

/// Dense row-major `f32` matrix.
#[derive(Clone, PartialEq)]
pub struct MatrixF32 {
    nrows: usize,
    ncols: usize,
    data: Vec<f32>,
}

impl MatrixF32 {
    /// Builds a matrix from row-major data.
    ///
    /// # Panics
    /// Panics when `data.len() != nrows * ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            nrows * ncols,
            "MatrixF32::from_vec: data length mismatch"
        );
        MatrixF32 { nrows, ncols, data }
    }

    /// Demotes a double-precision matrix entrywise (round-to-nearest).
    pub fn from_f64(m: &Matrix) -> Self {
        MatrixF32 {
            nrows: m.nrows(),
            ncols: m.ncols(),
            data: m.data().iter().map(|&x| x as f32).collect(),
        }
    }

    /// Widens back to double precision (exact: every `f32` is an `f64`).
    pub fn to_f64(&self) -> Matrix {
        Matrix::from_vec(
            self.nrows,
            self.ncols,
            self.data.iter().map(|&x| x as f64).collect(),
        )
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Row-major backing data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Heap bytes held by the matrix data.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Widened product `y = A x`: f32-*stored* matrix, f64 vectors, every
    /// operation in f64 (each `a_ij` is widened in registers).
    ///
    /// This is the kernel the mixed-precision ULV apply is built from: the
    /// factors pay only their one storage rounding, so the whole sweep is
    /// an exact *linear* f64 operator — exactly what CG's recurrences
    /// assume of a preconditioner.
    ///
    /// Ascending-`j` dot per row: the operation order of
    /// [`crate::blas::gemv`].
    pub fn gemv_f64(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(self.ncols, x.len(), "gemv f32/f64: A.ncols != x.len");
        assert_eq!(self.nrows, y.len(), "gemv f32/f64: A.nrows != y.len");
        for (i, yi) in y.iter_mut().enumerate() {
            let mut s = 0.0f64;
            for (aij, xj) in self.row(i).iter().zip(x.iter()) {
                s += *aij as f64 * xj;
            }
            *yi = s;
        }
    }

    /// Widened transposed product `y = Aᵀ x` — see
    /// [`MatrixF32::gemv_f64`].
    ///
    /// Zero, then ascending-row axpy: the operation order of
    /// [`crate::blas::gemv_t`].
    pub fn gemv_t_f64(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(self.nrows, x.len(), "gemv_t f32/f64: A.nrows != x.len");
        assert_eq!(self.ncols, y.len(), "gemv_t f32/f64: A.ncols != y.len");
        for yi in y.iter_mut() {
            *yi = 0.0;
        }
        for i in 0..self.nrows {
            let xi = x[i];
            for (yj, aij) in y.iter_mut().zip(self.row(i).iter()) {
                *yj += xi * *aij as f64;
            }
        }
    }
}

impl std::ops::Index<(usize, usize)> for MatrixF32 {
    type Output = f32;

    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        &self.data[i * self.ncols + j]
    }
}

impl std::fmt::Debug for MatrixF32 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "MatrixF32 {}x{} [", self.nrows, self.ncols)?;
        for i in 0..self.nrows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.ncols.min(8) {
                write!(f, "{:>10.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.ncols > 8 { "…" } else { "" })?;
        }
        if self.nrows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::Pcg64;

    #[test]
    fn roundtrip_through_f64_is_exact() {
        let m = MatrixF32::from_vec(2, 3, vec![1.5, -2.25, 0.0, 3.0, 0.125, -7.5]);
        let wide = m.to_f64();
        let back = MatrixF32::from_f64(&wide);
        assert_eq!(m, back);
        assert_eq!(wide[(1, 2)], -7.5);
    }

    #[test]
    fn demotion_rounds_to_nearest() {
        let wide = Matrix::from_vec(1, 1, vec![1.0 + 1e-12]);
        let m = MatrixF32::from_f64(&wide);
        assert_eq!(m[(0, 0)], 1.0f32);
    }

    #[test]
    fn rows_and_memory_accounting() {
        let mut data = vec![0.0f32; 12];
        data[4..8].copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        data[8] = 9.0;
        let m = MatrixF32::from_vec(3, 4, data);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((m.nrows(), m.ncols()), (3, 4));
        assert!(!m.is_square());
        assert_eq!(m.memory_bytes(), 3 * 4 * 4);
        assert_eq!(m[(2, 0)], 9.0);
    }

    #[test]
    fn widened_gemv_matches_f64_on_exactly_representable_data() {
        // Integer-valued entries are exact in both precisions, so the
        // widened kernels must reproduce the f64 reference bitwise.
        let mut rng = Pcg64::seed_from_u64(113);
        let m = 13;
        let n = 9;
        let data: Vec<f64> = (0..m * n)
            .map(|_| (rng.next_gaussian() * 4.0).round())
            .collect();
        let a64 = Matrix::from_vec(m, n, data);
        let a32 = MatrixF32::from_f64(&a64);
        let x: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let xt: Vec<f64> = (0..m).map(|_| rng.next_gaussian()).collect();
        let mut y_ref = vec![0.0f64; m];
        crate::blas::gemv(&a64, &x, &mut y_ref);
        let mut yt_ref = vec![0.0f64; n];
        crate::blas::gemv_t(&a64, &xt, &mut yt_ref);
        let mut y = vec![0.0f64; m];
        a32.gemv_f64(&x, &mut y);
        assert_eq!(y, y_ref, "gemv_f64");
        let mut yt = vec![0.0f64; n];
        a32.gemv_t_f64(&xt, &mut yt);
        assert_eq!(yt, yt_ref, "gemv_t_f64");
    }

    #[test]
    #[should_panic]
    fn from_vec_rejects_bad_length() {
        let _ = MatrixF32::from_vec(2, 2, vec![1.0; 3]);
    }
}
