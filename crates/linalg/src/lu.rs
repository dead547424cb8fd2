//! LU factorization with partial pivoting and the associated solver.
//!
//! The ULV factorization of the HSS format reduces the problem to a final
//! dense solve at the root; that solve (and the dense baselines in the
//! benchmarks) uses this module.  [`LuF32`] is the demoted sibling the
//! mixed-precision factor store applies: pivoting always runs in f64, the
//! factor is *stored* in f32 and back-substituted in f64.

use crate::matrix::Matrix;
use crate::matrix_f32::MatrixF32;
use crate::{LinalgError, LinalgResult};

/// LU factorization `P A = L U` with partial (row) pivoting.
///
/// `L` and `U` are stored packed in a single matrix: the unit diagonal of
/// `L` is implicit.
#[derive(Debug, Clone)]
pub struct Lu {
    packed: Matrix,
    /// Row permutation: row `i` of the factored matrix came from row
    /// `pivots[i]` of the original.
    pivots: Vec<usize>,
    /// Sign of the permutation (for determinants).
    sign: f64,
}

/// Computes the LU factorization of a square matrix.
///
/// # Errors
/// Returns [`LinalgError::Singular`] when no usable pivot exists in some
/// column.
pub fn lu(a: &Matrix) -> LinalgResult<Lu> {
    if !a.is_square() {
        return Err(LinalgError::DimensionMismatch {
            context: format!("lu on {}x{} matrix", a.nrows(), a.ncols()),
        });
    }
    let n = a.nrows();
    let mut m = a.clone();
    let mut pivots: Vec<usize> = (0..n).collect();
    let mut sign = 1.0;

    for k in 0..n {
        // Partial pivoting: largest magnitude in column k at or below row k.
        let mut p = k;
        let mut best = m[(k, k)].abs();
        for i in (k + 1)..n {
            let v = m[(i, k)].abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        if best == 0.0 {
            return Err(LinalgError::Singular { pivot: k });
        }
        if p != k {
            for j in 0..n {
                let tmp = m[(k, j)];
                m[(k, j)] = m[(p, j)];
                m[(p, j)] = tmp;
            }
            pivots.swap(k, p);
            sign = -sign;
        }
        let pivot = m[(k, k)];
        for i in (k + 1)..n {
            let factor = m[(i, k)] / pivot;
            m[(i, k)] = factor;
            for j in (k + 1)..n {
                m[(i, j)] -= factor * m[(k, j)];
            }
        }
    }
    Ok(Lu {
        packed: m,
        pivots,
        sign,
    })
}

impl Lu {
    /// Rebuilds a factorization from its stored parts (the inverse of the
    /// [`Lu::packed`] / [`Lu::pivots`] / [`Lu::sign`] accessors), validating
    /// the structural invariants so a corrupted serialization cannot produce
    /// an out-of-bounds solve.
    pub fn from_parts(packed: Matrix, pivots: Vec<usize>, sign: f64) -> LinalgResult<Lu> {
        if !packed.is_square() {
            return Err(LinalgError::DimensionMismatch {
                context: format!(
                    "Lu::from_parts: packed factor is {}x{}",
                    packed.nrows(),
                    packed.ncols()
                ),
            });
        }
        let n = packed.nrows();
        if pivots.len() != n || !is_permutation(&pivots) {
            return Err(LinalgError::DimensionMismatch {
                context: format!("Lu::from_parts: pivots are not a permutation of 0..{n}"),
            });
        }
        if sign != 1.0 && sign != -1.0 {
            return Err(LinalgError::DimensionMismatch {
                context: format!("Lu::from_parts: permutation sign {sign} is not ±1"),
            });
        }
        Ok(Lu {
            packed,
            pivots,
            sign,
        })
    }

    /// The packed `L`/`U` storage (unit diagonal of `L` implicit).
    pub fn packed(&self) -> &Matrix {
        &self.packed
    }

    /// The row permutation applied by partial pivoting.
    pub fn pivots(&self) -> &[usize] {
        &self.pivots
    }

    /// Sign of the row permutation.
    pub fn sign(&self) -> f64 {
        self.sign
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.packed.nrows()
    }

    /// Solves `A x = b` using the stored factorization.
    pub fn solve(&self, b: &[f64]) -> LinalgResult<Vec<f64>> {
        let n = self.dim();
        assert_eq!(b.len(), n, "Lu::solve: rhs length mismatch");
        // Apply the row permutation to b.
        let mut x: Vec<f64> = self.pivots.iter().map(|&p| b[p]).collect();
        // Forward substitution with the unit-lower factor.
        for i in 0..n {
            let mut s = x[i];
            for j in 0..i {
                s -= self.packed[(i, j)] * x[j];
            }
            x[i] = s;
        }
        // Back substitution with the upper factor.
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= self.packed[(i, j)] * x[j];
            }
            let d = self.packed[(i, i)];
            if d == 0.0 {
                return Err(LinalgError::Singular { pivot: i });
            }
            x[i] = s / d;
        }
        Ok(x)
    }

    /// Solves `A X = B` for a matrix of right-hand sides.
    ///
    /// Applies the pivot permutation once, sweeps the implicit-unit lower
    /// factor across all columns at a time, and finishes with the active
    /// backend's in-place upper TRSM — element-for-element the same scalar
    /// sequence as solving column by column.
    pub fn solve_multi(&self, b: &Matrix) -> LinalgResult<Matrix> {
        let n = self.dim();
        assert_eq!(b.nrows(), n, "Lu::solve_multi: dim mismatch");
        let r = b.ncols();
        let mut x = Matrix::zeros(n, r);
        for (i, &p) in self.pivots.iter().enumerate() {
            x.row_mut(i).copy_from_slice(b.row(p));
        }
        // Forward substitution with the unit-lower factor (no divide).
        for i in 0..n {
            for j in 0..i {
                let lij = self.packed[(i, j)];
                let (done, rest) = x.data_mut().split_at_mut(i * r);
                let xj = &done[j * r..(j + 1) * r];
                let xi = &mut rest[..r];
                for (xic, xjc) in xi.iter_mut().zip(xj.iter()) {
                    *xic -= lij * xjc;
                }
            }
        }
        // Back substitution reads only the upper triangle of the packed
        // storage, which is exactly what the backend TRSM consumes.
        crate::backend::active().trsm_upper_into(&self.packed, &mut x)?;
        Ok(x)
    }

    /// Determinant of the original matrix.
    pub fn determinant(&self) -> f64 {
        let mut det = self.sign;
        for i in 0..self.dim() {
            det *= self.packed[(i, i)];
        }
        det
    }

    /// Explicitly forms the inverse (used only in tests and tiny blocks).
    pub fn inverse(&self) -> LinalgResult<Matrix> {
        self.solve_multi(&Matrix::identity(self.dim()))
    }
}

/// Single-precision LU factor store: the packed `L`/`U` of an [`Lu`]
/// demoted to f32.
///
/// Never produced by factoring in f32 — always by demoting an f64
/// factorization whose pivot order is therefore exact.  Its one solve,
/// [`LuF32::solve_f64`], mirrors [`Lu::solve`] operation for operation
/// with every factor entry widened to f64.
#[derive(Debug, Clone)]
pub struct LuF32 {
    packed: MatrixF32,
    pivots: Vec<usize>,
    sign: f64,
}

impl LuF32 {
    /// Demotes a double-precision factorization entrywise.
    pub fn from_lu(f: &Lu) -> LuF32 {
        LuF32 {
            packed: MatrixF32::from_f64(f.packed()),
            pivots: f.pivots().to_vec(),
            sign: f.sign(),
        }
    }

    /// Rebuilds a demoted factorization from stored parts, with the same
    /// structural validation as [`Lu::from_parts`].
    pub fn from_parts(packed: MatrixF32, pivots: Vec<usize>, sign: f64) -> LinalgResult<LuF32> {
        if !packed.is_square() {
            return Err(LinalgError::DimensionMismatch {
                context: format!(
                    "LuF32::from_parts: packed factor is {}x{}",
                    packed.nrows(),
                    packed.ncols()
                ),
            });
        }
        let n = packed.nrows();
        if pivots.len() != n || !is_permutation(&pivots) {
            return Err(LinalgError::DimensionMismatch {
                context: format!("LuF32::from_parts: pivots are not a permutation of 0..{n}"),
            });
        }
        if sign != 1.0 && sign != -1.0 {
            return Err(LinalgError::DimensionMismatch {
                context: format!("LuF32::from_parts: permutation sign {sign} is not ±1"),
            });
        }
        Ok(LuF32 {
            packed,
            pivots,
            sign,
        })
    }

    /// The packed f32 `L`/`U` storage (unit diagonal of `L` implicit).
    pub fn packed(&self) -> &MatrixF32 {
        &self.packed
    }

    /// The row permutation applied by partial pivoting (inherited exactly
    /// from the f64 factorization).
    pub fn pivots(&self) -> &[usize] {
        &self.pivots
    }

    /// Sign of the row permutation.
    pub fn sign(&self) -> f64 {
        self.sign
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.packed.nrows()
    }

    /// Heap bytes held by the factor storage.
    pub fn memory_bytes(&self) -> usize {
        self.packed.memory_bytes() + self.pivots.len() * std::mem::size_of::<usize>()
    }

    /// Solves `A x = b` reading the f32 factors but computing in f64: the
    /// same permute / forward / backward sweep as [`Lu::solve`], with every
    /// packed entry widened in registers.
    ///
    /// This is the solve the mixed-precision ULV apply uses — the result is
    /// the exact f64 solve of the f32-rounded factorization, so the only
    /// error the caller sees is the factors' one-time storage rounding
    /// (a fixed linear perturbation, not per-apply f32 noise).
    pub fn solve_f64(&self, b: &[f64]) -> LinalgResult<Vec<f64>> {
        let n = self.dim();
        assert_eq!(b.len(), n, "LuF32::solve_f64: rhs length mismatch");
        let mut x: Vec<f64> = self.pivots.iter().map(|&p| b[p]).collect();
        for i in 0..n {
            let mut s = x[i];
            for j in 0..i {
                s -= self.packed[(i, j)] as f64 * x[j];
            }
            x[i] = s;
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= self.packed[(i, j)] as f64 * x[j];
            }
            let d = self.packed[(i, i)];
            if d == 0.0 {
                return Err(LinalgError::Singular { pivot: i });
            }
            x[i] = s / d as f64;
        }
        Ok(x)
    }
}

/// One-shot dense solve `A x = b`.
pub fn solve(a: &Matrix, b: &[f64]) -> LinalgResult<Vec<f64>> {
    lu(a)?.solve(b)
}

/// Whether `p` contains every index `0..p.len()` exactly once — the
/// validity check shared by every deserialized permutation (LU pivots here,
/// the clustering permutation in `hkrr_core`).
pub fn is_permutation(p: &[usize]) -> bool {
    let mut seen = vec![false; p.len()];
    for &i in p {
        if i >= p.len() || seen[i] {
            return false;
        }
        seen[i] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{gemv, matmul, relative_error};
    use crate::random::{gaussian_matrix, Pcg64};

    #[test]
    fn solve_recovers_known_solution() {
        let mut rng = Pcg64::seed_from_u64(1);
        let n = 25;
        let a = {
            let mut a = gaussian_matrix(&mut rng, n, n);
            a.shift_diagonal(5.0); // keep well conditioned
            a
        };
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut b = vec![0.0; n];
        gemv(&a, &x_true, &mut b);
        let x = solve(&a, &b).unwrap();
        let err: f64 = x
            .iter()
            .zip(x_true.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-9, "max error {err}");
    }

    #[test]
    fn multi_rhs_solve() {
        let mut rng = Pcg64::seed_from_u64(2);
        let a = {
            let mut a = gaussian_matrix(&mut rng, 12, 12);
            a.shift_diagonal(4.0);
            a
        };
        let b = gaussian_matrix(&mut rng, 12, 5);
        let f = lu(&a).unwrap();
        let x = f.solve_multi(&b).unwrap();
        assert!(relative_error(&b, &matmul(&a, &x)) < 1e-10);
    }

    #[test]
    fn identity_solve_is_identity() {
        let a = Matrix::identity(6);
        let f = lu(&a).unwrap();
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(f.solve(&b).unwrap(), b);
        assert!((f.determinant() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn determinant_of_diagonal() {
        let d = Matrix::from_diag(&[2.0, 3.0, 4.0]);
        assert!((lu(&d).unwrap().determinant() - 24.0).abs() < 1e-12);
    }

    #[test]
    fn determinant_sign_tracks_permutation() {
        // Permutation matrix swapping two rows has determinant -1.
        let mut p = Matrix::zeros(2, 2);
        p[(0, 1)] = 1.0;
        p[(1, 0)] = 1.0;
        assert!((lu(&p).unwrap().determinant() + 1.0).abs() < 1e-15);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let mut rng = Pcg64::seed_from_u64(3);
        let mut a = gaussian_matrix(&mut rng, 10, 10);
        a.shift_diagonal(6.0);
        let inv = lu(&a).unwrap().inverse().unwrap();
        assert!(relative_error(&Matrix::identity(10), &matmul(&a, &inv)) < 1e-10);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 1.0;
        a[(1, 1)] = 1.0;
        // third row/column all zero -> singular
        assert!(matches!(lu(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn rectangular_matrix_is_rejected() {
        let a = Matrix::zeros(3, 4);
        assert!(matches!(lu(&a), Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn from_parts_roundtrips_and_validates() {
        let mut rng = Pcg64::seed_from_u64(9);
        let mut a = gaussian_matrix(&mut rng, 8, 8);
        a.shift_diagonal(5.0);
        let f = lu(&a).unwrap();
        let rebuilt = Lu::from_parts(f.packed().clone(), f.pivots().to_vec(), f.sign()).unwrap();
        let b: Vec<f64> = (0..8).map(|i| i as f64 - 3.0).collect();
        // Bitwise-identical solves: the rebuilt factorization is the same data.
        assert_eq!(f.solve(&b).unwrap(), rebuilt.solve(&b).unwrap());

        // Rejected: rectangular packed factor, bad pivots, bad sign.
        assert!(Lu::from_parts(Matrix::zeros(3, 4), vec![0, 1, 2], 1.0).is_err());
        assert!(Lu::from_parts(Matrix::identity(3), vec![0, 0, 2], 1.0).is_err());
        assert!(Lu::from_parts(Matrix::identity(3), vec![0, 1], 1.0).is_err());
        assert!(Lu::from_parts(Matrix::identity(3), vec![0, 1, 2], 0.5).is_err());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = solve(&a, &[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn demoted_lu_solves_to_single_precision() {
        let mut rng = Pcg64::seed_from_u64(11);
        let n = 20;
        let mut a = gaussian_matrix(&mut rng, n, n);
        a.shift_diagonal(6.0);
        let f = lu(&a).unwrap();
        let f32f = LuF32::from_lu(&f);
        assert_eq!(f32f.dim(), n);
        assert_eq!(f32f.pivots(), f.pivots());
        assert!(f32f.memory_bytes() * 2 < f.packed().memory_bytes() + n * 24);
    }

    #[test]
    fn demoted_lu_widened_solve_tracks_the_f64_solve() {
        let mut rng = Pcg64::seed_from_u64(12);
        let n = 20;
        let mut a = gaussian_matrix(&mut rng, n, n);
        a.shift_diagonal(6.0);
        let f = lu(&a).unwrap();
        let f32f = LuF32::from_lu(&f);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let x64 = f.solve(&b).unwrap();
        let widened = f32f.solve_f64(&b).unwrap();
        for (w, s) in x64.iter().zip(widened.iter()) {
            assert!((w - s).abs() < 1e-5, "f64 {w} vs widened {s}");
        }
        // On an exactly representable factorization the widened solve IS
        // the f64 solve, bitwise: only the storage rounding separates them.
        let ident = lu(&Matrix::identity(n)).unwrap();
        let ident32 = LuF32::from_lu(&ident);
        assert_eq!(ident.solve(&b).unwrap(), ident32.solve_f64(&b).unwrap());
    }

    #[test]
    fn lu_f32_from_parts_validates() {
        let ident = MatrixF32::from_f64(&Matrix::identity(3));
        assert!(LuF32::from_parts(ident.clone(), vec![0, 1, 2], 1.0).is_ok());
        let wide = MatrixF32::from_vec(3, 4, vec![0.0; 12]);
        assert!(LuF32::from_parts(wide, vec![0, 1, 2], 1.0).is_err());
        assert!(LuF32::from_parts(ident.clone(), vec![0, 0, 2], 1.0).is_err());
        assert!(LuF32::from_parts(ident, vec![0, 1, 2], 0.5).is_err());
    }
}
