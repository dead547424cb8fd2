//! Reference backend: the pre-seam arithmetic, moved verbatim.
//!
//! The loops in this file are the exact kernels `crate::blas` shipped before
//! the [`DenseBackend`](super::DenseBackend) seam existed — same loop order,
//! same zero-skip, same rayon row split — so every bitwise-reproducibility
//! suite that pinned the old free functions keeps passing when pinned
//! against this backend.

use super::{check_gemm, check_gemm_nt, check_gemm_tn, check_syrk, DenseBackend, PAR_THRESHOLD};
use crate::matrix::Matrix;
use rayon::prelude::*;

pub(crate) static SCALAR: ScalarBackend = ScalarBackend;

/// The reference [`DenseBackend`]: plain triple loops, bitwise-stable.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarBackend;

/// Sequential i-k-j GEMM core (streams rows of B, friendly to row-major
/// storage).  Accumulates into `c`, which the caller has zeroed.
pub(crate) fn matmul_into_seq(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, k) = a.shape();
    let n = b.ncols();
    for i in 0..m {
        for l in 0..k {
            let ail = a[(i, l)];
            if ail == 0.0 {
                continue;
            }
            let brow = b.row(l);
            let crow = c.row_mut(i);
            for j in 0..n {
                crow[j] += ail * brow[j];
            }
        }
    }
}

impl DenseBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn gemm_into(&self, a: &Matrix, b: &Matrix, c: &mut Matrix) {
        check_gemm(a, b, c);
        let (m, k) = a.shape();
        let n = b.ncols();
        c.data_mut().fill(0.0);
        let work = m * n * k;
        if work < PAR_THRESHOLD * 8 {
            matmul_into_seq(a, b, c);
            return;
        }
        let b_data = b.data();
        c.data_mut()
            .par_chunks_mut(n)
            .enumerate()
            .for_each(|(i, crow)| {
                let arow = a.row(i);
                for (l, &ail) in arow.iter().enumerate() {
                    if ail == 0.0 {
                        continue;
                    }
                    let brow = &b_data[l * n..(l + 1) * n];
                    for (cj, bj) in crow.iter_mut().zip(brow.iter()) {
                        *cj += ail * bj;
                    }
                }
            });
    }

    fn gemm_tn_into(&self, a: &Matrix, b: &Matrix, c: &mut Matrix) {
        check_gemm_tn(a, b, c);
        // Transposing A is O(mk) while the multiply is O(mkn); the copy is
        // cheap and lets us reuse the row-parallel kernel.
        self.gemm_into(&a.transpose(), b, c);
    }

    fn gemm_nt_into(&self, a: &Matrix, b: &Matrix, c: &mut Matrix) {
        check_gemm_nt(a, b, c);
        let (m, k) = a.shape();
        let n = b.nrows();
        let work = m * n * k;
        if work < PAR_THRESHOLD * 8 {
            for i in 0..m {
                for j in 0..n {
                    c[(i, j)] = crate::blas::dot(a.row(i), b.row(j));
                }
            }
            return;
        }
        c.data_mut()
            .par_chunks_mut(n)
            .enumerate()
            .for_each(|(i, crow)| {
                let arow = a.row(i);
                for (j, cj) in crow.iter_mut().enumerate() {
                    *cj = crate::blas::dot(arow, b.row(j));
                }
            });
    }

    fn syrk_into(&self, a: &Matrix, c: &mut Matrix) {
        check_syrk(a, c);
        let m = a.nrows();
        for i in 0..m {
            for j in i..m {
                let v = crate::blas::dot(a.row(i), a.row(j));
                c[(i, j)] = v;
                c[(j, i)] = v;
            }
        }
    }

    fn sq_distance(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "sq_distance: length mismatch");
        x.iter()
            .zip(y.iter())
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{gaussian_matrix, Pcg64};

    #[test]
    fn parallel_gemm_matches_sequential_core() {
        let mut rng = Pcg64::seed_from_u64(11);
        let a = gaussian_matrix(&mut rng, 120, 90);
        let b = gaussian_matrix(&mut rng, 90, 70);
        let mut c_par = Matrix::zeros(120, 70);
        SCALAR.gemm_into(&a, &b, &mut c_par);
        let mut c_seq = Matrix::zeros(120, 70);
        matmul_into_seq(&a, &b, &mut c_seq);
        assert!(crate::blas::relative_error(&c_seq, &c_par) < 1e-13);
    }

    #[test]
    fn gemm_into_overwrites_stale_output() {
        let a = Matrix::identity(4);
        let b = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let mut c = Matrix::from_fn(4, 4, |_, _| 99.0);
        SCALAR.gemm_into(&a, &b, &mut c);
        assert!(c.approx_eq(&b, 0.0));
    }

    #[test]
    fn syrk_matches_gemm_nt() {
        let mut rng = Pcg64::seed_from_u64(9);
        let a = gaussian_matrix(&mut rng, 10, 6);
        let mut c = Matrix::zeros(10, 10);
        SCALAR.syrk_into(&a, &mut c);
        let mut c_ref = Matrix::zeros(10, 10);
        SCALAR.gemm_nt_into(&a, &a, &mut c_ref);
        assert!(crate::blas::relative_error(&c_ref, &c) < 1e-13);
        assert!(c.is_symmetric(1e-14));
    }

    #[test]
    fn sq_distance_matches_definition() {
        assert_eq!(SCALAR.sq_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }
}
