//! The HSS ULV factorization as a PCG preconditioner.
//!
//! A ULV factorization of a *loosely* compressed `K + λI` is an excellent
//! preconditioner for the exact system: applying it costs one `O(r n)`
//! ULV solve, and the compression error it carries — too large to accept
//! in a direct solve — is exactly what the outer Krylov iteration removes.
//! This is the classic accuracy/speed trade for HSS methods: compress an
//! order of magnitude looser (cheaper sampling, lower ranks, less memory),
//! then spend a handful of PCG iterations on the exact matrix-free
//! operator to recover the solution of the uncompressed system.
//!
//! The adapter is simply `impl Preconditioner for UlvFactorization`: one
//! application is one [`UlvFactorization::solve`].
//!
//! The same trade licenses the mixed-precision store: a factorization
//! demoted with [`UlvFactorization::to_f32`] reads its per-node factors
//! from f32 storage but computes the whole sweep in f64, halving the
//! memory traffic of the hot apply loop, while PCG keeps iterating in f64
//! on the exact operator. The apply stays a fixed linear operator, and
//! the factors' one-time storage rounding behaves like extra compression
//! looseness: a few more iterations, the same final accuracy.

use crate::UlvFactorization;
use hkrr_linalg::iterative::Preconditioner;
use hkrr_linalg::{LinalgError, LinalgResult};

impl Preconditioner for UlvFactorization {
    fn dim(&self) -> usize {
        UlvFactorization::dim(self)
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) -> LinalgResult<()> {
        if z.len() != r.len() {
            return Err(LinalgError::DimensionMismatch {
                context: format!("ULV preconditioner: r[{}] into z[{}]", r.len(), z.len()),
            });
        }
        let solved = self.solve(r)?;
        z.copy_from_slice(&solved);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{compress_symmetric, HssOptions};
    use hkrr_clustering::{cluster, ClusteringMethod, DEFAULT_LEAF_SIZE};
    use hkrr_kernel::{KernelFunction, KernelMatrix};
    use hkrr_linalg::iterative::{pcg, IdentityPreconditioner, PcgOptions};
    use hkrr_linalg::operator::ShiftedOperator;
    use hkrr_linalg::random::{gaussian_matrix, Pcg64};
    use hkrr_linalg::LinearOperator;

    /// Compresses `K + λI` of a Gaussian kernel at the given tolerance and
    /// returns the ULV factorization together with the exact shifted
    /// operator's point set.
    fn setup(n: usize, tolerance: f64) -> (KernelMatrix, f64, UlvFactorization) {
        let mut rng = Pcg64::seed_from_u64(17);
        let points = gaussian_matrix(&mut rng, n, 4);
        let ordering = cluster(
            &points,
            ClusteringMethod::TwoMeans { seed: 3 },
            DEFAULT_LEAF_SIZE,
        );
        let permuted = points.select_rows(ordering.permutation());
        let km = KernelMatrix::new(permuted, KernelFunction::gaussian(1.0));
        let lambda = 0.5;
        let opts = HssOptions {
            tolerance,
            seed: 11,
            ..HssOptions::default()
        };
        let mut hss = compress_symmetric(&km, &km, ordering.tree().clone(), &opts).unwrap();
        hss.set_diagonal_shift(lambda);
        let ulv = UlvFactorization::factor(&hss).unwrap();
        (km, lambda, ulv)
    }

    #[test]
    fn loose_ulv_preconditioner_beats_plain_cg() {
        let (km, lambda, ulv) = setup(300, 1e-1);
        let shifted = ShiftedOperator::new(&km, lambda);
        let mut rng = Pcg64::seed_from_u64(5);
        let b: Vec<f64> = (0..300).map(|_| rng.next_gaussian()).collect();
        let opts = PcgOptions {
            tolerance: 1e-10,
            max_iterations: 600,
        };
        let plain = pcg(&shifted, &b, &IdentityPreconditioner::new(300), &opts).unwrap();
        let pre = pcg(&shifted, &b, &ulv, &opts).unwrap();
        assert!(pre.converged, "history {:?}", pre.residual_history);
        assert!(
            pre.iterations < plain.iterations,
            "ULV-preconditioned {} vs plain {}",
            pre.iterations,
            plain.iterations
        );
        // The answer solves the *exact* regularized system.
        let mut ax = vec![0.0; 300];
        shifted.matvec(&pre.x, &mut ax);
        let err = ax
            .iter()
            .zip(b.iter())
            .map(|(a, bb)| (a - bb).powi(2))
            .sum::<f64>()
            .sqrt();
        let bnorm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err / bnorm <= 1e-9, "residual {}", err / bnorm);
    }

    #[test]
    fn f32_preconditioner_converges_to_the_same_answer() {
        let (km, lambda, ulv) = setup(300, 1e-1);
        let shifted = ShiftedOperator::new(&km, lambda);
        let mut rng = Pcg64::seed_from_u64(5);
        let b: Vec<f64> = (0..300).map(|_| rng.next_gaussian()).collect();
        let opts = PcgOptions {
            tolerance: 1e-10,
            max_iterations: 600,
        };
        let f64_run = pcg(&shifted, &b, &ulv, &opts).unwrap();
        let demoted = ulv.to_f32();
        let f32_run = pcg(&shifted, &b, &demoted, &opts).unwrap();
        assert!(f32_run.converged, "history {:?}", f32_run.residual_history);
        // Demotion error acts like extra looseness: bounded iteration
        // growth, identical final accuracy (both hit the same tolerance on
        // the same exact operator).
        assert!(
            f32_run.iterations <= f64_run.iterations + f64_run.iterations / 2 + 2,
            "f32 factors {} vs f64 factors {} iterations",
            f32_run.iterations,
            f64_run.iterations
        );
        let max_diff = f64_run
            .x
            .iter()
            .zip(f32_run.x.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(max_diff < 1e-7, "solution drift {max_diff}");
    }

    #[test]
    fn apply_rejects_mismatched_buffers() {
        let (_, _, ulv) = setup(128, 1e-2);
        let r = vec![1.0; 128];
        let mut z = vec![0.0; 64];
        assert!(ulv.apply(&r, &mut z).is_err());
    }
}
