//! # hkrr-hmatrix
//!
//! H-matrices with strong admissibility and ACA compression.
//!
//! Contrary to HSS (which compresses *every* off-diagonal block — weak
//! admissibility), the H format only compresses blocks whose clusters are
//! geometrically well separated (strong admissibility, Figure 4 of the
//! paper).  Construction and matrix-vector products are cheap
//! (quasi-linear), but inversion is expensive — which is why the paper uses
//! the H matrix **only as a fast sampler** to accelerate the randomized HSS
//! construction, never as the solver.
//!
//! The pieces:
//!
//! * [`admissibility`] — cluster bounding boxes, diameters and distances,
//!   and the strong admissibility condition,
//! * [`aca`] — adaptive cross approximation with partial pivoting, the
//!   low-rank compressor for admissible blocks (the "hybrid-ACA scheme" of
//!   Section 3.2),
//! * [`build`](build::build_hmatrix) — the block cluster tree traversal that
//!   assembles the format,
//! * [`HMatrix`] — the assembled structure with parallel matvec, memory and
//!   rank statistics, usable as a [`hkrr_linalg::LinearOperator`] sampler.

pub mod aca;
pub mod admissibility;
pub mod build;

pub use aca::{aca_compress, AcaOptions};
pub use admissibility::{BoundingBox, ClusterGeometry};
pub use build::{build_hmatrix, HOptions};

use hkrr_linalg::{blas, LinearOperator, LowRank, Matrix};
use rayon::prelude::*;

/// One block of the H-matrix partition.
#[derive(Debug, Clone)]
pub enum HBlockKind {
    /// A dense (inadmissible, leaf-level) block.
    Dense(Matrix),
    /// A low-rank (admissible) block stored as `U V^T`.
    LowRank(LowRank),
}

/// A block of the H-matrix, owning the half-open row and column ranges it
/// covers (in the permuted index space).
#[derive(Debug, Clone)]
pub struct HBlock {
    /// Row range covered by this block.
    pub rows: std::ops::Range<usize>,
    /// Column range covered by this block.
    pub cols: std::ops::Range<usize>,
    /// Block payload.
    pub kind: HBlockKind,
}

impl HBlock {
    /// Memory footprint of the block payload in bytes.
    pub fn memory_bytes(&self) -> usize {
        match &self.kind {
            HBlockKind::Dense(m) => m.memory_bytes(),
            HBlockKind::LowRank(lr) => lr.memory_bytes(),
        }
    }

    /// Rank of the block (full for dense blocks).
    pub fn rank(&self) -> usize {
        match &self.kind {
            HBlockKind::Dense(m) => m.nrows().min(m.ncols()),
            HBlockKind::LowRank(lr) => lr.rank(),
        }
    }
}

/// Summary statistics of an assembled H-matrix.
#[derive(Debug, Clone)]
pub struct HStats {
    /// Matrix dimension.
    pub dim: usize,
    /// Total memory of all blocks in bytes.
    pub memory_bytes: usize,
    /// Total memory in MB.
    pub memory_mb: f64,
    /// Number of dense (inadmissible) blocks.
    pub num_dense_blocks: usize,
    /// Number of low-rank (admissible) blocks.
    pub num_lowrank_blocks: usize,
    /// Largest rank among the low-rank blocks.
    pub max_block_rank: usize,
}

/// An assembled H-matrix.
#[derive(Debug, Clone)]
pub struct HMatrix {
    n: usize,
    blocks: Vec<HBlock>,
}

impl HMatrix {
    /// Creates an H-matrix from its blocks (used by the builder).
    pub(crate) fn from_blocks(n: usize, blocks: Vec<HBlock>) -> Self {
        HMatrix { n, blocks }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The blocks of the partition.
    pub fn blocks(&self) -> &[HBlock] {
        &self.blocks
    }

    /// Total memory of the representation in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.blocks.iter().map(HBlock::memory_bytes).sum()
    }

    /// Total memory in megabytes.
    pub fn memory_mb(&self) -> f64 {
        self.memory_bytes() as f64 / (1024.0 * 1024.0)
    }

    /// Summary statistics.
    pub fn stats(&self) -> HStats {
        let mut dense = 0;
        let mut lowrank = 0;
        let mut max_rank = 0;
        for b in &self.blocks {
            match &b.kind {
                HBlockKind::Dense(_) => dense += 1,
                HBlockKind::LowRank(lr) => {
                    lowrank += 1;
                    max_rank = max_rank.max(lr.rank());
                }
            }
        }
        HStats {
            dim: self.n,
            memory_bytes: self.memory_bytes(),
            memory_mb: self.memory_mb(),
            num_dense_blocks: dense,
            num_lowrank_blocks: lowrank,
            max_block_rank: max_rank,
        }
    }

    /// `y = A x`, parallel over blocks.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "HMatrix::matvec: x length");
        assert_eq!(y.len(), self.n, "HMatrix::matvec: y length");
        // Each block produces a partial contribution on its own row range;
        // contributions are merged afterwards to keep the parallel part
        // write-disjoint.
        let partials: Vec<(usize, Vec<f64>)> = self
            .blocks
            .par_iter()
            .map(|b| {
                let xb = &x[b.cols.clone()];
                let mut yb = vec![0.0; b.rows.len()];
                match &b.kind {
                    HBlockKind::Dense(m) => blas::gemv(m, xb, &mut yb),
                    HBlockKind::LowRank(lr) => lr.matvec(xb, &mut yb),
                }
                (b.rows.start, yb)
            })
            .collect();
        for yi in y.iter_mut() {
            *yi = 0.0;
        }
        for (start, yb) in partials {
            for (off, v) in yb.iter().enumerate() {
                y[start + off] += v;
            }
        }
    }

    /// Expands the H-matrix into a dense matrix (tests / small `n`).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.n, self.n);
        for b in &self.blocks {
            let dense = match &b.kind {
                HBlockKind::Dense(m) => m.clone(),
                HBlockKind::LowRank(lr) => lr.to_dense(),
            };
            out.set_block(b.rows.start, b.cols.start, &dense);
        }
        out
    }
}

impl LinearOperator for HMatrix {
    fn nrows(&self) -> usize {
        self.n
    }

    fn ncols(&self) -> usize {
        self.n
    }

    fn entry(&self, i: usize, j: usize) -> f64 {
        for b in &self.blocks {
            if b.rows.contains(&i) && b.cols.contains(&j) {
                let li = i - b.rows.start;
                let lj = j - b.cols.start;
                return match &b.kind {
                    HBlockKind::Dense(m) => m[(li, lj)],
                    HBlockKind::LowRank(lr) => {
                        let mut x = vec![0.0; lr.ncols()];
                        x[lj] = 1.0;
                        let mut y = vec![0.0; lr.nrows()];
                        lr.matvec(&x, &mut y);
                        y[li]
                    }
                };
            }
        }
        0.0
    }

    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        HMatrix::matvec(self, x, y);
    }

    fn rmatvec(&self, x: &[f64], y: &mut [f64]) {
        // The kernel matrices compressed here are symmetric and the block
        // partition is symmetric too, so A^T x = A x.
        HMatrix::matvec(self, x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_hmatrix, HOptions};
    use hkrr_clustering::{cluster, ClusteringMethod};
    use hkrr_kernel::{KernelFunction, KernelMatrix};
    use hkrr_linalg::random::Pcg64;

    fn gaussian_cloud(n: usize, d: usize, seed: u64) -> Matrix {
        // Four well-separated blobs so that the block cluster tree contains
        // admissible (compressible) pairs.
        let mut rng = Pcg64::seed_from_u64(seed);
        Matrix::from_fn(n, d, |i, _| ((i % 4) as f64) * 8.0 + rng.next_gaussian())
    }

    fn build_test(n: usize, tol: f64) -> (KernelMatrix, HMatrix) {
        let points = gaussian_cloud(n, 3, 1);
        let ordering = cluster(&points, ClusteringMethod::TwoMeans { seed: 5 }, 16);
        let permuted = points.select_rows(ordering.permutation());
        let km = KernelMatrix::new(permuted.clone(), KernelFunction::gaussian(1.0));
        let h = build_hmatrix(
            &km,
            &permuted,
            ordering.tree(),
            &HOptions {
                tolerance: tol,
                ..Default::default()
            },
        );
        (km, h)
    }

    #[test]
    fn hmatrix_reproduces_kernel_matrix() {
        let (km, h) = build_test(300, 1e-7);
        let dense = km.assemble_dense();
        let err = blas::relative_error(&dense, &h.to_dense());
        assert!(err < 1e-5, "H reconstruction error {err}");
    }

    #[test]
    fn matvec_matches_dense() {
        let (km, h) = build_test(256, 1e-7);
        let dense = km.assemble_dense();
        let mut rng = Pcg64::seed_from_u64(2);
        let x: Vec<f64> = (0..256).map(|_| rng.next_gaussian()).collect();
        let mut y_h = vec![0.0; 256];
        let mut y_ref = vec![0.0; 256];
        h.matvec(&x, &mut y_h);
        blas::gemv(&dense, &x, &mut y_ref);
        let err = y_h
            .iter()
            .zip(y_ref.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
            / blas::nrm2(&y_ref);
        assert!(err < 1e-5, "matvec error {err}");
    }

    #[test]
    fn blocks_partition_the_matrix_exactly() {
        let (_, h) = build_test(200, 1e-4);
        // Every (i, j) must be covered by exactly one block.
        let mut coverage = vec![0u8; 200 * 200];
        for b in h.blocks() {
            for i in b.rows.clone() {
                for j in b.cols.clone() {
                    coverage[i * 200 + j] += 1;
                }
            }
        }
        assert!(coverage.iter().all(|&c| c == 1));
    }

    #[test]
    fn stats_count_blocks_and_memory() {
        let (km, h) = build_test(300, 1e-4);
        let s = h.stats();
        assert_eq!(s.dim, 300);
        assert!(s.num_dense_blocks > 0);
        assert!(s.num_lowrank_blocks > 0, "expected admissible blocks");
        assert_eq!(s.memory_bytes, h.memory_bytes());
        assert!(s.memory_bytes < km.assemble_dense().memory_bytes());
    }

    #[test]
    fn operator_interface_entry_and_matmat() {
        let (km, h) = build_test(150, 1e-7);
        let dense = km.assemble_dense();
        for &(i, j) in &[(0, 0), (10, 140), (75, 20)] {
            assert!((LinearOperator::entry(&h, i, j) - dense[(i, j)]).abs() < 1e-4);
        }
        let mut rng = Pcg64::seed_from_u64(3);
        let x = hkrr_linalg::random::gaussian_matrix(&mut rng, 150, 4);
        let y = LinearOperator::matmat(&h, &x);
        let y_ref = blas::matmul(&dense, &x);
        assert!(blas::relative_error(&y_ref, &y) < 1e-5);
    }

    #[test]
    fn looser_tolerance_uses_less_memory() {
        let (_, h_tight) = build_test(300, 1e-9);
        let (_, h_loose) = build_test(300, 1e-2);
        assert!(h_loose.memory_bytes() <= h_tight.memory_bytes());
    }
}
