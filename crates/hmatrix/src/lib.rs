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
//! * [`HMatrix`] — the assembled structure with parallel products, memory
//!   and rank statistics, usable as a [`hkrr_linalg::LinearOperator`]
//!   sampler. Its products go block at a time: `matvec` streams every
//!   block once per vector, and `matmat` streams every block once for the
//!   whole block of sample columns, not once per column.

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
///
/// Products go block at a time. [`HMatrix::matvec`] computes each block's
/// partial product in parallel and adds the partials to a zeroed output in
/// block order. `matmat` (the [`LinearOperator`] override) forms
/// `T_b = V_b^T X_b` once per low-rank block, then runs row segments cut at
/// every block row boundary in parallel, each adding its blocks' rows in
/// block order; every column equals `matvec` of that column bit for bit.
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

    /// `Y = A X`, streaming every block once for all columns of `X`.
    ///
    /// Entry `(i, c)` gets [`HMatrix::matvec`]'s arithmetic for column `c`:
    /// each block's partial (`gemv`'s ascending dot for a dense block,
    /// `U (V^T x)` for a low-rank one) is added to a zeroed output in block
    /// order. Besides index lists and one row of scratch per segment, the
    /// only buffers are the `T_b = V_b^T X_b` and the output.
    fn matmat(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.nrows(), self.n, "HMatrix::matmat: dimension mismatch");
        let width = x.ncols();
        let mut y = Matrix::zeros(self.n, width);
        if width == 0 || self.n == 0 {
            return y;
        }
        // T_b = V_b^T X_b, summed like gemv_t: over ascending rows of V_b.
        let reduced: Vec<Option<Matrix>> = self
            .blocks
            .par_iter()
            .map(|b| match &b.kind {
                HBlockKind::LowRank(lr) if lr.rank() > 0 => {
                    let mut t = Matrix::zeros(lr.rank(), width);
                    for i in 0..lr.v.nrows() {
                        let x_row = x.row(b.cols.start + i);
                        for (k, &vik) in lr.v.row(i).iter().enumerate() {
                            accumulate_row(t.row_mut(k), vik, x_row);
                        }
                    }
                    Some(t)
                }
                _ => None,
            })
            .collect();

        // Row segments: cut at every block row boundary, so each block
        // covers whole segments; list each segment's blocks in block order.
        let mut cuts: Vec<usize> = std::iter::once(0)
            .chain(self.blocks.iter().flat_map(|b| [b.rows.start, b.rows.end]))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); cuts.len() - 1];
        for (id, b) in self.blocks.iter().enumerate() {
            let first = cuts.partition_point(|&c| c < b.rows.start);
            let last = cuts.partition_point(|&c| c < b.rows.end);
            for segment in &mut members[first..last] {
                segment.push(id);
            }
        }
        let mut segments: Vec<(usize, &mut [f64], &[usize])> = Vec::with_capacity(members.len());
        let mut rest = y.data_mut();
        for (bounds, ids) in cuts.windows(2).zip(&members) {
            let (head, tail) = rest.split_at_mut((bounds[1] - bounds[0]) * width);
            segments.push((bounds[0], head, ids));
            rest = tail;
        }

        // Each output row gets its blocks' partial rows (gemv's ascending dot
        // per column) added in block order, like matvec's merge.
        segments.par_iter_mut().for_each(|(start, y_seg, ids)| {
            let mut partial = vec![0.0; width];
            for &id in ids.iter() {
                let b = &self.blocks[id];
                // Dense: D · X_b, X_b starting at row `cols.start` of X.
                // Low-rank: U · T_b.
                let (coeffs, rhs, rhs_row0) = match (&b.kind, &reduced[id]) {
                    (HBlockKind::Dense(d), _) => (d, x, b.cols.start),
                    (HBlockKind::LowRank(lr), Some(t)) => (&lr.u, t, 0),
                    // A rank-0 block's partial is exactly zero.
                    (HBlockKind::LowRank(_), None) => continue,
                };
                for (off, y_row) in y_seg.chunks_exact_mut(width).enumerate() {
                    partial.fill(0.0);
                    let li = *start + off - b.rows.start;
                    for (k, &a) in coeffs.row(li).iter().enumerate() {
                        accumulate_row(&mut partial, a, rhs.row(rhs_row0 + k));
                    }
                    for (yc, &pc) in y_row.iter_mut().zip(&partial) {
                        *yc += pc;
                    }
                }
            }
        });
        y
    }
}

/// `acc[c] += a * x[c]`.
fn accumulate_row(acc: &mut [f64], a: f64, x: &[f64]) {
    for (p, &xc) in acc.iter_mut().zip(x) {
        *p += a * xc;
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

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn matmat_columns_equal_matvec_bitwise() {
        // Leaves of 3 points give more than 128 row segments: enough for
        // the parallel split, which keeps at least 64 items per worker.
        let n = 420;
        let points = gaussian_cloud(n, 3, 6);
        let ordering = cluster(&points, ClusteringMethod::TwoMeans { seed: 8 }, 3);
        let permuted = points.select_rows(ordering.permutation());
        let km = KernelMatrix::new(permuted.clone(), KernelFunction::gaussian(1.0));
        let built = build_hmatrix(&km, &permuted, ordering.tree(), &HOptions::default());
        // Replace one low-rank block by a rank-0 block.
        let mut blocks = built.blocks().to_vec();
        let zeroed = blocks
            .iter()
            .position(|b| matches!(b.kind, HBlockKind::LowRank(_)))
            .expect("a low-rank block");
        let (rows, cols) = (blocks[zeroed].rows.len(), blocks[zeroed].cols.len());
        blocks[zeroed].kind = HBlockKind::LowRank(LowRank::zero(rows, cols));
        let h = HMatrix::from_blocks(n, blocks);
        let s = h.stats();
        assert!(s.num_dense_blocks > 0 && s.num_lowrank_blocks > 1 && s.max_block_rank > 0);
        let mut starts: Vec<usize> = h.blocks().iter().map(|b| b.rows.start).collect();
        starts.sort_unstable();
        starts.dedup();
        assert!(starts.len() > 128, "{} row segments", starts.len());

        let mut rng = Pcg64::seed_from_u64(7);
        let mut x = hkrr_linalg::random::gaussian_matrix(&mut rng, n, 6);
        for i in (0..n).step_by(5) {
            x[(i, 2)] = 0.0;
        }
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let y_seq = one.install(|| LinearOperator::matmat(&h, &x));
        let y_par = LinearOperator::matmat(&h, &x);
        assert_eq!(y_par.shape(), (n, 6));
        assert_eq!(bits(y_seq.data()), bits(y_par.data()));
        for c in 0..x.ncols() {
            let mut yc = vec![f64::NAN; n];
            h.matvec(&x.col(c), &mut yc);
            assert_eq!(bits(&y_par.col(c)), bits(&yc), "column {c}");
        }
    }

    #[test]
    fn matmat_of_an_empty_block_is_empty() {
        let (_, h) = build_test(120, 1e-4);
        let y = LinearOperator::matmat(&h, &Matrix::zeros(120, 0));
        assert_eq!(y.shape(), (120, 0));
    }

    #[test]
    fn looser_tolerance_uses_less_memory() {
        let (_, h_tight) = build_test(300, 1e-9);
        let (_, h_loose) = build_test(300, 1e-2);
        assert!(h_loose.memory_bytes() <= h_tight.memory_bytes());
    }
}
