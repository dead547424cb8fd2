//! # hkrr-hss
//!
//! Hierarchically Semi-Separable (HSS) matrices: randomized construction,
//! matrix-vector products and ULV factorization/solve.
//!
//! This is the Rust counterpart of the STRUMPACK-HSS kernels the paper uses:
//!
//! * the HSS structure follows a binary [`hkrr_clustering::ClusterTree`]
//!   (diagonal blocks at the leaves, nested `U`/`V` bases and `B` coupling
//!   blocks at the internal nodes — Figures 2 and 3 of the paper),
//! * construction uses the **randomized sampling** algorithm of Martinsson
//!   (2011): it only needs products of the matrix with a block of random
//!   vectors plus access to selected entries — the *partially matrix-free*
//!   interface ([`hkrr_linalg::LinearOperator`]).  The sampling operator may
//!   be a different (cheaper) approximation of the same matrix, which is how
//!   the H-matrix accelerated sampling of the paper plugs in,
//! * the solve uses a **ULV factorization** (orthogonal elimination of the
//!   non-coupled rows, LU on the leftover blocks), not Sherman-Morrison-
//!   Woodbury, matching the paper's design choice,
//! * the `K + λI` diagonal shift of kernel ridge regression can be applied
//!   to an existing compressed matrix without recompression.
//!
//! Kernel matrices are symmetric, so the construction builds the symmetric
//! form (`V = U`, `B_{ji} = B_{ij}^T`); the public API asserts symmetry of
//! the input operator through a debug check on sampled entries.
//!
//! The ULV factor store is precision-parametric ([`FactorPrecision`]):
//! factorization always runs in f64, and [`UlvFactorization::to_f32`]
//! demotes the stored per-node factors for the preconditioner role. The
//! demotion changes storage only: both precisions run one solve sweep in
//! f64 arithmetic (the f32 store through widened kernels that read f32),
//! and the root LU stays f64 — see [`ulv`] and [`precond`] for the
//! contract.

#![warn(missing_docs)]

pub mod construct;
pub mod matvec;
pub mod precond;
pub mod stats;
pub mod ulv;

pub use construct::{ConstructionStats, HssOptions};
pub use stats::HssStats;
pub use ulv::{FactorPrecision, UlvFactorization, UlvNodeFactor, UlvNodeFactorF32};

use hkrr_clustering::ClusterTree;
use hkrr_linalg::Matrix;

/// Per-node payload of the HSS representation.
///
/// For a leaf: `d` is the dense diagonal block and `u` the `|I_i| x k_i`
/// row/column basis.  For an internal non-root node: `u` is the transfer
/// matrix `Ũ_i` of size `(k_{c1} + k_{c2}) x k_i`.  Internal nodes
/// (including the root) store the coupling blocks `b12 = B_{c1,c2}` and
/// `b21 = B_{c2,c1}` between their children.
#[derive(Debug, Clone)]
pub struct HssNodeData {
    /// Dense diagonal block (leaves only).
    pub d: Option<Matrix>,
    /// Leaf basis `U_i` or internal transfer matrix `Ũ_i` (absent at root).
    pub u: Option<Matrix>,
    /// Coupling block between the node's first and second child.
    pub b12: Option<Matrix>,
    /// Coupling block between the node's second and first child.
    pub b21: Option<Matrix>,
    /// Global (permuted) indices of the skeleton rows/columns selected by
    /// the interpolative decomposition at this node.
    pub skeleton: Vec<usize>,
    /// HSS rank of this node (`skeleton.len()`).
    pub rank: usize,
}

impl HssNodeData {
    fn empty() -> Self {
        HssNodeData {
            d: None,
            u: None,
            b12: None,
            b21: None,
            skeleton: Vec::new(),
            rank: 0,
        }
    }
}

/// A symmetric HSS matrix.
#[derive(Debug, Clone)]
pub struct HssMatrix {
    tree: ClusterTree,
    nodes: Vec<HssNodeData>,
    n: usize,
    diagonal_shift: f64,
    construction: ConstructionStats,
}

impl HssMatrix {
    /// Rebuilds a compressed matrix from its stored parts — the inverse of
    /// the [`HssMatrix::tree`] / [`HssMatrix::nodes`] /
    /// [`HssMatrix::diagonal_shift`] / [`HssMatrix::construction_stats`]
    /// accessors — validating the structure against the tree so a corrupted
    /// serialization cannot produce an inconsistent representation.
    pub fn from_parts(
        tree: ClusterTree,
        nodes: Vec<HssNodeData>,
        diagonal_shift: f64,
        construction: ConstructionStats,
    ) -> Result<Self, construct::HssError> {
        use construct::HssError;
        tree.validate().map_err(HssError::DimensionMismatch)?;
        if nodes.len() != tree.num_nodes() {
            return Err(HssError::DimensionMismatch(format!(
                "{} node payloads for a {}-node tree",
                nodes.len(),
                tree.num_nodes()
            )));
        }
        let n = tree.root_size();
        for (id, nd) in nodes.iter().enumerate() {
            let node = tree.node(id);
            if node.is_leaf() {
                match nd.d.as_ref() {
                    Some(d) if d.nrows() == node.size && d.ncols() == node.size => {}
                    Some(d) => {
                        return Err(HssError::DimensionMismatch(format!(
                            "leaf {id} diagonal block is {}x{}, node owns {} indices",
                            d.nrows(),
                            d.ncols(),
                            node.size
                        )))
                    }
                    None => {
                        return Err(HssError::DimensionMismatch(format!(
                            "leaf {id} is missing its diagonal block"
                        )))
                    }
                }
            }
            // Basis blocks: every non-root node needs one, sized so the
            // matvec sweeps cannot index out of bounds. (Single-node trees
            // have no basis at all.)
            if id != tree.root() {
                let expected_rows = if node.is_leaf() {
                    node.size
                } else {
                    let c1 = node.left.unwrap();
                    let c2 = node.right.unwrap();
                    nodes[c1].rank + nodes[c2].rank
                };
                match nd.u.as_ref() {
                    Some(u) if u.nrows() == expected_rows && u.ncols() == nd.rank => {}
                    Some(u) => {
                        return Err(HssError::DimensionMismatch(format!(
                            "node {id}: basis is {}x{}, expected {expected_rows}x{}",
                            u.nrows(),
                            u.ncols(),
                            nd.rank
                        )))
                    }
                    None => {
                        return Err(HssError::DimensionMismatch(format!(
                            "non-root node {id} is missing its basis"
                        )))
                    }
                }
            }
            if !node.is_leaf() {
                let c1 = node.left.unwrap();
                let c2 = node.right.unwrap();
                let (k1, k2) = (nodes[c1].rank, nodes[c2].rank);
                let b12_ok = nd
                    .b12
                    .as_ref()
                    .is_some_and(|b| b.nrows() == k1 && b.ncols() == k2);
                let b21_ok = nd
                    .b21
                    .as_ref()
                    .is_some_and(|b| b.nrows() == k2 && b.ncols() == k1);
                if !b12_ok || !b21_ok {
                    return Err(HssError::DimensionMismatch(format!(
                        "internal node {id}: coupling blocks missing or not {k1}x{k2} / {k2}x{k1}"
                    )));
                }
            }
            if nd.rank != nd.skeleton.len() {
                return Err(HssError::DimensionMismatch(format!(
                    "node {id}: rank {} disagrees with {} skeleton indices",
                    nd.rank,
                    nd.skeleton.len()
                )));
            }
            if nd.skeleton.iter().any(|&s| s >= n) {
                return Err(HssError::DimensionMismatch(format!(
                    "node {id}: skeleton index out of range 0..{n}"
                )));
            }
        }
        Ok(HssMatrix {
            tree,
            nodes,
            n,
            diagonal_shift,
            construction,
        })
    }

    /// Matrix dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Every node payload, indexed by cluster-tree node id.
    pub fn nodes(&self) -> &[HssNodeData] {
        &self.nodes
    }

    /// The cluster tree the representation is built on.
    pub fn tree(&self) -> &ClusterTree {
        &self.tree
    }

    /// Per-node data, indexed by cluster-tree node id.
    pub fn node_data(&self, id: usize) -> &HssNodeData {
        &self.nodes[id]
    }

    /// Statistics recorded during construction (sampling time, restarts,
    /// number of random vectors used).
    pub fn construction_stats(&self) -> &ConstructionStats {
        &self.construction
    }

    /// The diagonal shift `λ` currently applied (see
    /// [`HssMatrix::set_diagonal_shift`]).
    pub fn diagonal_shift(&self) -> f64 {
        self.diagonal_shift
    }

    /// Sets the diagonal shift `λ` so the matrix represents `K + λI`.
    ///
    /// Only the diagonal entries of the leaf blocks change; no
    /// recompression is performed — this is the cheap `λ` update the paper
    /// highlights for hyperparameter tuning.
    pub fn set_diagonal_shift(&mut self, lambda: f64) {
        let delta = lambda - self.diagonal_shift;
        if delta == 0.0 {
            return;
        }
        for id in 0..self.nodes.len() {
            if let Some(d) = self.nodes[id].d.as_mut() {
                d.shift_diagonal(delta);
            }
        }
        self.diagonal_shift = lambda;
    }

    /// Largest HSS rank over all nodes.
    pub fn max_rank(&self) -> usize {
        self.nodes.iter().map(|nd| nd.rank).max().unwrap_or(0)
    }

    /// Memory footprint (bytes) of all stored factors
    /// (`D_i`, `U_i`/`Ũ_i`, `B_{ij}`), the metric reported in Table 2 and
    /// Figures 5 and 7a of the paper.
    pub fn memory_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|nd| {
                nd.d.as_ref().map_or(0, Matrix::memory_bytes)
                    + nd.u.as_ref().map_or(0, Matrix::memory_bytes)
                    + nd.b12.as_ref().map_or(0, Matrix::memory_bytes)
                    + nd.b21.as_ref().map_or(0, Matrix::memory_bytes)
            })
            .sum()
    }

    /// Memory footprint in megabytes.
    pub fn memory_mb(&self) -> f64 {
        self.memory_bytes() as f64 / (1024.0 * 1024.0)
    }

    /// Summary statistics (memory, ranks, per-level breakdown).
    pub fn stats(&self) -> HssStats {
        HssStats::from_matrix(self)
    }

    /// Expands the representation into a dense matrix (tests / small `n`).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.n, self.n);
        let mut x = vec![0.0; self.n];
        let mut y = vec![0.0; self.n];
        for j in 0..self.n {
            x[j] = 1.0;
            self.matvec(&x, &mut y);
            out.set_col(j, &y);
            x[j] = 0.0;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hkrr_clustering::{cluster, ClusteringMethod};
    use hkrr_linalg::random::{gaussian_matrix, Pcg64};
    use hkrr_linalg::{blas, LinearOperator};

    /// Builds a symmetric test matrix with decaying off-diagonal blocks
    /// (a 1-D exponential kernel), which is exactly the structure HSS
    /// compresses well.
    fn test_kernel(n: usize, h: f64) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            let d = (i as f64 - j as f64) / n as f64;
            (-d * d / (2.0 * h * h)).exp()
        })
    }

    fn build(n: usize, tol: f64) -> (Matrix, HssMatrix) {
        let a = test_kernel(n, 0.1);
        let points = Matrix::from_fn(n, 1, |i, _| i as f64 / n as f64);
        let ordering = cluster(&points, ClusteringMethod::Natural, 16);
        let opts = HssOptions {
            tolerance: tol,
            ..HssOptions::default()
        };
        let hss = construct::compress_symmetric(&a, &a, ordering.tree().clone(), &opts).unwrap();
        (a, hss)
    }

    #[test]
    fn diagonal_shift_updates_leaf_blocks_only() {
        let (a, mut hss) = build(128, 1e-8);
        let base_mem = hss.memory_bytes();
        hss.set_diagonal_shift(3.0);
        assert_eq!(hss.diagonal_shift(), 3.0);
        assert_eq!(hss.memory_bytes(), base_mem, "shift must not change memory");
        let mut shifted = a.clone();
        shifted.shift_diagonal(3.0);
        let mut rng = Pcg64::seed_from_u64(1);
        let x: Vec<f64> = (0..128).map(|_| rng.next_gaussian()).collect();
        let mut y_hss = vec![0.0; 128];
        let mut y_ref = vec![0.0; 128];
        hss.matvec(&x, &mut y_hss);
        blas::gemv(&shifted, &x, &mut y_ref);
        let err: f64 = y_hss
            .iter()
            .zip(y_ref.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-5, "shifted matvec error {err}");
        // Shifting back restores the original matrix.
        hss.set_diagonal_shift(0.0);
        let mut y_back = vec![0.0; 128];
        hss.matvec(&x, &mut y_back);
        let mut y_orig = vec![0.0; 128];
        blas::gemv(&a, &x, &mut y_orig);
        let err: f64 = y_back
            .iter()
            .zip(y_orig.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-5);
    }

    #[test]
    fn memory_is_far_below_dense_for_compressible_matrix() {
        let (a, hss) = build(512, 1e-6);
        assert!(hss.memory_bytes() < a.memory_bytes() / 2);
        assert!(hss.max_rank() > 0);
        assert!(hss.max_rank() < 64);
    }

    #[test]
    fn to_dense_matches_original_within_tolerance() {
        let (a, hss) = build(96, 1e-8);
        let dense = hss.to_dense();
        assert!(blas::relative_error(&a, &dense) < 1e-6);
    }

    #[test]
    fn random_dense_matrix_compresses_to_full_rank() {
        // A random symmetric matrix has no low-rank structure: HSS should
        // still reproduce it (ranks saturate at the block sizes).
        let n = 64;
        let mut rng = Pcg64::seed_from_u64(5);
        let g = gaussian_matrix(&mut rng, n, n);
        let a = g.add(&g.transpose()).scaled(0.5);
        let points = Matrix::from_fn(n, 1, |i, _| i as f64);
        let ordering = cluster(&points, ClusteringMethod::Natural, 16);
        let opts = HssOptions {
            tolerance: 1e-12,
            ..HssOptions::default()
        };
        let hss = construct::compress_symmetric(&a, &a, ordering.tree().clone(), &opts).unwrap();
        assert!(blas::relative_error(&a, &hss.to_dense()) < 1e-8);
        assert!(hss.max_rank() >= 16);
    }

    #[test]
    fn from_parts_roundtrips_matvec_bitwise() {
        let (_, hss) = build(128, 1e-8);
        let rebuilt = HssMatrix::from_parts(
            hss.tree().clone(),
            hss.nodes().to_vec(),
            hss.diagonal_shift(),
            *hss.construction_stats(),
        )
        .unwrap();
        assert_eq!(rebuilt.dim(), hss.dim());
        assert_eq!(rebuilt.max_rank(), hss.max_rank());
        assert_eq!(rebuilt.memory_bytes(), hss.memory_bytes());
        let mut rng = Pcg64::seed_from_u64(11);
        let x: Vec<f64> = (0..128).map(|_| rng.next_gaussian()).collect();
        let mut y1 = vec![0.0; 128];
        let mut y2 = vec![0.0; 128];
        hss.matvec(&x, &mut y1);
        rebuilt.matvec(&x, &mut y2);
        assert_eq!(y1, y2, "rebuilt representation must be the same data");
    }

    #[test]
    fn from_parts_rejects_inconsistent_structure() {
        let (_, hss) = build(96, 1e-6);
        // Wrong node count.
        let mut short = hss.nodes().to_vec();
        short.pop();
        assert!(HssMatrix::from_parts(hss.tree().clone(), short, 0.0, Default::default()).is_err());
        // Leaf missing its diagonal block.
        let mut no_d = hss.nodes().to_vec();
        let leaf = hss.tree().leaves()[0];
        no_d[leaf].d = None;
        assert!(HssMatrix::from_parts(hss.tree().clone(), no_d, 0.0, Default::default()).is_err());
        // Rank / skeleton disagreement.
        let mut bad_rank = hss.nodes().to_vec();
        bad_rank[leaf].rank += 1;
        assert!(
            HssMatrix::from_parts(hss.tree().clone(), bad_rank, 0.0, Default::default()).is_err()
        );
    }

    #[test]
    fn operator_dimensions_and_accessors() {
        let (_, hss) = build(100, 1e-6);
        assert_eq!(hss.dim(), 100);
        assert_eq!(LinearOperator::nrows(&hss), 100);
        assert_eq!(LinearOperator::ncols(&hss), 100);
        assert!(hss.construction_stats().samples_used > 0);
        assert_eq!(hss.tree().root_size(), 100);
        let root = hss.tree().root();
        assert!(hss.node_data(root).b12.is_some());
    }
}
