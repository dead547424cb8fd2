//! Randomized HSS construction (Martinsson 2011), the algorithm STRUMPACK
//! uses for its partially matrix-free interface.
//!
//! The construction needs two things from the input matrix:
//!
//! 1. products `S = A R` with a block of random vectors — provided by the
//!    `sampler` operator, which may be the exact kernel operator (`O(n²)`
//!    per sample block) or a cheaper surrogate such as the H-matrix
//!    approximation (the paper's accelerated sampling), and
//! 2. access to selected entries `A(I, J)` — provided by the `entries`
//!    operator (for kernel matrices these are closed-form evaluations).
//!
//! The HSS rank is detected adaptively: if the interpolative decompositions
//! saturate the available sample columns, the construction restarts with
//! twice as many random vectors (up to a cap). A pass that will restart
//! (one below the cap) stops at the first level where a node saturates:
//! its nodes are discarded, so the levels above it would be wasted work.
//! The random block depends only on the sample count, so the final pass
//! is the same whatever the earlier passes did.
//!
//! The bottom-up pass is **level-parallel**: all nodes of one tree level
//! only read results their children produced on deeper levels, so each
//! level is compressed concurrently (one scoped worker per node, scratch
//! kept per-node). Per-node arithmetic is unchanged from the sequential
//! schedule, so the result is bitwise identical for every thread count.

use crate::{HssMatrix, HssNodeData};
use hkrr_clustering::ClusterTree;
use hkrr_linalg::low_rank::interpolative_decomposition;
use hkrr_linalg::random::{gaussian_matrix, Pcg64};
use hkrr_linalg::{LinearOperator, Matrix};
use rayon::prelude::*;
use std::time::Instant;

/// Options controlling the randomized HSS construction.
#[derive(Debug, Clone, Copy)]
pub struct HssOptions {
    /// Relative compression tolerance for the interpolative decompositions
    /// (the paper's classification experiments use `0.1`; the library
    /// default is tighter).
    pub tolerance: f64,
    /// Number of random sample vectors to start with.
    pub initial_samples: usize,
    /// Extra sample vectors beyond the detected rank (oversampling).
    pub oversampling: usize,
    /// Upper bound on the number of random vectors before giving up on
    /// adaptation (the representation is still returned, with saturated
    /// ranks).
    pub max_samples: usize,
    /// Hard cap on the rank of any node (0 = unlimited).
    pub max_rank: usize,
    /// Seed for the random sample block.
    pub seed: u64,
}

impl Default for HssOptions {
    fn default() -> Self {
        HssOptions {
            tolerance: 1e-6,
            initial_samples: 32,
            oversampling: 10,
            max_samples: 1024,
            max_rank: 0,
            seed: 0x5eed,
        }
    }
}

impl HssOptions {
    /// The looser tolerance the paper uses for classification runs
    /// ("STRUMPACK tolerance set to be at most 0.1").
    pub fn classification() -> Self {
        HssOptions {
            tolerance: 1e-2,
            ..HssOptions::default()
        }
    }
}

/// Statistics recorded while building an [`HssMatrix`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstructionStats {
    /// Seconds spent in the sampling products `S = A R` (the part the
    /// H-matrix accelerates — the "Sampling" row of Table 4).
    pub sampling_seconds: f64,
    /// Seconds spent in everything else (IDs, entry extraction, assembly —
    /// the "Other" row of Table 4), over all passes. A pass that will
    /// restart stops at its first saturated level, so it counts only the
    /// levels up to that one.
    pub other_seconds: f64,
    /// Number of random vectors in the final (successful) pass.
    pub samples_used: usize,
    /// Number of times the construction restarted with more samples.
    pub restarts: usize,
}

/// Errors from HSS construction.
#[derive(Debug, Clone, PartialEq)]
pub enum HssError {
    /// The operator is not square or does not match the cluster tree.
    DimensionMismatch(String),
    /// A linear-algebra kernel failed (should not happen for finite input).
    Numerical(String),
}

impl std::fmt::Display for HssError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HssError::DimensionMismatch(s) => write!(f, "HSS dimension mismatch: {s}"),
            HssError::Numerical(s) => write!(f, "HSS numerical failure: {s}"),
        }
    }
}

impl std::error::Error for HssError {}

/// Per-node scratch state threaded through the bottom-up pass.
struct NodeScratch {
    /// Reduced random block `X^T R(I, :)` restricted to this node.
    reduced_r: Matrix,
    /// Off-diagonal sample rows restricted to the skeleton.
    reduced_s: Matrix,
}

/// Builds the symmetric HSS representation of `entries` over `tree`.
///
/// `entries` supplies matrix elements, `sampler` supplies the random
/// products; pass the same operator twice when no accelerated sampler is
/// available.
pub fn compress_symmetric(
    entries: &dyn LinearOperator,
    sampler: &dyn LinearOperator,
    tree: ClusterTree,
    opts: &HssOptions,
) -> Result<HssMatrix, HssError> {
    let n = entries.nrows();
    if entries.ncols() != n {
        return Err(HssError::DimensionMismatch(format!(
            "entries operator is {}x{}, expected square",
            entries.nrows(),
            entries.ncols()
        )));
    }
    if sampler.nrows() != n || sampler.ncols() != n {
        return Err(HssError::DimensionMismatch(format!(
            "sampler is {}x{}, expected {n}x{n}",
            sampler.nrows(),
            sampler.ncols()
        )));
    }
    if tree.root_size() != n {
        return Err(HssError::DimensionMismatch(format!(
            "cluster tree covers {} indices, operator has {n}",
            tree.root_size()
        )));
    }

    let mut stats = ConstructionStats::default();
    let mut num_samples = (opts.initial_samples + opts.oversampling).min(n.max(1));
    let cap = opts.max_samples.min(n);

    loop {
        let mut rng = Pcg64::seed_from_u64(opts.seed ^ (num_samples as u64).wrapping_mul(0x9e37));
        let r = gaussian_matrix(&mut rng, n, num_samples);

        let t_sample = Instant::now();
        let s = sampler.matmat(&r);
        stats.sampling_seconds += t_sample.elapsed().as_secs_f64();

        let t_other = Instant::now();
        // Below the cap a saturated pass is discarded for a restart, so it
        // may stop at its first saturated level.
        let result = build_pass(entries, &tree, &r, &s, opts, num_samples, num_samples < cap);
        stats.other_seconds += t_other.elapsed().as_secs_f64();

        match result {
            PassResult::Done(nodes) => {
                stats.samples_used = num_samples;
                return Ok(HssMatrix {
                    tree,
                    nodes,
                    n,
                    diagonal_shift: 0.0,
                    construction: stats,
                });
            }
            PassResult::Saturated(nodes) => {
                if num_samples >= cap {
                    // Cannot add more samples; accept the (possibly
                    // rank-truncated) representation.
                    stats.samples_used = num_samples;
                    return Ok(HssMatrix {
                        tree,
                        nodes,
                        n,
                        diagonal_shift: 0.0,
                        construction: stats,
                    });
                }
                stats.restarts += 1;
                num_samples = (num_samples * 2).min(cap);
            }
        }
    }
}

enum PassResult {
    Done(Vec<HssNodeData>),
    /// Some node saturated its samples. The nodes are complete only if the
    /// pass was asked to run to the end.
    Saturated(Vec<HssNodeData>),
}

/// One bottom-up pass over `tree` with the sample block `r` and its product
/// `s`. With `stop_at_saturation` it returns after the first level at which
/// a node saturates, leaving the levels above it empty.
fn build_pass(
    entries: &dyn LinearOperator,
    tree: &ClusterTree,
    r: &Matrix,
    s: &Matrix,
    opts: &HssOptions,
    num_samples: usize,
    stop_at_saturation: bool,
) -> PassResult {
    let num_nodes = tree.num_nodes();
    let mut nodes: Vec<HssNodeData> = (0..num_nodes).map(|_| HssNodeData::empty()).collect();
    let mut scratch: Vec<Option<NodeScratch>> = (0..num_nodes).map(|_| None).collect();
    let mut saturated = false;
    let root = tree.root();

    // A single-node tree stores the whole matrix as one dense block.
    if tree.num_nodes() == 1 {
        let idx: Vec<usize> = (0..tree.root_size()).collect();
        nodes[root].d = Some(entries.sub_block(&idx, &idx));
        return PassResult::Done(nodes);
    }

    // Bottom-up, one level at a time. Every node of a level depends only on
    // its children (compressed on a deeper level), so the whole level is
    // compressed concurrently; results are scattered sequentially, then the
    // consumed child scratch is released.
    for (depth, level) in tree.levels().iter().enumerate().rev() {
        let mut level_span = hkrr_telemetry::span!("hss.compress_level");
        level_span.annotate("depth", depth);
        level_span.annotate("nodes", level.len());
        let results: Vec<(usize, HssNodeData, Option<NodeScratch>, bool)> = level
            .par_iter()
            .with_min_len(1)
            .map(|&id| {
                let (data, scr, sat) = compress_node(
                    entries,
                    tree,
                    id,
                    id == root,
                    r,
                    s,
                    opts,
                    num_samples,
                    &nodes,
                    &scratch,
                );
                (id, data, scr, sat)
            })
            .collect();
        for (id, data, scr, sat) in results {
            saturated |= sat;
            nodes[id] = data;
            scratch[id] = scr;
        }
        if saturated && stop_at_saturation {
            return PassResult::Saturated(nodes);
        }
        for &id in level {
            let node = tree.node(id);
            if let (Some(c1), Some(c2)) = (node.left, node.right) {
                scratch[c1] = None;
                scratch[c2] = None;
            }
        }
    }

    if saturated {
        PassResult::Saturated(nodes)
    } else {
        PassResult::Done(nodes)
    }
}

/// Compresses one node from its children's results (already in `nodes` /
/// `scratch`). Pure with respect to the shared state, so all nodes of a
/// level can run concurrently. Returns the node payload, the scratch its
/// parent will consume, and whether the ID saturated the sample budget.
fn compress_node(
    entries: &dyn LinearOperator,
    tree: &ClusterTree,
    id: usize,
    is_root: bool,
    r: &Matrix,
    s: &Matrix,
    opts: &HssOptions,
    num_samples: usize,
    nodes: &[HssNodeData],
    scratch: &[Option<NodeScratch>],
) -> (HssNodeData, Option<NodeScratch>, bool) {
    let node = tree.node(id);
    let mut out = HssNodeData::empty();
    let mut saturated = false;

    if node.is_leaf() {
        let idx: Vec<usize> = node.range().collect();
        let d = entries.sub_block(&idx, &idx);
        let r_loc = r.select_rows(&idx);
        let s_rows = s.select_rows(&idx);
        // Off-diagonal sample: subtract the diagonal block's contribution.
        let s_loc = s_rows.sub(&hkrr_linalg::blas::matmul(&d, &r_loc));

        let (sel, x) = row_id(&s_loc, opts.tolerance, opts.max_rank);
        let k = sel.len();
        if k + 2 >= num_samples && k < idx.len() {
            saturated = true;
        }
        let skeleton: Vec<usize> = sel.iter().map(|&p| idx[p]).collect();
        let reduced_r = hkrr_linalg::blas::matmul_tn(&x, &r_loc);
        let reduced_s = s_loc.select_rows(&sel);

        out.d = Some(d);
        out.u = Some(x);
        out.rank = k;
        out.skeleton = skeleton;
        (
            out,
            Some(NodeScratch {
                reduced_r,
                reduced_s,
            }),
            saturated,
        )
    } else {
        let c1 = node.left.expect("internal node has two children");
        let c2 = node.right.expect("internal node has two children");
        let skel1 = &nodes[c1].skeleton;
        let skel2 = &nodes[c2].skeleton;
        let b12 = entries.sub_block(skel1, skel2);
        let b21 = b12.transpose();

        if is_root {
            out.b12 = Some(b12);
            out.b21 = Some(b21);
            return (out, None, false);
        }

        let s1 = scratch[c1].as_ref().expect("child scratch missing");
        let s2 = scratch[c2].as_ref().expect("child scratch missing");
        // Remove the sibling coupling from the children's samples so the
        // local sample only sees the exterior of this node.
        let top = s1
            .reduced_s
            .sub(&hkrr_linalg::blas::matmul(&b12, &s2.reduced_r));
        let bottom = s2
            .reduced_s
            .sub(&hkrr_linalg::blas::matmul(&b21, &s1.reduced_r));
        let s_loc = top.vstack(&bottom);

        let (sel, x) = row_id(&s_loc, opts.tolerance, opts.max_rank);
        let k = sel.len();
        if k + 2 >= num_samples && k < s_loc.nrows() {
            saturated = true;
        }
        let k1 = nodes[c1].rank;
        let skeleton: Vec<usize> = sel
            .iter()
            .map(|&p| if p < k1 { skel1[p] } else { skel2[p - k1] })
            .collect();
        let merged_r = s1.reduced_r.vstack(&s2.reduced_r);
        let reduced_r = hkrr_linalg::blas::matmul_tn(&x, &merged_r);
        let reduced_s = s_loc.select_rows(&sel);

        out.b12 = Some(b12);
        out.b21 = Some(b21);
        out.u = Some(x);
        out.rank = k;
        out.skeleton = skeleton;
        (
            out,
            Some(NodeScratch {
                reduced_r,
                reduced_s,
            }),
            saturated,
        )
    }
}

/// Row interpolative decomposition: `M ≈ X · M(rows, :)` with
/// `X(rows, :) = I`.
fn row_id(m: &Matrix, tol: f64, max_rank: usize) -> (Vec<usize>, Matrix) {
    let (rows, t) = interpolative_decomposition(&m.transpose(), tol, max_rank);
    (rows, t.transpose())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hkrr_clustering::{cluster, ClusteringMethod};
    use hkrr_linalg::blas;
    use hkrr_linalg::random::Pcg64;

    fn kernel_1d(n: usize, h: f64) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            let d = (i as f64 - j as f64) / n as f64;
            (-d * d / (2.0 * h * h)).exp()
        })
    }

    fn ordering(n: usize, leaf: usize) -> ClusterTree {
        let points = Matrix::from_fn(n, 1, |i, _| i as f64);
        cluster(&points, ClusteringMethod::Natural, leaf)
            .tree()
            .clone()
    }

    #[test]
    fn construction_reproduces_matrix_at_tolerance() {
        let n = 160;
        let a = kernel_1d(n, 0.08);
        let hss = compress_symmetric(&a, &a, ordering(n, 16), &HssOptions::default()).unwrap();
        let err = blas::relative_error(&a, &hss.to_dense());
        assert!(err < 1e-5, "reconstruction error {err}");
    }

    #[test]
    fn tighter_tolerance_gives_larger_rank_and_smaller_error() {
        let n = 200;
        let a = kernel_1d(n, 0.05);
        let loose = compress_symmetric(
            &a,
            &a,
            ordering(n, 16),
            &HssOptions {
                tolerance: 1e-2,
                ..Default::default()
            },
        )
        .unwrap();
        let tight = compress_symmetric(
            &a,
            &a,
            ordering(n, 16),
            &HssOptions {
                tolerance: 1e-9,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(tight.max_rank() >= loose.max_rank());
        let err_loose = blas::relative_error(&a, &loose.to_dense());
        let err_tight = blas::relative_error(&a, &tight.to_dense());
        assert!(err_tight <= err_loose);
        assert!(loose.memory_bytes() <= tight.memory_bytes());
    }

    #[test]
    fn adaptive_sampling_restarts_when_undersampled() {
        // Start with very few samples on a matrix whose HSS rank exceeds
        // them; the construction must restart and still come out accurate.
        let n = 128;
        let a = kernel_1d(n, 0.02);
        let opts = HssOptions {
            tolerance: 1e-8,
            initial_samples: 4,
            oversampling: 2,
            max_samples: 256,
            ..Default::default()
        };
        let hss = compress_symmetric(&a, &a, ordering(n, 16), &opts).unwrap();
        assert!(hss.construction_stats().restarts >= 1);
        let err = blas::relative_error(&a, &hss.to_dense());
        assert!(err < 1e-5, "reconstruction error {err}");
    }

    fn matrix_bits(m: &Option<Matrix>) -> Option<(usize, usize, Vec<u64>)> {
        m.as_ref().map(|m| {
            (
                m.nrows(),
                m.ncols(),
                m.data().iter().map(|x| x.to_bits()).collect(),
            )
        })
    }

    fn assert_same_nodes(a: &HssMatrix, b: &HssMatrix) {
        assert_eq!(a.nodes().len(), b.nodes().len());
        for (id, (x, y)) in a.nodes().iter().zip(b.nodes()).enumerate() {
            assert_eq!(x.rank, y.rank, "node {id} rank");
            assert_eq!(x.skeleton, y.skeleton, "node {id} skeleton");
            assert_eq!(matrix_bits(&x.d), matrix_bits(&y.d), "node {id} D");
            assert_eq!(matrix_bits(&x.u), matrix_bits(&y.u), "node {id} U");
            assert_eq!(matrix_bits(&x.b12), matrix_bits(&y.b12), "node {id} B12");
            assert_eq!(matrix_bits(&x.b21), matrix_bits(&y.b21), "node {id} B21");
        }
    }

    #[test]
    fn restarted_construction_equals_a_first_pass_at_the_final_sample_count() {
        // The passes at 6 and 12 samples saturate, stop early and restart;
        // the pass at 24 samples is the final one. The random block depends
        // only on the sample count, so a construction that starts at 24
        // must produce the same nodes bit for bit.
        let n = 128;
        let a = kernel_1d(n, 0.02);
        let opts = HssOptions {
            tolerance: 1e-8,
            initial_samples: 4,
            oversampling: 2,
            max_samples: 256,
            ..Default::default()
        };
        let restarted = compress_symmetric(&a, &a, ordering(n, 16), &opts).unwrap();
        let st = *restarted.construction_stats();
        assert_eq!((st.restarts, st.samples_used), (2, 24));
        let direct = compress_symmetric(
            &a,
            &a,
            ordering(n, 16),
            &HssOptions {
                initial_samples: 24,
                oversampling: 0,
                ..opts
            },
        )
        .unwrap();
        let st_direct = direct.construction_stats();
        assert_eq!((st_direct.restarts, st_direct.samples_used), (0, 24));
        assert_same_nodes(&restarted, &direct);
    }

    #[test]
    fn a_pass_that_will_restart_stops_at_its_first_saturated_level() {
        let n = 128;
        let a = kernel_1d(n, 0.02);
        let tree = ordering(n, 16);
        let opts = HssOptions {
            tolerance: 1e-8,
            ..Default::default()
        };
        let samples = 6;
        let mut rng = Pcg64::seed_from_u64(9);
        let r = gaussian_matrix(&mut rng, n, samples);
        let s = a.matmat(&r);
        let (stopped, full) = match (
            build_pass(&a, &tree, &r, &s, &opts, samples, true),
            build_pass(&a, &tree, &r, &s, &opts, samples, false),
        ) {
            (PassResult::Saturated(x), PassResult::Saturated(y)) => (x, y),
            _ => panic!("6 samples must saturate"),
        };
        // The leaves saturate already: the stopped pass compressed them
        // (identically) and nothing above them.
        for (id, (x, y)) in stopped.iter().zip(&full).enumerate() {
            if tree.node(id).is_leaf() {
                assert_eq!(x.rank, y.rank, "leaf {id}");
                assert_eq!(matrix_bits(&x.u), matrix_bits(&y.u), "leaf {id}");
            } else {
                assert!(x.b12.is_none() && x.u.is_none(), "internal node {id}");
                assert!(y.b12.is_some(), "internal node {id}");
            }
        }
    }

    #[test]
    fn the_pass_at_the_sample_cap_runs_to_the_end() {
        // The cap (12 samples) is reached while still saturated: that pass
        // is kept, so it must compress every level up to the root.
        let n = 128;
        let a = kernel_1d(n, 0.02);
        let opts = HssOptions {
            tolerance: 1e-8,
            initial_samples: 4,
            oversampling: 2,
            max_samples: 12,
            ..Default::default()
        };
        let hss = compress_symmetric(&a, &a, ordering(n, 16), &opts).unwrap();
        let st = hss.construction_stats();
        assert_eq!((st.restarts, st.samples_used), (1, 12));
        let root = hss.tree().root();
        assert!(hss.node_data(root).b12.is_some());
        assert!(hss.to_dense().data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn separate_sampler_operator_is_used_for_products() {
        // Use a slightly perturbed sampler: the construction should still
        // produce an accurate representation of `entries` because the
        // skeleton blocks come from `entries`, and the sampler only guides
        // the basis selection (this is exactly the H-matrix trick).
        let n = 96;
        let a = kernel_1d(n, 0.1);
        let mut rng = Pcg64::seed_from_u64(3);
        let noise = Matrix::from_fn(n, n, |_, _| 1e-9 * rng.next_gaussian());
        let sampler = a.add(&noise.add(&noise.transpose()));
        let hss =
            compress_symmetric(&a, &sampler, ordering(n, 16), &HssOptions::default()).unwrap();
        let err = blas::relative_error(&a, &hss.to_dense());
        assert!(err < 1e-5, "reconstruction error {err}");
    }

    #[test]
    fn single_leaf_tree_stores_dense_block() {
        let n = 12;
        let a = kernel_1d(n, 0.5);
        let tree = ordering(n, 16);
        assert_eq!(tree.num_nodes(), 1);
        let hss = compress_symmetric(&a, &a, tree, &HssOptions::default()).unwrap();
        assert_eq!(hss.max_rank(), 0);
        assert!(blas::relative_error(&a, &hss.to_dense()) < 1e-12);
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let a = Matrix::identity(10);
        let b = Matrix::identity(12);
        let tree = ordering(10, 4);
        assert!(matches!(
            compress_symmetric(&a, &b, tree.clone(), &HssOptions::default()),
            Err(HssError::DimensionMismatch(_))
        ));
        let rect = Matrix::zeros(10, 8);
        assert!(matches!(
            compress_symmetric(&rect, &rect, tree.clone(), &HssOptions::default()),
            Err(HssError::DimensionMismatch(_))
        ));
        let wrong_tree = ordering(20, 4);
        assert!(matches!(
            compress_symmetric(&a, &a, wrong_tree, &HssOptions::default()),
            Err(HssError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn construction_stats_are_populated() {
        let n = 64;
        let a = kernel_1d(n, 0.2);
        let hss = compress_symmetric(&a, &a, ordering(n, 8), &HssOptions::default()).unwrap();
        let st = hss.construction_stats();
        assert!(st.samples_used >= 32);
        assert!(st.sampling_seconds >= 0.0);
        assert!(st.other_seconds >= 0.0);
    }

    #[test]
    fn identity_matrix_has_rank_zero_offdiagonals() {
        let n = 64;
        let a = Matrix::identity(n);
        let hss = compress_symmetric(&a, &a, ordering(n, 16), &HssOptions::default()).unwrap();
        assert_eq!(hss.max_rank(), 0);
        assert!(blas::relative_error(&a, &hss.to_dense()) < 1e-12);
    }

    #[test]
    fn classification_options_use_loose_tolerance() {
        let o = HssOptions::classification();
        assert!(o.tolerance >= 1e-2);
    }
}
