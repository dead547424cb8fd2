//! ULV factorization and solve for symmetric HSS matrices.
//!
//! This is the solver STRUMPACK pairs with its HSS compression
//! (Chandrasekaran, Gu & Pals 2006): at every node an orthogonal transform
//! zeroes the rows of the basis `U_i`, which decouples `size − rank` local
//! unknowns from the rest of the system; those unknowns are eliminated with
//! a small LU, and the surviving `rank` unknowns are merged at the parent.
//! The root solves a single dense system of size `rank(c1) + rank(c2)`.
//! Both factorization and solve cost `O(r² n)` / `O(r n)`, which is what
//! makes the kernel ridge regression training step scale.
//!
//! The factorization is **level-parallel**: independent sibling subtrees
//! factor concurrently (each node only needs its children's factors), and
//! the top levels — where fewer nodes than workers remain — degrade to the
//! sequential schedule naturally. Per-node arithmetic is identical to the
//! sequential order, so factors are bitwise reproducible across thread
//! counts.
//!
//! # Mixed-precision factor store
//!
//! Factorization always runs in f64, but the *stored* factors are a
//! [`FactorPrecision`]-parametric store: [`UlvFactorization::to_f32`]
//! demotes every per-node solve-path block (transforms, coupling blocks,
//! eliminated LUs) to f32 and drops the factorization-only blocks
//! (`dtilde`, `uhat`) entirely — the solve sweeps never read them. Only
//! the tiny, globally coupled root LU stays f64. That more than halves
//! factor memory and memory bandwidth in the preconditioner-apply loop,
//! which the paper's tolerance-vs-accuracy study licenses when the
//! factorization is used only as a PCG preconditioner on the exact
//! operator (see [`crate::precond`]).
//!
//! Both precisions run one solve sweep. The f32 store feeds it through
//! widened kernels that read f32 storage but compute in f64
//! ([`MatrixF32::gemv_f64`], [`MatrixF32::gemv_t_f64`],
//! [`LuF32::solve_f64`]), so the apply stays an exact *linear* operator —
//! the property CG's recurrences rest on; only the factors' one-time
//! storage rounding separates it from the f64 preconditioner.

use crate::HssMatrix;
use hkrr_clustering::ClusterTree;
use hkrr_linalg::lu::{lu, Lu};
use hkrr_linalg::qr::full_qr;
use hkrr_linalg::{blas, dense_backend, LinalgError, LinalgResult, LuF32, Matrix, MatrixF32};
use rayon::prelude::*;

/// Storage precision of a ULV factor store.
///
/// `F64` is the precision factors are *computed* in and the default the
/// whole pipeline is bitwise-pinned on; `F32` is the demoted store produced
/// by [`UlvFactorization::to_f32`], intended for the preconditioner role
/// where the outer f64 iteration absorbs the demotion error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorPrecision {
    /// Double-precision factors (the default; bitwise-pinned behavior).
    F64,
    /// Single-precision factors: half the memory and bandwidth per apply.
    F32,
}

impl FactorPrecision {
    /// Stable lowercase name (`"f64"` / `"f32"`), used by config parsing,
    /// the codec info output and metric labels.
    pub fn as_str(self) -> &'static str {
        match self {
            FactorPrecision::F64 => "f64",
            FactorPrecision::F32 => "f32",
        }
    }

    /// Parses a precision name (case-insensitive).
    pub fn parse(name: &str) -> Option<FactorPrecision> {
        match name.to_ascii_lowercase().as_str() {
            "f64" => Some(FactorPrecision::F64),
            "f32" => Some(FactorPrecision::F32),
            _ => None,
        }
    }
}

impl std::fmt::Display for FactorPrecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Off-diagonal coupling block `(U₁ · B) · U₂ᵀ` through the dense backend,
/// without materializing `U₂ᵀ`.
fn coupling_block(u1: &Matrix, b: &Matrix, u2: &Matrix) -> Matrix {
    let be = dense_backend();
    let mut tmp = Matrix::zeros(u1.nrows(), b.ncols());
    be.gemm_into(u1, b, &mut tmp);
    let mut off = Matrix::zeros(tmp.nrows(), u2.nrows());
    be.gemm_nt_into(&tmp, u2, &mut off);
    off
}

/// Per-node data stored by the factorization. The fields are public so a
/// factorization can be serialized and rebuilt (via
/// [`UlvFactorization::from_parts`]) without re-eliminating anything.
#[derive(Debug, Clone)]
pub struct UlvNodeFactor {
    /// Orthogonal transform `W` (size `m x m`): local unknowns are
    /// `x_local = W w`.
    pub w: Matrix,
    /// Number of eliminated unknowns (`m - rank`).
    pub elim: usize,
    /// HSS rank of the node (number of unknowns passed to the parent).
    pub rank: usize,
    /// LU factorization of the leading `elim x elim` block.
    pub d11_lu: Option<Lu>,
    /// Top-right coupling block of the transformed diagonal block.
    pub d12: Matrix,
    /// Bottom-left coupling block of the transformed diagonal block.
    pub d21: Matrix,
    /// Schur complement passed to the parent (`rank x rank`).
    pub dtilde: Matrix,
    /// Reduced basis `Û` (`rank x rank`, upper triangular).
    pub uhat: Matrix,
}

/// Per-node data of a demoted (f32) factor store.
///
/// Deliberately narrower than [`UlvNodeFactor`]: `dtilde` and `uhat` exist
/// only to build the *parent* during factorization, which always runs in
/// f64 — a demoted store is solve-only, so they are dropped rather than
/// demoted.
#[derive(Debug, Clone)]
pub struct UlvNodeFactorF32 {
    /// Orthogonal transform `W` demoted to f32.
    pub w: MatrixF32,
    /// Number of eliminated unknowns (`m - rank`).
    pub elim: usize,
    /// HSS rank of the node.
    pub rank: usize,
    /// Demoted LU of the leading `elim x elim` block.
    pub d11_lu: Option<LuF32>,
    /// Top-right coupling block, demoted.
    pub d12: MatrixF32,
    /// Bottom-left coupling block, demoted.
    pub d21: MatrixF32,
}

impl UlvNodeFactorF32 {
    /// Demotes one node factor entrywise, dropping the
    /// factorization-only blocks.
    pub fn from_f64(f: &UlvNodeFactor) -> Self {
        UlvNodeFactorF32 {
            w: MatrixF32::from_f64(&f.w),
            elim: f.elim,
            rank: f.rank,
            d11_lu: f.d11_lu.as_ref().map(LuF32::from_lu),
            d12: MatrixF32::from_f64(&f.d12),
            d21: MatrixF32::from_f64(&f.d21),
        }
    }
}

/// The block kernels the solve sweep reads one node factor through.
///
/// The sweep ([`UlvFactorization::sweep`]) exists once; each store
/// precision supplies only how its blocks are applied.
trait SweepNode {
    /// Number of eliminated unknowns (`m - rank`).
    fn elim(&self) -> usize;
    /// Number of unknowns passed to the parent.
    fn rank(&self) -> usize;
    /// `y = Wᵀ x`.
    fn w_t_times(&self, x: &[f64], y: &mut [f64]);
    /// `y = W x`.
    fn w_times(&self, x: &[f64], y: &mut [f64]);
    /// `y = D₁₂ x`.
    fn d12_times(&self, x: &[f64], y: &mut [f64]);
    /// `y = D₂₁ x`.
    fn d21_times(&self, x: &[f64], y: &mut [f64]);
    /// `D₁₁⁻¹ b` through the eliminated block's LU (`elim > 0` only).
    fn d11_solve(&self, b: &[f64]) -> LinalgResult<Vec<f64>>;
}

impl SweepNode for UlvNodeFactor {
    fn elim(&self) -> usize {
        self.elim
    }
    fn rank(&self) -> usize {
        self.rank
    }
    fn w_t_times(&self, x: &[f64], y: &mut [f64]) {
        blas::gemv_t(&self.w, x, y);
    }
    fn w_times(&self, x: &[f64], y: &mut [f64]) {
        blas::gemv(&self.w, x, y);
    }
    fn d12_times(&self, x: &[f64], y: &mut [f64]) {
        blas::gemv(&self.d12, x, y);
    }
    fn d21_times(&self, x: &[f64], y: &mut [f64]) {
        blas::gemv(&self.d21, x, y);
    }
    fn d11_solve(&self, b: &[f64]) -> LinalgResult<Vec<f64>> {
        self.d11_lu.as_ref().unwrap().solve(b)
    }
}

/// The demoted store: every block is read from f32 storage, but **all
/// arithmetic is f64** through the widened kernels.
///
/// Computing this way matters for the PCG on top: the apply is then the
/// exact f64 ULV solve of the f32-*rounded* factorization — a fixed
/// linear operator whose distance from the f64 preconditioner is the
/// factors' one-time storage rounding, which behaves like a slightly
/// looser compression (a few extra iterations). Carrying the sweep
/// vectors in f32 instead makes every apply nonlinear at the 1e-7 level,
/// which breaks CG's recurrences and costs several times more iterations
/// on ill-conditioned systems.
impl SweepNode for UlvNodeFactorF32 {
    fn elim(&self) -> usize {
        self.elim
    }
    fn rank(&self) -> usize {
        self.rank
    }
    fn w_t_times(&self, x: &[f64], y: &mut [f64]) {
        self.w.gemv_t_f64(x, y);
    }
    fn w_times(&self, x: &[f64], y: &mut [f64]) {
        self.w.gemv_f64(x, y);
    }
    fn d12_times(&self, x: &[f64], y: &mut [f64]) {
        self.d12.gemv_f64(x, y);
    }
    fn d21_times(&self, x: &[f64], y: &mut [f64]) {
        self.d21.gemv_f64(x, y);
    }
    fn d11_solve(&self, b: &[f64]) -> LinalgResult<Vec<f64>> {
        self.d11_lu.as_ref().unwrap().solve_f64(b)
    }
}

/// The precision-parametric per-node factor storage behind
/// [`UlvFactorization`].
#[derive(Debug, Clone)]
enum FactorStore {
    F64(Vec<Option<UlvNodeFactor>>),
    F32(Vec<Option<UlvNodeFactorF32>>),
}

/// A ULV factorization of an [`HssMatrix`]; reusable for many right-hand
/// sides.
///
/// Always *computed* in f64; optionally *stored* in f32 via
/// [`UlvFactorization::to_f32`] (see the module docs). Every solve entry
/// point dispatches on [`UlvFactorization::precision`] internally, so
/// callers — including the [`crate::precond`] adapter — never branch.
#[derive(Debug, Clone)]
pub struct UlvFactorization {
    tree: ClusterTree,
    store: FactorStore,
    /// The root system's LU, f64 at both store precisions: the root
    /// carries the factorization's *global* coupling (and hence its worst
    /// conditioning), but is only `rank(c1)+rank(c2)` square — negligible
    /// memory next to the per-node blocks. Rounding it to f32 measurably
    /// degrades the preconditioner; keeping it costs nothing.
    root_lu: Lu,
    n: usize,
}

/// Shape summary of one stored node factor, shared by the f64 and f32
/// deserialization validators.
struct PartShape {
    elim: usize,
    rank: usize,
    w: (usize, usize),
    d11_dim: Option<usize>,
    d12: (usize, usize),
    d21: (usize, usize),
    /// Whether precision-specific extra blocks (`dtilde`/`uhat` in f64)
    /// also carry their expected shapes.
    extra_ok: bool,
}

/// Validates the structural consistency of deserialized factor parts
/// against the tree, so a corrupted file cannot produce an out-of-bounds
/// solve. Returns the system dimension.
fn validate_parts(
    tree: &ClusterTree,
    shapes: &[Option<PartShape>],
    root_lu_dim: usize,
) -> Result<usize, crate::construct::HssError> {
    use crate::construct::HssError;
    tree.validate().map_err(HssError::DimensionMismatch)?;
    if shapes.len() != tree.num_nodes() {
        return Err(HssError::DimensionMismatch(format!(
            "{} node factors for a {}-node tree",
            shapes.len(),
            tree.num_nodes()
        )));
    }
    let n = tree.root_size();
    let root = tree.root();
    if tree.num_nodes() == 1 {
        if root_lu_dim != n {
            return Err(HssError::DimensionMismatch(format!(
                "single-node root LU is {root_lu_dim}x{root_lu_dim}, matrix is {n}x{n}"
            )));
        }
        return Ok(n);
    }
    for (id, s) in shapes.iter().enumerate() {
        if id == root {
            continue;
        }
        let s = s.as_ref().ok_or_else(|| {
            HssError::DimensionMismatch(format!("non-root node {id} is missing its factor"))
        })?;
        let m = s.elim + s.rank;
        if s.w != (m, m) {
            return Err(HssError::DimensionMismatch(format!(
                "node {id}: transform is {}x{}, expected {m}x{m}",
                s.w.0, s.w.1
            )));
        }
        // The block size must also agree with what the solve sweeps feed
        // this node: the owned index range at a leaf, the children's
        // surviving unknowns at an internal node.
        let node = tree.node(id);
        let expected_m = if node.is_leaf() {
            node.size
        } else {
            let c1 = node.left.unwrap();
            let c2 = node.right.unwrap();
            shapes[c1].as_ref().map_or(0, |s| s.rank) + shapes[c2].as_ref().map_or(0, |s| s.rank)
        };
        if m != expected_m {
            return Err(HssError::DimensionMismatch(format!(
                "node {id}: factor covers {m} unknowns, the tree supplies {expected_m}"
            )));
        }
        if s.elim > 0 && s.d11_dim != Some(s.elim) {
            return Err(HssError::DimensionMismatch(format!(
                "node {id}: eliminated block LU missing or not {0}x{0}",
                s.elim
            )));
        }
        // Every stored block must carry the shapes the solve sweeps
        // assume, or a crafted file could panic deep inside a GEMV.
        let shapes_ok = s.d12 == (s.elim, s.rank) && s.d21 == (s.rank, s.elim) && s.extra_ok;
        if !shapes_ok {
            return Err(HssError::DimensionMismatch(format!(
                "node {id}: factor blocks disagree with elim {} / rank {}",
                s.elim, s.rank
            )));
        }
    }
    let root_node = tree.node(root);
    let (c1, c2) = (root_node.left.unwrap(), root_node.right.unwrap());
    let expected_root =
        shapes[c1].as_ref().map_or(0, |s| s.rank) + shapes[c2].as_ref().map_or(0, |s| s.rank);
    if root_lu_dim != expected_root {
        return Err(HssError::DimensionMismatch(format!(
            "root LU is {root_lu_dim}x{root_lu_dim}, children pass up {expected_root} unknowns"
        )));
    }
    Ok(n)
}

impl UlvFactorization {
    /// Factors the HSS matrix (always in f64 — see
    /// [`UlvFactorization::to_f32`] for the demoted store).
    ///
    /// # Errors
    /// Returns an error when an eliminated block is numerically singular
    /// (e.g. the matrix itself is singular).
    pub fn factor(hss: &HssMatrix) -> LinalgResult<Self> {
        let tree = hss.tree().clone();
        let root = tree.root();
        let n = hss.dim();
        let mut factors: Vec<Option<UlvNodeFactor>> = (0..tree.num_nodes()).map(|_| None).collect();

        // Degenerate single-block case: dense LU of the only block.
        if tree.num_nodes() == 1 {
            let d = hss
                .node_data(root)
                .d
                .as_ref()
                .expect("single-node HSS stores a dense block");
            return Ok(UlvFactorization {
                tree,
                store: FactorStore::F64(factors),
                root_lu: lu(d)?,
                n,
            });
        }

        // Bottom-up, level-parallel: each node needs only its children's
        // factors, which the previous (deeper) level produced. Independent
        // sibling subtrees therefore factor concurrently; near the root the
        // level population drops below the worker count and the schedule
        // serializes on its own.
        for level in tree.levels().iter().rev() {
            let ids: Vec<usize> = level.iter().copied().filter(|&id| id != root).collect();
            if ids.is_empty() {
                continue;
            }
            let results: Vec<LinalgResult<(usize, UlvNodeFactor)>> = ids
                .par_iter()
                .with_min_len(1)
                .map(|&id| {
                    let node = tree.node(id);
                    let nd = hss.node_data(id);
                    // Assemble the block to eliminate and the basis coupling
                    // it to the rest of the system.
                    let (d_full, u_full) = if node.is_leaf() {
                        let d = nd.d.as_ref().expect("leaf stores D").clone();
                        let u = nd.u.as_ref().expect("leaf stores U").clone();
                        (d, u)
                    } else {
                        let c1 = node.left.unwrap();
                        let c2 = node.right.unwrap();
                        let f1 = factors[c1].as_ref().expect("child factored first");
                        let f2 = factors[c2].as_ref().expect("child factored first");
                        let b12 = nd.b12.as_ref().expect("internal node stores B12");
                        let b21 = nd.b21.as_ref().expect("internal node stores B21");
                        let off12 = coupling_block(&f1.uhat, b12, &f2.uhat);
                        let off21 = coupling_block(&f2.uhat, b21, &f1.uhat);
                        let top = f1.dtilde.hstack(&off12);
                        let bottom = off21.hstack(&f2.dtilde);
                        let d_full = top.vstack(&bottom);

                        let u = nd.u.as_ref().expect("non-root internal node stores Ũ");
                        let k1 = f1.rank;
                        let u_top = blas::matmul(&f1.uhat, &u.submatrix(0, k1, 0, u.ncols()));
                        let u_bottom =
                            blas::matmul(&f2.uhat, &u.submatrix(k1, u.nrows(), 0, u.ncols()));
                        (d_full, u_top.vstack(&u_bottom))
                    };
                    factor_node(&d_full, &u_full).map(|f| (id, f))
                })
                .collect();
            for result in results {
                let (id, f) = result?;
                factors[id] = Some(f);
            }
        }

        // Root: dense solve over the children's surviving unknowns.
        let root_node = tree.node(root);
        let c1 = root_node.left.expect("root has children here");
        let c2 = root_node.right.expect("root has children here");
        let f1 = factors[c1].as_ref().unwrap();
        let f2 = factors[c2].as_ref().unwrap();
        let nd = hss.node_data(root);
        let b12 = nd.b12.as_ref().expect("root stores B12");
        let b21 = nd.b21.as_ref().expect("root stores B21");
        let off12 = coupling_block(&f1.uhat, b12, &f2.uhat);
        let off21 = coupling_block(&f2.uhat, b21, &f1.uhat);
        let top = f1.dtilde.hstack(&off12);
        let bottom = off21.hstack(&f2.dtilde);
        let d_root = top.vstack(&bottom);
        Ok(UlvFactorization {
            tree,
            store: FactorStore::F64(factors),
            root_lu: lu(&d_root)?,
            n,
        })
    }

    /// Rebuilds an f64 factorization from its stored parts — the inverse of
    /// the [`UlvFactorization::tree`] / [`UlvFactorization::node_factors`] /
    /// [`UlvFactorization::root_lu`] accessors — so a persisted model skips
    /// re-factorization entirely on reload. Structural consistency with the
    /// tree is validated; the numerical content is trusted as-is.
    pub fn from_parts(
        tree: ClusterTree,
        factors: Vec<Option<UlvNodeFactor>>,
        root_lu: Lu,
    ) -> Result<Self, crate::construct::HssError> {
        let shapes: Vec<Option<PartShape>> = factors
            .iter()
            .map(|f| {
                f.as_ref().map(|f| PartShape {
                    elim: f.elim,
                    rank: f.rank,
                    w: (f.w.nrows(), f.w.ncols()),
                    d11_dim: f.d11_lu.as_ref().map(Lu::dim),
                    d12: (f.d12.nrows(), f.d12.ncols()),
                    d21: (f.d21.nrows(), f.d21.ncols()),
                    extra_ok: f.dtilde.nrows() == f.rank
                        && f.dtilde.ncols() == f.rank
                        && f.uhat.nrows() == f.rank
                        && f.uhat.ncols() == f.rank,
                })
            })
            .collect();
        let n = validate_parts(&tree, &shapes, root_lu.dim())?;
        Ok(UlvFactorization {
            tree,
            store: FactorStore::F64(factors),
            root_lu,
            n,
        })
    }

    /// Rebuilds a demoted (f32) factorization from stored parts, with the
    /// same structural validation as [`UlvFactorization::from_parts`]. The
    /// root LU stays f64 in a demoted store (see
    /// [`UlvFactorization::root_lu`]).
    pub fn from_parts_f32(
        tree: ClusterTree,
        factors: Vec<Option<UlvNodeFactorF32>>,
        root_lu: Lu,
    ) -> Result<Self, crate::construct::HssError> {
        let shapes: Vec<Option<PartShape>> = factors
            .iter()
            .map(|f| {
                f.as_ref().map(|f| PartShape {
                    elim: f.elim,
                    rank: f.rank,
                    w: (f.w.nrows(), f.w.ncols()),
                    d11_dim: f.d11_lu.as_ref().map(LuF32::dim),
                    d12: (f.d12.nrows(), f.d12.ncols()),
                    d21: (f.d21.nrows(), f.d21.ncols()),
                    extra_ok: true,
                })
            })
            .collect();
        let n = validate_parts(&tree, &shapes, root_lu.dim())?;
        Ok(UlvFactorization {
            tree,
            store: FactorStore::F32(factors),
            root_lu,
            n,
        })
    }

    /// Demotes the factor store to f32 (idempotent).
    ///
    /// Every per-node solve-path block is rounded entrywise; the
    /// factorization-only `dtilde`/`uhat` blocks are dropped (see
    /// [`UlvNodeFactorF32`]), so the demoted store is solve-only. The tiny
    /// root LU is kept in f64 — it holds the globally coupled (worst
    /// conditioned) part of the system and rounding it costs Krylov
    /// iterations for no measurable memory (see
    /// [`UlvFactorization::root_lu`]). The tree and all structural
    /// metadata are unchanged.
    pub fn to_f32(self) -> Self {
        let store = match self.store {
            FactorStore::F32(_) => self.store,
            FactorStore::F64(factors) => FactorStore::F32(
                factors
                    .iter()
                    .map(|f| f.as_ref().map(UlvNodeFactorF32::from_f64))
                    .collect(),
            ),
        };
        UlvFactorization { store, ..self }
    }

    /// Storage precision of the factor store.
    pub fn precision(&self) -> FactorPrecision {
        match self.store {
            FactorStore::F64(_) => FactorPrecision::F64,
            FactorStore::F32(_) => FactorPrecision::F32,
        }
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The cluster tree the factorization follows.
    pub fn tree(&self) -> &ClusterTree {
        &self.tree
    }

    /// Per-node f64 factors, indexed by cluster-tree node id (`None` at the
    /// root, whose block lives in [`UlvFactorization::root_lu`], and for a
    /// single-node tree).
    ///
    /// # Panics
    /// Panics on a demoted store — branch on
    /// [`UlvFactorization::precision`] and use
    /// [`UlvFactorization::node_factors_f32`] there.
    pub fn node_factors(&self) -> &[Option<UlvNodeFactor>] {
        match &self.store {
            FactorStore::F64(factors) => factors,
            FactorStore::F32(_) => panic!("node_factors() on an f32 factor store"),
        }
    }

    /// The dense f64 LU factor of the root system — present at *both*
    /// precisions: a demoted store keeps its root in f64 because the root
    /// carries the factorization's global coupling (its worst
    /// conditioning) yet is only `rank(c1)+rank(c2)` square, so demoting
    /// it would cost Krylov iterations for no measurable memory.
    pub fn root_lu(&self) -> &Lu {
        &self.root_lu
    }

    /// Per-node f32 factors of a demoted store.
    ///
    /// # Panics
    /// Panics on an f64 store — branch on [`UlvFactorization::precision`].
    pub fn node_factors_f32(&self) -> &[Option<UlvNodeFactorF32>] {
        match &self.store {
            FactorStore::F32(factors) => factors,
            FactorStore::F64(_) => panic!("node_factors_f32() on an f64 factor store"),
        }
    }

    /// Solves `A x = b`, dispatching on the store precision.
    pub fn solve(&self, b: &[f64]) -> LinalgResult<Vec<f64>> {
        assert_eq!(b.len(), self.n, "UlvFactorization::solve: rhs length");
        if self.tree.num_nodes() == 1 {
            return self.root_lu.solve(b);
        }
        match &self.store {
            FactorStore::F64(factors) => self.sweep(factors, b),
            FactorStore::F32(factors) => self.sweep(factors, b),
        }
    }

    /// The ULV solve sweep, shared by both store precisions: only the
    /// per-node block kernels ([`SweepNode`]) differ; the root system
    /// always solves through the f64 root LU.
    fn sweep<F: SweepNode>(&self, factors: &[Option<F>], b: &[f64]) -> LinalgResult<Vec<f64>> {
        let tree = &self.tree;
        let root = tree.root();
        let post = tree.postorder();

        // Upward sweep: transform and partially eliminate the rhs.
        let mut b1_store: Vec<Vec<f64>> = vec![Vec::new(); tree.num_nodes()];
        let mut btilde: Vec<Vec<f64>> = vec![Vec::new(); tree.num_nodes()];
        for &id in &post {
            if id == root {
                continue;
            }
            let node = tree.node(id);
            let f = factors[id].as_ref().unwrap();
            let b_local: Vec<f64> = if node.is_leaf() {
                b[node.range()].to_vec()
            } else {
                let c1 = node.left.unwrap();
                let c2 = node.right.unwrap();
                btilde[c1]
                    .iter()
                    .chain(btilde[c2].iter())
                    .copied()
                    .collect()
            };
            let mut bprime = vec![0.0; b_local.len()];
            f.w_t_times(&b_local, &mut bprime);
            let b1 = bprime[..f.elim()].to_vec();
            let b2 = bprime[f.elim()..].to_vec();
            let reduced = if f.elim() > 0 {
                let y1 = f.d11_solve(&b1)?;
                let mut corr = vec![0.0; f.rank()];
                f.d21_times(&y1, &mut corr);
                b2.iter().zip(corr.iter()).map(|(a, c)| a - c).collect()
            } else {
                b2
            };
            b1_store[id] = b1;
            btilde[id] = reduced;
        }

        // Root solve.
        let root_node = tree.node(root);
        let c1 = root_node.left.unwrap();
        let c2 = root_node.right.unwrap();
        let b_root: Vec<f64> = btilde[c1]
            .iter()
            .chain(btilde[c2].iter())
            .copied()
            .collect();
        let w_root = self.root_lu.solve(&b_root)?;

        // Downward sweep: recover the eliminated unknowns.
        let mut w2: Vec<Vec<f64>> = vec![Vec::new(); tree.num_nodes()];
        let k1 = factors[c1].as_ref().unwrap().rank();
        w2[c1] = w_root[..k1].to_vec();
        w2[c2] = w_root[k1..].to_vec();

        let mut x = vec![0.0; self.n];
        for &id in post.iter().rev() {
            if id == root {
                continue;
            }
            let node = tree.node(id);
            let f = factors[id].as_ref().unwrap();
            let w2_i = &w2[id];
            debug_assert_eq!(w2_i.len(), f.rank(), "missing skeleton solution");
            let w1 = if f.elim() > 0 {
                let mut rhs = b1_store[id].clone();
                let mut corr = vec![0.0; f.elim()];
                f.d12_times(w2_i, &mut corr);
                for (r, c) in rhs.iter_mut().zip(corr.iter()) {
                    *r -= c;
                }
                f.d11_solve(&rhs)?
            } else {
                Vec::new()
            };
            let w_full: Vec<f64> = w1.iter().chain(w2_i.iter()).copied().collect();
            if node.is_leaf() {
                f.w_times(&w_full, &mut x[node.range()]);
            } else {
                let mut v = vec![0.0; w_full.len()];
                f.w_times(&w_full, &mut v);
                let cl = node.left.unwrap();
                let cr = node.right.unwrap();
                let kl = factors[cl].as_ref().unwrap().rank();
                w2[cl] = v[..kl].to_vec();
                w2[cr] = v[kl..].to_vec();
            }
        }
        Ok(x)
    }

    /// Solves `A X = B` for a matrix of right-hand sides; the columns are
    /// independent and solved in parallel.
    pub fn solve_multi(&self, b: &Matrix) -> LinalgResult<Matrix> {
        assert_eq!(b.nrows(), self.n, "UlvFactorization::solve_multi: dims");
        let cols: Vec<LinalgResult<Vec<f64>>> = (0..b.ncols())
            .into_par_iter()
            .with_min_len(1)
            .map(|j| self.solve(&b.col(j)))
            .collect();
        let mut x = Matrix::zeros(self.n, b.ncols());
        for (j, col) in cols.into_iter().enumerate() {
            x.set_col(j, &col?);
        }
        Ok(x)
    }

    /// Memory used by the stored factors, in bytes.
    ///
    /// An f32 store reports less than half the f64 figure: every block is
    /// half-width *and* the factorization-only `dtilde`/`uhat` blocks are
    /// gone.
    pub fn memory_bytes(&self) -> usize {
        let node_mem: usize = match &self.store {
            FactorStore::F64(factors) => factors
                .iter()
                .flatten()
                .map(|f| {
                    f.w.memory_bytes()
                        + f.d12.memory_bytes()
                        + f.d21.memory_bytes()
                        + f.dtilde.memory_bytes()
                        + f.uhat.memory_bytes()
                        + f.elim * f.elim * std::mem::size_of::<f64>()
                })
                .sum(),
            FactorStore::F32(factors) => factors
                .iter()
                .flatten()
                .map(|f| {
                    f.w.memory_bytes()
                        + f.d12.memory_bytes()
                        + f.d21.memory_bytes()
                        + f.elim * f.elim * std::mem::size_of::<f32>()
                })
                .sum(),
        };
        // The root LU is f64 at both precisions.
        node_mem + self.root_lu.dim() * self.root_lu.dim() * std::mem::size_of::<f64>()
    }
}

/// Factors one node: orthogonal elimination of the rows not coupled to the
/// rest of the system, followed by LU on the decoupled block.
fn factor_node(d_full: &Matrix, u_full: &Matrix) -> LinalgResult<UlvNodeFactor> {
    let m = d_full.nrows();
    let k = u_full.ncols();
    debug_assert_eq!(d_full.ncols(), m);
    debug_assert_eq!(u_full.nrows(), m);
    debug_assert!(k <= m, "node rank exceeds block size");

    // W^T U = [0; Û]: take the full QR U = Q [R1; 0] and move the zero rows
    // to the top by a column rotation of Q.
    let (q, r) = full_qr(u_full);
    let elim = m - k;
    let mut w = Matrix::zeros(m, m);
    for col in 0..elim {
        w.set_col(col, &q.col(k + col));
    }
    for col in 0..k {
        w.set_col(elim + col, &q.col(col));
    }
    let uhat = r.submatrix(0, k, 0, k);

    // Transform the diagonal block: D' = W^T D W, reusing one intermediate
    // buffer through the backend seam.
    let be = dense_backend();
    let mut dw = Matrix::zeros(m, m);
    be.gemm_into(d_full, &w, &mut dw);
    let mut dprime = Matrix::zeros(m, m);
    be.gemm_tn_into(&w, &dw, &mut dprime);
    let d11 = dprime.submatrix(0, elim, 0, elim);
    let d12 = dprime.submatrix(0, elim, elim, m);
    let d21 = dprime.submatrix(elim, m, 0, elim);
    let d22 = dprime.submatrix(elim, m, elim, m);

    let (d11_lu, dtilde) = if elim > 0 {
        let f = lu(&d11).map_err(|e| match e {
            LinalgError::Singular { pivot } => LinalgError::Singular { pivot },
            other => other,
        })?;
        let x = f.solve_multi(&d12)?;
        let schur = d22.sub(&blas::matmul(&d21, &x));
        (Some(f), schur)
    } else {
        (None, d22)
    };

    Ok(UlvNodeFactor {
        w,
        elim,
        rank: k,
        d11_lu,
        d12,
        d21,
        dtilde,
        uhat,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{compress_symmetric, HssOptions};
    use hkrr_clustering::{cluster, ClusteringMethod};
    use hkrr_linalg::random::Pcg64;
    use hkrr_linalg::{blas, cholesky};

    fn kernel_1d(n: usize, h: f64) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            let d = (i as f64 - j as f64) / n as f64;
            (-d * d / (2.0 * h * h)).exp()
        })
    }

    fn build_shifted(n: usize, h: f64, lambda: f64, tol: f64) -> (Matrix, crate::HssMatrix) {
        let a = kernel_1d(n, h);
        let points = Matrix::from_fn(n, 1, |i, _| i as f64);
        let tree = cluster(&points, ClusteringMethod::Natural, 16)
            .tree()
            .clone();
        let opts = HssOptions {
            tolerance: tol,
            ..Default::default()
        };
        let mut hss = compress_symmetric(&a, &a, tree, &opts).unwrap();
        hss.set_diagonal_shift(lambda);
        let mut shifted = a;
        shifted.shift_diagonal(lambda);
        (shifted, hss)
    }

    #[test]
    fn ulv_solve_matches_dense_cholesky() {
        let (a, hss) = build_shifted(192, 0.08, 2.0, 1e-9);
        let f = UlvFactorization::factor(&hss).unwrap();
        let mut rng = Pcg64::seed_from_u64(1);
        let b: Vec<f64> = (0..192).map(|_| rng.next_gaussian()).collect();
        let x_hss = f.solve(&b).unwrap();
        let x_ref = cholesky::solve_spd(&a, &b).unwrap();
        let num: f64 = x_hss
            .iter()
            .zip(x_ref.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let den = blas::nrm2(&x_ref);
        assert!(num / den < 1e-6, "relative solution error {}", num / den);
    }

    #[test]
    fn residual_is_small_for_loose_tolerance() {
        // With the paper's classification tolerance the solution is inexact,
        // but the residual w.r.t. the *compressed* operator must still be at
        // machine precision — the factorization is exact for the compressed
        // matrix.
        let (_, hss) = build_shifted(160, 0.05, 1.0, 1e-2);
        let f = UlvFactorization::factor(&hss).unwrap();
        let mut rng = Pcg64::seed_from_u64(2);
        let b: Vec<f64> = (0..160).map(|_| rng.next_gaussian()).collect();
        let x = f.solve(&b).unwrap();
        let mut ax = vec![0.0; 160];
        hss.matvec(&x, &mut ax);
        let res: f64 = ax
            .iter()
            .zip(b.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
            / blas::nrm2(&b);
        assert!(res < 1e-10, "residual {res}");
    }

    #[test]
    fn solve_multi_matches_column_solves() {
        let (_, hss) = build_shifted(96, 0.1, 0.5, 1e-8);
        let f = UlvFactorization::factor(&hss).unwrap();
        let mut rng = Pcg64::seed_from_u64(3);
        let b = hkrr_linalg::random::gaussian_matrix(&mut rng, 96, 3);
        let x = f.solve_multi(&b).unwrap();
        for j in 0..3 {
            let xj = f.solve(&b.col(j)).unwrap();
            for i in 0..96 {
                assert!((x[(i, j)] - xj[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn single_block_matrix_falls_back_to_dense_lu() {
        let (a, hss) = build_shifted(12, 0.3, 1.0, 1e-8);
        assert_eq!(hss.tree().num_nodes(), 1);
        let f = UlvFactorization::factor(&hss).unwrap();
        let b: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let x = f.solve(&b).unwrap();
        let x_ref = cholesky::solve_spd(&a, &b).unwrap();
        for (a, b) in x.iter().zip(x_ref.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn identity_plus_shift_solves_exactly() {
        let n = 64;
        let a = Matrix::identity(n);
        let points = Matrix::from_fn(n, 1, |i, _| i as f64);
        let tree = cluster(&points, ClusteringMethod::Natural, 16)
            .tree()
            .clone();
        let mut hss = compress_symmetric(&a, &a, tree, &HssOptions::default()).unwrap();
        hss.set_diagonal_shift(3.0);
        let f = UlvFactorization::factor(&hss).unwrap();
        let b = vec![2.0; n];
        let x = f.solve(&b).unwrap();
        for xi in x {
            assert!((xi - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn lambda_update_requires_only_refactorization() {
        // Compress once, solve for two different λ by only updating the
        // diagonal — the workflow the paper uses during hyperparameter
        // tuning.
        let n = 128;
        let a = kernel_1d(n, 0.08);
        let points = Matrix::from_fn(n, 1, |i, _| i as f64);
        let tree = cluster(&points, ClusteringMethod::Natural, 16)
            .tree()
            .clone();
        let mut hss = compress_symmetric(
            &a,
            &a,
            tree,
            &HssOptions {
                tolerance: 1e-9,
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = Pcg64::seed_from_u64(7);
        let b: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        for &lambda in &[0.5, 4.0] {
            hss.set_diagonal_shift(lambda);
            let f = UlvFactorization::factor(&hss).unwrap();
            let x = f.solve(&b).unwrap();
            let mut shifted = a.clone();
            shifted.shift_diagonal(lambda);
            let x_ref = cholesky::solve_spd(&shifted, &b).unwrap();
            let err: f64 = x
                .iter()
                .zip(x_ref.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-6, "lambda {lambda}: max error {err}");
        }
    }

    #[test]
    fn from_parts_roundtrips_solve_bitwise() {
        let (_, hss) = build_shifted(160, 0.08, 1.5, 1e-8);
        let f = UlvFactorization::factor(&hss).unwrap();
        let rebuilt = UlvFactorization::from_parts(
            f.tree().clone(),
            f.node_factors().to_vec(),
            f.root_lu().clone(),
        )
        .unwrap();
        let mut rng = Pcg64::seed_from_u64(21);
        let b: Vec<f64> = (0..160).map(|_| rng.next_gaussian()).collect();
        // Same stored factors ⇒ bitwise-identical solves: reload skips
        // re-factorization without changing a single bit of the output.
        assert_eq!(f.solve(&b).unwrap(), rebuilt.solve(&b).unwrap());
        assert_eq!(rebuilt.dim(), 160);
        assert_eq!(rebuilt.memory_bytes(), f.memory_bytes());
    }

    #[test]
    fn from_parts_rejects_inconsistent_factors() {
        let (_, hss) = build_shifted(96, 0.1, 1.0, 1e-6);
        let f = UlvFactorization::factor(&hss).unwrap();
        // Wrong factor count.
        let mut short = f.node_factors().to_vec();
        short.pop();
        assert!(
            UlvFactorization::from_parts(f.tree().clone(), short, f.root_lu().clone()).is_err()
        );
        // Missing non-root factor.
        let mut missing = f.node_factors().to_vec();
        let non_root = (0..missing.len()).find(|&i| i != f.tree().root()).unwrap();
        missing[non_root] = None;
        assert!(
            UlvFactorization::from_parts(f.tree().clone(), missing, f.root_lu().clone()).is_err()
        );
        // Root LU of the wrong size.
        let bad_root = lu(&Matrix::identity(1)).unwrap();
        assert!(UlvFactorization::from_parts(
            f.tree().clone(),
            f.node_factors().to_vec(),
            bad_root
        )
        .is_err());
    }

    #[test]
    fn factor_memory_is_reported() {
        let (_, hss) = build_shifted(96, 0.1, 1.0, 1e-6);
        let f = UlvFactorization::factor(&hss).unwrap();
        assert!(f.memory_bytes() > 0);
        assert_eq!(f.dim(), 96);
    }

    #[test]
    fn precision_parsing_roundtrips() {
        for p in [FactorPrecision::F64, FactorPrecision::F32] {
            assert_eq!(FactorPrecision::parse(p.as_str()), Some(p));
            assert_eq!(
                FactorPrecision::parse(&p.to_string().to_uppercase()),
                Some(p)
            );
        }
        assert_eq!(FactorPrecision::parse("f16"), None);
    }

    #[test]
    fn demoted_store_halves_memory_and_solves_close_to_f64() {
        let (_, hss) = build_shifted(192, 0.08, 2.0, 1e-6);
        let f = UlvFactorization::factor(&hss).unwrap();
        assert_eq!(f.precision(), FactorPrecision::F64);
        let bytes_f64 = f.memory_bytes();
        let mut rng = Pcg64::seed_from_u64(31);
        let b: Vec<f64> = (0..192).map(|_| rng.next_gaussian()).collect();
        let x64 = f.solve(&b).unwrap();
        let f32f = f.to_f32();
        assert_eq!(f32f.precision(), FactorPrecision::F32);
        assert_eq!(f32f.dim(), 192);
        // Half-width blocks plus dropped dtilde/uhat: well under 50%.
        assert!(
            f32f.memory_bytes() * 2 <= bytes_f64,
            "f32 store {} vs f64 store {bytes_f64}",
            f32f.memory_bytes()
        );
        let x32 = f32f.solve(&b).unwrap();
        let num: f64 = x64
            .iter()
            .zip(x32.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let den = blas::nrm2(&x64);
        assert!(num / den < 1e-4, "relative demotion error {}", num / den);
    }

    #[test]
    fn f32_store_sweeps_like_the_f64_store_of_the_same_values() {
        // Round every solve-path block through f32 while keeping it in an
        // f64 store: both stores then hold the same values, so the widened
        // kernels must reproduce the f64 sweep bit for bit.
        let (_, hss) = build_shifted(160, 0.08, 1.5, 1e-6);
        let f = UlvFactorization::factor(&hss).unwrap();
        let round = |m: &Matrix| MatrixF32::from_f64(m).to_f64();
        let rounded: Vec<Option<UlvNodeFactor>> = f
            .node_factors()
            .iter()
            .map(|nf| {
                nf.as_ref().map(|nf| UlvNodeFactor {
                    w: round(&nf.w),
                    d11_lu: nf.d11_lu.as_ref().map(|l| {
                        Lu::from_parts(round(l.packed()), l.pivots().to_vec(), l.sign()).unwrap()
                    }),
                    d12: round(&nf.d12),
                    d21: round(&nf.d21),
                    ..nf.clone()
                })
            })
            .collect();
        let f64_store =
            UlvFactorization::from_parts(f.tree().clone(), rounded, f.root_lu().clone()).unwrap();
        let f32_store = f64_store.clone().to_f32();
        assert_eq!(f32_store.precision(), FactorPrecision::F32);
        let mut rng = Pcg64::seed_from_u64(37);
        let b: Vec<f64> = (0..160).map(|_| rng.next_gaussian()).collect();
        assert_eq!(f64_store.solve(&b).unwrap(), f32_store.solve(&b).unwrap());
    }

    #[test]
    fn to_f32_is_idempotent() {
        let (_, hss) = build_shifted(96, 0.1, 1.0, 1e-6);
        let f32f = UlvFactorization::factor(&hss).unwrap().to_f32();
        let b: Vec<f64> = (0..96).map(|i| (i as f64 * 0.3).sin()).collect();
        let once = f32f.solve(&b).unwrap();
        let twice = f32f.clone().to_f32().solve(&b).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn f32_single_block_matrix_solves() {
        let (a, hss) = build_shifted(12, 0.3, 1.0, 1e-8);
        assert_eq!(hss.tree().num_nodes(), 1);
        let f = UlvFactorization::factor(&hss).unwrap().to_f32();
        let b: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let x = f.solve(&b).unwrap();
        let x_ref = cholesky::solve_spd(&a, &b).unwrap();
        for (a, b) in x.iter().zip(x_ref.iter()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn from_parts_f32_roundtrips_solve_bitwise() {
        let (_, hss) = build_shifted(160, 0.08, 1.5, 1e-6);
        let f = UlvFactorization::factor(&hss).unwrap().to_f32();
        let rebuilt = UlvFactorization::from_parts_f32(
            f.tree().clone(),
            f.node_factors_f32().to_vec(),
            f.root_lu().clone(),
        )
        .unwrap();
        let mut rng = Pcg64::seed_from_u64(23);
        let b: Vec<f64> = (0..160).map(|_| rng.next_gaussian()).collect();
        assert_eq!(f.solve(&b).unwrap(), rebuilt.solve(&b).unwrap());
        assert_eq!(rebuilt.precision(), FactorPrecision::F32);
        assert_eq!(rebuilt.memory_bytes(), f.memory_bytes());
    }

    #[test]
    fn from_parts_f32_rejects_inconsistent_factors() {
        let (_, hss) = build_shifted(96, 0.1, 1.0, 1e-6);
        let f = UlvFactorization::factor(&hss).unwrap().to_f32();
        let mut short = f.node_factors_f32().to_vec();
        short.pop();
        assert!(
            UlvFactorization::from_parts_f32(f.tree().clone(), short, f.root_lu().clone()).is_err()
        );
        let bad_root = lu(&Matrix::identity(1)).unwrap();
        assert!(UlvFactorization::from_parts_f32(
            f.tree().clone(),
            f.node_factors_f32().to_vec(),
            bad_root
        )
        .is_err());
    }
}
