//! The `hkrr-model/1` binary model format.
//!
//! A hand-rolled, versioned codec (the build container has no registry
//! access, hence no serde) that round-trips a trained
//! [`hkrr_core::KrrModel`] — or a whole sharded
//! [`hkrr_ensemble::EnsembleKrr`] — **including** every
//! compressed HSS form and ULV factorization, so a reloaded model answers
//! queries immediately — no re-clustering, re-compression or
//! re-factorization — and produces **bitwise-identical** predictions
//! (every `f64` travels as its exact bit pattern).
//!
//! ## Layout
//!
//! ```text
//! header        magic "HKRRMDL1" (8) | version u32 | section_count u32
//! section table section_count × { tag [u8;4] | offset u64 | len u64 | crc32 u32 }
//! payload       the sections' bytes, back to back
//! ```
//!
//! All integers and floats are little-endian. Each section's CRC32 (IEEE)
//! is verified before decoding, so a flipped byte anywhere in the payload
//! is caught as [`CodecError::ChecksumMismatch`] rather than producing a
//! silently-wrong model.
//!
//! | tag    | contents                                            | required      |
//! |--------|-----------------------------------------------------|---------------|
//! | `CONF` | `KrrConfig` + kernel function                       | single models |
//! | `NORM` | fitted normalization statistics                     | single models |
//! | `TRPT` | normalized, reordered training points               | single models |
//! | `WGHT` | weight vector                                       | single models |
//! | `PERM` | clustering permutation                              | single models |
//! | `REPT` | training report                                     | single models |
//! | `TREE` | cluster tree                                        | HSS only      |
//! | `HSSM` | compressed HSS matrix (per-node payloads)           | HSS only      |
//! | `ULVF` | ULV factorization: a precision tag (`0` = f64,      | HSS only      |
//! |        | `1` = f32), per-node factors, and the f64 root LU   |               |
//! | `ENSH` | ensemble header (strategy, routing, centroids)      | ensembles     |
//! | `SH00`…| one complete nested model file per shard            | ensembles     |
//!
//! An **ensemble file** carries an `ENSH` header section plus one `SHnn`
//! section per shard, each holding a complete nested `hkrr-model/1`
//! single-model encoding — so every shard gets the full
//! magic/version/CRC treatment, and corruption *inside any shard section*
//! (truncation, bit flip, wrong nested version) surfaces as the same typed
//! [`CodecError`]s a standalone file would produce.
//!
//! A model trained with f32 factors persists them as f32 (only the small
//! root LU stays f64, mirroring the in-memory store), so its `ULVF`
//! section is less than half the f64 size.
//!
//! ## Versions
//!
//! This build reads and writes format version 4 ([`VERSION`]) only. Any
//! other version in the header is refused with a typed
//! [`CodecError::UnsupportedVersion`].

use hkrr_clustering::{ClusterNode, ClusterTree};
use hkrr_core::{KrrConfig, KrrModel, ModelParts, SolverKind, TrainedFactors, TrainingReport};
use hkrr_ensemble::{EnsembleKrr, EnsembleParts, ShardStrategy, MAX_SHARDS};
use hkrr_hss::construct::ConstructionStats;
use hkrr_hss::UlvNodeFactorF32;
use hkrr_hss::{FactorPrecision, HssMatrix, HssNodeData, UlvFactorization, UlvNodeFactor};
use hkrr_kernel::{KernelFunction, NormalizationStats, Normalizer};
use hkrr_linalg::lu::Lu;
use hkrr_linalg::{LuF32, Matrix, MatrixF32};
use std::path::Path;

/// File magic: "HKRR model, format generation 1".
pub const MAGIC: [u8; 8] = *b"HKRRMDL1";
/// The one format version inside generation 1 that this build reads and
/// writes.
pub const VERSION: u32 = 4;
/// Human-readable schema name (mirrors the JSON snapshots' convention).
pub const SCHEMA: &str = "hkrr-model/1";

const HEADER_LEN: usize = 16;
const TABLE_ENTRY_LEN: usize = 24;
/// Upper bound on the section count: catches garbage headers before any
/// large allocation is attempted.
const MAX_SECTIONS: u32 = 64;

/// Typed decoding/encoding failures. Corrupted input always surfaces as one
/// of these — never a panic.
#[derive(Debug)]
pub enum CodecError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file does not start with the `hkrr-model` magic.
    BadMagic,
    /// The file's format version is not supported by this build.
    UnsupportedVersion(u32),
    /// The input ended early (or a section points outside the file).
    Truncated,
    /// A section's payload does not match its recorded checksum.
    ChecksumMismatch {
        /// Tag of the corrupted section.
        section: String,
    },
    /// A required section is absent.
    MissingSection(&'static str),
    /// Structurally invalid content (bad enum tag, inconsistent sizes, …).
    Malformed(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o: {e}"),
            CodecError::BadMagic => write!(f, "not an hkrr-model file (bad magic)"),
            CodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported format version {v} (this build reads only version {VERSION})"
                )
            }
            CodecError::Truncated => write!(f, "unexpected end of input"),
            CodecError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            CodecError::MissingSection(tag) => write!(f, "missing required section {tag}"),
            CodecError::Malformed(s) => write!(f, "malformed model data: {s}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

type Result<T> = std::result::Result<T, CodecError>;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, the zlib polynomial), table-driven.

const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC32 (IEEE) of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// ---------------------------------------------------------------------------
// Primitive little-endian writers / readers.

#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64_slice(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }
    fn usize_slice(&mut self, v: &[usize]) {
        self.usize(v.len());
        for &x in v {
            self.usize(x);
        }
    }
    /// `usize::MAX`-free encoding of `Option<usize>` tree links.
    fn opt_usize(&mut self, v: Option<usize>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.usize(x);
            }
            None => self.u8(0),
        }
    }
    fn matrix(&mut self, m: &Matrix) {
        self.usize(m.nrows());
        self.usize(m.ncols());
        for &x in m.data() {
            self.f64(x);
        }
    }
    /// Single-precision matrix: every f32 travels as its exact 4-byte bit
    /// pattern, so f32 factor stores round-trip bitwise too.
    fn matrix_f32(&mut self, m: &MatrixF32) {
        self.usize(m.nrows());
        self.usize(m.ncols());
        for &x in m.data() {
            self.f32(x);
        }
    }
    fn opt_matrix(&mut self, m: Option<&Matrix>) {
        match m {
            Some(m) => {
                self.u8(1);
                self.matrix(m);
            }
            None => self.u8(0),
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn finish(&self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(CodecError::Malformed(format!(
                "{} trailing bytes in section",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError::Malformed(format!("size {v} overflows usize")))
    }
    /// A length that still has to be backed by at least `elem_len` bytes per
    /// element in this section — rejects absurd lengths before allocating.
    fn len(&mut self, elem_len: usize) -> Result<usize> {
        let n = self.usize()?;
        if n.saturating_mul(elem_len) > self.buf.len() - self.pos {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }
    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn f64_vec(&mut self) -> Result<Vec<f64>> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }
    fn usize_vec(&mut self) -> Result<Vec<usize>> {
        let n = self.len(8)?;
        (0..n).map(|_| self.usize()).collect()
    }
    fn opt_usize(&mut self) -> Result<Option<usize>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.usize()?)),
            t => Err(CodecError::Malformed(format!("bad option tag {t}"))),
        }
    }
    fn matrix(&mut self) -> Result<Matrix> {
        let rows = self.usize()?;
        let cols = self.usize()?;
        let total = rows
            .checked_mul(cols)
            .ok_or_else(|| CodecError::Malformed("matrix size overflow".to_string()))?;
        if total.saturating_mul(8) > self.buf.len() - self.pos {
            return Err(CodecError::Truncated);
        }
        let mut data = Vec::with_capacity(total);
        for _ in 0..total {
            data.push(self.f64()?);
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }
    fn opt_matrix(&mut self) -> Result<Option<Matrix>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.matrix()?)),
            t => Err(CodecError::Malformed(format!("bad option tag {t}"))),
        }
    }
    fn matrix_f32(&mut self) -> Result<MatrixF32> {
        let rows = self.usize()?;
        let cols = self.usize()?;
        let total = rows
            .checked_mul(cols)
            .ok_or_else(|| CodecError::Malformed("matrix size overflow".to_string()))?;
        if total.saturating_mul(4) > self.buf.len() - self.pos {
            return Err(CodecError::Truncated);
        }
        let mut data = Vec::with_capacity(total);
        for _ in 0..total {
            data.push(self.f32()?);
        }
        Ok(MatrixF32::from_vec(rows, cols, data))
    }
}

// ---------------------------------------------------------------------------
// Enum tags.

fn enc_solver(e: &mut Enc, s: SolverKind) {
    e.u8(match s {
        SolverKind::DenseCholesky => 0,
        SolverKind::Hss => 1,
        SolverKind::HssWithHSampling => 2,
        SolverKind::HssPcg => 3,
    });
}

fn dec_solver(d: &mut Dec) -> Result<SolverKind> {
    match d.u8()? {
        0 => Ok(SolverKind::DenseCholesky),
        1 => Ok(SolverKind::Hss),
        2 => Ok(SolverKind::HssWithHSampling),
        3 => Ok(SolverKind::HssPcg),
        t => Err(CodecError::Malformed(format!("bad solver tag {t}"))),
    }
}

fn enc_clustering(e: &mut Enc, c: hkrr_clustering::ClusteringMethod) {
    use hkrr_clustering::ClusteringMethod as C;
    match c {
        C::Natural => e.u8(0),
        C::KdTree => e.u8(1),
        C::PcaTree => e.u8(2),
        C::TwoMeans { seed } => {
            e.u8(3);
            e.u64(seed);
        }
        C::Agglomerative => e.u8(4),
    }
}

fn dec_clustering(d: &mut Dec) -> Result<hkrr_clustering::ClusteringMethod> {
    use hkrr_clustering::ClusteringMethod as C;
    match d.u8()? {
        0 => Ok(C::Natural),
        1 => Ok(C::KdTree),
        2 => Ok(C::PcaTree),
        3 => Ok(C::TwoMeans { seed: d.u64()? }),
        4 => Ok(C::Agglomerative),
        t => Err(CodecError::Malformed(format!("bad clustering tag {t}"))),
    }
}

fn enc_precision(e: &mut Enc, p: FactorPrecision) {
    e.u8(match p {
        FactorPrecision::F64 => 0,
        FactorPrecision::F32 => 1,
    });
}

fn dec_precision(d: &mut Dec) -> Result<FactorPrecision> {
    match d.u8()? {
        0 => Ok(FactorPrecision::F64),
        1 => Ok(FactorPrecision::F32),
        t => Err(CodecError::Malformed(format!("bad precision tag {t}"))),
    }
}

fn enc_normalizer(e: &mut Enc, n: Normalizer) {
    e.u8(match n {
        Normalizer::ZScore => 0,
        Normalizer::MaxAbs => 1,
        Normalizer::None => 2,
    });
}

fn dec_normalizer(d: &mut Dec) -> Result<Normalizer> {
    match d.u8()? {
        0 => Ok(Normalizer::ZScore),
        1 => Ok(Normalizer::MaxAbs),
        2 => Ok(Normalizer::None),
        t => Err(CodecError::Malformed(format!("bad normalizer tag {t}"))),
    }
}

fn enc_kernel(e: &mut Enc, k: KernelFunction) {
    match k {
        KernelFunction::Gaussian { h } => {
            e.u8(0);
            e.f64(h);
        }
        KernelFunction::Laplacian { h } => {
            e.u8(1);
            e.f64(h);
        }
        KernelFunction::Polynomial { degree, c } => {
            e.u8(2);
            e.u32(degree);
            e.f64(c);
        }
        KernelFunction::Linear => e.u8(3),
    }
}

fn dec_kernel(d: &mut Dec) -> Result<KernelFunction> {
    match d.u8()? {
        0 => Ok(KernelFunction::Gaussian { h: d.f64()? }),
        1 => Ok(KernelFunction::Laplacian { h: d.f64()? }),
        2 => Ok(KernelFunction::Polynomial {
            degree: d.u32()?,
            c: d.f64()?,
        }),
        3 => Ok(KernelFunction::Linear),
        t => Err(CodecError::Malformed(format!("bad kernel tag {t}"))),
    }
}

// ---------------------------------------------------------------------------
// Section encoders.

fn enc_conf(config: &KrrConfig, kernel: KernelFunction) -> Vec<u8> {
    let mut e = Enc::default();
    e.f64(config.h);
    e.f64(config.lambda);
    enc_clustering(&mut e, config.clustering);
    e.usize(config.leaf_size);
    enc_normalizer(&mut e, config.normalization);
    enc_solver(&mut e, config.solver);
    e.f64(config.tolerance);
    e.f64(config.eta);
    e.u64(config.seed);
    e.f64(config.pcg_tolerance);
    e.usize(config.pcg_max_iterations);
    e.f64(config.pcg_loosening);
    enc_precision(&mut e, config.factor_precision);
    enc_kernel(&mut e, kernel);
    e.buf
}

fn dec_conf(bytes: &[u8]) -> Result<(KrrConfig, KernelFunction)> {
    let mut d = Dec::new(bytes);
    let h = d.f64()?;
    let lambda = d.f64()?;
    let clustering = dec_clustering(&mut d)?;
    let leaf_size = d.usize()?;
    let normalization = dec_normalizer(&mut d)?;
    let solver = dec_solver(&mut d)?;
    let tolerance = d.f64()?;
    let eta = d.f64()?;
    let seed = d.u64()?;
    let pcg_tolerance = d.f64()?;
    let pcg_max_iterations = d.usize()?;
    let pcg_loosening = d.f64()?;
    let factor_precision = dec_precision(&mut d)?;
    let config = KrrConfig {
        h,
        lambda,
        clustering,
        leaf_size,
        normalization,
        solver,
        tolerance,
        eta,
        seed,
        pcg_tolerance,
        pcg_max_iterations,
        pcg_loosening,
        factor_precision,
    };
    let kernel = dec_kernel(&mut d)?;
    d.finish()?;
    // The same invariants `fit` enforces: a hand-crafted file with, say, a
    // zero PCG iteration budget or a NaN tolerance must fail here as
    // Malformed, not much later as a confusing solver error.
    config.validate().map_err(CodecError::Malformed)?;
    Ok((config, kernel))
}

fn enc_norm(stats: &NormalizationStats) -> Vec<u8> {
    let mut e = Enc::default();
    enc_normalizer(&mut e, stats.scheme());
    e.f64_slice(stats.offset());
    e.f64_slice(stats.scale());
    e.buf
}

fn dec_norm(bytes: &[u8]) -> Result<NormalizationStats> {
    let mut d = Dec::new(bytes);
    let scheme = dec_normalizer(&mut d)?;
    let offset = d.f64_vec()?;
    let scale = d.f64_vec()?;
    d.finish()?;
    NormalizationStats::from_parts(scheme, offset, scale).map_err(CodecError::Malformed)
}

fn enc_report(r: &TrainingReport) -> Vec<u8> {
    let mut e = Enc::default();
    enc_solver(&mut e, r.solver);
    e.usize(r.num_train);
    e.usize(r.dim);
    e.f64(r.clustering_seconds);
    e.f64(r.assembly_seconds);
    e.f64(r.h_construction_seconds);
    e.f64(r.hss_sampling_seconds);
    e.f64(r.hss_other_seconds);
    e.f64(r.factorization_seconds);
    e.f64(r.solve_seconds);
    e.f64(r.pcg_seconds);
    e.usize(r.pcg_iterations);
    e.f64_slice(&r.pcg_residual_history);
    e.usize(r.matrix_memory_bytes);
    e.usize(r.sampler_memory_bytes);
    e.usize(r.factor_bytes);
    e.usize(r.max_rank);
    e.buf
}

fn dec_report(bytes: &[u8]) -> Result<TrainingReport> {
    let mut d = Dec::new(bytes);
    let solver = dec_solver(&mut d)?;
    let num_train = d.usize()?;
    let dim = d.usize()?;
    let mut r = TrainingReport::new(solver, num_train, dim);
    r.clustering_seconds = d.f64()?;
    r.assembly_seconds = d.f64()?;
    r.h_construction_seconds = d.f64()?;
    r.hss_sampling_seconds = d.f64()?;
    r.hss_other_seconds = d.f64()?;
    r.factorization_seconds = d.f64()?;
    r.solve_seconds = d.f64()?;
    r.pcg_seconds = d.f64()?;
    r.pcg_iterations = d.usize()?;
    r.pcg_residual_history = d.f64_vec()?;
    r.matrix_memory_bytes = d.usize()?;
    r.sampler_memory_bytes = d.usize()?;
    r.factor_bytes = d.usize()?;
    r.max_rank = d.usize()?;
    d.finish()?;
    Ok(r)
}

fn enc_tree(tree: &ClusterTree) -> Vec<u8> {
    let mut e = Enc::default();
    e.usize(tree.root());
    e.usize(tree.num_nodes());
    for node in tree.nodes() {
        e.usize(node.start);
        e.usize(node.size);
        e.opt_usize(node.left);
        e.opt_usize(node.right);
        e.opt_usize(node.parent);
    }
    e.buf
}

fn dec_tree(bytes: &[u8]) -> Result<ClusterTree> {
    let mut d = Dec::new(bytes);
    let root = d.usize()?;
    let num_nodes = d.len(16)?;
    let mut nodes = Vec::with_capacity(num_nodes);
    for _ in 0..num_nodes {
        nodes.push(ClusterNode {
            start: d.usize()?,
            size: d.usize()?,
            left: d.opt_usize()?,
            right: d.opt_usize()?,
            parent: d.opt_usize()?,
        });
    }
    d.finish()?;
    ClusterTree::from_nodes(nodes, root).map_err(CodecError::Malformed)
}

fn enc_hss(hss: &HssMatrix) -> Vec<u8> {
    let mut e = Enc::default();
    e.f64(hss.diagonal_shift());
    let st = hss.construction_stats();
    e.f64(st.sampling_seconds);
    e.f64(st.other_seconds);
    e.usize(st.samples_used);
    e.usize(st.restarts);
    e.usize(hss.nodes().len());
    for nd in hss.nodes() {
        e.opt_matrix(nd.d.as_ref());
        e.opt_matrix(nd.u.as_ref());
        e.opt_matrix(nd.b12.as_ref());
        e.opt_matrix(nd.b21.as_ref());
        e.usize_slice(&nd.skeleton);
        e.usize(nd.rank);
    }
    e.buf
}

fn dec_hss(bytes: &[u8], tree: &ClusterTree) -> Result<HssMatrix> {
    let mut d = Dec::new(bytes);
    let diagonal_shift = d.f64()?;
    let construction = ConstructionStats {
        sampling_seconds: d.f64()?,
        other_seconds: d.f64()?,
        samples_used: d.usize()?,
        restarts: d.usize()?,
    };
    let num_nodes = d.len(1)?;
    let mut nodes = Vec::with_capacity(num_nodes);
    for _ in 0..num_nodes {
        let dmat = d.opt_matrix()?;
        let u = d.opt_matrix()?;
        let b12 = d.opt_matrix()?;
        let b21 = d.opt_matrix()?;
        let skeleton = d.usize_vec()?;
        let rank = d.usize()?;
        nodes.push(HssNodeData {
            d: dmat,
            u,
            b12,
            b21,
            skeleton,
            rank,
        });
    }
    d.finish()?;
    HssMatrix::from_parts(tree.clone(), nodes, diagonal_shift, construction)
        .map_err(|e| CodecError::Malformed(e.to_string()))
}

fn enc_lu(e: &mut Enc, lu: &Lu) {
    e.matrix(lu.packed());
    e.usize_slice(lu.pivots());
    e.f64(lu.sign());
}

fn dec_lu(d: &mut Dec) -> Result<Lu> {
    let packed = d.matrix()?;
    let pivots = d.usize_vec()?;
    let sign = d.f64()?;
    Lu::from_parts(packed, pivots, sign).map_err(|e| CodecError::Malformed(e.to_string()))
}

fn enc_lu_f32(e: &mut Enc, lu: &LuF32) {
    e.matrix_f32(lu.packed());
    e.usize_slice(lu.pivots());
    e.f64(lu.sign());
}

fn dec_lu_f32(d: &mut Dec) -> Result<LuF32> {
    let packed = d.matrix_f32()?;
    let pivots = d.usize_vec()?;
    let sign = d.f64()?;
    LuF32::from_parts(packed, pivots, sign).map_err(|e| CodecError::Malformed(e.to_string()))
}

/// Encodes the `ULVF` section: a precision tag, then the f64 or f32
/// factor store.
fn enc_ulv(ulv: &UlvFactorization) -> Vec<u8> {
    let mut e = Enc::default();
    enc_precision(&mut e, ulv.precision());
    match ulv.precision() {
        FactorPrecision::F64 => {
            e.usize(ulv.node_factors().len());
            for f in ulv.node_factors() {
                match f {
                    None => e.u8(0),
                    Some(f) => {
                        e.u8(1);
                        e.matrix(&f.w);
                        e.usize(f.elim);
                        e.usize(f.rank);
                        match &f.d11_lu {
                            None => e.u8(0),
                            Some(lu) => {
                                e.u8(1);
                                enc_lu(&mut e, lu);
                            }
                        }
                        e.matrix(&f.d12);
                        e.matrix(&f.d21);
                        e.matrix(&f.dtilde);
                        e.matrix(&f.uhat);
                    }
                }
            }
            enc_lu(&mut e, ulv.root_lu());
        }
        FactorPrecision::F32 => {
            // The demoted store has no dtilde/uhat (factorization-only
            // blocks), so the f32 layout is both narrower and shorter.
            e.usize(ulv.node_factors_f32().len());
            for f in ulv.node_factors_f32() {
                match f {
                    None => e.u8(0),
                    Some(f) => {
                        e.u8(1);
                        e.matrix_f32(&f.w);
                        e.usize(f.elim);
                        e.usize(f.rank);
                        match &f.d11_lu {
                            None => e.u8(0),
                            Some(lu) => {
                                e.u8(1);
                                enc_lu_f32(&mut e, lu);
                            }
                        }
                        e.matrix_f32(&f.d12);
                        e.matrix_f32(&f.d21);
                    }
                }
            }
            // The root LU stays f64 even in the demoted store: it carries
            // the globally coupled (worst-conditioned) block and is only
            // rank(c1)+rank(c2) square, so the bytes are negligible.
            enc_lu(&mut e, ulv.root_lu());
        }
    }
    e.buf
}

fn dec_ulv_f64_body(d: &mut Dec, tree: &ClusterTree) -> Result<UlvFactorization> {
    let num_nodes = d.len(1)?;
    let mut factors = Vec::with_capacity(num_nodes);
    for _ in 0..num_nodes {
        match d.u8()? {
            0 => factors.push(None),
            1 => {
                let w = d.matrix()?;
                let elim = d.usize()?;
                let rank = d.usize()?;
                let d11_lu = match d.u8()? {
                    0 => None,
                    1 => Some(dec_lu(d)?),
                    t => return Err(CodecError::Malformed(format!("bad option tag {t}"))),
                };
                let d12 = d.matrix()?;
                let d21 = d.matrix()?;
                let dtilde = d.matrix()?;
                let uhat = d.matrix()?;
                factors.push(Some(UlvNodeFactor {
                    w,
                    elim,
                    rank,
                    d11_lu,
                    d12,
                    d21,
                    dtilde,
                    uhat,
                }));
            }
            t => return Err(CodecError::Malformed(format!("bad factor tag {t}"))),
        }
    }
    let root_lu = dec_lu(d)?;
    d.finish()?;
    UlvFactorization::from_parts(tree.clone(), factors, root_lu)
        .map_err(|e| CodecError::Malformed(e.to_string()))
}

fn dec_ulv_f32_body(d: &mut Dec, tree: &ClusterTree) -> Result<UlvFactorization> {
    let num_nodes = d.len(1)?;
    let mut factors = Vec::with_capacity(num_nodes);
    for _ in 0..num_nodes {
        match d.u8()? {
            0 => factors.push(None),
            1 => {
                let w = d.matrix_f32()?;
                let elim = d.usize()?;
                let rank = d.usize()?;
                let d11_lu = match d.u8()? {
                    0 => None,
                    1 => Some(dec_lu_f32(d)?),
                    t => return Err(CodecError::Malformed(format!("bad option tag {t}"))),
                };
                let d12 = d.matrix_f32()?;
                let d21 = d.matrix_f32()?;
                factors.push(Some(UlvNodeFactorF32 {
                    w,
                    elim,
                    rank,
                    d11_lu,
                    d12,
                    d21,
                }));
            }
            t => return Err(CodecError::Malformed(format!("bad factor tag {t}"))),
        }
    }
    let root_lu = dec_lu(d)?;
    d.finish()?;
    UlvFactorization::from_parts_f32(tree.clone(), factors, root_lu)
        .map_err(|e| CodecError::Malformed(e.to_string()))
}

fn dec_ulv(bytes: &[u8], tree: &ClusterTree) -> Result<UlvFactorization> {
    let mut d = Dec::new(bytes);
    match dec_precision(&mut d)? {
        FactorPrecision::F64 => dec_ulv_f64_body(&mut d, tree),
        FactorPrecision::F32 => dec_ulv_f32_body(&mut d, tree),
    }
}

// ---------------------------------------------------------------------------
// Ensemble sections.

fn enc_strategy(e: &mut Enc, s: ShardStrategy) {
    match s {
        ShardStrategy::Cluster => e.u8(0),
        ShardStrategy::Random { seed } => {
            e.u8(1);
            e.u64(seed);
        }
    }
}

fn dec_strategy(d: &mut Dec) -> Result<ShardStrategy> {
    match d.u8()? {
        0 => Ok(ShardStrategy::Cluster),
        1 => Ok(ShardStrategy::Random { seed: d.u64()? }),
        t => Err(CodecError::Malformed(format!("bad strategy tag {t}"))),
    }
}

/// Tag of shard `i`'s section: `SH00`, `SH01`, …
fn shard_tag(i: usize) -> [u8; 4] {
    debug_assert!(i < 100);
    [b'S', b'H', b'0' + (i / 10) as u8, b'0' + (i % 10) as u8]
}

/// The `ENSH` section: everything ensemble-level except the shard models
/// themselves.
struct EnsembleHeader {
    strategy: ShardStrategy,
    route_nearest: usize,
    shards: usize,
    centroids: Matrix,
    fit_wall_seconds: f64,
    shard_wall_seconds: Vec<f64>,
}

fn enc_ensh(h: &EnsembleHeader) -> Vec<u8> {
    let mut e = Enc::default();
    enc_strategy(&mut e, h.strategy);
    e.usize(h.shards);
    e.usize(h.route_nearest);
    e.matrix(&h.centroids);
    e.f64(h.fit_wall_seconds);
    e.f64_slice(&h.shard_wall_seconds);
    e.buf
}

fn dec_ensh(bytes: &[u8]) -> Result<EnsembleHeader> {
    let mut d = Dec::new(bytes);
    let strategy = dec_strategy(&mut d)?;
    let shards = d.usize()?;
    if shards == 0 || shards > MAX_SHARDS {
        return Err(CodecError::Malformed(format!("{shards} shards")));
    }
    let route_nearest = d.usize()?;
    let centroids = d.matrix()?;
    let fit_wall_seconds = d.f64()?;
    let shard_wall_seconds = d.f64_vec()?;
    d.finish()?;
    Ok(EnsembleHeader {
        strategy,
        route_nearest,
        shards,
        centroids,
        fit_wall_seconds,
        shard_wall_seconds,
    })
}

// ---------------------------------------------------------------------------
// Whole-file encode / decode.

/// Assembles a complete file (header, section table, payloads).
fn write_file(sections: &[([u8; 4], Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut offset = HEADER_LEN + TABLE_ENTRY_LEN * sections.len();
    for (tag, body) in sections {
        out.extend_from_slice(&tag[..]);
        out.extend_from_slice(&(offset as u64).to_le_bytes());
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(body).to_le_bytes());
        offset += body.len();
    }
    for (_, body) in sections {
        out.extend_from_slice(body);
    }
    out
}

/// Serializes a single model to its byte representation.
pub fn encode_model(model: &KrrModel) -> Vec<u8> {
    let mut e = Enc::default();
    e.matrix(model.train_points());
    let trpt = std::mem::take(&mut e.buf);
    e.f64_slice(model.weights());
    let wght = std::mem::take(&mut e.buf);
    e.usize_slice(model.permutation());
    let perm = std::mem::take(&mut e.buf);

    let mut sections: Vec<([u8; 4], Vec<u8>)> = vec![
        (*b"CONF", enc_conf(model.config(), model.kernel())),
        (*b"NORM", enc_norm(model.norm_stats())),
        (*b"TRPT", trpt),
        (*b"WGHT", wght),
        (*b"PERM", perm),
        (*b"REPT", enc_report(model.report())),
    ];
    if let Some(f) = model.factors() {
        sections.push((*b"TREE", enc_tree(f.hss.tree())));
        sections.push((*b"HSSM", enc_hss(&f.hss)));
        sections.push((*b"ULVF", enc_ulv(&f.ulv)));
    }
    write_file(&sections)
}

/// Serializes a sharded ensemble: an `ENSH` header section plus one
/// complete nested single-model encoding per shard.
pub fn encode_ensemble(ensemble: &EnsembleKrr) -> Vec<u8> {
    let header = EnsembleHeader {
        strategy: ensemble.strategy(),
        route_nearest: ensemble.router().route_nearest(),
        shards: ensemble.num_shards(),
        centroids: ensemble.router().centroids().clone(),
        fit_wall_seconds: ensemble.report().fit_wall_seconds,
        shard_wall_seconds: ensemble.report().shard_wall_seconds.clone(),
    };
    let mut sections: Vec<([u8; 4], Vec<u8>)> = Vec::new();
    sections.push((*b"ENSH", enc_ensh(&header)));
    for (i, model) in ensemble.models().iter().enumerate() {
        sections.push((shard_tag(i), encode_model(model)));
    }
    write_file(&sections)
}

/// A parsed section table: `(tag, payload)` pairs.
type SectionList<'a> = Vec<([u8; 4], &'a [u8])>;

/// Parses the header + section table and returns the `(tag, payload)`
/// pairs, with every payload's checksum verified.
fn sections(bytes: &[u8]) -> Result<SectionList<'_>> {
    if bytes.len() < HEADER_LEN {
        // Too short even for the magic/header: distinguish "not our file"
        // from "our file, cut off".
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        return Err(CodecError::Truncated);
    }
    if bytes[..8] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    if count > MAX_SECTIONS {
        return Err(CodecError::Malformed(format!("{count} sections")));
    }
    let table_end = HEADER_LEN + TABLE_ENTRY_LEN * count as usize;
    if bytes.len() < table_end {
        return Err(CodecError::Truncated);
    }
    let mut out = Vec::with_capacity(count as usize);
    for i in 0..count as usize {
        let entry = &bytes[HEADER_LEN + TABLE_ENTRY_LEN * i..];
        let tag: [u8; 4] = entry[..4].try_into().unwrap();
        let offset = u64::from_le_bytes(entry[4..12].try_into().unwrap());
        let len = u64::from_le_bytes(entry[12..20].try_into().unwrap());
        let crc = u32::from_le_bytes(entry[20..24].try_into().unwrap());
        let start = usize::try_from(offset).map_err(|_| CodecError::Truncated)?;
        let len = usize::try_from(len).map_err(|_| CodecError::Truncated)?;
        let end = start.checked_add(len).ok_or(CodecError::Truncated)?;
        if start < table_end || end > bytes.len() {
            return Err(CodecError::Truncated);
        }
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            return Err(CodecError::ChecksumMismatch {
                section: String::from_utf8_lossy(&tag).into_owned(),
            });
        }
        out.push((tag, payload));
    }
    Ok(out)
}

fn find<'a>(sections: &[([u8; 4], &'a [u8])], tag: &[u8; 4]) -> Option<&'a [u8]> {
    sections
        .iter()
        .find(|(t, _)| t == tag)
        .map(|(_, payload)| *payload)
}

fn require<'a>(
    sections: &[([u8; 4], &'a [u8])],
    tag: &'static [u8; 4],
    name: &'static str,
) -> Result<&'a [u8]> {
    find(sections, tag).ok_or(CodecError::MissingSection(name))
}

/// Decodes a single model from an already-parsed section list.
fn decode_single(sections: &[([u8; 4], &[u8])]) -> Result<KrrModel> {
    let (config, kernel) = dec_conf(require(sections, b"CONF", "CONF")?)?;
    let norm_stats = dec_norm(require(sections, b"NORM", "NORM")?)?;

    let mut d = Dec::new(require(sections, b"TRPT", "TRPT")?);
    let train_points = d.matrix()?;
    d.finish()?;
    let mut d = Dec::new(require(sections, b"WGHT", "WGHT")?);
    let weights = d.f64_vec()?;
    d.finish()?;
    let mut d = Dec::new(require(sections, b"PERM", "PERM")?);
    let permutation = d.usize_vec()?;
    d.finish()?;
    let report = dec_report(require(sections, b"REPT", "REPT")?)?;

    let factors = match (
        find(sections, b"TREE"),
        find(sections, b"HSSM"),
        find(sections, b"ULVF"),
    ) {
        (None, None, None) => None,
        (Some(tree_bytes), Some(hss_bytes), Some(ulv_bytes)) => {
            let tree = dec_tree(tree_bytes)?;
            let hss = dec_hss(hss_bytes, &tree)?;
            let ulv = dec_ulv(ulv_bytes, &tree)?;
            Some(TrainedFactors { hss, ulv })
        }
        _ => {
            return Err(CodecError::Malformed(
                "TREE/HSSM/ULVF sections must be present together".to_string(),
            ))
        }
    };

    KrrModel::from_parts(ModelParts {
        train_points,
        weights,
        kernel,
        norm_stats,
        report,
        config,
        permutation,
        factors,
    })
    .map_err(|e| CodecError::Malformed(e.to_string()))
}

/// What came out of a model file: a single model or a sharded ensemble.
/// [`LoadedModel::into_handle`] erases the distinction for the serving
/// layers, which only need a [`hkrr_core::DecisionModel`].
// Both variants are whole trained models (hundreds of bytes of inline
// headers over heap-backed matrices); the value is created once per load
// and immediately converted to a handle, so the size spread is harmless.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum LoadedModel {
    /// A plain single-solve model.
    Single(KrrModel),
    /// A cluster-sharded ensemble.
    Ensemble(EnsembleKrr),
}

impl LoadedModel {
    /// Raw input feature dimension.
    pub fn dim(&self) -> usize {
        match self {
            LoadedModel::Single(m) => m.dim(),
            LoadedModel::Ensemble(e) => e.dim(),
        }
    }

    /// Total number of training points.
    pub fn num_train(&self) -> usize {
        match self {
            LoadedModel::Single(m) => m.num_train(),
            LoadedModel::Ensemble(e) => e.num_train(),
        }
    }

    /// Number of constituent models (1, or the shard count).
    pub fn num_models(&self) -> usize {
        match self {
            LoadedModel::Single(_) => 1,
            LoadedModel::Ensemble(e) => e.num_shards(),
        }
    }

    /// Whether the file held an ensemble.
    pub fn is_ensemble(&self) -> bool {
        matches!(self, LoadedModel::Ensemble(_))
    }

    /// Raw decision values (dispatching to whichever model was loaded).
    pub fn decision_values(&self, test: &Matrix) -> Vec<f64> {
        match self {
            LoadedModel::Single(m) => m.decision_values(test),
            LoadedModel::Ensemble(e) => e.decision_values(test),
        }
    }

    /// Predicted ±1 labels (dispatching to whichever model was loaded).
    pub fn predict(&self, test: &Matrix) -> Vec<f64> {
        match self {
            LoadedModel::Single(m) => m.predict(test),
            LoadedModel::Ensemble(e) => e.predict(test),
        }
    }

    /// Erases the single/ensemble distinction into the trait-object handle
    /// the serving engine hosts.
    pub fn into_handle(self) -> hkrr_core::ModelHandle {
        match self {
            LoadedModel::Single(m) => std::sync::Arc::new(m),
            LoadedModel::Ensemble(e) => std::sync::Arc::new(e),
        }
    }
}

/// Deserializes a file that may hold a single model or an ensemble.
pub fn decode_any(bytes: &[u8]) -> Result<LoadedModel> {
    let sections = sections(bytes)?;
    let Some(ensh) = find(&sections, b"ENSH") else {
        return decode_single(&sections).map(LoadedModel::Single);
    };
    let header = dec_ensh(ensh)?;
    if header.centroids.nrows() != header.shards {
        return Err(CodecError::Malformed(format!(
            "{} centroids for {} shards",
            header.centroids.nrows(),
            header.shards
        )));
    }
    let mut models = Vec::with_capacity(header.shards);
    for i in 0..header.shards {
        let blob = find(&sections, &shard_tag(i))
            .ok_or(CodecError::Malformed(format!("missing shard section {i}")))?;
        // Each shard is a complete nested model file: the full
        // magic/version/CRC/semantic pipeline re-runs per shard, so any
        // corruption inside a shard surfaces as the usual typed errors.
        // `decode_model` refuses nested ensembles outright, which bounds
        // the decode depth at 2 — a crafted ensemble-of-ensembles file is
        // a typed `Malformed`, not unbounded recursion.
        models.push(decode_model(blob)?);
    }
    EnsembleKrr::from_parts(EnsembleParts {
        models,
        centroids: header.centroids,
        strategy: header.strategy,
        route_nearest: header.route_nearest,
        fit_wall_seconds: header.fit_wall_seconds,
        shard_wall_seconds: header.shard_wall_seconds,
    })
    .map(LoadedModel::Ensemble)
    .map_err(|e| CodecError::Malformed(e.to_string()))
}

/// The ensemble-level layout of an ensemble file — everything a
/// distributed router needs (centroids, shard count, routing width)
/// *without* decoding a single shard model. This is what lets the router
/// tier hold "only centroids + client connections": it reads a few
/// kilobytes of header from a file whose shard sections may be hundreds of
/// megabytes.
#[derive(Debug, Clone)]
pub struct EnsembleLayout {
    /// Number of shards (`SHnn` sections) in the file.
    pub shards: usize,
    /// How many nearest shards answer each query, as the ensemble was
    /// trained.
    pub route_nearest: usize,
    /// Sharding strategy the ensemble was trained with.
    pub strategy: ShardStrategy,
    /// Shard centroids (`k × d`, raw feature space).
    pub centroids: Matrix,
}

/// Extracts the ensemble layout from encoded bytes. Returns a `Malformed`
/// error when the file holds a single model (no `ENSH` section).
pub fn decode_layout(bytes: &[u8]) -> Result<EnsembleLayout> {
    let sections = sections(bytes)?;
    let ensh = find(&sections, b"ENSH").ok_or(CodecError::Malformed(
        "file holds a single model, not an ensemble (no ENSH section)".to_string(),
    ))?;
    let header = dec_ensh(ensh)?;
    if header.centroids.nrows() != header.shards {
        return Err(CodecError::Malformed(format!(
            "{} centroids for {} shards",
            header.centroids.nrows(),
            header.shards
        )));
    }
    Ok(EnsembleLayout {
        shards: header.shards,
        route_nearest: header.route_nearest,
        strategy: header.strategy,
        centroids: header.centroids,
    })
}

/// Loads the ensemble layout (centroids + routing) from an ensemble file.
pub fn load_layout(path: impl AsRef<Path>) -> Result<EnsembleLayout> {
    decode_layout(&std::fs::read(path)?)
}

/// Extracts shard `index`'s complete model from encoded ensemble bytes
/// without decoding any other shard — each `SHnn` section is a full nested
/// single-model file, so a shard server pays only for its own shard's
/// checksums and matrices.
pub fn decode_shard(bytes: &[u8], index: usize) -> Result<KrrModel> {
    let sections = sections(bytes)?;
    let ensh = find(&sections, b"ENSH").ok_or(CodecError::Malformed(
        "file holds a single model, not an ensemble (no ENSH section)".to_string(),
    ))?;
    let header = dec_ensh(ensh)?;
    if index >= header.shards {
        return Err(CodecError::Malformed(format!(
            "shard index {index} out of range (file has {} shards)",
            header.shards
        )));
    }
    let blob = find(&sections, &shard_tag(index)).ok_or(CodecError::Malformed(format!(
        "missing shard section {index}"
    )))?;
    decode_model(blob)
}

/// Loads shard `index`'s model from an ensemble file (see
/// [`decode_shard`]).
pub fn load_shard(path: impl AsRef<Path>, index: usize) -> Result<KrrModel> {
    decode_shard(&std::fs::read(path)?, index)
}

/// Deserializes a *single* model. Ensemble files are refused with a
/// `Malformed` error pointing at [`decode_any`] / [`load_any`]. This is
/// deliberately non-recursive (it never descends into shard sections), so
/// the shard decodes inside [`decode_any`] cannot nest further.
pub fn decode_model(bytes: &[u8]) -> Result<KrrModel> {
    let sections = sections(bytes)?;
    if find(&sections, b"ENSH").is_some() {
        return Err(CodecError::Malformed(
            "file holds a sharded ensemble; load it with decode_any/load_any".to_string(),
        ));
    }
    decode_single(&sections)
}

/// Saves a trained model to `path` in the `hkrr-model/1` format.
pub fn save_model(model: &KrrModel, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path, encode_model(model))?;
    Ok(())
}

/// Saves a sharded ensemble to `path`.
pub fn save_ensemble(ensemble: &EnsembleKrr, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path, encode_ensemble(ensemble))?;
    Ok(())
}

/// Loads a single model previously written by [`save_model`]. The restored
/// model needs no re-training of any kind: the HSS form and ULV factors
/// come back exactly as saved, and predictions are bitwise identical.
pub fn load_model(path: impl AsRef<Path>) -> Result<KrrModel> {
    decode_model(&std::fs::read(path)?)
}

/// Loads whatever a file holds — a single model or an ensemble.
pub fn load_any(path: impl AsRef<Path>) -> Result<LoadedModel> {
    decode_any(&std::fs::read(path)?)
}

// ---------------------------------------------------------------------------
// Model metadata as stable text.

/// The stable, line-oriented `hkrr-serve info` output: one `key: value`
/// pair per line (shard lines use the key `shard <i>`), covering the
/// format/version, the solver kind, the PCG configuration, and — for
/// ensembles — the shard layout.
pub fn info_lines(model: &LoadedModel) -> Vec<String> {
    let mut lines = vec![
        format!("schema: {SCHEMA}"),
        format!("version: {VERSION}"),
        format!(
            "kind: {}",
            if model.is_ensemble() {
                "ensemble"
            } else {
                "single"
            }
        ),
        format!("dim: {}", model.dim()),
        format!("n_train: {}", model.num_train()),
    ];
    let config_lines = |config: &KrrConfig, lines: &mut Vec<String>| {
        lines.push(format!("solver: {}", config.solver.label()));
        lines.push(format!("clustering: {}", config.clustering.label()));
        lines.push(format!("h: {:e}", config.h));
        lines.push(format!("lambda: {:e}", config.lambda));
        lines.push(format!("tolerance: {:e}", config.tolerance));
        lines.push(format!("pcg_tolerance: {:e}", config.pcg_tolerance));
        lines.push(format!("pcg_max_iterations: {}", config.pcg_max_iterations));
        lines.push(format!("pcg_loosening: {:e}", config.pcg_loosening));
        lines.push(format!("factor_precision: {}", config.factor_precision));
    };
    match model {
        LoadedModel::Single(m) => {
            config_lines(m.config(), &mut lines);
            lines.push(format!(
                "factors: {}",
                if m.factors().is_some() { "yes" } else { "no" }
            ));
            lines.push("shards: 1".to_string());
        }
        LoadedModel::Ensemble(e) => {
            config_lines(e.models()[0].config(), &mut lines);
            lines.push(format!(
                "factors: {}",
                if e.models().iter().all(|m| m.factors().is_some()) {
                    "yes"
                } else {
                    "no"
                }
            ));
            lines.push(format!("shards: {}", e.num_shards()));
            lines.push(format!("route_nearest: {}", e.router().route_nearest()));
            lines.push(format!("strategy: {}", e.strategy().label()));
            for (i, (model, report)) in e
                .models()
                .iter()
                .zip(e.report().shard_reports.iter())
                .enumerate()
            {
                lines.push(format!(
                    "shard {i}: n={} solver={} factorization_s={:.6} max_rank={}",
                    model.num_train(),
                    model.config().solver.label(),
                    report.factorization_seconds,
                    report.max_rank
                ));
            }
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use hkrr_core::KrrConfig;
    use hkrr_datasets::registry::LETTER;

    fn trained(solver: SolverKind, n: usize) -> (KrrModel, hkrr_datasets::Dataset) {
        let ds = hkrr_datasets::generate(&LETTER, n, 32, 7);
        let cfg = KrrConfig {
            h: LETTER.default_h,
            lambda: LETTER.default_lambda,
            solver,
            ..KrrConfig::default()
        };
        let model = KrrModel::fit(&ds.train, &ds.train_labels, &cfg).unwrap();
        (model, ds)
    }

    #[test]
    fn crc32_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn hss_model_roundtrips_bitwise_with_factors() {
        let (model, ds) = trained(SolverKind::Hss, 220);
        let bytes = encode_model(&model);
        let loaded = decode_model(&bytes).unwrap();
        assert_eq!(loaded.weights(), model.weights());
        assert_eq!(loaded.permutation(), model.permutation());
        assert_eq!(
            loaded.decision_values(&ds.test),
            model.decision_values(&ds.test),
            "reloaded predictions must be bitwise identical"
        );
        // The factorization came back: new-label solves work without any
        // re-factorization and match the original weights bitwise.
        assert!(loaded.factors().is_some());
        assert_eq!(
            loaded.solve_new_labels(&ds.train_labels).unwrap(),
            model.weights()
        );
    }

    #[test]
    fn hss_pcg_model_roundtrips_with_pcg_metrics() {
        let (model, ds) = trained(SolverKind::HssPcg, 180);
        let loaded = decode_model(&encode_model(&model)).unwrap();
        assert_eq!(
            loaded.decision_values(&ds.test),
            model.decision_values(&ds.test)
        );
        assert_eq!(loaded.report().solver, SolverKind::HssPcg);
        assert!(loaded.report().pcg_iterations > 0);
        assert_eq!(
            loaded.report().pcg_iterations,
            model.report().pcg_iterations
        );
        assert_eq!(
            loaded.report().pcg_residual_history,
            model.report().pcg_residual_history
        );
        // A new-label solve re-runs PCG against the retained loose ULV
        // preconditioner: same arithmetic, bitwise-identical weights.
        assert!(loaded.factors().is_some());
        assert_eq!(
            loaded.solve_new_labels(&ds.train_labels).unwrap(),
            model.weights()
        );
    }

    #[test]
    fn dense_model_roundtrips_without_factors() {
        let (model, ds) = trained(SolverKind::DenseCholesky, 150);
        let loaded = decode_model(&encode_model(&model)).unwrap();
        assert!(loaded.factors().is_none());
        assert_eq!(
            loaded.decision_values(&ds.test),
            model.decision_values(&ds.test)
        );
        assert_eq!(loaded.report().solver, SolverKind::DenseCholesky);
    }

    #[test]
    fn save_load_through_a_file() {
        let (model, ds) = trained(SolverKind::Hss, 180);
        let path = std::env::temp_dir().join("hkrr_codec_test_model.hkrr");
        save_model(&model, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.predict(&ds.test), model.predict(&ds.test));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let (model, _) = trained(SolverKind::Hss, 96);
        let mut bytes = encode_model(&model);
        bytes[0] = b'X';
        assert!(matches!(decode_model(&bytes), Err(CodecError::BadMagic)));
        // An unrelated file is also BadMagic, even when tiny.
        assert!(matches!(
            decode_model(b"PK\x03\x04"),
            Err(CodecError::BadMagic)
        ));
        assert!(matches!(decode_model(b""), Err(CodecError::BadMagic)));
    }

    #[test]
    fn every_other_version_is_refused_on_both_decoders() {
        let (model, _) = trained(SolverKind::Hss, 96);
        let mut bytes = encode_model(&model);
        assert_eq!(bytes[8..12], VERSION.to_le_bytes());
        // Older layouts (1–3), a zeroed header and future versions all
        // stop at the header, whatever the sections hold.
        for v in [0u32, 1, 2, 3, 5, 99, u32::MAX] {
            bytes[8..12].copy_from_slice(&v.to_le_bytes());
            assert!(
                matches!(decode_model(&bytes), Err(CodecError::UnsupportedVersion(got)) if got == v),
                "decode_model accepted version {v}"
            );
            assert!(
                matches!(decode_any(&bytes), Err(CodecError::UnsupportedVersion(got)) if got == v),
                "decode_any accepted version {v}"
            );
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let (model, _) = trained(SolverKind::Hss, 96);
        let bytes = encode_model(&model);
        // A sweep of truncation points: header, table, payload. Every one
        // must produce a typed error, never a panic or a silent success.
        for cut in [9, 15, 40, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_model(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated | CodecError::BadMagic),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_mismatch() {
        let (model, _) = trained(SolverKind::Hss, 96);
        let mut bytes = encode_model(&model);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            decode_model(&bytes),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn invalid_config_with_valid_crc_is_rejected_as_malformed() {
        let (model, _) = trained(SolverKind::HssPcg, 96);
        let mut bytes = encode_model(&model);
        // Locate CONF in the section table.
        let mut pos = HEADER_LEN;
        while &bytes[pos..pos + 4] != b"CONF" {
            pos += TABLE_ENTRY_LEN;
        }
        let start = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[pos + 12..pos + 20].try_into().unwrap()) as usize;
        // CONF ends with the kernel (Gaussian: 1-byte tag + f64 = 9 bytes)
        // preceded by the v4 factor-precision byte; pcg_loosening is the
        // f64 right before those. 0.5 < 1 is a value
        // `KrrConfig::validate` forbids and `fit` can never have written.
        let loosening = start + len - 9 - 1 - 8;
        bytes[loosening..loosening + 8].copy_from_slice(&0.5f64.to_le_bytes());
        // Recompute the CRC so only the semantic validation can catch it.
        let crc = crc32(&bytes[start..start + len]);
        bytes[pos + 20..pos + 24].copy_from_slice(&crc.to_le_bytes());
        match decode_model(&bytes) {
            Err(CodecError::Malformed(m)) => assert!(m.contains("pcg_loosening"), "{m}"),
            other => panic!("invalid config must be Malformed, got {other:?}"),
        }
    }

    fn trained_f32(n: usize) -> (KrrModel, hkrr_datasets::Dataset) {
        let ds = hkrr_datasets::generate(&LETTER, n, 32, 7);
        let cfg = KrrConfig {
            h: LETTER.default_h,
            lambda: LETTER.default_lambda,
            solver: SolverKind::HssPcg,
            factor_precision: hkrr_core::FactorPrecision::F32,
            ..KrrConfig::default()
        };
        let model = KrrModel::fit(&ds.train, &ds.train_labels, &cfg).unwrap();
        (model, ds)
    }

    /// Locates a section's `(payload_start, payload_len, crc_field_pos)`.
    fn span(bytes: &[u8], tag: &[u8; 4]) -> (usize, usize, usize) {
        let mut pos = HEADER_LEN;
        while &bytes[pos..pos + 4] != tag {
            pos += TABLE_ENTRY_LEN;
        }
        let start = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[pos + 12..pos + 20].try_into().unwrap()) as usize;
        (start, len, pos + 20)
    }

    #[test]
    fn f32_factor_model_roundtrips_bitwise() {
        use hkrr_core::FactorPrecision;
        let (model, ds) = trained_f32(180);
        assert_eq!(
            model.factors().unwrap().ulv.precision(),
            FactorPrecision::F32
        );
        let bytes = encode_model(&model);
        let loaded = decode_model(&bytes).unwrap();
        // The f32 store comes back exactly: same precision, same bytes,
        // bitwise-identical predictions and re-solves.
        let ulv = &loaded.factors().unwrap().ulv;
        assert_eq!(ulv.precision(), FactorPrecision::F32);
        assert_eq!(
            ulv.memory_bytes(),
            model.factors().unwrap().ulv.memory_bytes()
        );
        assert_eq!(loaded.config().factor_precision, FactorPrecision::F32);
        assert_eq!(loaded.report().factor_bytes, model.report().factor_bytes);
        assert!(loaded.report().factor_bytes > 0);
        assert_eq!(
            loaded.decision_values(&ds.test),
            model.decision_values(&ds.test)
        );
        assert_eq!(
            loaded.solve_new_labels(&ds.train_labels).unwrap(),
            model.weights()
        );
    }

    #[test]
    fn flipped_byte_in_f32_ulv_section_is_a_checksum_mismatch() {
        let (model, _) = trained_f32(120);
        let mut bytes = encode_model(&model);
        let (start, len, _) = span(&bytes, b"ULVF");
        bytes[start + len / 2] ^= 0x10;
        match decode_model(&bytes) {
            Err(CodecError::ChecksumMismatch { section }) => assert_eq!(section, "ULVF"),
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn bad_precision_tag_with_valid_crc_is_malformed() {
        let (model, _) = trained_f32(120);
        let mut bytes = encode_model(&model);
        let (start, len, crc_pos) = span(&bytes, b"ULVF");
        // The precision tag is the first payload byte; 7 is not a valid
        // precision. Recompute the CRC so only the typed tag check fires.
        bytes[start] = 7;
        let crc = crc32(&bytes[start..start + len]);
        bytes[crc_pos..crc_pos + 4].copy_from_slice(&crc.to_le_bytes());
        match decode_model(&bytes) {
            Err(CodecError::Malformed(m)) => assert!(m.contains("precision"), "{m}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn missing_required_section_is_typed() {
        let (model, _) = trained(SolverKind::DenseCholesky, 80);
        let mut bytes = encode_model(&model);
        // Overwrite the WGHT tag in the table; the checksummed payload is
        // untouched, so decoding proceeds to the missing-section check.
        let mut pos = HEADER_LEN;
        while &bytes[pos..pos + 4] != b"WGHT" {
            pos += TABLE_ENTRY_LEN;
        }
        bytes[pos..pos + 4].copy_from_slice(b"XXXX");
        assert!(matches!(
            decode_model(&bytes),
            Err(CodecError::MissingSection("WGHT"))
        ));
    }
}
