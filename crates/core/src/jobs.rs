//! DP job descriptors for the multi-tenant job service — the dp-core
//! side of `sparklet::service`'s [`JobRunner`] binding.
//!
//! A [`DpJobRequest`] is a self-contained, byte-encodable description
//! of one DP query: problem kind, canonical input, and the execution
//! knobs a tenant may override (block size). [`DpJobRunner`] implements
//! the service's [`JobRunner`] trait over these descriptors:
//!
//! * **admission pricing** via the cluster model's coarse
//!   [`CostModel::admission_seconds`] (update volume over all task
//!   slots + one NIC pass of the input bytes);
//! * **lineage keying** that digests only the *logical* computation —
//!   problem kind + canonical input. Every body is laid out
//!   `tag ‖ knobs ‖ logical input`, and the key is the digest of the
//!   tag and that suffix, byte for byte as the body carries them, so
//!   a field is in the key exactly when it is written after the knobs.
//!   Execution knobs (block size, the
//!   sparse path's partition count) are excluded because every engine
//!   path is validated bitwise-identical, and the *dense* APSP source
//!   set is excluded because its cacheable result is the full table:
//!   "same graph, different sources" is one cache entry with
//!   per-request row projection. The *sparse* APSP source set is
//!   included — the sweep path computes only the requested rows;
//! * **execution** through the ordinary dp-core entry points
//!   ([`crate::solver::solve`], [`crate::beyond::solve_alignment`],
//!   [`crate::beyond::solve_parenthesis`],
//!   [`crate::linsys::solve_linear_system`]).

use bytes::{BufMut, Bytes, BytesMut};
use cluster_model::{CostModel, KernelInvocation, KernelType};
use gep_kernels::alignment::AlignScore;
use gep_kernels::matrix::Elem;
use gep_kernels::parenthesis::ParenWeight;
use gep_kernels::sparse::Csr;
use gep_kernels::{Matrix, Tropical};
use sparklet::codec::{encode_le_slice, LeScalar};
use sparklet::service::JobRunner;
use sparklet::wire::Reader;
use sparklet::{JobError, SparkContext, Storable};

use crate::beyond::{solve_alignment, solve_parenthesis, ScoreMsg, WeightMsg};
use crate::config::DpConfig;
use crate::linsys::solve_linear_system;
use crate::solver::solve;
use crate::sssp::solve_sparse_apsp;

/// One DP query as submitted to the job service.
#[derive(Debug, Clone, PartialEq)]
pub enum DpJobRequest {
    /// All-pairs shortest paths (Floyd–Warshall over the tropical
    /// semiring) on an `n×n` distance matrix, optionally projecting
    /// the response down to a set of source rows.
    Apsp {
        /// Dense distance matrix (`f64::INFINITY` = no edge).
        dist: Matrix<f64>,
        /// Block side for the distributed decomposition.
        block: usize,
        /// Rows to return (`None` → the full table). Not part of the
        /// lineage key: the full table is computed and cached either
        /// way, and each request projects its slice.
        sources: Option<Vec<u32>>,
    },
    /// Sequence alignment (LCS / Needleman–Wunsch); returns the full
    /// `(n+1)×(m+1)` score table.
    Alignment {
        /// First sequence.
        a: Vec<u8>,
        /// Second sequence.
        b: Vec<u8>,
        /// Scoring scheme (part of the lineage key — it changes the
        /// result).
        score: AlignScore,
        /// Block side for the wavefront decomposition.
        block: usize,
    },
    /// Optimal parenthesization; returns the full cost table.
    Parenthesis {
        /// Weight function.
        weight: ParenWeight,
        /// Block side.
        block: usize,
    },
    /// Linear system `A·x = b` via distributed Gaussian elimination;
    /// returns the solution vector.
    LinearSystem {
        /// Square coefficient matrix.
        a: Matrix<f64>,
        /// Right-hand side.
        rhs: Vec<f64>,
        /// Block side.
        block: usize,
    },
    /// Shortest paths on a *sparse* graph via the partitioned
    /// multi-source sweep path ([`crate::sssp::solve_sparse_apsp`]);
    /// returns the `sources.len() × n` distance matrix. Unlike dense
    /// [`DpJobRequest::Apsp`], only the requested rows are computed, so
    /// the source set is part of the result (and of the lineage key).
    SparseApsp {
        /// Sparse adjacency, canonical CSR (`fill` = no edge,
        /// conventionally `+∞`).
        edges: Csr<f64>,
        /// Source vertices, in result-row order.
        sources: Vec<u32>,
        /// Vertex-range partition count (execution knob: results are
        /// partition-invariant, so it is *not* in the lineage key).
        parts: usize,
    },
}

// --- body codec -------------------------------------------------------

const TAG_APSP: u8 = 1;
const TAG_ALIGN: u8 = 2;
const TAG_PAREN: u8 = 3;
const TAG_LINSYS: u8 = 4;
const TAG_SPARSE_APSP: u8 = 5;

/// `[count u64][scalars]`, the scalars in one bulk copy.
fn put_run<T: LeScalar>(out: &mut BytesMut, items: &[T]) {
    out.put_u64_le(items.len() as u64);
    encode_le_slice(items, out);
}

/// Vertex ids travel widened to `u64`.
fn put_ids(out: &mut BytesMut, ids: &[u32]) {
    out.put_u64_le(ids.len() as u64);
    for &id in ids {
        out.put_u64_le(u64::from(id));
    }
}

/// An id above `u32::MAX` is a codec error, not a truncated id.
fn get_ids(rd: &mut Reader) -> Result<Vec<u32>, JobError> {
    rd.counted_run::<u64>()?
        .into_iter()
        .map(|id| {
            u32::try_from(id).map_err(|_| JobError::Codec(format!("vertex id {id} exceeds u32")))
        })
        .collect()
}

/// `[rows u64][cols u64][cells]`, row-major.
fn put_matrix<T: LeScalar + Elem>(out: &mut BytesMut, m: &Matrix<T>) {
    out.put_u64_le(m.rows() as u64);
    out.put_u64_le(m.cols() as u64);
    encode_le_slice(m.as_slice(), out);
}

/// `rows * cols` is overflow-checked here and `cells * width` against
/// the bytes left by [`Reader::run`], both before the cells are
/// allocated.
fn get_matrix<T: LeScalar + Elem>(rd: &mut Reader) -> Result<Matrix<T>, JobError> {
    let rows = rd.size()?;
    let cols = rd.size()?;
    let cells = rows
        .checked_mul(cols)
        .ok_or_else(|| JobError::Codec("matrix larger than body".into()))?;
    Ok(Matrix::from_vec(rows, cols, rd.run(cells)?))
}

/// A whole buffer holding one value.
fn decode_all<T>(
    bytes: &Bytes,
    get: impl FnOnce(&mut Reader) -> Result<T, JobError>,
) -> Result<T, JobError> {
    let mut rd = Reader::new(bytes.clone());
    let v = get(&mut rd)?;
    rd.finish()?;
    Ok(v)
}

impl DpJobRequest {
    /// The body's first byte, one per request kind.
    fn tag(&self) -> u8 {
        match self {
            DpJobRequest::Apsp { .. } => TAG_APSP,
            DpJobRequest::Alignment { .. } => TAG_ALIGN,
            DpJobRequest::Parenthesis { .. } => TAG_PAREN,
            DpJobRequest::LinearSystem { .. } => TAG_LINSYS,
            DpJobRequest::SparseApsp { .. } => TAG_SPARSE_APSP,
        }
    }

    /// Serialize to the service body encoding: the tag, the execution
    /// knobs, then the logical input (`put_logical`).
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::new();
        out.put_u8(self.tag());
        match self {
            DpJobRequest::Apsp { block, sources, .. } => {
                out.put_u64_le(*block as u64);
                match sources {
                    None => out.put_u8(0),
                    Some(s) => {
                        out.put_u8(1);
                        put_ids(&mut out, s);
                    }
                }
            }
            DpJobRequest::Alignment { block, .. }
            | DpJobRequest::Parenthesis { block, .. }
            | DpJobRequest::LinearSystem { block, .. } => out.put_u64_le(*block as u64),
            DpJobRequest::SparseApsp { parts, .. } => out.put_u64_le(*parts as u64),
        }
        self.put_logical(&mut out);
        out.freeze()
    }

    /// Append the logical input — what the cacheable result is a
    /// function of, and nothing else. It is the suffix of every body
    /// and, behind the tag, all that [`DpJobRequest::lineage_key`]
    /// digests, so a field written here is a field that keys the cache.
    fn put_logical(&self, out: &mut BytesMut) {
        match self {
            DpJobRequest::Apsp { dist, .. } => put_matrix(out, dist),
            DpJobRequest::Alignment { a, b, score, .. } => {
                ScoreMsg(score.clone()).encode(out);
                put_run(out, a);
                put_run(out, b);
            }
            DpJobRequest::Parenthesis { weight, .. } => WeightMsg(weight.clone()).encode(out),
            DpJobRequest::LinearSystem { a, rhs, .. } => {
                put_run(out, rhs);
                put_matrix(out, a);
            }
            // Unlike dense APSP, the computed result *is* the requested
            // rows, so the source set (and its order) is logical input.
            DpJobRequest::SparseApsp { edges, sources, .. } => {
                put_ids(out, sources);
                // nnz-exact: the body scales with stored edges, not n².
                out.put_u64_le(edges.rows() as u64);
                out.put_u64_le(edges.nnz() as u64);
                out.put_f64_le(edges.fill());
                encode_le_slice(edges.row_ptr(), out);
                encode_le_slice(edges.col_idx(), out);
                encode_le_slice(edges.vals(), out);
            }
        }
    }

    /// Shape invariants the solver entry points assert: a decodable
    /// body that violates them must be rejected here, as a typed codec
    /// error on the admission path, not a panic on a worker thread.
    fn validate(&self) -> Result<(), JobError> {
        match self {
            DpJobRequest::Apsp { dist, sources, .. } => {
                if dist.rows() != dist.cols() {
                    return Err(JobError::Codec(format!(
                        "APSP distance matrix must be square, got {}x{}",
                        dist.rows(),
                        dist.cols()
                    )));
                }
                if dist.rows() == 0 {
                    return Err(JobError::Codec("APSP distance matrix is empty".into()));
                }
                // The projection reads these rows of the solved table:
                // one past the end is refused before the solve, not after.
                let n = dist.rows();
                if let Some(&s) = sources.iter().flatten().find(|&&s| s as usize >= n) {
                    return Err(JobError::Codec(format!(
                        "source {s} out of range for n={n}"
                    )));
                }
            }
            DpJobRequest::Alignment { .. } => {}
            DpJobRequest::Parenthesis { weight, .. } => match weight {
                ParenWeight::MatrixChain(dims) if dims.len() < 2 => {
                    return Err(JobError::Codec(format!(
                        "matrix chain needs at least 2 dimensions, got {}",
                        dims.len()
                    )));
                }
                ParenWeight::Polygon(vs) if vs.len() < 3 => {
                    return Err(JobError::Codec(format!(
                        "polygon needs at least 3 vertices, got {}",
                        vs.len()
                    )));
                }
                ParenWeight::Zero => {
                    return Err(JobError::Codec(
                        "Zero parenthesization weight carries no size".into(),
                    ));
                }
                _ => {}
            },
            DpJobRequest::SparseApsp { edges, sources, .. } => {
                // Squareness and CSR canonical form are enforced by the
                // decoder's `Csr::try_new`; what's left are the solver's
                // own preconditions.
                if edges.rows() == 0 {
                    return Err(JobError::Codec("sparse APSP graph is empty".into()));
                }
                if let Some(&s) = sources.iter().find(|&&s| s as usize >= edges.rows()) {
                    return Err(JobError::Codec(format!(
                        "source {s} out of range for n={}",
                        edges.rows()
                    )));
                }
            }
            DpJobRequest::LinearSystem { a, rhs, .. } => {
                if a.rows() != a.cols() {
                    return Err(JobError::Codec(format!(
                        "coefficient matrix must be square, got {}x{}",
                        a.rows(),
                        a.cols()
                    )));
                }
                if a.rows() == 0 {
                    return Err(JobError::Codec("coefficient matrix is empty".into()));
                }
                if rhs.len() != a.rows() {
                    return Err(JobError::Codec(format!(
                        "rhs length {} does not match matrix side {}",
                        rhs.len(),
                        a.rows()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Decode a service body; defensive against truncation,
    /// implausible lengths, and shape-invariant violations (typed
    /// [`JobError::Codec`], never a panic).
    pub fn decode(body: &Bytes) -> Result<Self, JobError> {
        let mut rd = Reader::new(body.clone());
        let req = match rd.scalar::<u8>()? {
            TAG_APSP => {
                let block = rd.size()?;
                let sources = if rd.flag("sources marker")? {
                    Some(get_ids(&mut rd)?)
                } else {
                    None
                };
                DpJobRequest::Apsp {
                    dist: get_matrix(&mut rd)?,
                    block,
                    sources,
                }
            }
            TAG_ALIGN => {
                let block = rd.size()?;
                let ScoreMsg(score) = rd.storable()?;
                DpJobRequest::Alignment {
                    a: rd.counted_run()?,
                    b: rd.counted_run()?,
                    score,
                    block,
                }
            }
            TAG_PAREN => {
                let block = rd.size()?;
                let WeightMsg(weight) = rd.storable()?;
                DpJobRequest::Parenthesis { weight, block }
            }
            TAG_LINSYS => {
                let block = rd.size()?;
                let rhs = rd.counted_run()?;
                DpJobRequest::LinearSystem {
                    a: get_matrix(&mut rd)?,
                    rhs,
                    block,
                }
            }
            TAG_SPARSE_APSP => {
                let parts = rd.size()?;
                let sources = get_ids(&mut rd)?;
                let n = rd.size()?;
                let nnz = rd.count(4 + 8)?; // col_idx + vals per entry
                let ptr_len = n
                    .checked_add(1)
                    .ok_or_else(|| JobError::Codec("implausible vertex count".into()))?;
                let fill = rd.scalar()?;
                // Each run is checked against the bytes left before it
                // is allocated.
                let row_ptr = rd.run(ptr_len)?;
                let col_idx = rd.run(nnz)?;
                let vals = rd.run(nnz)?;
                // Canonical-form validation rejects malformed sparse
                // bodies (ragged pointers, out-of-range or unsorted
                // columns) right here on the admission path.
                let edges = Csr::try_new(n, n, fill, row_ptr, col_idx, vals)
                    .map_err(|e| JobError::Codec(format!("sparse APSP body: {e}")))?;
                DpJobRequest::SparseApsp {
                    edges,
                    sources,
                    parts,
                }
            }
            other => return Err(JobError::Codec(format!("unknown job tag {other}"))),
        };
        rd.finish()?;
        req.validate()?;
        Ok(req)
    }

    /// Approximate GEP update volume, for admission pricing.
    fn updates(&self) -> f64 {
        match self {
            DpJobRequest::Apsp { dist, .. } => (dist.rows() as f64).powi(3),
            DpJobRequest::Alignment { a, b, .. } => (a.len() as f64 + 1.0) * (b.len() as f64 + 1.0),
            DpJobRequest::Parenthesis { weight, .. } => {
                let n = weight.n() as f64 + 1.0;
                n * n * n / 6.0
            }
            DpJobRequest::LinearSystem { a, .. } => {
                let n = a.rows() as f64 + 1.0;
                n * n * n / 3.0
            }
            // Every sweep round relaxes each source's view of every
            // stored edge, and rounds track the path-length frontier —
            // logarithmic on random graphs, so admission prices
            // sources · nnz · (log₂ n + 1) rather than the dense n³.
            DpJobRequest::SparseApsp { edges, sources, .. } => {
                let rounds = (edges.rows() as f64).log2() + 1.0;
                sources.len() as f64 * edges.nnz() as f64 * rounds
            }
        }
    }

    fn block(&self) -> usize {
        match self {
            DpJobRequest::Apsp { block, .. }
            | DpJobRequest::Alignment { block, .. }
            | DpJobRequest::Parenthesis { block, .. }
            | DpJobRequest::LinearSystem { block, .. } => (*block).max(1),
            // The sweep path's work grain is a partition's row slab.
            DpJobRequest::SparseApsp { edges, parts, .. } => {
                edges.rows().div_ceil((*parts).max(1)).max(1)
            }
        }
    }

    /// Cost-model kernel class the admission estimate prices with.
    fn kernel(&self) -> KernelType {
        match self {
            DpJobRequest::SparseApsp { .. } => KernelType::SparseSweep,
            _ => KernelType::Iterative,
        }
    }

    /// The request's lineage digest: the tag and the body's logical
    /// suffix, exactly as [`DpJobRequest::encode`] writes them. The
    /// block size and sparse partition count are execution knobs
    /// (results are engine-path invariant), and the dense APSP source
    /// set is a projection of the cached full table — all written
    /// before the suffix and so excluded, which is what lets
    /// equivalent computations share one cache entry. The sparse APSP
    /// source set *is* digested: it selects which rows get computed at
    /// all.
    pub fn lineage_key(&self) -> u128 {
        let mut keyed = BytesMut::new();
        keyed.put_u8(self.tag());
        self.put_logical(&mut keyed);
        sparklet::LineageHasher::default().update(&keyed).finish()
    }
}

// --- result codec -----------------------------------------------------

/// Encode an `f64` matrix result (APSP / parenthesization tables).
pub fn encode_matrix_f64(m: &Matrix<f64>) -> Bytes {
    let mut out = BytesMut::with_capacity(16 + m.as_slice().len() * 8);
    put_matrix(&mut out, m);
    out.freeze()
}

/// Decode an `f64` matrix result.
pub fn decode_matrix_f64(bytes: &Bytes) -> Result<Matrix<f64>, JobError> {
    decode_all(bytes, get_matrix)
}

/// Encode an `i64` matrix result (alignment score tables).
pub fn encode_matrix_i64(m: &Matrix<i64>) -> Bytes {
    let mut out = BytesMut::with_capacity(16 + m.as_slice().len() * 8);
    put_matrix(&mut out, m);
    out.freeze()
}

/// Decode an `i64` matrix result.
pub fn decode_matrix_i64(bytes: &Bytes) -> Result<Matrix<i64>, JobError> {
    decode_all(bytes, get_matrix)
}

/// Encode a solution vector (linear systems).
pub fn encode_vec_f64(v: &[f64]) -> Bytes {
    let mut out = BytesMut::with_capacity(8 + v.len() * 8);
    put_run(&mut out, v);
    out.freeze()
}

/// Decode a solution vector.
pub fn decode_vec_f64(bytes: &Bytes) -> Result<Vec<f64>, JobError> {
    decode_all(bytes, Reader::counted_run)
}

// --- the runner -------------------------------------------------------

/// [`JobRunner`] implementation binding [`DpJobRequest`] bodies to the
/// dp-core solvers, with cluster-model admission pricing.
pub struct DpJobRunner {
    cost: CostModel,
    template: DpConfig,
}

impl DpJobRunner {
    /// Runner pricing against `cost`, executing with `template`'s
    /// strategy/kernel knobs (each request overrides `n` and `block`).
    pub fn new(cost: CostModel, template: DpConfig) -> Self {
        DpJobRunner { cost, template }
    }

    fn cfg_for(&self, n: usize, block: usize) -> DpConfig {
        let mut cfg = self.template.clone();
        cfg.n = n.max(1);
        cfg.block = block.max(1).min(cfg.n);
        cfg
    }
}

impl JobRunner for DpJobRunner {
    fn estimate(&self, body: &Bytes) -> Result<f64, JobError> {
        let req = DpJobRequest::decode(body)?;
        let inv = KernelInvocation {
            updates: req.updates(),
            block_side: req.block(),
            elem_bytes: 8,
            kernel: req.kernel(),
        };
        Ok(self.cost.admission_seconds(&inv, body.len() as u64))
    }

    fn cache_key(&self, body: &Bytes) -> Result<Option<u128>, JobError> {
        Ok(Some(DpJobRequest::decode(body)?.lineage_key()))
    }

    fn run(&self, sc: &SparkContext, body: &Bytes) -> Result<Bytes, JobError> {
        match DpJobRequest::decode(body)? {
            DpJobRequest::Apsp { dist, block, .. } => {
                // Always the full table: the source set is a
                // projection, applied in `project`.
                let cfg = self.cfg_for(dist.rows(), block);
                let out = solve::<Tropical>(sc, &cfg, &dist)?;
                Ok(encode_matrix_f64(&out))
            }
            DpJobRequest::Alignment { a, b, score, block } => {
                let out = solve_alignment(sc, &a, &b, &score, block.max(1))?;
                Ok(encode_matrix_i64(&out))
            }
            DpJobRequest::Parenthesis { weight, block } => {
                let out = solve_parenthesis(sc, &weight, block.max(1))?;
                Ok(encode_matrix_f64(&out))
            }
            DpJobRequest::LinearSystem { a, rhs, block } => {
                let cfg = self.cfg_for(rhs.len() + 1, block);
                let x = solve_linear_system(sc, &cfg, &a, &rhs)?;
                Ok(encode_vec_f64(&x))
            }
            DpJobRequest::SparseApsp {
                edges,
                sources,
                parts,
            } => {
                // No projection step: the sweep path computes exactly
                // the requested rows.
                let out = solve_sparse_apsp(sc, &edges, &sources, parts.max(1))?;
                Ok(encode_matrix_f64(&out))
            }
        }
    }

    fn project(&self, body: &Bytes, full: &Bytes) -> Result<Bytes, JobError> {
        match DpJobRequest::decode(body)? {
            DpJobRequest::Apsp {
                sources: Some(srcs),
                ..
            } => {
                let table = decode_matrix_f64(full)?;
                let mut rows = Vec::with_capacity(srcs.len() * table.cols());
                for &s in &srcs {
                    let s = s as usize;
                    if s >= table.rows() {
                        return Err(JobError::Codec(format!(
                            "source row {s} out of range for n={}",
                            table.rows()
                        )));
                    }
                    for j in 0..table.cols() {
                        rows.push(table.get(s, j));
                    }
                }
                Ok(encode_matrix_f64(&Matrix::from_vec(
                    srcs.len(),
                    table.cols(),
                    rows,
                )))
            }
            _ => Ok(full.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gep_kernels::graph::sparse_erdos_renyi;

    fn sparse_req(seed: u64, n: usize, sources: Vec<u32>, parts: usize) -> DpJobRequest {
        DpJobRequest::SparseApsp {
            edges: sparse_erdos_renyi(n, 0.25, 1.0, 9.0, seed),
            sources,
            parts,
        }
    }

    fn apsp_req(seed: u64, n: usize, sources: Option<Vec<u32>>) -> DpJobRequest {
        let mut rng = testkit::Rng::new(seed);
        let dist = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0.0
            } else if rng.range(0..4u64) == 0 {
                f64::INFINITY
            } else {
                rng.range(1..=100u64) as f64
            }
        });
        DpJobRequest::Apsp {
            dist,
            block: 4,
            sources,
        }
    }

    #[test]
    fn malformed_sparse_bodies_are_codec_errors_at_admission() {
        // Hand-build bodies whose CSR parts violate canonical form:
        // each must come back as a typed Codec error (which the service
        // front end maps to a Malformed rejection), never a panic.
        let build = |row_ptr: &[u32], col_idx: &[u32], vals: &[f64], n: u64| {
            let mut out = BytesMut::new();
            out.put_u8(TAG_SPARSE_APSP);
            out.put_u64_le(2); // parts
            put_ids(&mut out, &[0]); // one source
            out.put_u64_le(n);
            out.put_u64_le(col_idx.len() as u64);
            out.put_f64_le(f64::INFINITY);
            encode_le_slice(row_ptr, &mut out);
            encode_le_slice(col_idx, &mut out);
            encode_le_slice(vals, &mut out);
            out.freeze()
        };
        let cases = [
            // Decreasing row pointers.
            build(&[0, 1, 0], &[0], &[1.0], 2),
            // Column index out of range.
            build(&[0, 1, 1], &[7], &[1.0], 2),
            // Duplicate columns within a row.
            build(&[0, 2, 2], &[1, 1], &[1.0, 2.0], 2),
            // Terminal pointer disagrees with nnz.
            build(&[0, 0, 0], &[0], &[1.0], 2),
            // Empty graph.
            build(&[0], &[], &[], 0),
        ];
        for (i, body) in cases.iter().enumerate() {
            assert!(
                matches!(DpJobRequest::decode(body), Err(JobError::Codec(_))),
                "case {i} must be rejected"
            );
        }
        // A source pointing past the vertex range is caught by
        // validate() even when the CSR itself is canonical.
        let mut ok = sparse_req(1, 4, vec![9], 2).encode();
        assert!(matches!(DpJobRequest::decode(&ok), Err(JobError::Codec(_))));
        ok = sparse_req(1, 4, vec![3], 2).encode();
        assert!(DpJobRequest::decode(&ok).is_ok());
    }

    #[test]
    fn out_of_range_dense_sources_are_refused_before_any_stage() {
        let sc = SparkContext::new(sparklet::SparkConf::default().with_executors(2));
        let runner = DpJobRunner::new(
            CostModel::new(cluster_model::ClusterSpec::skylake(), 4),
            DpConfig::new(4, 4),
        );
        let body = apsp_req(2, 4, Some(vec![9])).encode();
        let got = runner.run(&sc, &body);
        assert!(matches!(got, Err(JobError::Codec(_))), "{got:?}");
        assert_eq!(sc.summary().stages, 0, "a refused body ran stages");
        // The last row in range still solves.
        let body = apsp_req(2, 4, Some(vec![3])).encode();
        let full = runner.run(&sc, &body).expect("in-range sources solve");
        let rows = decode_matrix_f64(&runner.project(&body, &full).unwrap()).unwrap();
        assert_eq!((rows.rows(), rows.cols()), (1, 4));
        assert!(sc.summary().stages > 0);
    }

    /// A one-id list whose id is 2³², which `as u32` would read as 0.
    fn put_wide_id(out: &mut BytesMut) {
        out.put_u64_le(1);
        out.put_u64_le(1 << 32);
    }

    #[test]
    fn dense_source_ids_above_u32_are_codec_errors() {
        let DpJobRequest::Apsp { dist, .. } = apsp_req(3, 4, None) else {
            unreachable!()
        };
        let mut body = BytesMut::new();
        body.put_u8(TAG_APSP);
        body.put_u64_le(2); // block
        body.put_u8(1); // sources present
        put_wide_id(&mut body);
        put_matrix(&mut body, &dist);
        let got = DpJobRequest::decode(&body.freeze());
        assert!(matches!(got, Err(JobError::Codec(_))), "{got:?}");
    }

    #[test]
    fn sparse_source_ids_above_u32_are_codec_errors() {
        let DpJobRequest::SparseApsp { edges, .. } = sparse_req(3, 4, vec![0], 2) else {
            unreachable!()
        };
        let mut body = BytesMut::new();
        body.put_u8(TAG_SPARSE_APSP);
        body.put_u64_le(2); // parts
        put_wide_id(&mut body);
        body.put_u64_le(edges.rows() as u64);
        body.put_u64_le(edges.nnz() as u64);
        body.put_f64_le(edges.fill());
        encode_le_slice(edges.row_ptr(), &mut body);
        encode_le_slice(edges.col_idx(), &mut body);
        encode_le_slice(edges.vals(), &mut body);
        let got = DpJobRequest::decode(&body.freeze());
        assert!(matches!(got, Err(JobError::Codec(_))), "{got:?}");
    }

    #[test]
    fn sparse_lineage_key_tracks_sources_not_parts() {
        let a = sparse_req(8, 10, vec![0, 2], 2);
        let b = sparse_req(8, 10, vec![0, 2], 5); // same query, more parts
        let c = sparse_req(8, 10, vec![0, 3], 2); // different sources
        let d = sparse_req(9, 10, vec![0, 2], 2); // different graph
        assert_eq!(a.lineage_key(), b.lineage_key());
        assert_ne!(a.lineage_key(), c.lineage_key());
        assert_ne!(a.lineage_key(), d.lineage_key());
        let e = sparse_req(8, 10, vec![2, 0], 2); // same sources, other row order
        assert_ne!(a.lineage_key(), e.lineage_key());
        // One stored edge's value.
        let DpJobRequest::SparseApsp { edges, .. } = &a else {
            unreachable!()
        };
        let mut dense = edges.to_dense();
        let stored = |w: &f64| w.is_finite() && *w > 0.0;
        let at = dense.as_slice().iter().position(stored).expect("an edge");
        dense.set(at / 10, at % 10, 0.5);
        let f = DpJobRequest::SparseApsp {
            edges: Csr::from_dense(&dense, edges.fill()),
            sources: vec![0, 2],
            parts: 2,
        };
        assert_ne!(a.lineage_key(), f.lineage_key());
        // And the sparse family never collides with dense APSP keys.
        let dense = apsp_req(8, 10, None);
        assert_ne!(a.lineage_key(), dense.lineage_key());
    }

    #[test]
    fn sparse_admission_prices_by_nnz_through_the_sweep_kernel() {
        let req = sparse_req(4, 12, vec![0, 1, 2], 3);
        let DpJobRequest::SparseApsp { ref edges, .. } = req else {
            unreachable!()
        };
        assert_eq!(req.kernel(), KernelType::SparseSweep);
        let rounds = (12f64).log2() + 1.0;
        assert_eq!(req.updates(), 3.0 * edges.nnz() as f64 * rounds);
        // Densifying the same graph as a dense APSP body prices at n³,
        // which dominates for any sub-full density.
        let dense = DpJobRequest::Apsp {
            dist: edges.to_dense(),
            block: 4,
            sources: None,
        };
        assert!(req.updates() < dense.updates());
    }

    #[test]
    fn lineage_key_ignores_knobs_and_sources() {
        let a = apsp_req(11, 6, None);
        let b = apsp_req(11, 6, Some(vec![1, 2]));
        let DpJobRequest::Apsp { dist, .. } = apsp_req(11, 6, None) else {
            unreachable!()
        };
        let c = DpJobRequest::Apsp {
            dist,
            block: 2, // different execution knob
            sources: Some(vec![4]),
        };
        assert_eq!(a.lineage_key(), b.lineage_key());
        assert_eq!(a.lineage_key(), c.lineage_key());
        let d = apsp_req(12, 6, None);
        assert_ne!(a.lineage_key(), d.lineage_key(), "different graph");
        let DpJobRequest::Apsp { mut dist, .. } = apsp_req(11, 6, None) else {
            unreachable!()
        };
        dist.set(2, 3, dist.get(2, 3) + 1.0);
        let one_cell = DpJobRequest::Apsp {
            dist,
            block: 4,
            sources: None,
        };
        assert_ne!(a.lineage_key(), one_cell.lineage_key());

        let same = |x: &DpJobRequest, y: &DpJobRequest| x.lineage_key() == y.lineage_key();

        // Alignment: the block is a knob; the scoring (it changes
        // results) and every sequence byte are logical.
        let align = |a: &[u8], score: AlignScore, block: usize| DpJobRequest::Alignment {
            a: a.to_vec(),
            b: b"AC".to_vec(),
            score,
            block,
        };
        let nw = AlignScore::NeedlemanWunsch {
            matched: 1,
            mismatch: -1,
            gap: -1,
        };
        let lcs = align(b"AB", AlignScore::Lcs, 2);
        assert!(same(&lcs, &align(b"AB", AlignScore::Lcs, 7)));
        assert!(!same(&lcs, &align(b"AB", nw, 2)));
        assert!(!same(&lcs, &align(b"AD", AlignScore::Lcs, 2)));

        // Parenthesization: block is a knob, each weight entry logical.
        let chain = |dims: &[u64], block: usize| DpJobRequest::Parenthesis {
            weight: ParenWeight::MatrixChain(dims.to_vec()),
            block,
        };
        assert!(same(&chain(&[3, 4, 5], 2), &chain(&[3, 4, 5], 1)));
        assert!(!same(&chain(&[3, 4, 5], 2), &chain(&[3, 4, 6], 2)));

        // Linear systems: block is a knob, matrix and rhs entries logical.
        let linsys = |cell: f64, rhs: &[f64], block: usize| DpJobRequest::LinearSystem {
            a: Matrix::from_vec(2, 2, vec![2.0, cell, 1.0, 3.0]),
            rhs: rhs.to_vec(),
            block,
        };
        let sys = linsys(1.0, &[1.0, 2.0], 2);
        assert!(same(&sys, &linsys(1.0, &[1.0, 2.0], 1)));
        assert!(!same(&sys, &linsys(1.5, &[1.0, 2.0], 2)));
        assert!(!same(&sys, &linsys(1.0, &[1.0, 2.5], 2)));
    }

    #[test]
    fn decodable_bodies_violating_solver_invariants_are_rejected() {
        let bad = vec![
            DpJobRequest::Apsp {
                dist: Matrix::from_fn(2, 3, |_, _| 0.0),
                block: 2,
                sources: None,
            },
            DpJobRequest::Apsp {
                dist: Matrix::from_fn(0, 0, |_, _| 0.0),
                block: 2,
                sources: None,
            },
            DpJobRequest::Parenthesis {
                weight: ParenWeight::MatrixChain(vec![]),
                block: 2,
            },
            DpJobRequest::Parenthesis {
                weight: ParenWeight::MatrixChain(vec![7]),
                block: 2,
            },
            DpJobRequest::Parenthesis {
                weight: ParenWeight::Polygon(vec![1.0, 2.0]),
                block: 2,
            },
            DpJobRequest::Parenthesis {
                weight: ParenWeight::Zero,
                block: 2,
            },
            DpJobRequest::LinearSystem {
                a: Matrix::from_fn(2, 3, |_, _| 1.0),
                rhs: vec![1.0, 2.0],
                block: 2,
            },
            DpJobRequest::LinearSystem {
                a: Matrix::from_fn(3, 3, |_, _| 1.0),
                rhs: vec![1.0, 2.0],
                block: 2,
            },
            DpJobRequest::LinearSystem {
                a: Matrix::from_fn(0, 0, |_, _| 1.0),
                rhs: vec![],
                block: 2,
            },
        ];
        for req in bad {
            let body = req.encode();
            assert!(
                matches!(DpJobRequest::decode(&body), Err(JobError::Codec(_))),
                "{req:?} must be rejected at decode"
            );
        }
    }

    #[test]
    fn huge_matrix_dims_error_instead_of_overflowing() {
        // rows * cols passes checked_mul but cells * 8 wraps a u64:
        // the bounds filter must still reject, not overflow or try to
        // allocate 2^63 bytes.
        let mut body = BytesMut::new();
        body.put_u8(TAG_APSP);
        body.put_u64_le(4); // block
        body.put_u8(0); // no sources
        body.put_u64_le(1 << 32); // rows
        body.put_u64_le(1 << 31); // cols
        let res = DpJobRequest::decode(&body.freeze());
        assert!(matches!(res, Err(JobError::Codec(_))));

        let mut m = BytesMut::new();
        m.put_u64_le(1 << 32);
        m.put_u64_le(1 << 31);
        let m = m.freeze();
        assert!(matches!(decode_matrix_i64(&m), Err(JobError::Codec(_))));
        assert!(matches!(decode_matrix_f64(&m), Err(JobError::Codec(_))));
    }
}
