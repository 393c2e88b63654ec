//! Partitioned multi-source SSSP over sparse CSR tiles — the sparse
//! representation's execution path for APSP (after Schoeneman & Zola's
//! observation that for low-density graphs, running Bellman–Ford-style
//! relaxation sweeps from every source beats the dense blocked
//! Floyd–Warshall recurrence, whose work is n³ regardless of density).
//!
//! The graph's `n` vertices are dealt to `parts` contiguous ranges
//! ([`filters::part_bounds`]). Each partition holds one [`SweepVal::State`]
//! value: its owned rows of the global edge matrix (a sparse
//! [`Block::Sparse`] tile), the `sources × owned` slab of the distance
//! table (dense — it fills in as the search expands), and a `changed`
//! counter that drives the frontier predicate
//! ([`filters::sweep_active`]). One round is two Spark-style stages:
//!
//! 1. **Sweep** — every *active* partition relaxes all its stored
//!    edges ([`crate::kernels::apply_sweep`]: `sweep_gep`, called
//!    directly — it is the sweep's one implementation — plus an
//!    nnz-priced [`cluster_model`] invocation), then cuts the candidate
//!    matrix into per-destination-partition sparse update tiles (dropping
//!    empty ones — the sparse analogue of IM's copy flat-map);
//! 2. **Merge** — a `group_by_key` delivers each partition its state
//!    plus incoming update tiles; the merge folds them in with `min`
//!    and recounts `changed` by comparing the old and new distance
//!    slabs (order-independent, so chaos-induced retries replay to the
//!    same bits).
//!
//! The driver loop counts active partitions per round and stops when
//! the frontier is empty; more than `n` rounds means a negative-weight
//! cycle is reachable and the job fails with a typed driver error.
//! Every value rides the same [`sparklet::Storable`] wire frames as
//! the dense path, so checkpoints, chaos, the tiered store, and the
//! transport all apply unchanged.

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use gep_kernels::sparse::Csr;
use gep_kernels::{Matrix, Tropical};
use sparklet::{HashPartitioner, JobError, Partitioner, SparkContext, Storable};

use crate::block::Block;
use crate::config::DEFAULT_LEVEL;
use crate::filters;
use crate::kernels::apply_sweep;

/// Value of the sweep-path RDD, keyed by partition id.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepVal {
    /// A partition's long-lived state.
    State {
        /// Owned rows of the global edge matrix (`owned × n`, sparse).
        edges: Block<f64>,
        /// Distance slab (`sources × owned`, dense).
        dist: Block<f64>,
        /// Cells of `dist` that improved last round (frontier signal).
        changed: u64,
    },
    /// A sparse tile of candidate distances addressed to the key's
    /// owned column range (`sources × owned`, column-rebased).
    Updates(Block<f64>),
}

const TAG_STATE: u8 = 0;
const TAG_UPDATES: u8 = 1;

impl Storable for SweepVal {
    fn encoded_len(&self) -> usize {
        match self {
            SweepVal::State { edges, dist, .. } => 1 + edges.encoded_len() + dist.encoded_len() + 8,
            SweepVal::Updates(b) => 1 + b.encoded_len(),
        }
    }

    fn encode(&self, buf: &mut BytesMut) {
        match self {
            SweepVal::State {
                edges,
                dist,
                changed,
            } => {
                buf.put_u8(TAG_STATE);
                edges.encode(buf);
                dist.encode(buf);
                buf.put_u64_le(*changed);
            }
            SweepVal::Updates(b) => {
                buf.put_u8(TAG_UPDATES);
                b.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, JobError> {
        if buf.remaining() < 1 {
            return Err(JobError::Codec("sweep value: empty buffer".into()));
        }
        match buf.get_u8() {
            TAG_STATE => {
                let edges = Block::decode(buf)?;
                let dist = Block::decode(buf)?;
                if buf.remaining() < 8 {
                    return Err(JobError::Codec("sweep state: truncated counter".into()));
                }
                let changed = buf.get_u64_le();
                Ok(SweepVal::State {
                    edges,
                    dist,
                    changed,
                })
            }
            TAG_UPDATES => Ok(SweepVal::Updates(Block::decode(buf)?)),
            t => Err(JobError::Codec(format!("sweep value: unknown tag {t}"))),
        }
    }

    fn approx_bytes(&self) -> usize {
        match self {
            SweepVal::State { edges, dist, .. } => {
                1 + edges.approx_bytes() + dist.approx_bytes() + 8
            }
            SweepVal::Updates(b) => 1 + b.approx_bytes(),
        }
    }
}

/// Multi-source shortest paths on the engine: distances from each of
/// `sources` to every vertex of the CSR graph, as a
/// `sources.len() × n` matrix. Absent edges are `edges.fill()`
/// (conventionally `+∞`); unreachable vertices stay at `+∞`.
///
/// Results are bitwise-deterministic and independent of `parts` (a
/// pure execution knob): every candidate distance is the same
/// left-to-right path sum a sequential Bellman–Ford forms, and `min`
/// over an identical candidate set is order-blind.
///
/// A non-square adjacency or a source outside `0..n` is a
/// [`JobError::Driver`] returned before any stage runs.
pub fn solve_sparse_apsp(
    sc: &SparkContext,
    edges: &Csr<f64>,
    sources: &[u32],
    parts: usize,
) -> Result<Matrix<f64>, JobError> {
    if edges.rows() != edges.cols() {
        return Err(JobError::Driver(format!(
            "graph adjacency must be square, got {}x{}",
            edges.rows(),
            edges.cols()
        )));
    }
    let n = edges.rows();
    if let Some(s) = sources.iter().find(|&&s| s as usize >= n) {
        return Err(JobError::Driver(format!(
            "source {s} out of range for n={n}"
        )));
    }
    let inf = f64::INFINITY;
    if n == 0 || sources.is_empty() {
        return Ok(Matrix::filled(sources.len(), n, inf));
    }
    let parts = parts.clamp(1, n);
    let sources_v = sources.to_vec();

    let mut init: Vec<(usize, SweepVal)> = Vec::with_capacity(parts);
    for q in 0..parts {
        let (lo, hi) = filters::part_bounds(n, parts, q);
        let mut dist = Matrix::filled(sources.len(), hi - lo, inf);
        let mut cells = dist.view_mut();
        let mut seeded = false;
        for (s, &src) in sources.iter().enumerate() {
            let src = src as usize;
            if (lo..hi).contains(&src) {
                cells.set(s, src - lo, 0.0);
                seeded = true;
            }
        }
        init.push((
            q,
            SweepVal::State {
                edges: Block::Sparse(edges.row_slab(lo, hi)),
                dist: Block::Real(dist),
                changed: u64::from(seeded),
            },
        ));
    }

    let partitioner: Arc<dyn Partitioner<usize>> = Arc::new(HashPartitioner);
    let mut state = sc.parallelize_with(init, parts, Arc::clone(&partitioner));
    let mut rounds = 0usize;
    loop {
        let active = state
            .filter(|_, v| {
                matches!(v, SweepVal::State { changed, .. } if filters::sweep_active(*changed))
            })
            .count()?;
        if active == 0 {
            break;
        }
        // Shortest paths use at most n-1 edges and each round extends
        // candidate paths by one edge, so a live frontier after n
        // rounds can only mean a negative-weight cycle keeps improving
        // some distance forever.
        if rounds >= n {
            return Err(JobError::Driver(format!(
                "sparse APSP did not converge after {n} rounds: \
                 a negative-weight cycle is reachable from a source"
            )));
        }
        rounds += 1;

        let swept = state.map_partitions(false, move |_p, items, tc| {
            let mut out: Vec<(usize, SweepVal)> = Vec::new();
            for (q, v) in items {
                let SweepVal::State {
                    edges,
                    dist,
                    changed,
                } = v
                else {
                    unreachable!("merge stages never emit update tiles")
                };
                if filters::sweep_active(changed) {
                    let dm = dist.expect_real();
                    let mut cand = Matrix::filled(dm.rows(), n, inf);
                    apply_sweep::<Tropical>(&edges, dm, inf, &mut cand, tc);
                    for t in 0..parts {
                        let (lo, hi) = filters::part_bounds(n, parts, t);
                        let tile = Csr::from_dense_cols(&cand, lo, hi, inf);
                        if tile.nnz() > 0 {
                            out.push((t, SweepVal::Updates(Block::Sparse(tile))));
                        }
                    }
                }
                out.push((
                    q,
                    SweepVal::State {
                        edges,
                        dist,
                        changed: 0,
                    },
                ));
            }
            out
        });

        let grouped = swept.group_by_key(parts, Arc::clone(&partitioner));
        let merged = grouped.map_partitions(false, move |_p, groups, _tc| {
            let mut out: Vec<(usize, SweepVal)> = Vec::new();
            for (q, vals) in groups {
                let mut state_edges: Option<Block<f64>> = None;
                let mut dist: Option<Matrix<f64>> = None;
                let mut tiles: Vec<Block<f64>> = Vec::new();
                for v in vals {
                    match v {
                        SweepVal::State { edges, dist: d, .. } => {
                            state_edges = Some(edges);
                            dist = Some(match d {
                                Block::Real(m) => m,
                                _ => panic!("sweep state distances must be dense"),
                            });
                        }
                        SweepVal::Updates(b) => tiles.push(b),
                    }
                }
                let edges = state_edges.expect("every partition carries its state");
                let mut dist = dist.expect("state carries the distance slab");
                let old = dist.clone();
                let mut cells = dist.view_mut();
                for tile in &tiles {
                    let csr = tile.expect_sparse();
                    // The view's reads are unchecked: a tile must cover
                    // exactly this slab.
                    assert_eq!(
                        (csr.rows(), csr.cols()),
                        (cells.rows(), cells.cols()),
                        "update tile shape differs from its distance slab"
                    );
                    for s in 0..csr.rows() {
                        for (j, w) in csr.row(s) {
                            if w < cells.at(s, j) {
                                cells.set(s, j, w);
                            }
                        }
                    }
                }
                // Recount the frontier against the pre-merge slab, not
                // per-tile: two tiles improving one cell is one change,
                // whatever order the shuffle delivered them in.
                let changed = old
                    .as_slice()
                    .iter()
                    .zip(dist.as_slice())
                    .filter(|(a, b)| a != b)
                    .count() as u64;
                out.push((
                    q,
                    SweepVal::State {
                        edges,
                        dist: Block::Real(dist),
                        changed,
                    },
                ));
            }
            out
        });
        state = merged.checkpoint_with_level(DEFAULT_LEVEL)?;
    }

    let mut out = Matrix::filled(sources_v.len(), n, inf);
    for (q, v) in state.collect()? {
        let SweepVal::State { dist, .. } = v else {
            unreachable!("converged state holds no update tiles")
        };
        let (lo, _) = filters::part_bounds(n, parts, q);
        out.paste_block(0, lo, dist.expect_real());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gep_kernels::graph::{bellman_ford, sparse_erdos_renyi};
    use sparklet::SparkConf;

    fn ctx() -> SparkContext {
        SparkContext::new(
            SparkConf::default()
                .with_executors(2)
                .with_partitions(4)
                .with_sim_seed(7),
        )
    }

    #[test]
    fn sweep_value_roundtrips_both_variants() {
        let inf = f64::INFINITY;
        let dense = Matrix::from_fn(2, 3, |i, j| if i == j { 1.5 } else { inf });
        let state = SweepVal::State {
            edges: Block::Sparse(Csr::from_dense(&dense, inf)),
            dist: Block::Real(Matrix::filled(2, 3, 4.0)),
            changed: 9,
        };
        let upd = SweepVal::Updates(Block::Sparse(Csr::from_dense(&dense, inf)));
        for v in [state, upd] {
            let mut buf = BytesMut::new();
            v.encode(&mut buf);
            assert_eq!(buf.len(), v.encoded_len(), "encoded_len is exact");
            let mut bytes = buf.freeze();
            assert_eq!(SweepVal::decode(&mut bytes).unwrap(), v);
            assert!(bytes.is_empty());
        }
    }

    #[test]
    fn sweep_value_decode_rejects_garbage_without_panicking() {
        let mut empty = Bytes::new();
        assert!(matches!(
            SweepVal::decode(&mut empty),
            Err(JobError::Codec(_))
        ));
        let mut bad_tag = Bytes::from_static(&[9, 0, 0]);
        assert!(matches!(
            SweepVal::decode(&mut bad_tag),
            Err(JobError::Codec(_))
        ));
        // A state whose trailing counter is truncated.
        let inf = f64::INFINITY;
        let v = SweepVal::State {
            edges: Block::Sparse(Csr::from_dense(&Matrix::filled(1, 1, inf), inf)),
            dist: Block::Real(Matrix::filled(1, 1, 0.0)),
            changed: 1,
        };
        let mut buf = BytesMut::new();
        v.encode(&mut buf);
        let mut short = buf.freeze().slice(0..v.encoded_len() - 3);
        assert!(matches!(
            SweepVal::decode(&mut short),
            Err(JobError::Codec(_))
        ));
    }

    #[test]
    fn sparse_apsp_matches_bellman_ford_bitwise() {
        let n = 23;
        let g = sparse_erdos_renyi(n, 0.15, 1.0, 10.0, 42);
        let adj = g.to_dense();
        let sources: Vec<u32> = (0..n as u32).collect();
        let sc = ctx();
        let out = solve_sparse_apsp(&sc, &g, &sources, 3).unwrap();
        for (s, &src) in sources.iter().enumerate() {
            let oracle = bellman_ford(&adj, src as usize).expect("no negative cycles");
            for (v, d) in oracle.iter().enumerate() {
                assert_eq!(out.get(s, v).to_bits(), d.to_bits(), "src={src} v={v}");
            }
        }
    }

    #[test]
    fn partition_count_is_an_execution_knob_not_a_result_knob() {
        let n = 17;
        let g = sparse_erdos_renyi(n, 0.2, 0.5, 4.0, 11);
        let sources = [0u32, 5, 16];
        let base = solve_sparse_apsp(&ctx(), &g, &sources, 1).unwrap();
        for parts in [2, 3, 5, 17, 64] {
            let out = solve_sparse_apsp(&ctx(), &g, &sources, parts).unwrap();
            assert_eq!(
                base.first_difference(&out),
                None,
                "parts={parts} drifted from the single-partition run"
            );
        }
    }

    #[test]
    fn empty_source_set_is_a_trivial_run() {
        let g = sparse_erdos_renyi(6, 0.3, 1.0, 2.0, 1);
        let out = solve_sparse_apsp(&ctx(), &g, &[], 2).unwrap();
        assert_eq!((out.rows(), out.cols()), (0, 6));
    }

    #[test]
    fn bad_shapes_are_typed_driver_errors_before_any_stage() {
        let sc = ctx();
        let g = sparse_erdos_renyi(24, 0.2, 1.0, 9.0, 11);
        let oblong = Csr::from_dense(&Matrix::filled(3, 2, 1.0), f64::INFINITY);
        for res in [
            solve_sparse_apsp(&sc, &g, &[0, 99], 3),
            solve_sparse_apsp(&sc, &oblong, &[0], 2),
        ] {
            assert!(matches!(res, Err(JobError::Driver(_))), "{res:?}");
        }
        assert_eq!(sc.summary().stages, 0);
    }

    #[test]
    fn negative_cycle_is_a_typed_driver_error() {
        // 0 → 1 → 0 with total weight -1, plus a source that reaches it.
        let inf = f64::INFINITY;
        let m = Matrix::from_vec(3, 3, vec![inf, 2.0, inf, -3.0, inf, 1.0, inf, inf, inf]);
        let g = Csr::from_dense(&m, inf);
        let err = solve_sparse_apsp(&ctx(), &g, &[0], 2).unwrap_err();
        assert!(matches!(err, JobError::Driver(ref msg) if msg.contains("negative")));
    }

    #[test]
    fn disconnected_vertices_stay_unreachable() {
        // Two components: {0,1} and {2}.
        let inf = f64::INFINITY;
        let m = Matrix::from_vec(3, 3, vec![inf, 1.0, inf, 1.0, inf, inf, inf, inf, inf]);
        let g = Csr::from_dense(&m, inf);
        let out = solve_sparse_apsp(&ctx(), &g, &[0, 2], 3).unwrap();
        assert_eq!(out.get(0, 0), 0.0);
        assert_eq!(out.get(0, 1), 1.0);
        assert_eq!(out.get(0, 2), inf);
        assert_eq!(out.get(1, 2), 0.0);
        assert_eq!(out.get(1, 0), inf);
    }
}
