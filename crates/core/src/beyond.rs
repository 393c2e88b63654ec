//! Beyond GEP: distributed solvers for DP families outside the GEP
//! form — implementing the paper's future work #1 on the same engine.
//! Two dependency shapes are covered: the triangular wavefront of the
//! parenthesis problem and the anti-diagonal grid wavefront of
//! sequence alignment (LCS / Needleman–Wunsch).
//!
//! The parenthesis dependency structure is a triangular wavefront:
//! block `(I, J)` of the upper-triangular table needs every `(I, K)`
//! and `(K, J)` with `I ≤ K ≤ J`. Blocks on the same block-diagonal
//! `d = J − I` are independent, so the driver walks diagonals,
//! broadcasting the finished blocks (Collect-Broadcast style — wide
//! shuffles would have to re-ship the growing prefix every step) and
//! running one task per block of the diagonal. Inside a task, the
//! middle operands fold in through the min-plus GEMM and the block is
//! finished with the same base kernels the shared-memory R-DP uses.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use gep_kernels::parenthesis::{self, ParenWeight};
use gep_kernels::Matrix;
use sparklet::{JobError, SparkContext, Storable};

use crate::block::Block;

type K = (usize, usize);

/// Newtype so the weight spec can cross executor boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightMsg(pub ParenWeight);

impl Storable for WeightMsg {
    fn encoded_len(&self) -> usize {
        1 + match &self.0 {
            ParenWeight::MatrixChain(dims) => dims.encoded_len(),
            ParenWeight::Polygon(v) => v.encoded_len(),
            ParenWeight::Zero => 0,
        }
    }

    fn encode(&self, buf: &mut BytesMut) {
        match &self.0 {
            ParenWeight::MatrixChain(dims) => {
                buf.put_u8(0);
                dims.encode(buf);
            }
            ParenWeight::Polygon(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
            ParenWeight::Zero => buf.put_u8(2),
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, JobError> {
        if buf.remaining() < 1 {
            return Err(JobError::Codec("weight tag underrun".into()));
        }
        Ok(WeightMsg(match buf.get_u8() {
            0 => ParenWeight::MatrixChain(Vec::<u64>::decode(buf)?),
            1 => ParenWeight::Polygon(Vec::<f64>::decode(buf)?),
            2 => ParenWeight::Zero,
            t => return Err(JobError::Codec(format!("bad weight tag {t}"))),
        }))
    }
}

/// Compute one block `(bi, bj)` given the already-finished blocks.
/// `b` is the block side; offsets are global.
fn compute_block(
    bi: usize,
    bj: usize,
    b: usize,
    finished: &[(K, Block<f64>)],
    weight: &ParenWeight,
    init: &Matrix<f64>,
) -> Matrix<f64> {
    let lookup = |key: K| -> &Matrix<f64> {
        finished
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, blk)| blk.expect_real())
            .unwrap_or_else(|| panic!("block {key:?} not finished yet"))
    };
    let mut x = init.copy_block(bi * b, bj * b, b, b);
    if bi == bj {
        // Independent diagonal sub-problem.
        let pool = crate::kernels::omp_pool(1);
        let view = x.view_mut_at(bi * b, bi * b);
        parenthesis::rec_a(&pool, 64, view, weight);
        return x;
    }
    {
        let mut xv = x.view_mut_at(bi * b, bj * b);
        // Middle contributions: strictly-between block columns.
        for k in (bi + 1)..bj {
            let a = lookup((bi, k));
            let c = lookup((k, bj));
            parenthesis::paren_gemm(
                &mut xv,
                a.view_at(bi * b, k * b),
                c.view_at(k * b, bj * b),
                weight,
            );
        }
        // Finish with the diagonal operands (handles in-block k too).
        let u = lookup((bi, bi));
        let v = lookup((bj, bj));
        let pool = crate::kernels::omp_pool(1);
        parenthesis::rec_b(
            &pool,
            64,
            xv,
            u.view_at(bi * b, bi * b),
            v.view_at(bj * b, bj * b),
            weight,
        );
    }
    x
}

/// Distributed parenthesis solve: block side `b`, table side `n+1`
/// padded up to a multiple of `b`. Returns the full (unpadded) table,
/// or [`JobError::Driver`] before any stage when `b == 0` or `weight`
/// has no size (`Zero`, or an empty chain or polygon).
pub fn solve_parenthesis(
    sc: &SparkContext,
    weight: &ParenWeight,
    b: usize,
) -> Result<Matrix<f64>, JobError> {
    if b == 0 {
        return Err(JobError::Driver("block side must be at least 1".into()));
    }
    let sized = match weight {
        ParenWeight::MatrixChain(dims) => !dims.is_empty(),
        ParenWeight::Polygon(vs) => !vs.is_empty(),
        ParenWeight::Zero => false,
    };
    if !sized {
        return Err(JobError::Driver(format!(
            "parenthesization weight {weight:?} carries no table size"
        )));
    }
    let n1 = weight.n() + 1;
    let g = n1.div_ceil(b);
    let padded = g * b;
    // Padded init table: extra rows/columns stay ∞ except the diagonal
    // (0) — inert because every candidate through them is ∞. The fresh
    // table pasted into its corner is ∞ below its diagonal too.
    let mut init = Matrix::from_fn(
        padded,
        padded,
        |i, j| if i == j { 0.0 } else { f64::INFINITY },
    );
    init.paste_block(0, 0, &parenthesis::init_table(weight));

    let bc_weight = sc.broadcast(&WeightMsg(weight.clone()));
    let bc_init = sc.broadcast(&Block::Real(init.clone()));
    let mut finished: Vec<(K, Block<f64>)> = Vec::new();
    for d in 0..g {
        let keys: Vec<(K, Block<f64>)> = (0..(g - d))
            .map(|i| ((i, i + d), Block::Virtual { rows: 0, cols: 0 }))
            .collect();
        let bc_finished = sc.broadcast(&finished);
        sc.log_driver_traffic(
            &format!("paren.diag{d}.bcast"),
            0,
            finished.approx_bytes() as u64,
        );
        let bcw = bc_weight.clone();
        let bci = bc_init.clone();
        let bcf = bc_finished.clone();
        let block_side = b;
        let rdd = sc
            .parallelize(keys, None)
            .map_partitions(true, move |_p, items, tc| {
                if items.is_empty() {
                    return items;
                }
                let weight = bcw.value(tc).expect("weight broadcast");
                let init = bci.value(tc).expect("init broadcast");
                let done = bcf.value(tc).expect("finished broadcast");
                items
                    .into_iter()
                    .map(|((bi, bj), _)| {
                        let m =
                            compute_block(bi, bj, block_side, &done, &weight.0, init.expect_real());
                        ((bi, bj), Block::Real(m))
                    })
                    .collect()
            });
        let mut new_blocks = rdd.collect()?;
        finished.append(&mut new_blocks);
    }

    // Assemble and unpad.
    let mut out = Matrix::square(padded, f64::INFINITY);
    for ((bi, bj), blk) in &finished {
        out.paste_block(bi * b, bj * b, blk.expect_real());
    }
    Ok(out.copy_block(0, 0, n1, n1))
}

/// Alignment scoring message (crosses executor boundaries).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreMsg(pub gep_kernels::alignment::AlignScore);

impl Storable for ScoreMsg {
    fn encoded_len(&self) -> usize {
        use gep_kernels::alignment::AlignScore;
        match &self.0 {
            AlignScore::Lcs => 1,
            AlignScore::NeedlemanWunsch { .. } => 1 + 3 * 8,
        }
    }

    fn encode(&self, buf: &mut BytesMut) {
        use gep_kernels::alignment::AlignScore;
        match &self.0 {
            AlignScore::Lcs => buf.put_u8(0),
            AlignScore::NeedlemanWunsch {
                matched,
                mismatch,
                gap,
            } => {
                buf.put_u8(1);
                matched.encode(buf);
                mismatch.encode(buf);
                gap.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, JobError> {
        use gep_kernels::alignment::AlignScore;
        if buf.remaining() < 1 {
            return Err(JobError::Codec("score tag underrun".into()));
        }
        Ok(ScoreMsg(match buf.get_u8() {
            0 => AlignScore::Lcs,
            1 => AlignScore::NeedlemanWunsch {
                matched: i64::decode(buf)?,
                mismatch: i64::decode(buf)?,
                gap: i64::decode(buf)?,
            },
            t => return Err(JobError::Codec(format!("bad score tag {t}"))),
        }))
    }
}

/// Halos a finished alignment block exports to its neighbours: its
/// bottom row (consumed by the block below) and right column (consumed
/// by the block to the right); the shared corner is the last entry of
/// both.
type Halo = (Vec<i64>, Vec<i64>);

/// Distributed LCS / Needleman–Wunsch: anti-diagonal block wavefront
/// with halo broadcast per diagonal. Returns the full `(n+1)×(m+1)`
/// score table (so callers can trace back). With an empty sequence
/// the table is its boundary, returned before any stage runs.
pub fn solve_alignment(
    sc: &SparkContext,
    a: &[u8],
    b: &[u8],
    score: &gep_kernels::alignment::AlignScore,
    block: usize,
) -> Result<Matrix<i64>, JobError> {
    use gep_kernels::alignment::align_block;
    let (n, m) = (a.len(), b.len());
    let mut table = gep_kernels::alignment::boundary_table(n, m, score);
    if n == 0 || m == 0 {
        return Ok(table);
    }
    let block = block.max(1);
    let row_blocks = n.div_ceil(block);
    let col_blocks = m.div_ceil(block);

    let bc_a = sc.broadcast(&a.to_vec());
    let bc_b = sc.broadcast(&b.to_vec());
    let bc_score = sc.broadcast(&ScoreMsg(score.clone()));

    // Halos of finished blocks, grown per diagonal.
    let mut halos: Vec<(K, Halo)> = Vec::new();
    let mut blocks_out: Vec<((usize, usize), Matrix<i64>)> = Vec::new();

    for d in 0..(row_blocks + col_blocks - 1) {
        let keys: Vec<((usize, usize), u8)> = (0..row_blocks)
            .filter_map(|ii| {
                let jj = d.checked_sub(ii)?;
                (jj < col_blocks).then_some(((ii, jj), 0u8))
            })
            .collect();
        if keys.is_empty() {
            continue;
        }
        let bc_halos = sc.broadcast(&halos);
        sc.log_driver_traffic(
            &format!("align.diag{d}.bcast"),
            0,
            halos.approx_bytes() as u64,
        );
        let (bca, bcb, bcs, bch) = (
            bc_a.clone(),
            bc_b.clone(),
            bc_score.clone(),
            bc_halos.clone(),
        );
        let blk = block;
        let rdd = sc.parallelize(keys, None).map_partitions(
            false,
            move |_p, items, tc| -> Vec<((usize, usize), Vec<i64>)> {
                if items.is_empty() {
                    return Vec::new();
                }
                let a = bca.value(tc).expect("sequence a");
                let b = bcb.value(tc).expect("sequence b");
                let ScoreMsg(ref score) = *bcs.value(tc).expect("score");
                let halos = bch.value(tc).expect("halos");
                let halo_of = |key: K| -> Option<&Halo> {
                    halos.iter().find(|(k, _)| *k == key).map(|(_, h)| h)
                };
                let (n, m) = (a.len(), b.len());
                items
                    .into_iter()
                    .map(|((ii, jj), _)| {
                        let r0 = 1 + ii * blk;
                        let c0 = 1 + jj * blk;
                        let rows = blk.min(n + 1 - r0);
                        let cols = blk.min(m + 1 - c0);
                        // Assemble incoming halos.
                        let boundary_row = |gj: usize| score.boundary(gj);
                        let top: Vec<i64> = if ii == 0 {
                            (0..=cols).map(|j| boundary_row(c0 - 1 + j)).collect()
                        } else {
                            let above = halo_of((ii - 1, jj)).expect("block above finished");
                            let corner = if jj == 0 {
                                score.boundary(r0 - 1)
                            } else {
                                *halo_of((ii - 1, jj - 1))
                                    .expect("diagonal block finished")
                                    .0
                                    .last()
                                    .expect("non-empty halo")
                            };
                            let mut t = Vec::with_capacity(cols + 1);
                            t.push(corner);
                            t.extend_from_slice(&above.0[..cols]);
                            t
                        };
                        let left: Vec<i64> = if jj == 0 {
                            (0..rows).map(|i| score.boundary(r0 + i)).collect()
                        } else {
                            halo_of((ii, jj - 1)).expect("block left finished").1[..rows].to_vec()
                        };
                        let mut data = Matrix::filled(rows, cols, 0i64);
                        align_block(&mut data.view_mut_at(r0, c0), &top, &left, &a, &b, score);
                        // Flatten for the wire (row-major + dims in key
                        // order reconstruction happens on the driver).
                        let mut flat = Vec::with_capacity(rows * cols + 2);
                        flat.push(rows as i64);
                        flat.push(cols as i64);
                        flat.extend_from_slice(data.as_slice());
                        ((ii, jj), flat)
                    })
                    .collect()
            },
        );
        let computed = rdd.collect()?;
        for ((ii, jj), flat) in computed {
            let rows = flat[0] as usize;
            let cols = flat[1] as usize;
            let data = Matrix::from_vec(rows, cols, flat[2..].to_vec());
            // Export halos for the next diagonals.
            let bottom: Vec<i64> = (0..cols).map(|j| data.get(rows - 1, j)).collect();
            let right: Vec<i64> = (0..rows).map(|i| data.get(i, cols - 1)).collect();
            halos.push(((ii, jj), (bottom, right)));
            blocks_out.push(((ii, jj), data));
        }
    }

    // Paste the interior blocks inside the boundaries.
    for ((ii, jj), data) in &blocks_out {
        table.paste_block(1 + ii * block, 1 + jj * block, data);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparklet::SparkConf;
    use testkit::Rng;

    fn random_dims(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Rng::new(seed);
        (0..=n).map(|_| rng.range(1u64..=30)).collect()
    }

    fn ctx() -> SparkContext {
        SparkContext::new(SparkConf::default().with_executors(3).with_partitions(6))
    }

    #[test]
    fn distributed_mcm_matches_reference_bitwise() {
        for &(n, b, seed) in &[(15usize, 4usize, 3u64), (20, 8, 7), (23, 6, 11)] {
            let w = ParenWeight::MatrixChain(random_dims(n, seed));
            let sc = ctx();
            let dist = solve_parenthesis(&sc, &w, b).expect("solve");
            let reference = parenthesis::solve_reference(&w);
            assert_eq!(dist.first_difference(&reference), None, "n={n} b={b}");
        }
    }

    #[test]
    fn zero_block_side_is_a_driver_error_before_any_stage() {
        let w = ParenWeight::MatrixChain(random_dims(7, 3));
        let sc = ctx();
        let err = solve_parenthesis(&sc, &w, 0).unwrap_err();
        assert!(matches!(err, JobError::Driver(_)), "{err}");
        assert_eq!(sc.summary().stages, 0);
    }

    #[test]
    fn sizeless_weights_are_driver_errors_before_any_stage() {
        for w in [
            ParenWeight::Zero,
            ParenWeight::MatrixChain(Vec::new()),
            ParenWeight::Polygon(Vec::new()),
        ] {
            let sc = ctx();
            let got = solve_parenthesis(&sc, &w, 4);
            assert!(matches!(got, Err(JobError::Driver(_))), "{w:?}: {got:?}");
            assert_eq!(sc.summary().stages, 0, "{w:?}");
        }
    }

    #[test]
    fn distributed_polygon_matches_reference() {
        let w = ParenWeight::Polygon((1..=13).map(|i| i as f64 / 3.0).collect());
        let sc = ctx();
        let dist = solve_parenthesis(&sc, &w, 5).expect("solve");
        let reference = parenthesis::solve_reference(&w);
        assert_eq!(dist.first_difference(&reference), None);
    }

    #[test]
    fn weight_message_roundtrips() {
        use sparklet::codec::{decode_one, encode_one};
        for w in [
            ParenWeight::MatrixChain(vec![3, 4, 5]),
            ParenWeight::Polygon(vec![0.5, 1.5]),
            ParenWeight::Zero,
        ] {
            let msg = WeightMsg(w);
            let dec: WeightMsg = decode_one(encode_one(&msg)).unwrap();
            assert_eq!(dec, msg);
        }
    }

    #[test]
    fn distributed_lcs_matches_reference() {
        use gep_kernels::alignment::{align_reference, traceback_lcs, AlignScore};
        let a = b"CTGATCGATTACAGGCTAGCTTAGCGAGTTACA";
        let b = b"GATTACACTGAGCTAGCTAACGATCGGATTC";
        let sc = ctx();
        for blk in [5usize, 8, 40] {
            let table = solve_alignment(&sc, a, b, &AlignScore::Lcs, blk).expect("solve");
            let reference = align_reference(a, b, &AlignScore::Lcs);
            assert_eq!(table.first_difference(&reference), None, "blk={blk}");
        }
        let table = solve_alignment(&sc, a, b, &AlignScore::Lcs, 8).unwrap();
        let lcs = traceback_lcs(&table, a, b);
        assert_eq!(lcs.len() as i64, table.get(a.len(), b.len()));
    }

    #[test]
    fn distributed_nw_matches_reference() {
        use gep_kernels::alignment::{align_reference, AlignScore};
        let score = AlignScore::NeedlemanWunsch {
            matched: 2,
            mismatch: -1,
            gap: -2,
        };
        let a = b"ACGTACGTTAGC";
        let b = b"ACTTAGCATCG";
        let sc = ctx();
        let table = solve_alignment(&sc, a, b, &score, 4).expect("solve");
        let reference = align_reference(a, b, &score);
        assert_eq!(table.first_difference(&reference), None);
    }

    #[test]
    fn alignment_edge_shapes() {
        use gep_kernels::alignment::{align_reference, AlignScore};
        let sc = ctx();
        // Sequences shorter than the block.
        let t = solve_alignment(&sc, b"AB", b"ABC", &AlignScore::Lcs, 16).unwrap();
        let r = align_reference(b"AB", b"ABC", &AlignScore::Lcs);
        assert_eq!(t.first_difference(&r), None);
        // Strongly rectangular.
        let t = solve_alignment(&sc, b"AAAAAAAAAAAAAAAA", b"AA", &AlignScore::Lcs, 4).unwrap();
        assert_eq!(t.get(16, 2), 2);
    }

    #[test]
    fn empty_sequences_return_the_boundary_table_before_any_stage() {
        use gep_kernels::alignment::{align_reference, AlignScore};
        let nw = AlignScore::NeedlemanWunsch {
            matched: 1,
            mismatch: -1,
            gap: -2,
        };
        for score in [AlignScore::Lcs, nw] {
            for (a, b) in [(&b""[..], &b"ACGT"[..]), (b"ACGT", b""), (b"", b"")] {
                let sc = ctx();
                let table = solve_alignment(&sc, a, b, &score, 4).expect("a valid input");
                assert_eq!(table.first_difference(&align_reference(a, b, &score)), None);
                assert_eq!(sc.summary().stages, 0);
            }
        }
    }

    #[test]
    fn driver_traffic_is_logged_per_diagonal() {
        let w = ParenWeight::MatrixChain(random_dims(11, 5));
        let sc = ctx();
        solve_parenthesis(&sc, &w, 4).expect("solve");
        sc.with_event_log(|log| {
            assert!(log.summary().broadcast_bytes > 0);
            // 3 block diagonals ⇒ 3 broadcast pseudo-stages.
            let bcast_stages = log
                .stages()
                .iter()
                .filter(|s| s.label.contains("paren.diag"))
                .count();
            assert_eq!(bcast_stages, 3);
        });
    }
}
