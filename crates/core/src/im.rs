//! The In-Memory (IM) implementation — Listing 1 of the paper.
//!
//! One iteration `k` of the blocked GEP runs as three Spark-style
//! stages, with updated blocks *copied* to their consumers through wide
//! dependencies:
//!
//! 1. **A stage** — the diagonal block updates itself and flat-maps
//!    `2(r-k-1) + (r-k-1)²` tagged copies of itself toward the B, C,
//!    and D consumers (the copy multiplicity the paper identifies as
//!    IM's bottleneck for heavy dependency patterns like GE);
//! 2. **BC stage** — a `cogroup` joins each panel block with its
//!    diagonal copy; kernels B/C run and flat-map their own copies
//!    toward the D consumers;
//! 3. **D stage** — a second `cogroup` joins each trailing block with
//!    its U/V/W operands; kernel D runs.
//!
//! Each `cogroup` takes the blocks being updated in place (the table's
//! panel or trailing blocks, already placed by the plan's partitioner)
//! as a narrow side, so only the tagged copies, plus the A and B/C
//! blocks passing through, shuffle: two shuffles an iteration. The D
//! stage keeps the placement, so the closing union with the untouched
//! blocks zips partition by partition and Listing 1's repartition
//! (line 22) elides.

use std::sync::Arc;

use gep_kernels::gep::Kind;
use sparklet::{JobError, Rdd};

use crate::block::Block;
use crate::filters;
use crate::kernels::apply_kernel;
use crate::problem::DpProblem;
use crate::solver::Plan;

/// Value tags distinguishing a block's own payload from operand copies.
pub const ROLE_MAIN: u8 = 0;
/// Copy of the phase's diagonal block (`w`, and `u`/`v` for B/C).
pub const ROLE_DIAG: u8 = 1;
/// Copy of a column-panel block (`u` operand of D).
pub const ROLE_U: u8 = 2;
/// Copy of a row-panel block (`v` operand of D).
pub const ROLE_V: u8 = 3;

type K = (usize, usize);
/// Tagged block stream flowing between the IM stages.
type Tagged<E> = Vec<(K, (u8, Block<E>))>;

fn pick<E>(group: &[(u8, Block<E>)], role: u8) -> Option<usize> {
    group.iter().position(|(r, _)| *r == role)
}

/// One IM iteration: consumes the DP table RDD for phase `k`, returns
/// the updated (not yet checkpointed) table RDD.
pub(crate) fn step<S: DpProblem>(
    dp: &Rdd<K, Block<S::Elem>>,
    k: usize,
    plan: &Plan<S>,
) -> Result<Rdd<K, Block<S::Elem>>, JobError> {
    let (g, b, partitions) = (plan.grid, plan.block, plan.partitions);
    // ---- Stage 1: A kernel + copies to every consumer --------------
    let kc = plan.kernel.clone();
    let kc_bc = plan.kernel.clone();
    let kc_d = plan.kernel.clone();
    let a_all = dp
        .filter(move |key, _| filters::filter_a(*key, k))
        .map_partitions(false, move |_p, items, tc| {
            let mut out: Tagged<S::Elem> = Vec::new();
            for (key, mut blk) in items {
                apply_kernel(&kc, Kind::A, key, k, &mut blk, None, None, None, tc);
                for j in 0..g {
                    if filters::filter_b::<S>((k, j), k, b) {
                        out.push(((k, j), (ROLE_DIAG, blk.clone())));
                    }
                }
                for i in 0..g {
                    if filters::filter_c::<S>((i, k), k, b) {
                        out.push(((i, k), (ROLE_DIAG, blk.clone())));
                    }
                }
                // D kernels only need the diagonal when `f` reads `w`
                // (GE); FW-APSP and TC skip these (r-k-1)² copies.
                if S::USES_W {
                    for i in 0..g {
                        for j in 0..g {
                            if filters::filter_d::<S>((i, j), k, b) {
                                out.push(((i, j), (ROLE_DIAG, blk.clone())));
                            }
                        }
                    }
                }
                out.push((key, (ROLE_MAIN, blk)));
            }
            out
        });

    // ---- Stage 2: cogroup panels with the diagonal; run B and C ----
    // The panel mains stay where they are (the narrow side); only the
    // A stage's output shuffles to them.
    let bc_mains = dp.filter(move |key, _| {
        filters::filter_b::<S>(*key, k, b) || filters::filter_c::<S>(*key, k, b)
    });
    let abc_grouped = bc_mains.cogroup(&a_all, partitions, Arc::clone(&plan.partitioner));
    let bc_out = abc_grouped.map_partitions(false, move |_p, groups, tc| {
        let mut out: Tagged<S::Elem> = Vec::new();
        for (key, (mut mains, mut group)) in groups {
            let is_b = filters::filter_b::<S>(key, k, b);
            if filters::filter_a(key, k) {
                // The diagonal block passes through to the final union.
                let main = pick(&group, ROLE_MAIN).expect("A main present");
                out.push((key, group.swap_remove(main)));
            } else if is_b || filters::filter_c::<S>(key, k, b) {
                // A row-panel block (B) is the `v` operand of the D
                // blocks in its block column; a column-panel block (C)
                // is the `u` operand of those in its block row.
                let (kind, role) = if is_b {
                    (Kind::B, ROLE_V)
                } else {
                    (Kind::C, ROLE_U)
                };
                let d = pick(&group, ROLE_DIAG).expect("a panel needs the diagonal copy");
                let diag = group.swap_remove(d).1;
                let mut blk = mains.pop().expect("panel main present");
                apply_kernel(&kc_bc, kind, key, k, &mut blk, None, None, Some(&diag), tc);
                for t in 0..g {
                    let consumer = if is_b { (t, key.1) } else { (key.0, t) };
                    if filters::filter_d::<S>(consumer, k, b) {
                        out.push((consumer, (role, blk.clone())));
                    }
                }
                out.push((key, (ROLE_MAIN, blk)));
            } else {
                // Diagonal copies addressed to D blocks pass through to
                // the next stage (they were grouped here because the A
                // stage emits everything at once, as in Listing 1).
                for item in group {
                    out.push((key, item));
                }
            }
        }
        out
    });

    // ---- Stage 3: cogroup trailing blocks with operands; run D -----
    // Same shape: the D mains are the narrow side, and the output keeps
    // the placement, so the closing repartition elides.
    let d_mains = dp.filter(move |key, _| filters::filter_d::<S>(*key, k, b));
    let d_grouped = d_mains.cogroup(&bc_out, partitions, Arc::clone(&plan.partitioner));
    let updated = d_grouped.map_partitions(true, move |_p, groups, tc| {
        let mut out: Vec<(K, Block<S::Elem>)> = Vec::new();
        for (key, (mut mains, mut group)) in groups {
            if filters::filter_d::<S>(key, k, b) {
                let mut blk = mains.pop().expect("D main present");
                let u = pick(&group, ROLE_U).expect("D needs a U copy");
                let u_blk = group.swap_remove(u).1;
                let v = pick(&group, ROLE_V).expect("D needs a V copy");
                let v_blk = group.swap_remove(v).1;
                let w_blk = if S::USES_W {
                    let w = pick(&group, ROLE_DIAG).expect("D needs the diagonal");
                    Some(group.swap_remove(w).1)
                } else {
                    None
                };
                apply_kernel(
                    &kc_d,
                    Kind::D,
                    key,
                    k,
                    &mut blk,
                    Some(&u_blk),
                    Some(&v_blk),
                    w_blk.as_ref(),
                    tc,
                );
                out.push((key, blk));
            } else {
                // A/B/C mains pass through unchanged.
                let m = pick(&group, ROLE_MAIN).expect("main present");
                out.push((key, group.swap_remove(m).1));
            }
        }
        out
    });

    // ---- Wrap up: union untouched blocks; the repartition elides ----
    let untouched = dp.filter(move |key, _| !filters::touched::<S>(*key, k, b));
    Ok(untouched
        .union(&updated)
        .partition_by(partitions, Arc::clone(&plan.partitioner)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DpConfig;
    use gep_kernels::Tropical;
    use sparklet::{SparkConf, SparkContext};

    /// Pin the stage graph the DAG scheduler extracts from one
    /// representative IM iteration: each `cogroup` shuffles only the
    /// stage output feeding it (4 map tasks), the two chain, and the
    /// result stage hangs off the second. The in-place sides and the
    /// closing repartition elide. If stage extraction, fusion of the narrow filter/map
    /// chains, or the explain format drifts, this fails.
    #[test]
    fn explain_pins_the_im_iteration_stage_graph() {
        let g = 3;
        let b = 2;
        let parts = 4;
        let sc = SparkContext::new(
            SparkConf::default()
                .with_executors(2)
                .with_partitions(parts),
        );
        let mut blocks: Vec<(K, Block<f64>)> = Vec::new();
        for i in 0..g {
            for j in 0..g {
                blocks.push(((i, j), Block::Virtual { rows: b, cols: b }));
            }
        }
        let plan = Plan::<Tropical>::new(&sc, &DpConfig::new(g * b, b).with_grid_partitioner(true))
            .expect("the default config resolves");
        let dp = sc.parallelize_with(blocks, parts, Arc::clone(&plan.partitioner));
        let next = step(&dp, 1, &plan).expect("IM iterations build lazily");
        let plan = next.explain();
        let expected = "\
== stage graph ==
stage shuffle#1 partition_by [4 map tasks -> 4 partitions] <- [input]
stage shuffle#2 partition_by [4 map tasks -> 4 partitions] <- [shuffle#1]
stage result <- [shuffle#2]
note: 3 shuffle(s) elided (already co-partitioned)
";
        assert!(
            plan.contains(expected),
            "stage graph drifted; explain() now prints:\n{plan}"
        );
    }
}
