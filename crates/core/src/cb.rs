//! The Collect-Broadcast (CB) implementation — Listing 2 of the paper.
//!
//! Instead of shuffling block copies through wide dependencies, each
//! iteration collects the updated diagonal (then the updated panels) to
//! the driver and redistributes them to executors through shared
//! persistent storage (broadcast). Trading shuffle traffic for driver
//! serialization and auxiliary storage is exactly the paper's stated
//! trade; the cost model prices the driver phases from the
//! `log_driver_traffic` records emitted here.
//!
//! Every branch of an iteration (the untouched blocks, the rebuilt
//! A/B/C blocks, the updated D blocks) is a filter or a
//! partitioning-preserving map of the table, so the closing union zips
//! them partition by partition and Listing 2's repartition elides: an
//! iteration stages no shuffle bytes at all.

use std::collections::HashMap;
use std::sync::Arc;

use gep_kernels::gep::Kind;
use sparklet::{JobError, Rdd, SparkContext, Storable};

use crate::block::Block;
use crate::filters;
use crate::kernels::apply_kernel;
use crate::problem::DpProblem;
use crate::solver::Plan;

type K = (usize, usize);

/// One CB iteration: consumes the DP table RDD for phase `k`, returns
/// the updated (not yet checkpointed) table RDD.
///
/// The D-block update and the A/B/C rebuild are independent branches
/// over the cached table, so their materializations are submitted as
/// concurrent jobs ([`Rdd::persist_async`] /
/// [`Rdd::checkpoint_async_with_level`]) at the plan's level; its
/// `keep_lineage` selects persist (recompute-backed) over checkpoint
/// (lineage-cutting).
pub(crate) fn step<S: DpProblem>(
    sc: &SparkContext,
    dp: &Rdd<K, Block<S::Elem>>,
    k: usize,
    plan: &Plan<S>,
) -> Result<Rdd<K, Block<S::Elem>>, JobError> {
    let (b, level) = (plan.block, plan.level);
    let kc = plan.kernel.clone();
    let kc_bc = plan.kernel.clone();
    let kc_d = plan.kernel.clone();

    // ---- Stage 1: A kernel, collect to driver, broadcast ------------
    let a_up = dp
        .filter(move |key, _| filters::filter_a(*key, k))
        .map_partitions(true, move |_p, items, tc| {
            items
                .into_iter()
                .map(|(key, mut blk)| {
                    apply_kernel(&kc, Kind::A, key, k, &mut blk, None, None, None, tc);
                    (key, blk)
                })
                .collect()
        });
    let a_items = a_up.collect()?;
    debug_assert_eq!(a_items.len(), 1, "exactly one diagonal block");
    let bc_a = sc.broadcast(&a_items);
    sc.log_driver_traffic(
        &format!("cb.iter{k}.bcast-a"),
        0,
        a_items.approx_bytes() as u64,
    );

    // ---- Stage 2: B and C kernels with the broadcast diagonal -------
    let bc_a_for_bc = bc_a.clone();
    let bc_up = dp
        .filter(move |key, _| {
            filters::filter_b::<S>(*key, k, b) || filters::filter_c::<S>(*key, k, b)
        })
        .map_partitions(true, move |_p, items, tc| {
            let a = bc_a_for_bc.value(tc).expect("diagonal broadcast available");
            let diag = &a[0].1;
            items
                .into_iter()
                .map(|(key, mut blk)| {
                    let kind = if key.0 == k { Kind::B } else { Kind::C };
                    apply_kernel(&kc_bc, kind, key, k, &mut blk, None, None, Some(diag), tc);
                    (key, blk)
                })
                .collect()
        });
    let panel_items = bc_up.collect()?;
    let bc_panels = sc.broadcast(&panel_items);
    sc.log_driver_traffic(
        &format!("cb.iter{k}.bcast-panels"),
        0,
        panel_items.approx_bytes() as u64,
    );

    // ---- Stage 3: D kernels with broadcast operands ------------------
    let bc_a_for_d = bc_a.clone();
    let bc_panels_for_d = bc_panels.clone();
    let d_up = dp
        .filter(move |key, _| filters::filter_d::<S>(*key, k, b))
        .map_partitions(true, move |_p, items, tc| {
            if items.is_empty() {
                return items;
            }
            let a = bc_a_for_d.value(tc).expect("diagonal broadcast available");
            let panels = bc_panels_for_d
                .value(tc)
                .expect("panel broadcast available");
            let diag = &a[0].1;
            // Index the broadcast panels once per partition: every D
            // block looks up two operands, and a linear scan per
            // lookup is quadratic in the panel count.
            let by_key: HashMap<K, usize> = panels
                .iter()
                .enumerate()
                .map(|(idx, (key, _))| (*key, idx))
                .collect();
            items
                .into_iter()
                .map(|((i, j), mut blk)| {
                    let u = &panels[*by_key.get(&(i, k)).expect("column-panel operand")].1;
                    let v = &panels[*by_key.get(&(k, j)).expect("row-panel operand")].1;
                    apply_kernel(
                        &kc_d,
                        Kind::D,
                        (i, j),
                        k,
                        &mut blk,
                        Some(u),
                        Some(v),
                        Some(diag),
                        tc,
                    );
                    ((i, j), blk)
                })
                .collect()
        });

    // ---- Rebuild A/B/C blocks from the broadcast (executors read the
    //      shared files rather than recomputing the kernels; each block
    //      shares the decoded broadcast tile's cells) -----------------
    let bc_a_for_abc = bc_a.clone();
    let bc_panels_for_abc = bc_panels.clone();
    let updated_abc = dp
        .filter(move |key, _| {
            filters::filter_a(*key, k)
                || filters::filter_b::<S>(*key, k, b)
                || filters::filter_c::<S>(*key, k, b)
        })
        .map_partitions(true, move |_p, items, tc| {
            if items.is_empty() {
                return items;
            }
            let a = bc_a_for_abc
                .value(tc)
                .expect("diagonal broadcast available");
            let panels = bc_panels_for_abc
                .value(tc)
                .expect("panel broadcast available");
            let by_key: HashMap<K, usize> = panels
                .iter()
                .enumerate()
                .map(|(idx, (key, _))| (*key, idx))
                .collect();
            items
                .into_iter()
                .map(|(key, _old)| {
                    let fresh = if filters::filter_a(key, k) {
                        a[0].1.clone()
                    } else {
                        panels[*by_key.get(&key).expect("updated panel present")]
                            .1
                            .clone()
                    };
                    (key, fresh)
                })
                .collect()
        });

    // ---- Materialize the two independent branches concurrently ------
    // D and the A/B/C rebuild read only the cached table and the
    // broadcasts — neither depends on the other — so both jobs are
    // submitted at once and the driver runs their stages side by side.
    let (d_handle, abc_handle) = if plan.keep_lineage {
        (d_up.persist_async(level), updated_abc.persist_async(level))
    } else {
        (
            d_up.checkpoint_async_with_level(level),
            updated_abc.checkpoint_async_with_level(level),
        )
    };
    let d_up = d_handle.wait()?;
    let updated_abc = abc_handle.wait()?;

    // ---- Wrap up: union everything; the repartition elides ----------
    let untouched = dp.filter(move |key, _| !filters::touched::<S>(*key, k, b));
    Ok(sc
        .union(vec![untouched, updated_abc, d_up])
        .partition_by(plan.partitions, Arc::clone(&plan.partitioner)))
}
