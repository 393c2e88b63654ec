//! Acceptance tests for the tiered block storage subsystem: a
//! Floyd–Warshall solve whose per-iteration materializations
//! do not fit in executor memory must still complete bit-identically to
//! the sequential oracle — by spilling serialized blocks to the disk
//! tier (`MemoryAndDisk`), or by dropping and lineage-recomputing them
//! (`MemoryOnly` + `recompute_on_evict`) — and stay byte-reconciled
//! under the fault-injection matrix from the attempt-fencing work.
//! Bit-identity is what every row checks; these pin the counters.

mod harness;

use dp_core::{DpConfig, Strategy};
use harness::{cluster, per_node, Case, Chaos, Problem};
use sparklet::{SparkContext, StorageLevel};

/// n = 32, block = 8 ⇒ a 4×4 block grid, `MemoryAndDisk` by default.
fn fw(seed: u64) -> Case {
    Case::new(Problem::Fw, 32, 8)
        .seed(seed)
        .on(cluster(4, 2, 16))
}

fn capped(case: Case, bytes: u64) -> Case {
    case.conf(|c| c.with_executor_memory(bytes))
}

/// One table generation's memory-tier bytes on one node: the 4×4
/// grid's 16 tiles of 546 declared bytes (an 8×8 `f64` block and its
/// key) over 4 nodes. An uncapped iteration holds the old generation
/// and the new one at once, so a cap of one table is below the
/// working set.
const TABLE_PER_NODE: u64 = 16 * 546 / 4;

/// Per-node (memory, disk) bytes still cached.
fn cached(sc: &SparkContext) -> Vec<(u64, u64)> {
    per_node(sc, |sc, n| (sc.cached_bytes(n), sc.cached_disk_bytes(n)))
}

#[test]
fn fw_under_memory_pressure_spills_and_stays_bit_identical() {
    let free = fw(77).check();
    assert_eq!(free.summary.spilled_bytes, 0, "uncapped run never spills");

    // Cap executor memory below the working set: the default
    // MemoryAndDisk level must spill instead of failing.
    let cap = TABLE_PER_NODE;
    let spilled = capped(fw(77), cap).check();
    assert!(
        spilled.summary.spilled_bytes > 0,
        "undersized memory must produce spill traffic"
    );
    assert!(
        spilled.summary.cache_hits >= free.summary.cache_hits,
        "disk-tier reads still count as cache hits"
    );
    for (n, (mem, _)) in cached(&spilled.sc).into_iter().enumerate() {
        assert!(
            mem <= cap,
            "node {n} memory tier over budget: {mem} > {cap}"
        );
    }
}

/// Under CB a recomputed block re-runs the iteration's one narrow stage
/// and re-reads the broadcasts its lineage holds; under IM it re-reads
/// the staged shuffles.
#[test]
fn fw_with_memory_only_recomputes_evicted_blocks() {
    for strategy in [Strategy::InMemory, Strategy::CollectBroadcast] {
        let recompute = move |c: DpConfig| {
            c.with_strategy(strategy)
                .with_storage_level(StorageLevel::MemoryOnly)
                .with_recompute_on_evict(true)
        };
        let free = fw(99).cfg(recompute).check();
        assert_eq!(
            free.summary.recomputes, 0,
            "{strategy:?}: uncapped run keeps every block"
        );

        // `persist` keeps every generation's cache alive (retained
        // lineage), so LRU can satisfy a cap of one table by shedding
        // stale generations nobody reads. To force recomputation of
        // *live* blocks, cap below one table's per-node footprint.
        let squeezed = capped(fw(99), TABLE_PER_NODE / 2).cfg(recompute).check();
        assert!(
            squeezed.summary.recomputes > 0,
            "{strategy:?}: undersized memory must trigger lineage recomputation"
        );
        assert_eq!(
            squeezed.summary.spilled_bytes, 0,
            "{strategy:?}: MemoryOnly never touches the disk tier"
        );
        assert!(cached(&squeezed.sc).iter().all(|&(_, disk)| disk == 0));
    }
}

#[test]
fn fw_faults_with_spill_enabled_never_double_charge() {
    // The full fault matrix (a fault in every stage's partition 0) on
    // top of an undersized memory tier: results stay byte-identical
    // and retried tasks must not double-charge either tier.
    let cap = TABLE_PER_NODE;
    let calm = capped(fw(1234), cap).check();
    let faulted = capped(fw(1234), cap).chaos(Chaos::EveryWave).check();
    assert!(faulted.summary.retries > 0, "faults were actually injected");

    // Dropping the solved table must return every byte in both tiers on
    // every node — including any orphan copies failed attempts cached
    // before their retry committed elsewhere. (The live-RDD half of the
    // no-double-charge invariant is pinned down in sparklet's
    // `retried_checkpoint_does_not_double_cache`.)
    assert_eq!(
        cached(&faulted.sc),
        vec![(0, 0); 4],
        "cache GC must reclaim both tiers after faulted runs"
    );
    assert_eq!(cached(&calm.sc), vec![(0, 0); 4]);
}
