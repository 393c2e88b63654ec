//! End-to-end behaviour of the sparklet engine.

use std::sync::Arc;

use sparklet::{
    ChaosEvent, ChaosPolicy, GridPartitioner, HashPartitioner, JobError, SparkConf, SparkContext,
    StorageLevel,
};

fn ctx() -> SparkContext {
    SparkContext::new(SparkConf::default().with_executors(4).with_partitions(8))
}

fn pairs(n: usize) -> Vec<(usize, u64)> {
    (0..n).map(|i| (i, (i * i) as u64)).collect()
}

/// A policy that panics the first `times` attempts of each
/// `(stage, partition, times)`.
fn fail_first(faults: &[(u64, usize, u64)]) -> ChaosPolicy {
    let mut policy = ChaosPolicy::seeded(0);
    for &(stage, partition, times) in faults {
        for attempt in 1..=times {
            policy = policy.script(stage, partition, attempt, ChaosEvent::TaskPanic);
        }
    }
    policy
}

fn sorted<K: Ord, V>(mut v: Vec<(K, V)>) -> Vec<(K, V)> {
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

#[test]
fn parallelize_collect_roundtrip() {
    let sc = ctx();
    let rdd = sc.parallelize(pairs(100), None);
    assert_eq!(rdd.num_partitions(), 8);
    let got = sorted(rdd.collect().unwrap());
    assert_eq!(got, pairs(100));
}

#[test]
fn map_filter_flatmap_chain_fuses_in_one_stage() {
    let sc = ctx();
    let rdd = sc
        .parallelize(pairs(50), None)
        .map(|(k, v)| (k, v + 1))
        .filter(|k, _| k % 2 == 0)
        .flat_map(|(k, v)| vec![(k, v), (k + 1000, v)]);
    let got = sorted(rdd.collect().unwrap());
    assert_eq!(got.len(), 50); // 25 evens × 2
    assert!(got.iter().any(|&(k, v)| k == 4 && v == 17));
    assert!(got.iter().any(|&(k, v)| k == 1004 && v == 17));
    // Whole narrow chain + collect = exactly one stage.
    let did = sc.summary();
    assert_eq!(did.stages, 1, "narrow chain must fuse");
    assert_eq!(did.tasks, 8);
}

#[test]
fn map_values_preserves_partitioning() {
    let sc = ctx();
    let rdd = sc.parallelize(pairs(20), None);
    let sig = rdd.partitioner_sig();
    assert!(sig.is_some());
    let mapped = rdd.map_values(|v| v * 2);
    assert_eq!(mapped.partitioner_sig(), sig);
    // map (which may change keys) must drop the signature.
    let remapped = rdd.map(|(k, v)| (k + 1, v));
    assert_eq!(remapped.partitioner_sig(), None);
}

#[test]
fn union_concatenates_partitions() {
    let sc = ctx();
    let a = sc.parallelize(pairs(10), Some(3));
    let b = sc.parallelize(vec![(100usize, 1u64), (101, 2)], Some(2));
    let u = a.union(&b);
    assert_eq!(u.num_partitions(), 5);
    let got = sorted(u.collect().unwrap());
    assert_eq!(got.len(), 12);
    assert_eq!(got[11], (101, 2));
}

#[test]
fn union_of_copartitioned_parents_zips_and_keeps_the_signature() {
    let sc = ctx();
    let parents = [
        sc.parallelize(pairs(10), Some(4)),
        sc.parallelize(vec![(100usize, 1u64), (101, 2)], Some(4)),
        sc.parallelize(pairs(10), Some(4)).map_values(|v| v + 1),
    ];
    let u = sc.union(parents.to_vec());
    assert_eq!(u.num_partitions(), 4, "zipped, not concatenated");
    assert_eq!(u.partitioner_sig(), Some(("hash", 0, 4)));
    assert!(u.explain().starts_with("Union [3 parents, narrow, zipped"));
    let again = u.partition_by(4, Arc::new(HashPartitioner));
    assert_eq!(again.collect().unwrap().len(), 22);
    let did = sc.summary();
    assert_eq!(
        (did.stages, did.staged_bytes),
        (1, 0),
        "the repartition elided"
    );

    // Partition `p` is each parent's partition `p`, in parent order.
    let by_partition = |rdd: &sparklet::Rdd<usize, u64>| {
        rdd.map_partitions(false, |p, items, _| {
            items.into_iter().map(|kv| (p, kv)).collect()
        })
        .collect()
        .unwrap()
    };
    let each: Vec<_> = parents.iter().map(by_partition).collect();
    let want: Vec<(usize, (usize, u64))> = (0..4)
        .flat_map(|p| each.iter().flatten().filter(move |(q, _)| *q == p).copied())
        .collect();
    assert_eq!(by_partition(&u), want);
}

#[test]
fn partition_by_places_keys_and_counts_a_shuffle() {
    let sc = ctx();
    let rdd = sc
        .parallelize(pairs(64), None)
        .map(|(k, v)| (k, v)) // drop partitioner knowledge
        .partition_by(4, Arc::new(HashPartitioner));
    let got = sorted(rdd.collect().unwrap());
    assert_eq!(got, pairs(64));
    let did = sc.summary();
    assert_eq!(did.stages, 2, "shuffle map stage + collect");
    assert!(
        did.remote_bytes + did.local_bytes > 0,
        "shuffle moved real bytes"
    );
    assert!(did.staged_bytes > 0, "map outputs were staged");
}

#[test]
fn partition_by_same_partitioner_elides_shuffle() {
    let sc = ctx();
    let rdd = sc.parallelize(pairs(32), Some(8));
    // parallelize already hash-partitioned into 8.
    let same = rdd.partition_by(8, Arc::new(HashPartitioner));
    same.collect().unwrap();
    let did = sc.summary();
    assert_eq!(did.stages, 1, "no shuffle for identical partitioning");
    // Different partition count still shuffles.
    let different = rdd.partition_by(4, Arc::new(HashPartitioner));
    different.collect().unwrap();
    let did = sc.summary();
    assert_eq!(did.stages, 3);
}

#[test]
fn group_by_key_collects_all_values_deterministically() {
    let sc = ctx();
    let data: Vec<(usize, u64)> = (0..40).map(|i| (i % 4, i as u64)).collect();
    let rdd = sc
        .parallelize(data, Some(5))
        .group_by_key(4, Arc::new(HashPartitioner));
    let got1 = sorted(rdd.collect().unwrap());
    assert_eq!(got1.len(), 4);
    for (k, vs) in &got1 {
        assert_eq!(vs.len(), 10);
        assert!(vs.iter().all(|v| (*v as usize) % 4 == *k));
    }
    // Determinism: a second identical pipeline yields identical bytes.
    let sc2 = ctx();
    let data2: Vec<(usize, u64)> = (0..40).map(|i| (i % 4, i as u64)).collect();
    let rdd2 = sc2
        .parallelize(data2, Some(5))
        .group_by_key(4, Arc::new(HashPartitioner));
    let got2 = sorted(rdd2.collect().unwrap());
    assert_eq!(got1, got2);
}

#[test]
fn combine_by_key_merges_values_map_side_and_combiners_reduce_side() {
    // Spark's contract: within one map task a key's first value goes
    // through `create`, every later one through `merge_value`;
    // `merge_combiners` only ever joins the outputs of different map
    // tasks. The two merges tag their output differently, so the
    // result shows which one ran where.
    let sc = ctx();
    let one_map_task = sc.parallelize(vec![(1usize, 1u64), (1, 2)], Some(1));
    // `map` drops the placement, so the union does not zip the two
    // inputs into one map task.
    let another = sc.parallelize(vec![(1usize, 3u64)], Some(1)).map(|kv| kv);
    let got = one_map_task
        .union(&another)
        .combine_by_key(
            |v| vec![v],
            |mut acc, v| {
                acc.push(100 + v);
                acc
            },
            |mut a, mut b| {
                a.push(1000);
                a.append(&mut b);
                a
            },
            1,
            Arc::new(HashPartitioner),
        )
        .collect()
        .unwrap();
    assert_eq!(got, vec![(1, vec![1, 102, 1000, 3])]);
}

#[test]
fn reduce_by_key_sums() {
    let sc = ctx();
    let data: Vec<(usize, u64)> = (0..100).map(|i| (i % 7, 1u64)).collect();
    let rdd =
        sc.parallelize(data, Some(6))
            .reduce_by_key(|a, b| a + b, 4, Arc::new(HashPartitioner));
    let got = sorted(rdd.collect().unwrap());
    let total: u64 = got.iter().map(|(_, v)| v).sum();
    assert_eq!(total, 100);
    assert_eq!(got.len(), 7);
    assert_eq!(got[0], (0, 15)); // 0,7,...,98 → 15 values
}

#[test]
fn map_side_combine_shrinks_shuffle() {
    // 1000 pairs over 10 keys: map-side combining should stage ~10
    // combined records per map task, far fewer bytes than 1000 raw pairs.
    let sc = ctx();
    let data: Vec<(usize, u64)> = (0..1000).map(|i| (i % 10, 1u64)).collect();
    sc.parallelize(data, Some(4))
        .reduce_by_key(|a, b| a + b, 4, Arc::new(HashPartitioner))
        .collect()
        .unwrap();
    let staged = sc.summary().staged_bytes;
    // Raw would be 1000 × 16 B = 16 kB; combined is ≤ 4 maps × 10 keys × 16 B.
    assert!(staged <= 4 * 10 * 16, "staged={staged}");
}

#[test]
fn checkpoint_cuts_lineage_and_pins_location() {
    let sc = ctx();
    let rdd = sc
        .parallelize(pairs(32), Some(4))
        .map_values(|v| v + 1)
        .checkpoint()
        .unwrap();
    let stages_after_ckpt = sc.summary().stages;
    assert_eq!(stages_after_ckpt, 1, "checkpoint ran one stage");
    // Collect twice: each is a single stage reading cached partitions.
    let a = sorted(rdd.collect().unwrap());
    let b = sorted(rdd.collect().unwrap());
    assert_eq!(a, b);
    assert_eq!(a[3], (3, 10));
    let did = sc.summary();
    assert_eq!(did.stages, 3);
    // Cached reads are node-local: no remote traffic in collects.
    assert_eq!(did.remote_bytes, 0);
}

#[test]
fn injected_failures_are_retried_via_lineage() {
    let sc = ctx();
    let rdd = sc.parallelize(pairs(16), Some(4));
    // Fail partition 2 of the next stage twice; 4 attempts allowed.
    let stage = sc.next_stage_ordinal();
    let _chaos = sc.install_chaos(fail_first(&[(stage, 2, 2)]));
    let got = sorted(rdd.collect().unwrap());
    assert_eq!(got, pairs(16));
}

#[test]
fn too_many_failures_fail_the_job() {
    let sc = SparkContext::new(SparkConf::default().with_executors(2).with_partitions(4));
    let rdd = sc.parallelize(pairs(8), Some(4));
    let stage = sc.next_stage_ordinal();
    // More scripted panics than the engine's four attempts per task.
    let _chaos = sc.install_chaos(fail_first(&[(stage, 1, 10)]));
    let err = rdd.collect().unwrap_err();
    assert!(
        matches!(err, JobError::TaskFailed { partition: 1, .. }),
        "{err}"
    );
}

#[test]
fn task_panic_is_captured_and_retried_or_failed() {
    let sc = ctx();
    let rdd = sc.parallelize(pairs(8), Some(2)).map(|(k, v)| {
        if k == 3 {
            panic!("kernel exploded on key 3");
        }
        (k, v)
    });
    let err = rdd.collect().unwrap_err();
    match err {
        JobError::TaskFailed { message, .. } => assert!(message.contains("exploded")),
        other => panic!("unexpected error {other}"),
    }
}

#[test]
fn staging_overflow_fails_fast_like_the_paper() {
    let sc = SparkContext::new(
        SparkConf::default()
            .with_executors(2)
            .with_partitions(4)
            .with_staging_capacity(64), // tiny SSD
    );
    let big: Vec<(usize, Vec<f64>)> = (0..16).map(|i| (i, vec![1.0; 64])).collect();
    let err = sc
        .parallelize(big, Some(4))
        .map(|(k, v)| (k, v)) // forget partitioning to force a shuffle
        .partition_by(4, Arc::new(HashPartitioner))
        .collect()
        .unwrap_err();
    assert!(matches!(err, JobError::StagingOverflow { .. }), "{err}");
}

#[test]
fn executor_memory_overflow_on_checkpoint() {
    let sc = SparkContext::new(
        SparkConf::default()
            .with_executors(1)
            .with_partitions(2)
            .with_executor_memory(32),
    );
    let big: Vec<(usize, Vec<f64>)> = (0..4).map(|i| (i, vec![0.0; 100])).collect();
    let err = match sc.parallelize(big, Some(2)).checkpoint() {
        Err(e) => e,
        Ok(_) => panic!("checkpoint should exceed executor memory"),
    };
    assert!(matches!(err, JobError::MemoryOverflow { .. }), "{err}");
}

#[test]
fn broadcast_reaches_tasks_via_shared_storage() {
    let sc = ctx();
    let bc = sc.broadcast(&vec![10u64, 20, 30]);
    let bc2 = bc.clone();
    let rdd = sc
        .parallelize(pairs(12), Some(4))
        .map_partitions(true, move |_p, items, tc| {
            let table = bc2.value(tc).expect("broadcast available");
            items
                .into_iter()
                .map(|(k, v)| (k, v + table[k % 3]))
                .collect()
        });
    let got = sorted(rdd.collect().unwrap());
    assert_eq!(got[0], (0, 10));
    assert_eq!(got[4], (4, 16 + 20));
    assert!(bc.serialized_bytes() > 0);
}

#[test]
fn driver_traffic_pseudo_stage_is_logged() {
    let sc = ctx();
    sc.log_driver_traffic("cb-iter-0", 1024, 2048);
    let did = sc.summary();
    assert_eq!(did.collect_bytes, 1024);
    assert_eq!(did.broadcast_bytes, 2048);
}

#[test]
fn collect_records_bytes_to_driver() {
    let sc = ctx();
    sc.parallelize(pairs(10), Some(2)).collect().unwrap();
    let did = sc.summary();
    // 10 pairs × (8 + 8) bytes.
    assert_eq!(did.collect_bytes, 160);
}

#[test]
fn grid_partitioner_gives_locality_for_block_keys() {
    let sc = SparkContext::new(SparkConf::default().with_executors(4).with_partitions(16));
    let blocks: Vec<((usize, usize), u64)> = (0..8)
        .flat_map(|i| (0..8).map(move |j| ((i, j), (i * 8 + j) as u64)))
        .collect();
    let rdd = sc.parallelize_with(blocks, 16, Arc::new(GridPartitioner::new(8)));
    let got = rdd.collect().unwrap();
    assert_eq!(got.len(), 64);
    // Keys of one block row share a partition → collected adjacently.
    assert_eq!(sc.summary().tasks, 16);
}

#[test]
fn shared_lineage_materializes_shuffle_once() {
    let sc = ctx();
    let shuffled = sc
        .parallelize(pairs(16), Some(4))
        .map(|(k, v)| (k, v))
        .partition_by(4, Arc::new(HashPartitioner));
    let a = shuffled.map_values(|v| v + 1);
    let b = shuffled.map_values(|v| v + 2);
    a.collect().unwrap();
    b.collect().unwrap();
    let did = sc.summary();
    // map stage once + two collects = 3 stages, not 4.
    assert_eq!(did.stages, 3);
}

#[test]
fn count_matches_collect_len() {
    let sc = ctx();
    let rdd = sc.parallelize(pairs(123), None).filter(|k, _| k % 3 == 0);
    assert_eq!(rdd.count().unwrap(), 41);
    assert_eq!(rdd.collect().unwrap().len(), 41);
}

#[test]
fn listing_one_shape_runs_end_to_end() {
    // A miniature of Listing 1's per-iteration dataflow: filter one
    // "diagonal" key, flat-map copies to dependents, combine with the
    // originals, update, union with untouched, repartition.
    let sc = ctx();
    let r = 4usize;
    let blocks: Vec<((usize, usize), u64)> = (0..r)
        .flat_map(|i| (0..r).map(move |j| ((i, j), 1u64)))
        .collect();
    let mut dp = sc.parallelize(blocks, Some(8));
    let k = 0usize;
    let a = dp.filter(move |&(i, j), _| i == k && j == k);
    let copies = a.flat_map(move |((_, _), v)| {
        (0..r)
            .filter(move |&j| j != k)
            .map(move |j| ((k, j), v * 100))
            .collect::<Vec<_>>()
    });
    let row = dp.filter(move |&(i, j), _| i == k && j != k);
    let updated = row
        .union(&copies)
        .group_by_key(8, Arc::new(HashPartitioner))
        .map_values(|vs| vs.iter().sum::<u64>());
    let untouched = dp.filter(move |&(i, _), _| i != k);
    dp = untouched
        .union(&updated)
        .union(&a) // the diagonal block itself stays in the table
        .partition_by(8, Arc::new(HashPartitioner));
    let got = sorted(dp.collect().unwrap());
    assert_eq!(got.len(), r * r);
    // Row-0 off-diagonal blocks got 1 + 100.
    for j in 1..r {
        assert!(got.contains(&((0, j), 101)));
    }
    assert!(got.contains(&((1, 1), 1)));
}

// ---------------------------------------------------------------------
// Attempt-fenced shuffle lifecycle
// ---------------------------------------------------------------------

#[test]
fn wall_times_survive_actions() {
    // annotate_last_stage used to rebuild the log via `push`, zeroing
    // every stage's wall_seconds on each collect.
    let sc = ctx();
    let rdd = sc
        .parallelize(pairs(32), Some(4))
        .map(|kv| kv)
        .partition_by(4, Arc::new(HashPartitioner));
    rdd.collect().unwrap();
    let wall = sc.with_event_log(|log| log.total_wall_seconds());
    assert!(wall > 0.0, "stage wall times must survive the action");
    rdd.collect().unwrap();
    let wall_after = sc.with_event_log(|log| log.total_wall_seconds());
    assert!(wall_after >= wall, "second action must not erase times");
}

#[test]
fn retry_restages_within_capacity() {
    // The headline regression: a retried map task re-stages its
    // buckets. On a single node the retry lands on the same node, so
    // without reconciliation staged bytes double and a capacity equal
    // to the fault-free high-water mark spuriously overflows.
    let shuffle_job = |sc: &SparkContext| {
        let data: Vec<(usize, u64)> = (0..64).map(|i| (i, i as u64)).collect();
        let rdd = sc
            .parallelize(data, Some(4))
            .map(|(k, v)| (k % 7, v))
            .reduce_by_key(|a, b| a + b, 4, Arc::new(HashPartitioner));
        sorted(rdd.collect().unwrap())
    };
    let free = SparkContext::new(SparkConf::default().with_executors(1).with_partitions(4));
    let want = shuffle_job(&free);
    let peak = free.peak_staged_bytes(0);
    assert!(peak > 0);

    let sc = SparkContext::new(
        SparkConf::default()
            .with_executors(1)
            .with_partitions(4)
            .with_staging_capacity(peak),
    );
    // Fail one map task twice, another once.
    let _chaos = sc.install_chaos(fail_first(&[(0, 1, 2), (0, 3, 1)]));
    let got = shuffle_job(&sc);
    assert_eq!(got, want, "results must be byte-identical under faults");
    let did = sc.summary();
    assert!(did.retries >= 3, "faults were retried");
    assert_eq!(
        did.zombie_writes_fenced, 0,
        "plain retries create no zombies"
    );
    assert_eq!(
        sc.peak_staged_bytes(0),
        peak,
        "retries must not inflate staging"
    );
}

#[test]
fn faulty_run_matches_fault_free_run() {
    let run = |faults: bool| {
        let sc = ctx(); // 4 executors, 8 default partitions
        let _chaos = faults.then(|| sc.install_chaos(fail_first(&[(0, 0, 2), (0, 2, 1)])));
        let data: Vec<(usize, u64)> = (0..96).map(|i| (i, (i * 3) as u64)).collect();
        let rdd = sc
            .parallelize(data, Some(4))
            .map(|(k, v)| (k % 11, v))
            .reduce_by_key(|a, b| a.wrapping_add(b), 4, Arc::new(HashPartitioner));
        let got = sorted(rdd.collect().unwrap());
        // Total staged while the shuffle is live: retries may migrate a
        // bucket to another node, but the sum must reconcile exactly.
        let staged_total: u64 = (0..4).map(|n| sc.staged_bytes(n)).sum();
        let did = sc.summary();
        drop(rdd);
        let after_gc: u64 = (0..4).map(|n| sc.staged_bytes(n)).sum();
        (
            got,
            staged_total,
            after_gc,
            did.retries,
            did.zombie_writes_fenced,
        )
    };
    let (want, want_staged, want_gc, _, _) = run(false);
    let (got, got_staged, got_gc, retries, zombies) = run(true);
    assert_eq!(got, want, "results must be byte-identical under faults");
    assert_eq!(got_staged, want_staged, "staged accounting must reconcile");
    assert_eq!((want_gc, got_gc), (0, 0), "GC released everything");
    assert!(retries >= 3, "injected faults were retried");
    assert_eq!(zombies, 0, "no zombie writes under plain retry");
}

#[test]
fn dropping_shuffled_rdd_releases_staged_bytes() {
    let sc = ctx();
    let rdd = sc
        .parallelize(pairs(32), Some(4))
        .map(|kv| kv)
        .partition_by(4, Arc::new(HashPartitioner));
    rdd.collect().unwrap();
    let live: u64 = (0..4).map(|n| sc.staged_bytes(n)).sum();
    assert!(live > 0, "shuffle is staged while its RDD lineage lives");
    drop(rdd);
    let after: u64 = (0..4).map(|n| sc.staged_bytes(n)).sum();
    assert_eq!(after, 0, "dropping the lineage releases the shuffle");
    // No stage ran after the drop to take the release into a record:
    // the summary still reports it.
    assert_eq!(sc.summary().staged_released_bytes, live);
}

#[test]
fn speculation_relaunches_stragglers() {
    let sc = SparkContext::new(
        SparkConf::default()
            .with_executors(4)
            .with_partitions(4)
            .with_speculation(0.5),
    );
    let rdd = sc
        .parallelize(pairs(8), Some(4))
        .map_partitions(true, |p, items, _tc| {
            if p == 0 {
                // One deliberate straggler; the rest finish instantly.
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
            items
        });
    let got = sorted(rdd.collect().unwrap());
    assert_eq!(got, pairs(8));
    let speculated = sc.summary().speculative_launches;
    assert!(
        speculated >= 1,
        "the straggler was speculatively re-launched"
    );
}

#[test]
fn exhausted_retries_report_stage_and_attempts() {
    // The panic branch used to leak `stage: ""` / `attempts: 0`.
    let sc = ctx();
    let rdd = sc
        .parallelize(pairs(8), Some(4))
        .map_partitions(true, |p, items, _tc| {
            if p == 1 {
                panic!("boom in partition 1");
            }
            items
        });
    let err = rdd.collect().unwrap_err();
    match err {
        JobError::TaskFailed {
            stage,
            partition,
            attempts,
            message,
        } => {
            assert_eq!(stage, "collect");
            assert_eq!(partition, 1);
            assert_eq!(attempts, 4, "max_task_attempts were used");
            assert!(message.contains("boom"), "{message}");
        }
        other => panic!("expected TaskFailed, got {other}"),
    }
}

// ---------------------------------------------------------------------
// Tiered block storage
// ---------------------------------------------------------------------

#[test]
fn dropping_checkpointed_rdd_evicts_all_nodes() {
    let sc = ctx();
    let rdd = sc
        .parallelize(pairs(64), Some(8))
        .map_values(|v| v * 3)
        .checkpoint()
        .unwrap();
    let nodes = sc.conf().executors;
    let before: u64 = (0..nodes).map(|n| sc.cached_bytes(n)).sum();
    assert!(before > 0, "checkpoint cached real bytes");
    drop(rdd);
    for n in 0..nodes {
        assert_eq!(sc.cached_bytes(n), 0, "node {n} still holds memory bytes");
        assert_eq!(
            sc.cached_disk_bytes(n),
            0,
            "node {n} still holds disk bytes"
        );
    }
}

#[test]
fn memory_and_disk_checkpoint_spills_instead_of_failing() {
    // Same undersized executor as `executor_memory_overflow_on_checkpoint`,
    // but the MemoryAndDisk level turns the fatal overflow into a spill.
    let sc = SparkContext::new(
        SparkConf::default()
            .with_executors(1)
            .with_partitions(2)
            .with_executor_memory(32)
            .with_storage_level(StorageLevel::MemoryAndDisk),
    );
    let big: Vec<(usize, Vec<u64>)> = (0..4).map(|i| (i, vec![7; 100])).collect();
    let rdd = sc.parallelize(big.clone(), Some(2)).checkpoint().unwrap();
    assert!(
        sc.cached_disk_bytes(0) > 0,
        "blocks landed on the disk tier"
    );
    assert!(sc.cached_bytes(0) <= 32, "memory tier stayed under budget");
    assert!(sc.summary().spilled_bytes > 0, "spill traffic was counted");
    let got = sorted(rdd.collect().unwrap());
    assert_eq!(got, big, "disk-tier reads decode to the same data");
    assert!(sc.summary().cache_hits > 0, "collect hit the cache");
}

#[test]
fn persisted_blocks_recompute_after_eviction() {
    // MemoryOnly + persist: under pressure the blocks are dropped (not
    // spilled), and reads fall back to lineage recomputation.
    let sc = SparkContext::new(
        SparkConf::default()
            .with_executors(1)
            .with_partitions(2)
            .with_executor_memory(32),
    );
    let big: Vec<(usize, Vec<u64>)> = (0..4).map(|i| (i, vec![9; 100])).collect();
    let rdd = sc
        .parallelize(big.clone(), Some(2))
        .map_values(|v| v)
        .persist(StorageLevel::MemoryOnly)
        .unwrap();
    let got = sorted(rdd.collect().unwrap());
    assert_eq!(got, big, "recomputed partitions match the original data");
    assert!(
        sc.summary().recomputes > 0,
        "at least one partition was rebuilt"
    );
    assert_eq!(sc.cached_disk_bytes(0), 0, "MemoryOnly never touches disk");
}

#[test]
fn disk_only_checkpoint_keeps_memory_free() {
    let sc = SparkContext::new(
        SparkConf::default()
            .with_executors(2)
            .with_partitions(4)
            .with_storage_level(StorageLevel::DiskOnly),
    );
    let rdd = sc.parallelize(pairs(32), Some(4)).checkpoint().unwrap();
    let mem: u64 = (0..2).map(|n| sc.cached_bytes(n)).sum();
    let disk: u64 = (0..2).map(|n| sc.cached_disk_bytes(n)).sum();
    assert_eq!(mem, 0, "DiskOnly must not occupy the memory tier");
    assert!(disk > 0, "blocks were serialized to the disk tier");
    assert_eq!(sorted(rdd.collect().unwrap()), pairs(32));
}

#[test]
fn disk_capacity_overflow_is_a_distinct_error() {
    let sc = SparkContext::new(
        SparkConf::default()
            .with_executors(1)
            .with_partitions(2)
            .with_disk_capacity(64)
            .with_storage_level(StorageLevel::DiskOnly),
    );
    let big: Vec<(usize, Vec<u64>)> = (0..4).map(|i| (i, vec![1; 100])).collect();
    let err = match sc.parallelize(big, Some(2)).checkpoint() {
        Err(e) => e,
        Ok(_) => panic!("checkpoint should exceed the disk tier"),
    };
    assert!(matches!(err, JobError::DiskOverflow { .. }), "{err}");
}

#[test]
fn retried_checkpoint_does_not_double_cache() {
    // A failed attempt caches its block before the injected fault
    // fires; the retry commits on the next node in the rotation. The
    // loser's orphan copy must be reclaimed, leaving exactly one cached
    // copy per partition — the same cluster-wide volume as a calm run.
    let calm = ctx();
    let a = calm
        .parallelize(pairs(64), Some(8))
        .map_values(|v| v + 1)
        .checkpoint()
        .unwrap();
    let calm_total: u64 = (0..4).map(|n| calm.cached_bytes(n)).sum();
    assert!(calm_total > 0);

    let faulted = ctx();
    let stage = faulted.next_stage_ordinal();
    let _chaos = faulted.install_chaos(fail_first(&[(stage, 3, 1)]));
    let b = faulted
        .parallelize(pairs(64), Some(8))
        .map_values(|v| v + 1)
        .checkpoint()
        .unwrap();
    let faulted_total: u64 = (0..4).map(|n| faulted.cached_bytes(n)).sum();
    assert_eq!(
        faulted_total, calm_total,
        "a retried put must leave exactly one cached copy per partition"
    );
    assert_eq!(sorted(b.collect().unwrap()), sorted(a.collect().unwrap()));
}

/// Clones of [`Counted`] values since the counter was last reset.
static CLONES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// A value that counts its clones.
#[derive(Debug, PartialEq)]
struct Counted(u64);

impl Clone for Counted {
    fn clone(&self) -> Self {
        CLONES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Counted(self.0)
    }
}

impl sparklet::Storable for Counted {
    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
    fn encode(&self, buf: &mut bytes::BytesMut) {
        self.0.encode(buf);
    }
    fn decode(buf: &mut bytes::Bytes) -> Result<Self, JobError> {
        u64::decode(buf).map(Counted)
    }
}

#[test]
fn filters_over_a_cached_partition_clone_only_the_pairs_they_keep() {
    use std::sync::atomic::Ordering;
    let sc = ctx();
    let data: Vec<(usize, Counted)> = (0..400).map(|i| (i, Counted(i as u64))).collect();
    let source = sc.parallelize(data, None);
    let cut = source.checkpoint().unwrap();
    let kept_pairs = |rdd: &sparklet::Rdd<usize, Counted>| {
        CLONES.store(0, Ordering::Relaxed);
        let n = rdd.count().unwrap();
        (n, CLONES.load(Ordering::Relaxed))
    };
    // One filter over the checkpoint, and two stacked: the outer
    // predicate reaches the cache through the inner filter.
    let tenth = cut.filter(|k, _| k % 10 == 0);
    assert_eq!(kept_pairs(&tenth), (40, 40));
    let both = tenth.filter(|_, v| v.0 % 20 == 0);
    assert_eq!(kept_pairs(&both), (20, 20));
    // An unfiltered read still clones the whole partition.
    assert_eq!(kept_pairs(&cut), (400, 400));
    // On the lineage-recompute path (a persisted RDD whose executor has
    // no room to cache it) the source clones its partition as before,
    // and the read then clones only what the filter keeps.
    let tiny = SparkContext::new(
        SparkConf::default()
            .with_executors(1)
            .with_partitions(2)
            .with_executor_memory(1),
    );
    let data: Vec<(usize, Counted)> = (0..400).map(|i| (i, Counted(i as u64))).collect();
    let kept = tiny
        .parallelize(data, None)
        .persist(StorageLevel::MemoryOnly)
        .unwrap();
    assert_eq!(kept_pairs(&kept.filter(|k, _| k % 10 == 0)), (40, 400 + 40));
    assert!(tiny.summary().recomputes > 0, "the read recomputed");
}
