//! Property-based tests of the engine's data-plane invariants.

use std::collections::HashMap;
use std::sync::Arc;

use sparklet::codec::{decode_one, encode_one};
use sparklet::{
    ChaosEvent, ChaosPolicy, HashPartitioner, Partitioner, SparkConf, SparkContext, StorageLevel,
};
use testkit::check;

fn ctx(executors: usize, partitions: usize) -> SparkContext {
    SparkContext::new(
        SparkConf::default()
            .with_executors(executors.max(1))
            .with_partitions(partitions.max(1)),
    )
}

const CASES: u32 = 24;

#[test]
fn codec_roundtrips_arbitrary_pairs() {
    check(CASES, |rng| {
        let data = rng.vec(0..200, |r| (r.u64(), f64::from_bits(r.u64())));
        let enc = encode_one(&data);
        let dec: Vec<(u64, f64)> = decode_one(enc).unwrap();
        assert_eq!(dec.len(), data.len());
        for ((k1, v1), (k2, v2)) in dec.iter().zip(&data) {
            assert_eq!(k1, k2);
            assert_eq!(v1.to_bits(), v2.to_bits(), "bitwise float identity");
        }
    });
}

#[test]
fn codec_roundtrips_nested() {
    check(CASES, |rng| {
        let data = rng.vec(0..20, |r| r.vec(0..8, |r| f32::from_bits(r.u64() as u32)));
        let enc = encode_one(&data);
        let dec: Vec<Vec<f32>> = decode_one(enc).unwrap();
        assert_eq!(
            dec.iter()
                .flatten()
                .map(|f| f.to_bits())
                .collect::<Vec<_>>(),
            data.iter()
                .flatten()
                .map(|f| f.to_bits())
                .collect::<Vec<_>>()
        );
    });
}

#[test]
fn collect_preserves_multiset() {
    check(CASES, |rng| {
        let data = rng.vec(0..120, |r| (r.range(0usize..50), r.u64()));
        let executors = rng.range(1usize..6);
        let partitions = rng.range(1usize..17);
        let sc = ctx(executors, partitions);
        let rdd = sc.parallelize(data.clone(), Some(partitions));
        let mut got = rdd.collect().unwrap();
        let mut want = data;
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    });
}

#[test]
fn shuffle_preserves_multiset() {
    check(CASES, |rng| {
        let data = rng.vec(1..100, |r| (r.range(0usize..20), r.u64()));
        let partitions = rng.range(1usize..9);
        let sc = ctx(3, 6);
        let mut want = data.clone();
        let rdd = sc
            .parallelize(data, Some(5))
            .map(|kv| kv) // forget partitioning
            .partition_by(partitions, Arc::new(HashPartitioner));
        let mut got = rdd.collect().unwrap();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    });
}

#[test]
fn keys_land_in_their_hash_partition() {
    check(CASES, |rng| {
        let keys = rng.vec(1..60, |r| r.u64() as usize);
        let partitions = rng.range(1usize..8);
        let sc = ctx(2, 4);
        let data: Vec<(usize, u64)> = keys.iter().map(|&k| (k, 1)).collect();
        let rdd = sc
            .parallelize(data, Some(3))
            .map(|kv| kv)
            .partition_by(partitions, Arc::new(HashPartitioner));
        // group_by_key with the same partitioner must not lose pairs —
        // counting via reduce validates co-location end-to-end.
        let counts = rdd
            .reduce_by_key(|a, b| a + b, partitions, Arc::new(HashPartitioner))
            .collect()
            .unwrap();
        let mut expect: HashMap<usize, u64> = HashMap::new();
        for k in &keys {
            *expect.entry(*k).or_default() += 1;
        }
        assert_eq!(counts.len(), expect.len());
        for (k, c) in counts {
            assert_eq!(c, expect[&k]);
        }
    });
}

#[test]
fn group_by_key_groups_everything_once() {
    check(CASES, |rng| {
        let data = rng.vec(1..80, |r| (r.range(0usize..10), r.range(0u64..1000)));
        let sc = ctx(3, 6);
        let grouped = sc
            .parallelize(data.clone(), Some(4))
            .group_by_key(4, Arc::new(HashPartitioner))
            .collect()
            .unwrap();
        let total: usize = grouped.iter().map(|(_, vs)| vs.len()).sum();
        assert_eq!(total, data.len());
        // Every value accounted under its own key.
        for (k, vs) in grouped {
            let mut want: Vec<u64> = data
                .iter()
                .filter(|(dk, _)| *dk == k)
                .map(|(_, v)| *v)
                .collect();
            let mut got = vs;
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    });
}

#[test]
fn checkpoint_is_transparent() {
    check(CASES, |rng| {
        let data = rng.vec(0..60, |r| (r.range(0usize..30), r.u64()));
        let sc = ctx(4, 8);
        let rdd = sc.parallelize(data, Some(8)).map_values(|v| v ^ 0xFF);
        let mut direct = rdd.collect().unwrap();
        let mut through_ckpt = rdd
            .checkpoint_with_level(StorageLevel::MemoryOnly)
            .unwrap()
            .collect()
            .unwrap();
        direct.sort_unstable();
        through_ckpt.sort_unstable();
        assert_eq!(direct, through_ckpt);
    });
}

#[test]
fn partitioner_is_total_and_stable() {
    check(CASES, |rng| {
        let key = (rng.u64() as usize, rng.u64() as usize);
        let parts = rng.range(1usize..64);
        let p = HashPartitioner;
        let a = p.partition(&key, parts);
        assert!(a < parts);
        assert_eq!(a, p.partition(&key, parts));
    });
}

/// Retry soundness: with staging capacity fixed at the fault-free
/// high-water mark, no fault plan whose per-task failure count
/// stays under the four-attempt budget may flip a succeeding job into
/// a `StagingOverflow` — re-staged buckets must reconcile, not
/// accumulate. Single node, so retries land where the originals
/// were staged (the worst case for accounting).
#[test]
fn fault_plans_never_flip_success_into_overflow() {
    check(16, |rng| {
        let plan = rng.vec(0..6, |r| {
            (r.range(0u64..3), r.range(0usize..4), r.range(1usize..4))
        });
        let job = |sc: &SparkContext| {
            let data: Vec<(usize, u64)> = (0..48).map(|i| (i, (i * 7) as u64)).collect();
            let rdd = sc
                .parallelize(data, Some(4))
                .map(|(k, v)| (k % 5, v))
                .reduce_by_key(|a, b| a + b, 4, Arc::new(HashPartitioner));
            let mut got = rdd.collect()?;
            got.sort_unstable();
            Ok::<_, sparklet::JobError>(got)
        };
        let free = SparkContext::new(SparkConf::default().with_executors(1).with_partitions(4));
        let want = job(&free).unwrap();
        let peak = free.peak_staged_bytes(0);

        let sc = SparkContext::new(
            SparkConf::default()
                .with_executors(1)
                .with_partitions(4)
                .with_staging_capacity(peak),
        );
        let mut per_task: HashMap<(u64, usize), usize> = HashMap::new();
        for &(stage, partition, times) in &plan {
            *per_task.entry((stage, partition)).or_default() += times;
        }
        // Overlapping rules add up: a task fails its first `times`
        // attempts in total.
        let mut faults = ChaosPolicy::seeded(0);
        for (&(stage, partition), &times) in &per_task {
            for attempt in 1..=times as u64 {
                faults = faults.script(stage, partition, attempt, ChaosEvent::TaskPanic);
            }
        }
        let _chaos = sc.install_chaos(faults);
        // Overlapping rules can exhaust the 4-attempt budget; then the
        // job may legitimately fail — but never with StagingOverflow.
        let within_budget = per_task.values().all(|&t| t < 4);
        match job(&sc) {
            Err(sparklet::JobError::StagingOverflow {
                node,
                used,
                capacity,
            }) => {
                panic!(
                    "retry inflated staging into a spurious overflow \
                     (node {node}: {used}/{capacity})"
                );
            }
            Err(other) => assert!(!within_budget, "unexpected failure: {other}"),
            Ok(got) => {
                assert_eq!(got, want);
                assert_eq!(sc.staged_bytes(0), free.staged_bytes(0));
            }
        }
    });
}
