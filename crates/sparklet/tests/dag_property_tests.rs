//! Property tests of the DAG planner: narrow-chain fusion and
//! materialized-shuffle pruning must be pure optimizations — invisible
//! in `collect()` output for any lineage shape.

use std::sync::Arc;

use sparklet::{HashPartitioner, Rdd, SparkConf, SparkContext, StorageLevel};
use testkit::{check, Rng};

fn ctx() -> SparkContext {
    SparkContext::new(
        SparkConf::default()
            .with_executors(3)
            .with_worker_threads(1)
            .with_partitions(4),
    )
}

/// A random narrow transformation, applicable both to an [`Rdd`] and
/// to a plain `Vec` reference model.
#[derive(Debug, Clone)]
enum NarrowOp {
    /// `map`: shift the key, add to the value.
    Map { key_shift: usize, add: u64 },
    /// `map_values`: xor the value.
    Xor(u64),
    /// `filter`: keep keys in one residue class.
    Filter { modulus: usize, keep: usize },
    /// `flat_map`: duplicate each pair under a second key.
    Duplicate { key_offset: usize },
}

fn narrow_op(rng: &mut Rng) -> NarrowOp {
    match rng.range(0u32..4) {
        0 => NarrowOp::Map {
            key_shift: rng.range(0usize..5),
            add: rng.u64(),
        },
        1 => NarrowOp::Xor(rng.u64()),
        2 => {
            let modulus = rng.range(2usize..5);
            NarrowOp::Filter {
                modulus,
                keep: rng.range(0usize..5) % modulus,
            }
        }
        _ => NarrowOp::Duplicate {
            key_offset: rng.range(1usize..4),
        },
    }
}

fn apply_rdd(rdd: &Rdd<usize, u64>, op: &NarrowOp) -> Rdd<usize, u64> {
    match *op {
        NarrowOp::Map { key_shift, add } => {
            rdd.map(move |(k, v)| (k.wrapping_add(key_shift) % 64, v.wrapping_add(add)))
        }
        NarrowOp::Xor(x) => rdd.map_values(move |v| v ^ x),
        NarrowOp::Filter { modulus, keep } => rdd.filter(move |k, _| k % modulus == keep),
        NarrowOp::Duplicate { key_offset } => {
            rdd.flat_map(move |(k, v)| vec![(k, v), (k.wrapping_add(key_offset) % 64, v)])
        }
    }
}

fn apply_vec(data: Vec<(usize, u64)>, op: &NarrowOp) -> Vec<(usize, u64)> {
    match *op {
        NarrowOp::Map { key_shift, add } => data
            .into_iter()
            .map(|(k, v)| (k.wrapping_add(key_shift) % 64, v.wrapping_add(add)))
            .collect(),
        NarrowOp::Xor(x) => data.into_iter().map(|(k, v)| (k, v ^ x)).collect(),
        NarrowOp::Filter { modulus, keep } => data
            .into_iter()
            .filter(|(k, _)| k % modulus == keep)
            .collect(),
        NarrowOp::Duplicate { key_offset } => data
            .into_iter()
            .flat_map(|(k, v)| vec![(k, v), (k.wrapping_add(key_offset) % 64, v)])
            .collect(),
    }
}

fn sorted(mut v: Vec<(usize, u64)>) -> Vec<(usize, u64)> {
    v.sort_unstable();
    v
}

/// A fused narrow chain (one pass per partition) must equal the
/// same chain executed with a forced materialization boundary
/// after every operator, and both must equal the reference model.
#[test]
fn fused_narrow_chain_equals_unfused_execution() {
    check(16, |rng| {
        let data = rng.vec(0..80, |r| (r.range(0usize..40), r.u64()));
        let ops = rng.vec(0..5, narrow_op);
        let partitions = rng.range(1usize..7);
        let sc = ctx();
        let mut fused = sc.parallelize(data.clone(), Some(partitions));
        for op in &ops {
            fused = apply_rdd(&fused, op);
        }
        let got_fused = sorted(fused.collect().unwrap());

        let mut unfused = sc.parallelize(data.clone(), Some(partitions));
        for op in &ops {
            unfused = apply_rdd(&unfused, op)
                .checkpoint_with_level(StorageLevel::MemoryOnly)
                .unwrap();
        }
        let got_unfused = sorted(unfused.collect().unwrap());

        let mut want = data;
        for op in &ops {
            want = apply_vec(want, op);
        }
        let want = sorted(want);

        assert_eq!(&got_fused, &want, "fused chain diverged from the model");
        assert_eq!(&got_unfused, &want, "unfused chain diverged from the model");
    });
}

/// Re-collecting a wide lineage prunes its already-materialized
/// shuffles from the plan; the pruned plan must produce the same
/// output, and so must a plan whose middle sits behind a persisted
/// materialization.
#[test]
fn pruning_materialized_shuffles_never_changes_collect() {
    check(16, |rng| {
        let data = rng.vec(1..80, |r| (r.range(0usize..30), r.u64()));
        let ops = rng.vec(0..3, narrow_op);
        let reduce_parts = rng.range(1usize..6);
        let sc = ctx();
        let mut narrow = sc.parallelize(data, Some(4));
        for op in &ops {
            narrow = apply_rdd(&narrow, op);
        }
        // Repartition into a count outside the 1..6 strategy range so
        // the shuffle is never elided as already co-partitioned.
        let wide = narrow
            .reduce_by_key(
                |a, b| a.wrapping_add(b),
                reduce_parts,
                Arc::new(HashPartitioner),
            )
            .map_values(|v| v.rotate_left(1))
            .partition_by(7, Arc::new(HashPartitioner));

        let first = sorted(wide.collect().unwrap());
        // Second collect: both upstream shuffles are Done and pruned.
        let second = sorted(wide.collect().unwrap());
        assert_eq!(&first, &second, "pruned re-collect diverged");

        // A persisted cut mid-lineage must be invisible too.
        let persisted = wide.persist(StorageLevel::MemoryAndDisk).unwrap();
        let third = sorted(persisted.collect().unwrap());
        assert_eq!(&first, &third, "persisted re-collect diverged");

        let map_stages = sc.with_event_log(|log| {
            log.stages()
                .iter()
                .filter(|s| s.label.ends_with("map"))
                .count()
        });
        assert_eq!(map_stages, 2, "each shuffle must materialize exactly once");
    });
}
