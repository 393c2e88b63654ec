//! Tests for cogroup, coalesce, and the `explain()` plan printer.

use std::sync::Arc;

use sparklet::rdd::{Key, PartSig, ShufVal};
use sparklet::{
    ChaosEvent, ChaosPolicy, HashPartitioner, Rdd, SparkConf, SparkContext, StorageLevel,
};

fn ctx() -> SparkContext {
    SparkContext::new(SparkConf::default().with_executors(3).with_partitions(6))
}

fn sorted<K: Ord, V>(mut v: Vec<(K, V)>) -> Vec<(K, V)> {
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

#[test]
fn cogroup_pairs_both_sides() {
    let sc = ctx();
    let left = sc.parallelize(vec![(1usize, 10u64), (2, 20), (2, 21)], Some(3));
    let right = sc.parallelize(vec![(2usize, 2.5f64), (3, 3.5)], Some(2));
    let grouped = left.cogroup(&right, 4, Arc::new(HashPartitioner));
    let got = sorted(grouped.collect().unwrap());
    assert_eq!(got.len(), 3);
    assert_eq!(got[0], (1, (vec![10], vec![])));
    let (ls, rs) = &got[1].1;
    assert_eq!(ls, &vec![20, 21]);
    assert_eq!(rs, &vec![2.5]);
    assert_eq!(got[2], (3, (vec![], vec![3.5])));
}

#[test]
fn cogroup_shuffles_only_the_side_that_is_not_placed() {
    let sc = ctx();
    let placed = sc.parallelize(vec![(1usize, 10u64), (2, 20), (2, 21)], Some(4));
    // `map` forgets the placement: this side must shuffle.
    let other = sc
        .parallelize(vec![(2usize, 5u64), (3, 6), (2, 7)], Some(3))
        .map(|kv| kv);
    let grouped = placed.cogroup(&other, 4, Arc::new(HashPartitioner));
    assert_eq!(grouped.partitioner_sig(), Some(("hash", 0, 4)));
    let got = sorted(grouped.collect().unwrap());
    assert_eq!(
        got,
        vec![
            (1, (vec![10], vec![])),
            (2, (vec![20, 21], vec![5, 7])),
            (3, (vec![], vec![6])),
        ]
    );
    let did = sc.summary();
    assert_eq!(did.stages, 2, "one shuffle map stage, then the result");
    assert_eq!(
        did.staged_bytes,
        3 * 16,
        "exactly the other side's three pairs"
    );

    // Both sides placed: no shuffle at all, and a repartition by the
    // same signature afterwards elides too. A narrow op over the
    // groups (here an inner join) inherits the rule.
    let sc = ctx();
    let left = sc.parallelize(vec![(1usize, 10u64), (2, 20)], Some(4));
    let right = sc.parallelize(vec![(2usize, 2.5f64)], Some(4));
    let grouped = left
        .cogroup(&right, 4, Arc::new(HashPartitioner))
        .partition_by(4, Arc::new(HashPartitioner));
    let joined = left
        .cogroup(&right, 4, Arc::new(HashPartitioner))
        .flat_map(|(k, (ls, rs))| {
            let mut out = Vec::new();
            for &l in &ls {
                for &r in &rs {
                    out.push((k, (l, r)));
                }
            }
            out
        });
    assert_eq!(sorted(grouped.collect().unwrap()).len(), 2);
    assert_eq!(joined.collect().unwrap(), vec![(2, (20, 2.5))]);
    let did = sc.summary();
    assert_eq!((did.stages, did.staged_bytes), (2, 0), "two result stages");
}

#[test]
fn cogroup_recovers_a_fetch_failure_on_its_one_shuffle() {
    let run = |fail: bool| {
        let sc = SparkContext::new(
            SparkConf::default()
                .with_executors(3)
                .with_partitions(6)
                .with_sim_seed(21),
        );
        // Stage `next` maps the shuffled side; `next + 1` is the result
        // stage, whose first fetch fails once.
        let next = sc.next_stage_ordinal();
        let _chaos = fail.then(|| {
            sc.install_chaos(ChaosPolicy::seeded(21).script(
                next + 1,
                0,
                1,
                ChaosEvent::FetchFailure,
            ))
        });
        let placed = sc.parallelize((0..24usize).map(|i| (i % 8, i as u64)).collect(), Some(4));
        let other = sc
            .parallelize(
                (0..24usize).map(|i| (i % 6, i as u64 * 3)).collect(),
                Some(5),
            )
            .map(|kv| kv);
        let got = sorted(
            placed
                .cogroup(&other, 4, Arc::new(HashPartitioner))
                .collect()
                .unwrap(),
        );
        (got, sc.summary().stage_resubmissions)
    };
    let (want, calm) = run(false);
    let (got, resubmitted) = run(true);
    assert_eq!(calm, 0);
    assert!(resubmitted >= 1, "the failed fetch resubmits the map stage");
    assert_eq!(
        got, want,
        "recovery returns the same groups, in the same order"
    );
}

#[test]
fn explain_shows_the_lineage_plan() {
    let sc = ctx();
    let rdd = sc
        .parallelize((0..10usize).map(|i| (i, i as u64)).collect(), Some(4))
        .map(|(k, v)| (k, v))
        .filter(|_, v| *v > 2)
        .partition_by(3, Arc::new(HashPartitioner));
    let plan = rdd.explain();
    let lines: Vec<&str> = plan.lines().collect();
    assert!(lines[0].starts_with("PartitionBy [WIDE"), "{plan}");
    assert!(lines[1].trim_start().starts_with("Filter"), "{plan}");
    assert!(lines[2].trim_start().starts_with("Map"), "{plan}");
    assert!(lines[3].trim_start().starts_with("Parallelize"), "{plan}");
    // Checkpointing cuts the plan to a single node.
    let ckpt = rdd.checkpoint_with_level(StorageLevel::MemoryOnly).unwrap();
    let plan = ckpt.explain();
    assert_eq!(plan.lines().count(), 1);
    assert!(plan.starts_with("Materialized"), "{plan}");

    // Every transformation's exact plan line, and what it does to the
    // key placement it inherits: narrow nodes keep the parent's
    // signature exactly when keys cannot move, wide nodes set their own.
    fn row<K: Key, V: ShufVal>(rdd: Rdd<K, V>) -> (String, Option<PartSig>) {
        let plan = rdd.explain();
        let line = plan.lines().next().expect("a plan has a first line");
        (line.to_string(), rdd.partitioner_sig())
    }
    let sc = ctx();
    let base = sc.parallelize((0..10usize).map(|i| (i, i as u64)).collect(), Some(4));
    let hash = || Arc::new(HashPartitioner);
    let kept = base.partitioner_sig();
    assert_eq!(kept, Some(("hash", 0, 4)));
    let table = [
        (row(base.map(|kv| kv)), "Map [narrow]", None),
        (row(base.flat_map(|kv| vec![kv])), "FlatMap [narrow]", None),
        (
            row(base.map_values(|v| v as f64)),
            "MapValues [narrow, preserves partitioning]",
            kept,
        ),
        (
            row(base.filter(|_, _| true)),
            "Filter [narrow, preserves partitioning]",
            kept,
        ),
        (
            row(base.map_partitions(true, |_, items, _| items)),
            "MapPartitions [narrow]",
            kept,
        ),
        (
            row(base.map_partitions(false, |_, items, _| items)),
            "MapPartitions [narrow]",
            None,
        ),
        (
            row(base.map_partitions(true, |_, items, _| {
                items.into_iter().map(|(k, v)| (k, v as f64)).collect()
            })),
            "MapPartitions [narrow]",
            kept,
        ),
        (
            row(base.partition_by(4, hash())),
            "PartitionBy [elided: already partitioned by hash into 4]",
            kept,
        ),
        (
            row(base.partition_by(3, hash())),
            "PartitionBy [WIDE shuffle #1, 3 partitions, hash]",
            Some(("hash", 0, 3)),
        ),
        (
            row(base.reduce_by_key(|a, b| a + b, 5, hash())),
            "CombineByKey [WIDE shuffle #2, 5 partitions, map-side combine]",
            Some(("hash", 0, 5)),
        ),
    ];
    for ((line, sig), want_line, want_sig) in table {
        assert_eq!(line, want_line);
        assert_eq!(sig, want_sig, "{want_line}");
    }
}

#[test]
fn explain_shows_union_and_groups() {
    let sc = ctx();
    let a = sc.parallelize(vec![(1usize, 1u64)], Some(1));
    let b = sc.parallelize(vec![(2usize, 2u64)], Some(1));
    let plan = a
        .union(&b)
        .group_by_key(2, Arc::new(HashPartitioner))
        .explain();
    assert!(plan.contains("CombineByKey [WIDE"), "{plan}");
    assert!(plan.contains("Union [2 parents"), "{plan}");
}

#[test]
fn coalesce_reduces_partitions_without_losing_data() {
    let sc = ctx();
    let rdd = sc.parallelize((0..60usize).map(|i| (i, i as u64)).collect(), Some(12));
    let co = rdd.coalesce(4);
    assert_eq!(co.num_partitions(), 4);
    assert_eq!(
        sorted(co.collect().unwrap()),
        sorted(rdd.collect().unwrap())
    );
    // Task count reflects the coalesced width.
    sc.take_event_log();
    co.count().unwrap();
    assert_eq!(sc.summary().tasks, 4);
    // target >= current is a no-op.
    assert_eq!(rdd.coalesce(100).num_partitions(), 12);
    assert!(co.explain().contains("Coalesce [4 partitions"));
}

#[test]
fn stage_wall_time_is_recorded() {
    let sc = ctx();
    sc.parallelize((0..50usize).map(|i| (i, i as u64)).collect(), Some(4))
        .map_values(|v| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            v
        })
        .count()
        .unwrap();
    sc.with_event_log(|log| {
        assert!(
            log.total_wall_seconds() > 0.001,
            "{}",
            log.total_wall_seconds()
        );
    });
}
