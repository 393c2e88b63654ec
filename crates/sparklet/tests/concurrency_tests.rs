//! Engine behaviour under real concurrency: multi-threaded executor
//! pools and simultaneous jobs on one context.

use std::sync::Arc;

use sparklet::{HashPartitioner, SparkConf, SparkContext, StorageLevel};

fn parallel_ctx() -> SparkContext {
    SparkContext::new(
        SparkConf::default()
            .with_executors(4)
            .with_executor_cores(4)
            .with_worker_threads(2) // real OS threads per executor
            .with_partitions(16),
    )
}

fn sorted<K: Ord, V>(mut v: Vec<(K, V)>) -> Vec<(K, V)> {
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

#[test]
fn multithreaded_executors_compute_identical_results() {
    let data: Vec<(usize, u64)> = (0..500).map(|i| (i, (i * 31) as u64)).collect();
    let run = |threads: usize| {
        let sc = SparkContext::new(
            SparkConf::default()
                .with_executors(4)
                .with_worker_threads(threads)
                .with_partitions(16),
        );
        let rdd = sc
            .parallelize(data.clone(), None)
            .map(|(k, v)| (k % 50, v))
            .reduce_by_key(|a, b| a.wrapping_add(b), 8, Arc::new(HashPartitioner));
        sorted(rdd.collect().unwrap())
    };
    assert_eq!(run(1), run(2));
    assert_eq!(run(1), run(4));
}

#[test]
fn concurrent_jobs_on_one_context_do_not_interfere() {
    let sc = parallel_ctx();
    let handles: Vec<_> = (0..4)
        .map(|job| {
            let sc = sc.clone();
            std::thread::spawn(move || {
                let data: Vec<(usize, u64)> =
                    (0..200).map(|i| (i, (i * (job + 1)) as u64)).collect();
                let rdd = sc
                    .parallelize(data, Some(8))
                    .map_values(move |v| v + job as u64)
                    .reduce_by_key(|a, b| a + b, 4, Arc::new(HashPartitioner));
                let total: u64 = rdd.collect().unwrap().into_iter().map(|(_, v)| v).sum();
                // Σ i·(job+1) + 200·job for i in 0..200.
                let expect: u64 =
                    (0..200u64).map(|i| i * (job as u64 + 1)).sum::<u64>() + 200 * job as u64;
                assert_eq!(total, expect, "job {job}");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("concurrent job");
    }
}

#[test]
fn concurrent_actions_share_one_shuffle_materialization() {
    // Two threads trigger the same wide RDD at once; the shuffle must
    // materialize exactly once and both must see consistent data.
    let sc = parallel_ctx();
    let wide = sc
        .parallelize((0..300usize).map(|i| (i, 1u64)).collect(), Some(12))
        .map(|kv| kv)
        .partition_by(6, Arc::new(HashPartitioner));
    let a = {
        let wide = wide.clone();
        std::thread::spawn(move || wide.count().unwrap())
    };
    let b = {
        let wide = wide.clone();
        std::thread::spawn(move || wide.count().unwrap())
    };
    assert_eq!(a.join().unwrap(), 300);
    assert_eq!(b.join().unwrap(), 300);
    sc.with_event_log(|log| {
        let maps = log
            .stages()
            .iter()
            .filter(|s| s.label.contains(".map"))
            .count();
        assert_eq!(maps, 1, "shuffle must materialize once");
    });
}

#[test]
fn checkpoint_under_parallel_workers_is_stable() {
    let sc = parallel_ctx();
    let mut rdd = sc.parallelize((0..256usize).map(|i| (i, i as u64)).collect(), Some(16));
    // Chain several checkpointed transformations, like the DP loop.
    for round in 0..5u64 {
        rdd = rdd
            .map_values(move |v| v.wrapping_mul(31).wrapping_add(round))
            .checkpoint_with_level(StorageLevel::MemoryOnly)
            .unwrap();
    }
    let got = sorted(rdd.collect().unwrap());
    // Sequential oracle.
    let mut expect: Vec<(usize, u64)> = (0..256).map(|i| (i, i as u64)).collect();
    for round in 0..5u64 {
        for (_, v) in expect.iter_mut() {
            *v = v.wrapping_mul(31).wrapping_add(round);
        }
    }
    assert_eq!(got, expect);
}
