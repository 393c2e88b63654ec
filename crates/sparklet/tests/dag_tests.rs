//! DAG-scheduler behaviour: one stage at a time within a job,
//! exactly-once shuffle materialization across concurrent jobs, fault
//! tolerance with several jobs' stages in flight, deferred retry
//! backoff, and byte reconciliation under interleaved stage completion.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use sparklet::{
    ChaosEvent, ChaosPolicy, HashPartitioner, Partitioner, Rdd, SparkConf, SparkContext,
};

fn ctx() -> SparkContext {
    SparkContext::new(
        SparkConf::default()
            .with_executors(4)
            .with_executor_cores(2)
            .with_worker_threads(2)
            .with_partitions(8),
    )
}

fn sorted<K: Ord, V>(mut v: Vec<(K, V)>) -> Vec<(K, V)> {
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

fn pairs(n: usize) -> Vec<(usize, u64)> {
    (0..n).map(|i| (i, (i * 13) as u64)).collect()
}

/// Run `a` and `b` as two concurrent actions on their own threads,
/// released together so their stages overlap on the shared context.
fn concurrently<A: Send, B: Send>(
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B + Send,
) -> (A, B) {
    let gate = Barrier::new(2);
    std::thread::scope(|s| {
        let a = s.spawn(|| {
            gate.wait();
            a()
        });
        let b = s.spawn(|| {
            gate.wait();
            b()
        });
        (a.join().expect("job a"), b.join().expect("job b"))
    })
}

/// Holds each side's map tasks until a task of the other side has
/// started too, so two jobs' map stages are in flight at once whatever
/// the thread timing (bounded, so a broken run fails instead of
/// hanging). The partition a test faults is never held: chaos fails an
/// attempt after it ran, so a held first attempt could lose to a
/// speculative twin and the injected fault would go unretried.
#[derive(Default)]
struct Rendezvous([AtomicBool; 2]);

impl Rendezvous {
    fn hold(
        self: &Arc<Self>,
        rdd: Rdd<usize, u64>,
        side: usize,
        faulted: usize,
    ) -> Rdd<usize, u64> {
        let meet = Arc::clone(self);
        rdd.map_partitions(false, move |p, items, _| {
            if p != faulted {
                meet.meet(side);
            }
            items
        })
    }

    fn meet(&self, side: usize) {
        self.0[side].store(true, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !self.0[1 - side].load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::yield_now();
        }
    }
}

#[test]
fn a_jobs_independent_branches_run_one_stage_at_a_time() {
    let sc = ctx();
    let left = sc
        .parallelize(pairs(64), Some(4))
        .map(|(k, v)| (k % 7, v))
        .reduce_by_key(|a, b| a.wrapping_add(b), 4, Arc::new(HashPartitioner));
    let right = sc
        .parallelize(pairs(64), Some(4))
        .map(|(k, v)| (k % 5, v * 3))
        .reduce_by_key(|a, b| a.wrapping_add(b), 4, Arc::new(HashPartitioner));
    let both = left.union(&right);
    let got = both.collect().expect("two-branch job");

    // Both branch shuffles are ready at submission, yet the stage loop
    // runs them one after the other on the calling thread: no launch
    // observes another stage in flight.
    assert_eq!(
        sc.summary().max_concurrent_stages,
        1,
        "a job alone overlapped its own stages"
    );

    // Correctness: same totals as computing the branches by hand.
    let total: u64 = got.iter().map(|(_, v)| v).sum();
    let a: u64 = pairs(64).iter().map(|(_, v)| *v).sum();
    let b: u64 = pairs(64).iter().map(|(_, v)| *v * 3).sum();
    assert_eq!(total, a + b);
}

#[test]
fn stage_graph_records_parent_edges_in_the_log() {
    let sc = ctx();
    let wide = sc
        .parallelize(pairs(32), Some(4))
        .map(|(k, v)| (k % 3, v))
        .reduce_by_key(|a, b| a + b, 4, Arc::new(HashPartitioner))
        .map_values(|v| v + 1)
        .partition_by(2, Arc::new(HashPartitioner));
    let _ = wide.collect().expect("chained job");
    sc.with_event_log(|log| {
        // Find the two shuffle map stages; the second's parents must
        // name the first's stage id.
        let stages: Vec<_> = log
            .stages()
            .iter()
            .filter(|s| s.label.ends_with("map"))
            .collect();
        assert_eq!(stages.len(), 2, "two shuffles -> two map stages");
        let first = &stages[0].record;
        let second = &stages[1].record;
        assert!(
            second.parent_stage_ids.contains(&first.stage_id),
            "child stage {} should list parent {} (got {:?})",
            second.stage_id,
            first.stage_id,
            second.parent_stage_ids
        );
        assert!(
            first.parent_stage_ids.is_empty(),
            "root map stage reads input, not a shuffle"
        );
    });
}

#[test]
fn shared_shuffle_under_concurrent_jobs_materializes_exactly_once() {
    // Baseline: one job over the wide RDD.
    let baseline = {
        let sc = ctx();
        let wide = sc
            .parallelize(pairs(128), Some(8))
            .map(|(k, v)| (k % 9, v))
            .reduce_by_key(|a, b| a.wrapping_add(b), 4, Arc::new(HashPartitioner));
        let _ = wide.collect().expect("baseline job");
        sc.summary().staged_bytes
    };

    let sc = ctx();
    let wide = sc
        .parallelize(pairs(128), Some(8))
        .map(|(k, v)| (k % 9, v))
        .reduce_by_key(|a, b| a.wrapping_add(b), 4, Arc::new(HashPartitioner));
    let doubled = wide.map_values(|v| v * 2);
    let filtered = wide.filter(|k, _| k % 2 == 0);
    // Two jobs submitted concurrently, both needing the same shuffle.
    let (r1, r2) = concurrently(|| doubled.collect(), || filtered.collect());
    let (r1, r2) = (r1.expect("concurrent job 1"), r2.expect("concurrent job 2"));

    let base = sorted(wide.collect().expect("reference"));
    assert_eq!(
        sorted(r1),
        base.iter().map(|(k, v)| (*k, v * 2)).collect::<Vec<_>>()
    );
    assert_eq!(
        sorted(r2),
        base.iter()
            .filter(|(k, _)| k % 2 == 0)
            .cloned()
            .collect::<Vec<_>>()
    );

    // Exactly one map stage ran: the second job latched onto the
    // in-flight materialization instead of re-staging it.
    let map_stages = sc.with_event_log(|log| {
        log.stages()
            .iter()
            .filter(|s| s.label.ends_with("map"))
            .count()
    });
    assert_eq!(map_stages, 1, "shared shuffle staged more than once");
    assert_eq!(
        sc.summary().staged_bytes,
        baseline,
        "concurrent jobs wrote more shuffle bytes than one job"
    );
}

#[test]
fn fault_matrix_with_multiple_stages_in_flight() {
    // Two branches collected by two concurrent jobs, then joined by a
    // third, under retries + speculation + per-stage fault budgets:
    // results must match the calm run exactly.
    let run = |faults: bool| {
        let conf = SparkConf::default()
            .with_executors(4)
            .with_executor_cores(2)
            .with_worker_threads(2)
            .with_partitions(8)
            .with_retry_backoff(2, 8)
            .with_speculation(0.5);
        let sc = SparkContext::new(conf);
        // Partition 0 of every stage fails once, whichever order
        // the interleaved stages reach it in.
        let _chaos =
            faults.then(|| sc.install_chaos(ChaosPolicy::seeded(0).with_standing_panics(0, 1)));
        let meet = Arc::new(Rendezvous::default());
        let left = meet
            .hold(sc.parallelize(pairs(96), Some(4)), 0, 0)
            .map(|(k, v)| (k % 6, v))
            .reduce_by_key(|a, b| a.wrapping_add(b), 4, Arc::new(HashPartitioner));
        let right = meet
            .hold(sc.parallelize(pairs(96), Some(4)), 1, 0)
            .map(|(k, v)| (k % 4, v ^ 7))
            .reduce_by_key(|a, b| a.wrapping_add(b), 4, Arc::new(HashPartitioner));
        let (l, r) = concurrently(|| left.collect(), || right.collect());
        l.expect("left job");
        r.expect("right job");
        let got = sorted(
            left.union(&right)
                .partition_by(4, Arc::new(HashPartitioner))
                .collect()
                .expect("joining job"),
        );
        let did = sc.summary();
        (got, did.retries, did.max_concurrent_stages)
    };
    let (want, _, _) = run(false);
    let (got, retries, peak) = run(true);
    assert_eq!(got, want, "results must survive the fault matrix");
    assert!(retries >= 1, "injected faults must be retried");
    assert!(peak >= 2, "two jobs' stages ran concurrently under faults");
}

#[test]
fn staged_bytes_reconcile_under_interleaved_stage_completion() {
    let sc = ctx();
    let _chaos = sc.install_chaos(ChaosPolicy::seeded(0).with_standing_panics(1, 1));
    let meet = Arc::new(Rendezvous::default());
    let left = meet
        .hold(sc.parallelize(pairs(64), Some(4)), 0, 1)
        .map(|(k, v)| (k % 5, v))
        .reduce_by_key(|a, b| a.wrapping_add(b), 4, Arc::new(HashPartitioner));
    let right = meet
        .hold(sc.parallelize(pairs(64), Some(4)), 1, 1)
        .map(|(k, v)| (k % 3, v + 9))
        .reduce_by_key(|a, b| a.wrapping_add(b), 4, Arc::new(HashPartitioner));
    let (l, r) = concurrently(|| left.collect(), || right.collect());
    l.expect("left job");
    r.expect("right job");

    // Drop every RDD: per-shuffle GC releases all staged bytes.
    drop(left);
    drop(right);
    for node in 0..4 {
        assert_eq!(
            sc.staged_bytes(node),
            0,
            "node {node} still holds staged bytes"
        );
    }

    // The summary counts the GC releases no stage has taken yet, so
    // with no further stage every successfully staged byte reads as
    // released (failed attempts' partial writes are reconciled too,
    // so releases can only exceed the logged writes).
    let did = sc.summary();
    assert!(
        did.staged_released_bytes >= did.staged_bytes,
        "released {} < staged {}",
        did.staged_released_bytes,
        did.staged_bytes
    );
    assert!(did.staged_bytes > 0, "the job staged something");
}

#[test]
fn retry_backoff_defers_without_blocking_the_stage() {
    // Four partitions each fail once with a 200 ms backoff. Deadline-
    // based deferral parks them all on the same 200 ms deadline; the
    // old blocking sleep would serialize toward 800 ms. On the seeded
    // virtual clock the distinction is exact: overlapping deferral
    // costs one 200 ms jump, serialized sleeps would cost four.
    let sc = SparkContext::new(
        SparkConf::default()
            .with_executors(4)
            .with_worker_threads(1)
            .with_partitions(4)
            .with_retry_backoff(200, 200)
            .with_sim_seed(11),
    );
    let _chaos = sc.install_chaos((0..4).fold(ChaosPolicy::seeded(0), |policy, p| {
        policy.script(0, p, 1, ChaosEvent::TaskPanic)
    }));
    let got = sorted(
        sc.parallelize(pairs(16), Some(4))
            .collect()
            .expect("backoff job"),
    );
    assert_eq!(got, sorted(pairs(16)));
    assert_eq!(sc.summary().retries, 4);
    let elapsed_ms = sc.now_ms();
    assert!(
        (200..650).contains(&(elapsed_ms as usize)),
        "deferred relaunches must overlap: one shared backoff window, \
         not four in sequence (took {elapsed_ms} virtual ms)"
    );
}

#[test]
fn explain_notes_elided_shuffles() {
    let sc = ctx();
    // 4 -> 6 partitions is a real shuffle; repeating the same
    // signature and count is not.
    let once = sc
        .parallelize(pairs(32), Some(4))
        .partition_by(6, Arc::new(HashPartitioner));
    let twice = once.partition_by(6, Arc::new(HashPartitioner));
    let plan = twice.explain();
    assert!(
        plan.contains("[elided: already partitioned"),
        "elided repartition missing from lineage:\n{plan}"
    );
    assert!(
        plan.contains("note: 1 shuffle(s) elided (already co-partitioned)"),
        "elision note missing:\n{plan}"
    );
    // The stage graph shows only the one real shuffle.
    assert_eq!(plan.matches("stage shuffle#").count(), 1, "plan:\n{plan}");
}

#[test]
fn compatible_coalesce_preserves_partitioner_and_elides_repartition() {
    let sc = ctx();
    // 8 hash partitions coalesced to 4 (4 | 8): the modulo grouping
    // keeps `hash % 4` placement, so repartitioning by the same
    // signature at the reduced count must not shuffle again.
    let narrow = sc
        .parallelize(pairs(64), Some(4))
        .partition_by(8, Arc::new(HashPartitioner))
        .coalesce(4)
        .partition_by(4, Arc::new(HashPartitioner));
    let plan = narrow.explain();
    assert!(
        plan.contains("Coalesce [4 partitions, narrow, keeps hash partitioning]"),
        "coalesce dropped a preservable signature:\n{plan}"
    );
    assert!(
        plan.contains("[elided: already partitioned by hash into 4]"),
        "post-coalesce repartition should elide:\n{plan}"
    );
    assert_eq!(plan.matches("stage shuffle#").count(), 1, "plan:\n{plan}");

    // Correctness: every key really does sit in the partition the
    // 4-way hash partitioner assigns, and no element was lost.
    let tagged = narrow
        .map_partitions(false, |p, items, _| {
            items.into_iter().map(|(k, v)| (k, (p, v))).collect()
        })
        .collect()
        .expect("coalesced job");
    let mut all = Vec::new();
    for (k, (p, v)) in tagged {
        assert_eq!(
            HashPartitioner.partition(&k, 4),
            p,
            "key {k} landed in partition {p}"
        );
        all.push((k, v));
    }
    assert_eq!(sorted(all), pairs(64));

    // A non-dividing target cannot keep the signature: the follow-up
    // repartition is a real shuffle.
    let ragged = sc
        .parallelize(pairs(64), Some(4))
        .partition_by(8, Arc::new(HashPartitioner))
        .coalesce(3)
        .partition_by(3, Arc::new(HashPartitioner));
    let plan = ragged.explain();
    assert!(
        plan.contains("Coalesce [3 partitions, narrow]"),
        "3 does not divide 8, signature must drop:\n{plan}"
    );
    assert_eq!(plan.matches("stage shuffle#").count(), 2, "plan:\n{plan}");
}
