//! Multi-process transport acceptance: the same jobs over TCP / Unix
//! sockets with real executor subprocesses must match the in-process
//! engine bit for bit, survive a real `SIGKILL` mid-job via fetch-failed
//! resubmission, and never leave zombies or orphans behind.
//!
//! These tests spawn the `sparklet-executor` binary; `cargo test` builds
//! it alongside the test (same package). `SPARKLET_EXECUTOR_BIN`
//! overrides discovery when running the test executable directly.

use std::sync::Arc;

use sparklet::{
    ChaosEvent, ChaosPolicy, HashPartitioner, Rdd, SparkConf, SparkContext, TransportMode,
};

fn pairs(n: usize) -> Vec<(usize, u64)> {
    (0..n).map(|i| (i % 16, (i * i) as u64)).collect()
}

fn sorted<K: Ord, V>(mut v: Vec<(K, V)>) -> Vec<(K, V)> {
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

/// One shuffle job: reduce_by_key over 16 keys, 8 partitions.
fn run_reduce(sc: &SparkContext) -> Vec<(usize, u64)> {
    let out = sc
        .parallelize(pairs(256), Some(8))
        .map(|(k, v)| (k, v))
        .reduce_by_key(|a, b| a + b, 4, Arc::new(HashPartitioner))
        .collect()
        .expect("reduce job");
    sorted(out)
}

/// A reduce whose buckets cross nodes. `run_reduce` hash-places its
/// keys over 8 map partitions and 4 reduce partitions, so every reduce
/// reads only map partitions that ran on its own node; over 3 reduce
/// partitions most reduces read a bucket another node staged.
fn crossing(sc: &SparkContext) -> Rdd<usize, u64> {
    sc.parallelize(pairs(256), Some(8))
        .map(|(k, v)| (k, v))
        .reduce_by_key(|a, b| a + b, 3, Arc::new(HashPartitioner))
}

fn ctx(mode: TransportMode, executors: usize) -> SparkContext {
    let conf = SparkConf::default()
        .with_executors(executors)
        .with_executor_cores(2)
        .with_partitions(8)
        .with_retry_backoff(4, 64)
        .with_transport(mode);
    SparkContext::new(conf)
}

#[test]
fn tcp_job_matches_in_process_and_moves_real_wire_bytes() {
    let run = |sc: &SparkContext| sorted(crossing(sc).collect().expect("reduce job"));
    let reference = run(&ctx(TransportMode::InProcess, 2));

    let sc = ctx(TransportMode::Tcp, 2);
    assert_eq!(run(&sc), reference, "TCP transport changed results");
    assert!(sc.summary().remote_bytes > 0, "some fetch must cross nodes");
    // The shuffle really crossed the sockets: both executors exchanged
    // measured bytes, and the totals are the per-node sums.
    let (tx0, rx0) = sc.wire_bytes(0);
    let (tx1, rx1) = sc.wire_bytes(1);
    assert!(tx0 > 0 && tx1 > 0, "every executor must receive traffic");
    assert!(rx0 > 0 || rx1 > 0, "cross-node fetches must answer back");
    assert_eq!(sc.total_wire_bytes(), (tx0 + tx1, rx0 + rx1));
    sc.audit().expect("post-job audit");
    let codes = sc.shutdown().expect("orderly shutdown");
    assert_eq!(codes, vec![0, 0], "executors must exit cleanly");
    assert_eq!(
        sc.shutdown().expect("second shutdown"),
        Vec::<i32>::new(),
        "shutdown is idempotent"
    );
}

#[test]
fn a_job_without_a_shuffle_sends_the_executors_nothing() {
    // Tasks run on driver-side threads and an executor serves only
    // data, so a narrow job has nothing to tell it: not one byte
    // crosses either socket while the job runs.
    for mode in [TransportMode::Unix, TransportMode::Tcp] {
        let sc = ctx(mode, 2);
        let before = sc.total_wire_bytes();
        let out = sc
            .parallelize(pairs(64), Some(8))
            .map(|(k, v)| (k, v + 1))
            .collect()
            .expect("narrow job");
        assert_eq!(out.len(), 64);
        assert_eq!(
            sc.total_wire_bytes(),
            before,
            "{mode:?}: a job with no shuffle moved wire bytes"
        );
        sc.audit().expect("post-job audit");
        assert_eq!(sc.shutdown().expect("shutdown"), vec![0, 0]);
    }
}

#[test]
fn unix_socket_transport_matches_in_process() {
    let reference = run_reduce(&ctx(TransportMode::InProcess, 3));
    let sc = ctx(TransportMode::Unix, 3);
    assert_eq!(run_reduce(&sc), reference, "Unix transport changed results");
    let (tx, rx) = sc.total_wire_bytes();
    assert!(tx > 0 && rx > 0, "unix sockets must carry the shuffle");
    sc.audit().expect("post-job audit");
    assert_eq!(sc.shutdown().expect("shutdown"), vec![0, 0, 0]);
}

#[test]
fn broadcast_ships_once_per_executor_and_serves_node_reads() {
    let sc = ctx(TransportMode::Tcp, 2);
    let (tx_before, _) = sc.total_wire_bytes();
    let table: Vec<u64> = (0..512).collect();
    let bc = sc.broadcast(&table);
    let (tx_after, _) = sc.total_wire_bytes();
    assert!(
        tx_after > tx_before,
        "broadcast create must push frames to the executors"
    );
    let bc2 = bc.clone();
    let out = sc
        .parallelize(pairs(64), Some(4))
        .map_partitions(true, move |_p, items, tc| {
            let table = bc2.value(tc).expect("broadcast available");
            items
                .into_iter()
                .map(|(k, v)| (k, v + table[k % table.len()]))
                .collect()
        })
        .collect()
        .expect("broadcast job");
    assert_eq!(out.len(), 64);
    // The nodes' first reads pulled the frame back over the wire.
    let (_, rx_after) = sc.total_wire_bytes();
    assert!(rx_after > 0, "node reads must come back over the socket");
    drop(bc);
    sc.audit().expect("audit after broadcast GC");
    assert_eq!(sc.shutdown().expect("shutdown"), vec![0, 0]);
}

#[test]
fn scripted_executor_loss_sigkills_and_recovers_via_resubmission() {
    let reference = run_reduce(&ctx(TransportMode::InProcess, 2));

    let sc = ctx(TransportMode::Tcp, 2);
    let pid_before: Vec<u32> = (0..2).map(|n| sc.executor_pid(n).unwrap()).collect();
    // Stage 0 = shuffle map stage, stage 1 = reduce: lose an executor on
    // the first reduce attempt. The kill is a real SIGKILL + respawn;
    // the retry's fetch misses the dead executor's map outputs and the
    // fetch failure resubmits the map stage.
    let chaos = sc.install_chaos(ChaosPolicy::seeded(7).script(1, 0, 1, ChaosEvent::ExecutorLoss));
    let got = run_reduce(&sc);
    drop(chaos);
    assert_eq!(got, reference, "recovery changed the result");
    assert!(
        sc.executor_respawns() >= 1,
        "the chaos kill must have SIGKILLed a real subprocess"
    );
    let pid_after: Vec<u32> = (0..2).map(|n| sc.executor_pid(n).unwrap()).collect();
    assert_ne!(pid_before, pid_after, "a fresh subprocess must be running");
    let resubmissions = sc.summary().stage_resubmissions;
    assert!(
        resubmissions >= 1,
        "lost map outputs must resubmit the map stage, got {resubmissions}"
    );
    sc.audit().expect("post-recovery audit");
    assert_eq!(sc.shutdown().expect("shutdown"), vec![0, 0]);
}

#[test]
fn a_killed_unix_executor_leaves_no_segments_and_its_buckets_resubmit() {
    let reference = sorted(
        crossing(&ctx(TransportMode::InProcess, 2))
            .collect()
            .unwrap(),
    );
    let sc = ctx(TransportMode::Unix, 2);
    let reduced = crossing(&sc);
    assert_eq!(sorted(reduced.collect().expect("first run")), reference);
    assert!(sc.summary().remote_bytes > 0, "some fetch must cross nodes");
    let dir = sc
        .executor_segment_dir(1)
        .expect("Unix executors keep segments");
    let files = || std::fs::read_dir(&dir).expect("node directory").count();
    assert!(
        files() > 0,
        "node 1 holds the buckets node 0 read, as segment files"
    );
    // The shuffle stays staged while `reduced` holds its lineage; the
    // kill takes node 1's share of it, in memory and on disk.
    let loss = sc.kill_executor(1);
    assert!(loss.map_buckets_lost > 0);
    assert_eq!(files(), 0, "the replacement starts with an empty directory");
    // Re-reading fetches the lost buckets, fails, and resubmits the
    // map stage, which restages them; node 0's reads ship them again.
    let resubmitted = sc.summary().stage_resubmissions;
    assert_eq!(sorted(reduced.collect().expect("rerun")), reference);
    assert!(sc.summary().stage_resubmissions > resubmitted);
    assert!(files() > 0, "the re-read shipped node 1's restaged buckets");
    sc.audit().expect("post-recovery audit");
    // Dropping the context removes the whole segment tree.
    let root = dir.parent().expect("segment root").to_path_buf();
    drop(reduced);
    drop(sc);
    assert!(!root.exists(), "{} outlived its context", root.display());
}

#[test]
fn audit_reaps_and_reports_an_executor_killed_behind_the_drivers_back() {
    let sc = ctx(TransportMode::Tcp, 2);
    run_reduce(&sc);
    let pid = sc.executor_pid(1).expect("live executor");
    // Kill it externally — the driver is not told.
    let status = std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("kill");
    assert!(status.success());
    // The audit must notice (and reap — no zombie left for shutdown).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let err = loop {
        match sc.audit() {
            Err(e) => break e,
            Ok(()) if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Ok(()) => panic!("audit never noticed the killed executor"),
        }
    };
    assert!(
        err.contains("executor 1"),
        "audit must name the dead executor, got: {err}"
    );
    // Shutdown still reaps the survivor cleanly.
    assert_eq!(sc.shutdown().expect("shutdown"), vec![0]);
}

#[test]
fn dropping_the_context_reaps_all_executors() {
    let pids: Vec<u32>;
    {
        let sc = ctx(TransportMode::Tcp, 2);
        run_reduce(&sc);
        pids = (0..2).map(|n| sc.executor_pid(n).unwrap()).collect();
        // No explicit shutdown: Drop must do it.
    }
    for pid in pids {
        // A reaped child is gone: signal 0 delivery must fail. (If the
        // pid were recycled this could false-negative, but within one
        // test process lifetime that window is effectively zero.)
        let alive = std::process::Command::new("kill")
            .args(["-0", &pid.to_string()])
            .status()
            .expect("probe")
            .success();
        assert!(!alive, "executor {pid} survived the context drop");
    }
}

#[test]
#[should_panic(expected = "deterministic simulation requires the in-process transport")]
fn sim_mode_rejects_wire_transports() {
    let _ = SparkContext::new(
        SparkConf::default()
            .with_executors(2)
            .with_sim_seed(1)
            .with_tcp_transport(),
    );
}
