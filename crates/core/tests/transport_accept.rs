//! Multi-process acceptance at the solver level: a Floyd–Warshall run
//! over the TCP transport with real executor subprocesses must be
//! bit-identical to the in-process run with an equivalent
//! `RunSummary`, and a real `SIGKILL` mid-job must recover to the
//! correct distances.

use dp_core::{solve, DpConfig, RunSummary};
use gep_kernels::gep::gep_reference;
use gep_kernels::{Matrix, Tropical};
use sparklet::{ChaosEvent, ChaosPolicy, SparkConf, SparkContext, TransportMode};

const NODES: usize = 2;

fn ctx(mode: TransportMode) -> SparkContext {
    SparkContext::new(
        SparkConf::default()
            .with_executors(NODES)
            .with_executor_cores(2)
            .with_partitions(8)
            .with_retry_backoff(4, 64)
            .with_transport(mode),
    )
}

/// Integer edge weights: exact arithmetic ⇒ bitwise-stable distances.
fn dist_matrix(n: usize, seed: u64) -> Matrix<f64> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            0.0
        } else if next() < 0.4 {
            1.0 + (next() * 9.0).floor()
        } else {
            f64::INFINITY
        }
    })
}

/// The threaded scheduler's stage-concurrency high-water mark is a
/// timing artifact, not a property of the plan — mask it before
/// comparing reports across transports.
fn comparable(mut rep: RunSummary) -> RunSummary {
    rep.max_concurrent_stages = 0;
    rep
}

#[test]
fn fw_over_tcp_is_bit_identical_with_an_equivalent_report() {
    let input = dist_matrix(32, 99);
    let mut reference = input.clone();
    gep_reference::<Tropical>(&mut reference);
    let cfg = DpConfig::new(32, 8);

    let sc = ctx(TransportMode::InProcess);
    let out_local = solve::<Tropical>(&sc, &cfg, &input).expect("in-process solve");
    let rep_local = sc.summary();
    assert_eq!(out_local.first_difference(&reference), None);

    let sc = ctx(TransportMode::Tcp);
    let out_tcp = solve::<Tropical>(&sc, &cfg, &input).expect("TCP solve");
    let rep_tcp = sc.summary();
    assert_eq!(
        out_tcp.first_difference(&out_local),
        None,
        "transports must agree bitwise"
    );
    assert_eq!(
        comparable(rep_tcp),
        comparable(rep_local),
        "declared-byte accounting must not depend on the transport"
    );
    let (tx, rx) = sc.total_wire_bytes();
    assert!(
        tx > 0 && rx > 0,
        "the FW shuffle must actually cross the sockets (tx={tx}, rx={rx})"
    );
    sc.audit().expect("post-solve audit");
    assert_eq!(
        sc.shutdown().expect("orderly shutdown"),
        vec![0; NODES],
        "executors must exit cleanly"
    );
}

#[test]
fn fw_survives_a_real_sigkill_mid_job() {
    let input = dist_matrix(32, 7);
    let mut reference = input.clone();
    gep_reference::<Tropical>(&mut reference);
    let cfg = DpConfig::new(32, 8);

    let sc = ctx(TransportMode::Tcp);
    // Lose an executor on the first attempt of two early stages: each
    // kill is a real SIGKILL + respawn, wiping the subprocess's staged
    // map outputs so a later fetch fails over to map-stage resubmission.
    let chaos = ChaosPolicy::seeded(7)
        .script(1, 0, 1, ChaosEvent::ExecutorLoss)
        .script(3, 0, 1, ChaosEvent::ExecutorLoss);
    let out = {
        let _chaos = sc.install_chaos(chaos);
        solve::<Tropical>(&sc, &cfg, &input).expect("chaotic solve")
    };
    let rep = sc.summary();
    assert_eq!(
        out.first_difference(&reference),
        None,
        "recovery must reproduce the reference distances bitwise"
    );
    assert!(
        sc.executor_respawns() >= 2,
        "both scripted losses must have SIGKILLed real subprocesses, got {}",
        sc.executor_respawns()
    );
    // Recovery takes the fetch-failed path: the concurrent tasks that
    // read the dead executor's map outputs see `FetchFailed` and the
    // job resubmits the map stage (a parked task-level retry may also
    // fire first — `rep.retries` is incidental, the resubmission is
    // the invariant).
    assert!(
        sc.stage_resubmissions() >= 1,
        "lost map outputs must resubmit their map stage, got {} (retries {})",
        sc.stage_resubmissions(),
        rep.retries
    );
    sc.audit().expect("post-recovery audit");
    assert_eq!(sc.shutdown().expect("shutdown"), vec![0; NODES]);
}
