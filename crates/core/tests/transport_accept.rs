//! Multi-process acceptance at the solver level: a Floyd–Warshall run
//! over the TCP transport with real executor subprocesses must be
//! bit-identical to the in-process run with an equivalent
//! `RunSummary`, and a real `SIGKILL` mid-job must recover to the
//! correct distances. (A socket row also checks that bytes crossed the
//! sockets, that the ledgers audit clean and that every executor exits
//! with 0.)

mod harness;

use harness::{cluster, masked, Case, Chaos, Mode, Problem};

fn fw(seed: u64) -> Case {
    let conf = cluster(2, 2, 8).with_retry_backoff(4, 64);
    Case::new(Problem::Fw, 32, 8).seed(seed).on(conf)
}

#[test]
fn fw_over_tcp_is_bit_identical_with_an_equivalent_report() {
    let local = fw(99).check().summary;
    let tcp = fw(99).mode(Mode::Tcp).check().summary;
    assert_eq!(
        masked(tcp),
        masked(local),
        "declared-byte accounting must not depend on the transport"
    );
}

#[test]
fn fw_survives_a_real_sigkill_mid_job() {
    // Lose an executor on the first attempt of two early stages: each
    // kill is a real SIGKILL + respawn, wiping the subprocess's staged
    // map outputs so a later fetch fails over to map-stage resubmission.
    let run = fw(7).mode(Mode::Tcp).chaos(Chaos::ExecutorLoss).check();
    let sc = &run.sc;
    assert!(
        sc.executor_respawns() >= 2,
        "both scripted losses must have SIGKILLed real subprocesses, got {}",
        sc.executor_respawns()
    );
    // Recovery takes the fetch-failed path: the concurrent tasks that
    // read the dead executor's map outputs see `FetchFailed` and the
    // job resubmits the map stage (a parked task-level retry may also
    // fire first — `retries` is incidental, the resubmission is the
    // invariant).
    assert!(
        run.summary.stage_resubmissions >= 1,
        "lost map outputs must resubmit their map stage, got {} (retries {})",
        run.summary.stage_resubmissions,
        run.summary.retries
    );
}
