//! Job-service behaviour at the sparklet layer: multi-client soak over
//! real TCP/Unix submission sockets, weighted-fairness and admission
//! properties, cache-hit bitwise equivalence, scripted-replay decision
//! determinism, and cancellation releasing budget and latches.
//!
//! The runner here is a toy (but engine-driving) workload: each job
//! builds a seeded pair-RDD, runs it through a real shuffle
//! (`reduce_by_key`), and encodes the sorted totals. dp-core's DP
//! binding is exercised in its own crate; this suite pins the *service*
//! semantics independent of any problem type.

use std::sync::Arc;

use bytes::Bytes;
use sparklet::service::{wire as svc_wire, JobRunner, JobService, SvcMsg};
use sparklet::wire::{dial, read_frame, write_frame};
use sparklet::{
    Arrival, HashPartitioner, JobError, JobState, LineageHasher, Rejection, ServiceAddr,
    ServiceClient, ServiceConfig, ServiceDecision, ServiceStats, SparkConf, SparkContext,
};

fn ctx() -> SparkContext {
    SparkContext::new(
        SparkConf::default()
            .with_executors(2)
            .with_executor_cores(2)
            .with_worker_threads(2)
            .with_partitions(4),
    )
}

fn sim_ctx(seed: u64) -> SparkContext {
    SparkContext::new(
        SparkConf::default()
            .with_executors(2)
            .with_executor_cores(2)
            .with_partitions(4)
            .with_sim_seed(seed),
    )
}

// --- toy workload ----------------------------------------------------
//
// Body: [kind u8][seed u64][n u64][take u64]
//   kind 1: sum pairs (i % 17, f(seed, i)) via reduce_by_key
//   kind 2: same with values scaled — a different lineage
//   kind 3: kind 1 but re-shuffled `rounds` times with a pause per
//           round (a slow, multi-stage job for cancellation tests;
//           `take` is reused as the round count)
//
// `take` (kinds 1/2) truncates the response to the first `take`
// entries and is NOT part of the lineage key: overlapping queries
// share one cached full result and project their slice.

fn body(kind: u8, seed: u64, n: u64, take: u64) -> Bytes {
    let mut v = vec![kind];
    v.extend_from_slice(&seed.to_le_bytes());
    v.extend_from_slice(&n.to_le_bytes());
    v.extend_from_slice(&take.to_le_bytes());
    Bytes::from(v)
}

fn parse(body: &Bytes) -> Result<(u8, u64, u64, u64), JobError> {
    if body.len() != 25 {
        return Err(JobError::Codec(format!("toy body len {}", body.len())));
    }
    let u = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().expect("8"));
    Ok((body[0], u(1), u(9), u(17)))
}

/// Serial reference: what one toy job must produce, engine-free.
fn reference(kind: u8, seed: u64, n: u64, take: u64) -> Vec<(u64, u64)> {
    let scale = if kind == 2 { 3 } else { 1 };
    let mut totals = std::collections::BTreeMap::<u64, u64>::new();
    for i in 0..n {
        let v = (seed ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7;
        *totals.entry(i % 17).or_default() += v.wrapping_mul(scale) % 1_000_003;
    }
    let all: Vec<(u64, u64)> = totals.into_iter().collect();
    let cut = if take == 0 { all.len() } else { take as usize };
    all.into_iter().take(cut).collect()
}

fn encode_pairs(pairs: &[(u64, u64)]) -> Bytes {
    let mut out = Vec::with_capacity(pairs.len() * 16);
    for &(k, v) in pairs {
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    Bytes::from(out)
}

fn decode_pairs(bytes: &Bytes) -> Vec<(u64, u64)> {
    bytes
        .chunks_exact(16)
        .map(|c| {
            (
                u64::from_le_bytes(c[0..8].try_into().expect("8")),
                u64::from_le_bytes(c[8..16].try_into().expect("8")),
            )
        })
        .collect()
}

struct ToyRunner;

impl ToyRunner {
    fn totals(sc: &SparkContext, kind: u8, seed: u64, n: u64) -> Result<Vec<(u64, u64)>, JobError> {
        let scale: u64 = if kind == 2 { 3 } else { 1 };
        let input: Vec<(u64, u64)> = (0..n)
            .map(|i| {
                let v = (seed ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7;
                (i % 17, v.wrapping_mul(scale) % 1_000_003)
            })
            .collect();
        let mut got = sc
            .parallelize(input, Some(4))
            .reduce_by_key(|a, b| a + b, 4, Arc::new(HashPartitioner))
            .collect()?;
        got.sort_unstable();
        Ok(got)
    }
}

impl JobRunner for ToyRunner {
    fn estimate(&self, body: &Bytes) -> Result<f64, JobError> {
        let (_, _, n, _) = parse(body)?;
        Ok(n as f64)
    }

    fn cache_key(&self, body: &Bytes) -> Result<Option<u128>, JobError> {
        let (kind, seed, n, _take) = parse(body)?;
        // Slow jobs (kind 3) opt out: their point is to be running.
        if kind == 3 {
            return Ok(None);
        }
        let mut h = LineageHasher::default();
        h.update(&[kind])
            .update(&seed.to_le_bytes())
            .update(&n.to_le_bytes());
        Ok(Some(h.finish()))
    }

    fn run(&self, sc: &SparkContext, body: &Bytes) -> Result<Bytes, JobError> {
        let (kind, seed, n, take) = parse(body)?;
        match kind {
            1 | 2 => Ok(encode_pairs(&Self::totals(sc, kind, seed, n)?)),
            3 => {
                let rounds = take.max(2);
                let mut last = Vec::new();
                for _ in 0..rounds {
                    last = Self::totals(sc, 1, seed, n)?;
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                Ok(encode_pairs(&last))
            }
            other => Err(JobError::Codec(format!("toy kind {other}"))),
        }
    }

    fn project(&self, body: &Bytes, full: &Bytes) -> Result<Bytes, JobError> {
        let (kind, _, _, take) = parse(body)?;
        if kind == 3 || take == 0 {
            return Ok(full.clone());
        }
        let pairs = decode_pairs(full);
        Ok(encode_pairs(&pairs[..pairs.len().min(take as usize)]))
    }
}

fn service(sc: SparkContext, conf: ServiceConfig) -> JobService {
    JobService::new(sc, conf, ToyRunner)
}

/// Every counter is the number of decisions of one kind ever logged,
/// so until the decision ring wraps, recounting the log must give the
/// stats back.
fn assert_stats_match_log(svc: &JobService) {
    let mut want = ServiceStats::default();
    for d in svc.decisions() {
        match d {
            ServiceDecision::Admitted { .. } => {
                want.submitted += 1;
                want.admitted += 1;
            }
            ServiceDecision::Rejected { .. } => {
                want.submitted += 1;
                want.rejected += 1;
            }
            ServiceDecision::Dispatched { .. } => {}
            ServiceDecision::CacheHit { .. } => want.cache_hits += 1,
            ServiceDecision::CacheStore { .. } => want.cache_stores += 1,
            ServiceDecision::Completed { ok: true, .. } => want.completed += 1,
            ServiceDecision::Completed { ok: false, .. } => want.failed += 1,
            ServiceDecision::Cancelled { .. } => want.cancelled += 1,
        }
    }
    assert_eq!(svc.stats(), want, "stats are counts of logged decisions");
}

// --- soak over real sockets ------------------------------------------

fn soak(addr: ServiceAddr) {
    let svc = service(
        ctx(),
        ServiceConfig::default()
            .with_inflight(4, 2)
            .with_tenant_weight(1, 2),
    );
    svc.start_workers(3);
    let handle = svc.serve(addr).expect("bind service");
    let addr = handle.addr().clone();

    // N clients × mixed kinds, each its own tenant: every result must
    // equal the serial reference for *that tenant's* seed (any
    // cross-tenant bleed shows up as a mismatched seed's totals).
    let clients: Vec<std::thread::JoinHandle<()>> = (0..6u64)
        .map(|tenant| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = ServiceClient::connect(&addr).expect("connect");
                let mut jobs = Vec::new();
                for r in 0..3u64 {
                    let kind = 1 + ((tenant + r) % 2) as u8;
                    let seed = 1000 * tenant + r; // tenant-distinct lineage
                    let job = c
                        .submit(tenant, body(kind, seed, 300 + r, 0))
                        .expect("io")
                        .expect("admitted");
                    jobs.push((job, kind, seed, 300 + r));
                }
                for (job, kind, seed, n) in jobs {
                    let view = c.wait(job).expect("io");
                    assert_eq!(view.state, JobState::Done, "job {job}: {:?}", view.error);
                    let got = decode_pairs(view.result.as_ref().expect("result"));
                    assert_eq!(got, reference(kind, seed, n, 0), "tenant {tenant} bleed");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client");
    }

    let mut c = ServiceClient::connect(&addr).expect("connect");
    let (submitted, admitted, rejected, completed, _hits, _cancelled) = c.stats().expect("stats");
    assert_eq!(submitted, 18);
    assert_eq!(admitted, 18);
    assert_eq!(rejected, 0);
    assert_eq!(completed, 18);
    handle.stop();
}

#[test]
fn multi_client_soak_over_tcp() {
    soak(ServiceAddr::Tcp("127.0.0.1:0".into()));
}

#[test]
fn multi_client_soak_over_unix() {
    let path = std::env::temp_dir().join(format!("sparklet-svc-{}.sock", std::process::id()));
    soak(ServiceAddr::Unix(path));
}

// --- fairness property -----------------------------------------------

#[test]
fn weighted_fairness_never_starves_a_tenant() {
    // Heavy tenant (weight 3) with a deep backlog vs. light tenant
    // (weight 1): dispatches must interleave ~3:1 — the light tenant
    // is never starved, and the heavy tenant actually gets its share.
    let svc = service(
        sim_ctx(42),
        ServiceConfig::default()
            .with_tenant_weight(1, 3)
            .with_tenant_weight(2, 1)
            .with_inflight(64, 64),
    );
    for r in 0..12u64 {
        svc.submit(1, body(1, 10_000 + r, 64, 0)).expect("admit");
        svc.submit(2, body(1, 20_000 + r, 64, 0)).expect("admit");
    }
    svc.pump_all();
    let dispatches: Vec<u64> = svc
        .decisions()
        .into_iter()
        .filter_map(|d| match d {
            ServiceDecision::Dispatched { tenant, .. } => Some(tenant),
            _ => None,
        })
        .collect();
    assert_eq!(dispatches.len(), 24);
    // Starvation-freedom with proportional share: while both backlogs
    // are nonempty (the first 16 dispatches — the heavy tenant's 12
    // jobs last exactly 16 at a 3/4 share), every prefix of k
    // dispatches gives each tenant at least ⌊k·w/Σw⌋ − w_max slots.
    for k in 1..=16 {
        let t1 = dispatches[..k].iter().filter(|&&t| t == 1).count() as i64;
        let t2 = k as i64 - t1;
        let k = k as i64;
        assert!(t1 >= k * 3 / 4 - 3, "prefix {k}: heavy tenant got {t1}");
        assert!(t2 >= k / 4 - 1, "prefix {k}: light tenant got {t2}");
    }
    // And nobody's work is lost: both backlogs fully dispatch.
    let t1 = dispatches.iter().filter(|&&t| t == 1).count();
    assert_eq!((t1, dispatches.len() - t1), (12, 12));
}

// --- cache semantics -------------------------------------------------

#[test]
fn cache_hits_are_bitwise_identical_and_skip_stages() {
    let svc = service(sim_ctx(7), ServiceConfig::default().with_inflight(1, 1));
    let j1 = svc.submit(1, body(1, 99, 400, 0)).expect("admit");
    assert_eq!(svc.pump_all(), 1);
    let cold = svc.wait(j1).expect("known");
    assert_eq!(cold.state, JobState::Done);
    assert!(!cold.cache_hit);
    assert!(cold.stages_run > 0, "cold run drives the engine");

    let stages_before = svc.sc().summary().stages;
    // Identical query from ANOTHER tenant: lineage, not tenant, keys
    // the cache (results are tenant-independent facts about the input).
    let j2 = svc.submit(2, body(1, 99, 400, 0)).expect("admit");
    assert_eq!(svc.pump_all(), 1);
    let warm = svc.wait(j2).expect("known");
    assert_eq!(warm.state, JobState::Done);
    assert!(warm.cache_hit, "identical lineage must hit");
    assert_eq!(warm.stages_run, 0);
    assert_eq!(
        svc.sc().summary().stages,
        stages_before,
        "a cache hit runs no new engine stages"
    );
    assert_eq!(
        warm.result.as_ref().expect("bytes"),
        cold.result.as_ref().expect("bytes"),
        "hit must be bitwise-identical to the cold computation"
    );

    // Overlapping query (same lineage, projected slice): still a hit,
    // and the slice equals the cold result's prefix.
    let j3 = svc.submit(3, body(1, 99, 400, 5)).expect("admit");
    svc.pump_all();
    let slice = svc.wait(j3).expect("known");
    assert!(slice.cache_hit);
    assert_eq!(
        decode_pairs(slice.result.as_ref().expect("bytes")),
        decode_pairs(cold.result.as_ref().expect("bytes"))[..5].to_vec()
    );
    let (hits, _misses, _evict) = svc.cache_stats();
    assert_eq!(hits, 2);
}

// --- replay determinism ----------------------------------------------

#[test]
fn scripted_run_replays_bit_identically() {
    let script: Vec<Arrival> = (0..10u64)
        .map(|i| Arrival {
            at_ms: i * 3,
            tenant: 1 + i % 3,
            // Seeds overlap across tenants → some submissions hit.
            body: body(1, 50 + i % 4, 200, 0),
        })
        .collect();
    let run = |seed: u64| {
        let svc = service(
            sim_ctx(seed),
            ServiceConfig::default()
                .with_tenant_weight(1, 2)
                .with_inflight(2, 1),
        );
        let outcomes = svc.run_script(&script, 1);
        let results: Vec<Option<Bytes>> = outcomes
            .iter()
            .map(|o| match o {
                Ok(j) => svc.wait(*j).expect("known").result,
                Err(_) => None,
            })
            .collect();
        assert_stats_match_log(&svc);
        (svc.decisions(), results, svc.stats())
    };
    let (d1, r1, s1) = run(1234);
    let (d2, r2, s2) = run(1234);
    assert_eq!(d1, d2, "same script, same decision log");
    assert_eq!(r1, r2, "same script, same result bytes");
    assert_eq!(s1, s2);
    assert!(
        s1.cache_hits > 0,
        "overlapping script must exercise the cache"
    );
}

// --- admission -------------------------------------------------------

#[test]
fn admission_rejects_over_budget_and_releases_on_completion() {
    let svc = service(
        sim_ctx(5),
        ServiceConfig::default()
            .with_admission_budget(500.0)
            .with_max_job_cost(450.0)
            .with_inflight(1, 1),
    );
    let j1 = svc.submit(1, body(1, 1, 400, 0)).expect("fits budget");
    // 400 committed: another 400 won't fit; 900 exceeds the per-job cap.
    assert!(matches!(
        svc.submit(1, body(1, 2, 400, 0)),
        Err(Rejection::OverBudget { .. })
    ));
    assert!(matches!(
        svc.submit(1, body(1, 3, 900, 0)),
        Err(Rejection::TooExpensive { .. })
    ));
    assert!(svc.committed_cost() > 0.0);
    svc.pump_all();
    svc.wait(j1).expect("known");
    assert_eq!(svc.committed_cost(), 0.0, "completion releases budget");
    // Released budget admits what was rejected before.
    svc.submit(1, body(1, 2, 400, 0)).expect("now admitted");
    let stats = svc.stats();
    assert_eq!(stats.rejected, 2);
    assert_eq!(stats.admitted, 2);
    assert_stats_match_log(&svc);
}

// --- cancellation ----------------------------------------------------

#[test]
fn cancelling_a_running_job_releases_budget_and_latches() {
    let svc = service(
        ctx(),
        ServiceConfig::default()
            .with_admission_budget(10_000.0)
            .with_inflight(1, 1),
    );
    svc.start_workers(1);
    // Kind 3: many shuffle rounds with pauses — reliably mid-run.
    let slow = svc.submit(1, body(3, 77, 600, 200)).expect("admit");
    // A queued job behind it, to exercise the queued-cancel path too.
    let queued = svc.submit(1, body(1, 78, 100, 0)).expect("admit");
    let committed_both = svc.committed_cost();
    assert!(committed_both >= 700.0);

    // Wait until the slow job is actually running.
    while svc.poll(slow).expect("known").state == JobState::Queued {
        std::thread::yield_now();
    }
    assert!(svc.cancel(queued), "queued cancel");
    let qv = svc.wait(queued).expect("known");
    assert_eq!(qv.state, JobState::Cancelled);
    assert!(
        svc.committed_cost() < committed_both,
        "queued cancel releases its budget immediately"
    );

    assert!(svc.cancel(slow), "running cancel");
    let sv = svc.wait(slow).expect("known");
    assert_eq!(
        sv.state,
        JobState::Cancelled,
        "token trips at a stage boundary"
    );
    assert_eq!(svc.committed_cost(), 0.0, "all budget released");

    // The decisive latch property: nothing is wedged — a fresh job over
    // the same context (sharing the shuffle registry the cancelled job
    // touched) completes correctly.
    let after = svc.submit(2, body(1, 501, 200, 0)).expect("admit");
    let av = svc.wait(after).expect("known");
    assert_eq!(av.state, JobState::Done, "{:?}", av.error);
    assert_eq!(
        decode_pairs(av.result.as_ref().expect("bytes")),
        reference(1, 501, 200, 0)
    );
    let stats = svc.stats();
    assert_eq!(stats.cancelled, 2);
    svc.stop();
    assert_stats_match_log(&svc);
}

// --- panic isolation -------------------------------------------------

/// A hostile [`JobRunner`]: panics in `estimate` or `run` depending on
/// the body's first byte, echoes the body otherwise.
struct PanicRunner;

impl JobRunner for PanicRunner {
    fn estimate(&self, body: &Bytes) -> Result<f64, JobError> {
        if body.first() == Some(&0xFE) {
            panic!("estimate boom");
        }
        Ok(1.0)
    }

    fn cache_key(&self, _body: &Bytes) -> Result<Option<u128>, JobError> {
        Ok(None)
    }

    fn run(&self, _sc: &SparkContext, body: &Bytes) -> Result<Bytes, JobError> {
        if body.first() == Some(&0xFF) {
            panic!("run boom");
        }
        Ok(body.clone())
    }
}

#[test]
fn panicking_runner_fails_the_job_without_wedging_the_service() {
    let svc = JobService::new(
        sim_ctx(1),
        ServiceConfig::default().with_inflight(1, 1),
        PanicRunner,
    );
    svc.start_workers(1);

    // A panic in estimate is a Malformed rejection on the submit path,
    // not a dead submitter thread.
    assert!(matches!(
        svc.submit(1, Bytes::from_static(&[0xFE])),
        Err(Rejection::Malformed(_))
    ));

    // A panic in run settles the job as Failed, releasing its
    // scheduler slot and admission budget instead of killing the
    // worker with the job stuck Running.
    let bad = svc
        .submit(1, Bytes::from_static(&[0xFF]))
        .expect("admitted");
    let view = svc.wait(bad).expect("known");
    assert_eq!(view.state, JobState::Failed);
    assert!(view.error.as_deref().expect("error").contains("panicked"));
    assert_eq!(svc.committed_cost(), 0.0, "budget released on panic");

    // The sole worker survived the panic and serves the next job.
    let good = svc.submit(1, Bytes::from_static(&[1])).expect("admitted");
    let view = svc.wait(good).expect("known");
    assert_eq!(view.state, JobState::Done, "{:?}", view.error);
    assert_eq!(view.result.expect("result"), Bytes::from_static(&[1]));
    svc.stop();
    assert_stats_match_log(&svc);
}

// --- settled-job retention -------------------------------------------

#[test]
fn settled_retention_bounds_job_memory() {
    let svc = service(
        sim_ctx(11),
        ServiceConfig::default()
            .with_inflight(1, 1)
            .with_settled_retention(2),
    );
    let jobs: Vec<_> = (0..5u64)
        .map(|i| svc.submit(1, body(1, 3000 + i, 50, 0)).expect("admit"))
        .collect();
    svc.pump_all();
    // Jobs settle in submission order; only the newest two stay
    // pollable, the rest are evicted with their bodies and results.
    for &j in &jobs[..3] {
        assert!(svc.poll(j).is_none(), "job {j} must be evicted");
    }
    for &j in &jobs[3..] {
        let v = svc.poll(j).expect("retained");
        assert_eq!(v.state, JobState::Done);
    }
}

#[test]
fn decision_log_is_a_ring_sized_from_the_settled_retention() {
    // Regression: the log was a `Vec` that only grew, ≈ 3–4 entries a
    // job for the life of the service. It keeps the most recent four
    // decisions per retained settled job.
    let svc = JobService::new(
        sim_ctx(11),
        ServiceConfig::default()
            .with_inflight(1, 1)
            .with_settled_retention(2),
        PanicRunner,
    );
    let cap = 4 * 2;
    let mut last = 0;
    for _ in 0..3 * cap {
        // Echo jobs: admitted, dispatched, completed — no engine work.
        last = svc.submit(1, Bytes::from_static(&[1])).expect("admit");
        svc.pump_all();
    }
    let log = svc.decisions();
    assert_eq!(log.len(), cap, "the window holds the cap, not the history");
    assert!(
        matches!(log.last(), Some(ServiceDecision::Completed { job, ok: true, .. }) if *job == last),
        "the window is the most recent one: {log:?}"
    );
    assert_eq!(svc.committed_cost(), 0.0);
}

#[test]
fn wire_shutdown_performs_a_full_stop() {
    let svc = service(ctx(), ServiceConfig::default().with_inflight(1, 1));
    svc.start_workers(1);
    let handle = svc
        .serve(ServiceAddr::Tcp("127.0.0.1:0".into()))
        .expect("bind");
    let addr = handle.addr().clone();

    let mut c = ServiceClient::connect(&addr).expect("connect");
    // A slow running job plus a queued one behind it.
    let slow = c
        .submit(1, body(3, 9, 400, 20))
        .expect("io")
        .expect("admitted");
    let queued = c
        .submit(1, body(1, 10, 100, 0))
        .expect("io")
        .expect("admitted");
    while svc.poll(slow).expect("known").state == JobState::Queued {
        std::thread::yield_now();
    }
    c.shutdown().expect("acked");

    // Shutdown is a full service stop, not just a submission fence:
    // queued work is cancelled with its budget released, the running
    // job drains, and new submissions are rejected.
    let qv = svc.wait(queued).expect("known");
    assert_eq!(qv.state, JobState::Cancelled, "queued job cancelled");
    let sv = svc.wait(slow).expect("known");
    assert_eq!(sv.state, JobState::Done, "running job drains");
    assert_eq!(svc.committed_cost(), 0.0, "all budget released");
    assert!(matches!(
        svc.submit(2, body(1, 11, 50, 0)),
        Err(Rejection::ShuttingDown)
    ));
    handle.stop();
    assert_stats_match_log(&svc);
}

#[test]
fn stop_cancels_queued_jobs_in_admission_order() {
    // Regression: `stop` collected the queued jobs from a `HashMap`, so
    // the `Cancelled` decisions (and the order entries entered the
    // retention ring) differed from one service instance to the next.
    let run = || {
        let svc = service(sim_ctx(3), ServiceConfig::default());
        for i in 0..8u64 {
            svc.submit(1 + i % 2, body(1, 700 + i, 50, 0))
                .expect("admit");
        }
        svc.stop();
        assert_eq!(svc.committed_cost(), 0.0, "all budget released");
        assert_stats_match_log(&svc);
        svc.decisions()
    };
    let log = run();
    let cancelled: Vec<u64> = log
        .iter()
        .filter_map(|d| match d {
            ServiceDecision::Cancelled { job, .. } => Some(*job),
            _ => None,
        })
        .collect();
    assert_eq!(cancelled, (1..=8).collect::<Vec<u64>>());
    assert_eq!(log, run(), "two instances, one decision log");
}

#[test]
fn a_frame_that_does_not_open_is_a_counted_rejection() {
    // Regression: the connection handler answered such a `Submit`
    // itself, so neither the counters nor the decision log saw it.
    let svc = service(ctx(), ServiceConfig::default());
    let handle = svc
        .serve(ServiceAddr::Tcp("127.0.0.1:0".into()))
        .expect("bind");
    let mut conn = dial(handle.addr()).expect("connect");

    // A well-formed LZ4 frame header (tag 1, 64 raw bytes declared)
    // over a body that is not an LZ4 stream.
    let mut frame = vec![1u8];
    frame.extend_from_slice(&64u64.to_le_bytes());
    frame.extend_from_slice(&[0xFF; 7]);
    let submit = SvcMsg::Submit {
        tenant: 9,
        frame: Bytes::from(frame),
    };
    write_frame(&mut conn, &svc_wire::encode(&submit)).expect("send");
    let (reply, _) = read_frame(&mut conn, svc_wire::decode).expect("reply");
    assert!(
        matches!(reply, SvcMsg::SubmitErr { code: 4, .. }),
        "{reply:?}"
    );

    let stats = svc.stats();
    assert_eq!((stats.submitted, stats.rejected), (1, 1));
    assert_eq!(
        svc.decisions(),
        vec![ServiceDecision::Rejected { tenant: 9, code: 4 }]
    );
    drop(conn);
    handle.stop();
    assert_stats_match_log(&svc);
}

#[test]
fn client_disconnect_cancels_its_unfinished_jobs() {
    let svc = service(ctx(), ServiceConfig::default().with_inflight(1, 1));
    svc.start_workers(1);
    let handle = svc
        .serve(ServiceAddr::Tcp("127.0.0.1:0".into()))
        .expect("bind");
    let addr = handle.addr().clone();

    let slow;
    {
        let mut c = ServiceClient::connect(&addr).expect("connect");
        slow = c
            .submit(9, body(3, 5, 600, 200))
            .expect("io")
            .expect("admitted");
        // Drop the connection with the job still unfinished.
    }
    // The handler notices EOF and cancels; poll until it settles.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        let view = svc.wait(slow).expect("known");
        if view.state == JobState::Cancelled {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job not cancelled after disconnect: {:?}",
            view.state
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(svc.committed_cost(), 0.0);
    handle.stop();
}

#[test]
fn a_wait_over_the_socket_collects_the_result_once() {
    let svc = service(ctx(), ServiceConfig::default());
    svc.start_workers(1);
    let handle = svc
        .serve(ServiceAddr::Tcp("127.0.0.1:0".into()))
        .expect("bind");
    let mut c = ServiceClient::connect(handle.addr()).expect("connect");
    let job = c
        .submit(1, body(1, 31, 120, 0))
        .expect("io")
        .expect("admitted");
    let first = c.wait(job).expect("io");
    assert_eq!(first.state, JobState::Done, "{:?}", first.error);
    assert_eq!(
        decode_pairs(first.result.as_ref().expect("the first wait has the bytes")),
        reference(1, 31, 120, 0)
    );
    // Collected: the job is still known and done, without its bytes.
    for again in [c.wait(job).expect("io"), c.poll(job).expect("io")] {
        assert_eq!((again.job, again.state), (job, JobState::Done));
        assert_eq!(again.result, None, "a collected result is sent once");
        assert!(!again.cache_hit && again.stages_run == first.stages_run);
    }
    handle.stop();
}

#[test]
fn the_socket_client_reports_an_unknown_job_as_not_found() {
    let svc = service(
        ctx(),
        ServiceConfig::default()
            .with_inflight(1, 1)
            .with_settled_retention(1),
    );
    svc.start_workers(1);
    let handle = svc
        .serve(ServiceAddr::Tcp("127.0.0.1:0".into()))
        .expect("bind");
    let mut c = ServiceClient::connect(handle.addr()).expect("connect");
    let jobs: Vec<_> = (0..2u64)
        .map(|i| {
            c.submit(1, body(1, 40 + i, 60, 0))
                .expect("io")
                .expect("admitted")
        })
        .collect();
    // The second job settles after the first, evicting it from a ring
    // of one.
    assert_eq!(c.wait(jobs[1]).expect("io").state, JobState::Done);
    let never_issued = jobs[1] + 1000;
    for job in [jobs[0], never_issued] {
        for probe in [c.poll(job), c.wait(job)] {
            let err = probe.expect_err("no status for an unknown job");
            assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "job {job}");
            assert_eq!(err.to_string(), format!("unknown job {job}"));
        }
        assert!(svc.poll(job).is_none(), "in process it is `None`");
    }
    handle.stop();
}
