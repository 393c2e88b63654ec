//! Acceptance for the multi-tenant DP job service (ISSUE 9): a seeded
//! sim run with two tenants and overlapping APSP queries replays
//! bit-identically (scheduling order, admission/cache decisions,
//! result bytes); the lineage-cache path returns results bitwise-equal
//! to cold recomputation while running zero new engine stages; and the
//! service stays correct under chaos — scripted `FetchFailure` in sim
//! and a real executor `SIGKILL` over the TCP transport with two
//! tenants in flight.

mod harness;

use bytes::Bytes;
use dp_core::jobs::{decode_matrix_f64, decode_matrix_i64, DpJobRequest, DpJobRunner};
use dp_core::DpConfig;
use gep_kernels::alignment::AlignScore;
use gep_kernels::parenthesis::ParenWeight;
use gep_kernels::{Matrix, Tropical};
use harness::{cluster, reference, weights, Rng};
use sparklet::service::JobService;
use sparklet::{
    Arrival, ChaosEvent, ChaosPolicy, JobState, ServiceConfig, SparkContext, TransportMode,
};

const NODES: usize = 2;

fn sim_ctx(seed: u64) -> SparkContext {
    SparkContext::new(cluster(NODES, 2, 4).with_sim_seed(seed))
}

fn runner() -> DpJobRunner {
    harness::runner(DpConfig::new(1, 1))
}

fn service(sc: SparkContext, conf: ServiceConfig) -> JobService {
    JobService::new(sc, conf, runner())
}

fn dist_matrix(n: usize, seed: u64) -> Matrix<f64> {
    weights(n, &mut Rng::new(seed))
}

fn apsp_body(n: usize, seed: u64, block: usize, sources: Option<Vec<u32>>) -> Bytes {
    DpJobRequest::Apsp {
        dist: dist_matrix(n, seed),
        block,
        sources,
    }
    .encode()
}

fn apsp_reference(n: usize, seed: u64) -> Matrix<f64> {
    reference::<Tropical>(&dist_matrix(n, seed))
}

// --- the headline acceptance: seeded replay --------------------------

#[test]
fn two_tenant_overlapping_script_replays_bit_identically() {
    // Two tenants, mixed problem types, and overlapping APSP queries:
    // tenant 2 re-asks tenant 1's graph with a different source set
    // and a different block size — same lineage, so it must be served
    // from the cache as a row projection.
    let script = vec![
        Arrival {
            at_ms: 0,
            tenant: 1,
            body: apsp_body(24, 42, 6, None),
        },
        Arrival {
            at_ms: 2,
            tenant: 2,
            body: apsp_body(24, 77, 6, None),
        },
        Arrival {
            at_ms: 4,
            tenant: 2,
            body: DpJobRequest::Alignment {
                a: b"GCATGCUACGTACGTTAGC".to_vec(),
                b: b"GATTACAGGATCCTAGGCA".to_vec(),
                score: AlignScore::NeedlemanWunsch {
                    matched: 1,
                    mismatch: -1,
                    gap: -1,
                },
                block: 8,
            }
            .encode(),
        },
        // Overlap: tenant 1's graph, different sources AND block.
        Arrival {
            at_ms: 6,
            tenant: 2,
            body: apsp_body(24, 42, 8, Some(vec![3, 11, 17])),
        },
        Arrival {
            at_ms: 8,
            tenant: 1,
            body: DpJobRequest::Parenthesis {
                weight: ParenWeight::MatrixChain(vec![30, 35, 15, 5, 10, 20, 25]),
                block: 4,
            }
            .encode(),
        },
        // Exact repeat of tenant 2's own graph, from tenant 1.
        Arrival {
            at_ms: 10,
            tenant: 1,
            body: apsp_body(24, 77, 6, None),
        },
    ];

    let run = |svc_conf: ServiceConfig| {
        let svc = service(sim_ctx(9001), svc_conf);
        let outcomes = svc.run_script(&script, 1);
        let results: Vec<Option<Bytes>> = outcomes
            .iter()
            .map(|o| {
                svc.wait(*o.as_ref().expect("all admitted"))
                    .expect("known")
                    .result
            })
            .collect();
        (svc.decisions(), results, svc.stats(), svc.cache_stats())
    };
    let conf = || {
        ServiceConfig::default()
            .with_tenant_weight(1, 2)
            .with_tenant_weight(2, 1)
            .with_inflight(2, 2)
    };

    let (d1, r1, s1, c1) = run(conf());
    let (d2, r2, s2, c2) = run(conf());
    assert_eq!(d1, d2, "same script must replay the same decision log");
    assert_eq!(r1, r2, "same script must replay the same result bytes");
    assert_eq!((s1, c1), (s2.clone(), c2), "counters replay too");
    assert_eq!(s2.completed, 6);
    assert_eq!(s2.cache_hits, 2, "the two overlapping queries hit");

    // Decisions replay is necessary but not sufficient — the results
    // must also be *right*. APSP answers against the serial reference:
    let full_42 = decode_matrix_f64(r1[0].as_ref().expect("done")).expect("decode");
    assert_eq!(full_42.first_difference(&apsp_reference(24, 42)), None);
    let full_77 = decode_matrix_f64(r1[1].as_ref().expect("done")).expect("decode");
    assert_eq!(full_77.first_difference(&apsp_reference(24, 77)), None);
    // The projected overlap: exactly rows 3, 11, 17 of tenant 1's
    // table, bitwise, served from cache despite the different block.
    let proj = decode_matrix_f64(r1[3].as_ref().expect("done")).expect("decode");
    assert_eq!(proj.rows(), 3);
    for (out_row, &src_row) in [0, 1, 2].iter().zip(&[3usize, 11, 17]) {
        for j in 0..24 {
            assert_eq!(
                proj.get(*out_row, j).to_bits(),
                full_42.get(src_row, j).to_bits(),
                "projection row {src_row} col {j}"
            );
        }
    }
    // The exact repeat is byte-identical to the original.
    assert_eq!(r1[5], r1[1], "repeat query returns the cached bytes");
    // Alignment sanity: decodes to the right shape.
    let align = decode_matrix_i64(r1[2].as_ref().expect("done")).expect("decode");
    assert_eq!((align.rows(), align.cols()), (20, 20));
}

// --- cache hits skip engine stages -----------------------------------

#[test]
fn cache_hit_runs_zero_new_stages_and_matches_cold_bitwise() {
    let svc = service(sim_ctx(5), ServiceConfig::default().with_inflight(1, 1));
    let cold_id = svc.submit(1, apsp_body(18, 13, 6, None)).expect("admit");
    svc.pump_all();
    let cold = svc.wait(cold_id).expect("known");
    assert_eq!(cold.state, JobState::Done, "{:?}", cold.error);
    assert!(!cold.cache_hit);
    assert!(cold.stages_run > 0);

    let stages_before = svc.sc().summary().stages;
    let warm_id = svc.submit(2, apsp_body(18, 13, 6, None)).expect("admit");
    svc.pump_all();
    let warm = svc.wait(warm_id).expect("known");
    assert!(warm.cache_hit, "identical lineage from another tenant hits");
    assert_eq!(warm.stages_run, 0);
    assert_eq!(
        svc.sc().summary().stages,
        stages_before,
        "the cached path must not touch the engine"
    );
    assert_eq!(warm.result, cold.result, "hit ≡ recompute, bitwise");
}

// --- chaos: FetchFailed mid-service (sim) ----------------------------

#[test]
fn fetchfailed_mid_service_completes_both_tenants_correctly() {
    let sc = sim_ctx(31);
    // Seeded probabilistic fetch failures (7% of attempts) while both
    // tenants' jobs are in flight: recovery interleaves with healthy
    // execution, and the whole schedule replays from the seed.
    let chaos = sc.install_chaos(ChaosPolicy::seeded(31).with_fetch_failures(70));
    let svc = JobService::new(sc, ServiceConfig::default().with_inflight(2, 2), runner());
    let j1 = svc.submit(1, apsp_body(24, 42, 6, None)).expect("admit");
    let j2 = svc.submit(2, apsp_body(24, 77, 6, None)).expect("admit");
    svc.pump_all();

    let v1 = svc.wait(j1).expect("known");
    let v2 = svc.wait(j2).expect("known");
    assert_eq!(v1.state, JobState::Done, "{:?}", v1.error);
    assert_eq!(v2.state, JobState::Done, "{:?}", v2.error);
    // No cross-tenant bleed, chaos or not: each tenant gets *its*
    // graph's distances, bitwise.
    let out1 = decode_matrix_f64(v1.result.as_ref().expect("done")).expect("decode");
    let out2 = decode_matrix_f64(v2.result.as_ref().expect("done")).expect("decode");
    assert_eq!(out1.first_difference(&apsp_reference(24, 42)), None);
    assert_eq!(out2.first_difference(&apsp_reference(24, 77)), None);
    let resubmissions = svc.sc().summary().stage_resubmissions;
    assert!(
        resubmissions >= 1,
        "a failed fetch must re-stage its map outputs, got {resubmissions}"
    );
    drop(chaos);
    svc.sc().audit().expect("post-chaos audit");

    // The recovery re-staged the lost shuffle exactly once: re-asking
    // the same query now is a pure cache hit — zero engine stages, and
    // byte-identical to the answer computed through the failure.
    let stages_after_chaos = svc.sc().summary().stages;
    let again = svc.submit(1, apsp_body(24, 42, 6, None)).expect("admit");
    svc.pump_all();
    let vr = svc.wait(again).expect("known");
    assert!(vr.cache_hit);
    assert_eq!(vr.result, v1.result);
    assert_eq!(
        svc.sc().summary().stages,
        stages_after_chaos,
        "nothing is re-staged twice"
    );
}

// --- chaos: real SIGKILL over TCP with two tenants -------------------

#[test]
fn service_survives_a_real_sigkill_with_two_tenants_in_flight() {
    let tcp = cluster(NODES, 2, 8).with_retry_backoff(4, 64);
    let sc = SparkContext::new(tcp.with_transport(TransportMode::Tcp));
    // Lose an executor on the first attempt of two early stages while
    // both tenants' jobs are in flight: each kill is a real SIGKILL +
    // respawn wiping that subprocess's staged map outputs.
    let chaos = sc.install_chaos(
        ChaosPolicy::seeded(7)
            .script(1, 0, 1, ChaosEvent::ExecutorLoss)
            .script(3, 0, 1, ChaosEvent::ExecutorLoss),
    );
    let svc = JobService::new(sc, ServiceConfig::default().with_inflight(2, 2), runner());
    svc.start_workers(2);
    let j1 = svc.submit(1, apsp_body(32, 7, 8, None)).expect("admit");
    let j2 = svc.submit(2, apsp_body(32, 8, 8, None)).expect("admit");

    let v1 = svc.wait(j1).expect("known");
    let v2 = svc.wait(j2).expect("known");
    assert_eq!(v1.state, JobState::Done, "{:?}", v1.error);
    assert_eq!(v2.state, JobState::Done, "{:?}", v2.error);
    let out1 = decode_matrix_f64(v1.result.as_ref().expect("done")).expect("decode");
    let out2 = decode_matrix_f64(v2.result.as_ref().expect("done")).expect("decode");
    assert_eq!(
        out1.first_difference(&apsp_reference(32, 7)),
        None,
        "tenant 1 distances must survive the kill bitwise"
    );
    assert_eq!(
        out2.first_difference(&apsp_reference(32, 8)),
        None,
        "tenant 2 distances must survive the kill bitwise"
    );
    assert!(
        svc.sc().executor_respawns() >= 1,
        "the scripted loss must have SIGKILLed a real subprocess"
    );
    drop(chaos);
    svc.sc().audit().expect("post-recovery audit");
    svc.stop();
    assert_eq!(
        svc.sc().shutdown().expect("orderly shutdown"),
        vec![0; NODES],
        "executors must exit cleanly after service stop"
    );
}
