//! Acceptance for the sparse tile representation path (ISSUE 10): the
//! partitioned multi-source sweep engine is bit-identical to the
//! sequential Bellman–Ford and Dijkstra oracles across seeds, source
//! sets, and partition counts; it survives a seeded-chaos sweep with
//! replay-identical reports and unchanged bits; and it runs through
//! the multi-tenant job service — lineage-cached across execution
//! knobs, replay-identical decision logs, and malformed sparse bodies
//! rejected at admission as `Malformed`.

mod harness;

use bytes::Bytes;
use dp_core::jobs::{decode_matrix_f64, DpJobRequest, DpJobRunner};
use dp_core::DpConfig;
use gep_kernels::graph::sparse_erdos_renyi;
use harness::{assert_rows_match_oracles, cluster, Case, Chaos, Mode, Problem};
use sparklet::service::JobService;
use sparklet::{Arrival, JobState, Rejection, ServiceConfig, SparkContext};

fn sim_ctx(seed: u64) -> SparkContext {
    SparkContext::new(cluster(2, 2, 4).with_sim_seed(seed))
}

fn sweeps(density: f64, sources: Option<Vec<u32>>, n: usize, parts: usize) -> Case {
    let problem = Problem::Sparse { density, sources };
    Case::new(problem, n, parts).on(cluster(2, 2, 4))
}

#[test]
fn sweeps_match_both_oracles_across_seeds_densities_parts_and_sources() {
    let n = 21;
    for (seed, density) in [(1u64, 0.05), (2, 0.15), (3, 0.4)] {
        for sources in [None, Some(vec![0, 7, 20])] {
            for parts in [1usize, 2, 5, n] {
                sweeps(density, sources.clone(), n, parts)
                    .seed(seed)
                    .mode(Mode::Sim(seed))
                    .check();
            }
        }
    }
}

#[test]
fn chaos_sweep_replays_identically_and_keeps_the_bits() {
    // Each chaotic row recovers to both oracles' bits and replays its
    // full report (stages, retries, traffic) from the seed.
    let row = sweeps(0.2, Some(vec![0, 4, 9, 17]), 18, 3).seed(77);
    for chaos_seed in [11u64, 12, 13] {
        let chaotic = row.clone().mode(Mode::Sim(chaos_seed));
        chaotic.chaos(Chaos::FetchFailures(60)).check();
    }
}

// --- through the job service ------------------------------------------

fn runner() -> DpJobRunner {
    harness::runner(DpConfig::new(1, 1))
}

fn sparse_body(seed: u64, n: usize, sources: Vec<u32>, parts: usize) -> Bytes {
    DpJobRequest::SparseApsp {
        edges: sparse_erdos_renyi(n, 0.15, 1.0, 9.0, seed),
        sources,
        parts,
    }
    .encode()
}

#[test]
fn scripted_service_run_replays_and_caches_across_execution_knobs() {
    // Tenant 2 re-asks tenant 1's exact query with a different
    // partition count: `parts` is an execution knob outside the
    // lineage key, so the second ask must be a cache hit. A different
    // *source set* on the same graph is a different result → miss.
    let script = vec![
        Arrival {
            at_ms: 0,
            tenant: 1,
            body: sparse_body(42, 20, vec![0, 5, 19], 2),
        },
        Arrival {
            at_ms: 2,
            tenant: 2,
            body: sparse_body(42, 20, vec![0, 5, 19], 7),
        },
        Arrival {
            at_ms: 4,
            tenant: 2,
            body: sparse_body(42, 20, vec![1, 2], 2),
        },
    ];
    let run = || {
        let svc = JobService::new(
            sim_ctx(4242),
            ServiceConfig::default().with_inflight(2, 2),
            runner(),
        );
        let outcomes = svc.run_script(&script, 1);
        let results: Vec<Option<Bytes>> = outcomes
            .iter()
            .map(|o| {
                svc.wait(*o.as_ref().expect("all admitted"))
                    .expect("known")
                    .result
            })
            .collect();
        (svc.decisions(), results, svc.stats())
    };
    let (d1, r1, s1) = run();
    let (d2, r2, s2) = run();
    assert_eq!(d1, d2, "decision log must replay bit-identically");
    assert_eq!(r1, r2, "result bytes must replay bit-identically");
    assert_eq!(s1, s2);
    assert_eq!(s1.completed, 3);
    assert_eq!(s1.cache_hits, 1, "knob-only repeat hits; new sources miss");
    assert_eq!(r1[0], r1[1], "hit returns the cached bytes verbatim");

    // And the cached/recomputed answers are *right*, bitwise.
    let adj = sparse_erdos_renyi(20, 0.15, 1.0, 9.0, 42).to_dense();
    let first = decode_matrix_f64(r1[0].as_ref().expect("done")).expect("decode");
    assert_rows_match_oracles(&first, &adj, &[0, 5, 19]);
    let third = decode_matrix_f64(r1[2].as_ref().expect("done")).expect("decode");
    assert_rows_match_oracles(&third, &adj, &[1, 2]);
}

#[test]
fn malformed_sparse_bodies_reject_at_admission_as_malformed() {
    let svc = JobService::new(sim_ctx(9), ServiceConfig::default(), runner());

    // A canonical body, truncated mid-CSR.
    let good = sparse_body(3, 12, vec![0, 3], 2);
    let cut = good.slice(0..good.len() - 5);
    assert!(
        matches!(svc.submit(1, cut), Err(Rejection::Malformed(_))),
        "truncated sparse body must be refused before scheduling"
    );

    // A structurally complete body whose CSR violates canonical form
    // (decreasing row pointers).
    let mut bad = vec![5u8]; // TAG_SPARSE_APSP
    bad.extend_from_slice(&2u64.to_le_bytes()); // parts
    bad.extend_from_slice(&1u64.to_le_bytes()); // one source
    bad.extend_from_slice(&0u64.to_le_bytes());
    bad.extend_from_slice(&2u64.to_le_bytes()); // n = 2
    bad.extend_from_slice(&1u64.to_le_bytes()); // nnz = 1
    bad.extend_from_slice(&f64::INFINITY.to_le_bytes()); // fill
    for p in [0u32, 1, 0] {
        bad.extend_from_slice(&p.to_le_bytes()); // row_ptr decreases
    }
    bad.extend_from_slice(&0u32.to_le_bytes()); // col_idx
    bad.extend_from_slice(&1.0f64.to_le_bytes()); // vals
    assert!(
        matches!(
            svc.submit(1, Bytes::from(bad)),
            Err(Rejection::Malformed(_))
        ),
        "non-canonical CSR must be refused at admission"
    );

    // A source index past the vertex range.
    assert!(matches!(
        svc.submit(1, sparse_body(3, 12, vec![12], 2)),
        Err(Rejection::Malformed(_))
    ));

    // The service still works afterwards: the same graph with valid
    // sources is admitted and completes.
    let id = svc
        .submit(1, sparse_body(3, 12, vec![0, 3], 2))
        .expect("admit");
    svc.pump_all();
    let view = svc.wait(id).expect("known");
    assert_eq!(view.state, JobState::Done, "{:?}", view.error);
}
