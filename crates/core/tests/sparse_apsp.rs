//! Acceptance for the sparse tile representation path (ISSUE 10): the
//! partitioned multi-source sweep engine is bit-identical to the
//! sequential Bellman–Ford and Dijkstra oracles across seeds, source
//! sets, and partition counts; it survives a seeded-chaos sweep with
//! replay-identical reports and unchanged bits; and it runs through
//! the multi-tenant job service — lineage-cached across execution
//! knobs, replay-identical decision logs, and malformed sparse bodies
//! rejected at admission as `Malformed`.

use bytes::Bytes;
use cluster_model::{ClusterSpec, CostModel};
use dp_core::jobs::{decode_matrix_f64, DpJobRequest, DpJobRunner};
use dp_core::{solve_sparse_apsp, DpConfig};
use gep_kernels::graph::{bellman_ford, dijkstra, sparse_erdos_renyi};
use gep_kernels::Matrix;
use sparklet::service::JobService;
use sparklet::{Arrival, ChaosPolicy, JobState, Rejection, ServiceConfig, SparkConf, SparkContext};

fn sim_ctx(seed: u64) -> SparkContext {
    SparkContext::new(
        SparkConf::default()
            .with_executors(2)
            .with_executor_cores(2)
            .with_partitions(4)
            .with_sim_seed(seed),
    )
}

fn assert_rows_match_oracles(out: &Matrix<f64>, adj: &Matrix<f64>, sources: &[u32], label: &str) {
    for (s, &src) in sources.iter().enumerate() {
        let bf = bellman_ford(adj, src as usize).expect("no negative cycles");
        let dj = dijkstra(adj, src as usize);
        for v in 0..adj.rows() {
            assert_eq!(
                out.get(s, v).to_bits(),
                bf[v].to_bits(),
                "{label}: src={src} v={v} vs Bellman–Ford"
            );
            assert_eq!(
                out.get(s, v).to_bits(),
                dj[v].to_bits(),
                "{label}: src={src} v={v} vs Dijkstra"
            );
        }
    }
}

#[test]
fn sweeps_match_both_oracles_across_seeds_densities_parts_and_sources() {
    for (seed, density) in [(1u64, 0.05), (2, 0.15), (3, 0.4)] {
        let n = 21;
        let g = sparse_erdos_renyi(n, density, 1.0, 10.0, seed);
        let adj = g.to_dense();
        let all: Vec<u32> = (0..n as u32).collect();
        let few = [0u32, 7, 20];
        for sources in [&all[..], &few[..]] {
            for parts in [1usize, 2, 5, n] {
                let sc = sim_ctx(seed);
                let out = solve_sparse_apsp(&sc, &g, sources, parts).expect("solve");
                assert_rows_match_oracles(
                    &out,
                    &adj,
                    sources,
                    &format!("seed={seed} density={density} parts={parts}"),
                );
            }
        }
    }
}

#[test]
fn chaos_sweep_replays_identically_and_keeps_the_bits() {
    let n = 18;
    let g = sparse_erdos_renyi(n, 0.2, 1.0, 8.0, 77);
    let sources = [0u32, 4, 9, 17];
    let clean = solve_sparse_apsp(&sim_ctx(5), &g, &sources, 3).expect("clean run");

    for chaos_seed in [11u64, 12, 13] {
        let run = || {
            let sc = sim_ctx(chaos_seed);
            let _chaos = sc.install_chaos(ChaosPolicy::seeded(chaos_seed).with_fetch_failures(60));
            let out = solve_sparse_apsp(&sc, &g, &sources, 3).expect("chaos run recovers");
            (out, sc.summary())
        };
        let (out1, rep1) = run();
        let (out2, rep2) = run();
        assert_eq!(
            out1.first_difference(&clean),
            None,
            "chaos seed {chaos_seed} drifted from the clean answer"
        );
        assert_eq!(
            out1.first_difference(&out2),
            None,
            "chaos seed {chaos_seed} is not replay-stable"
        );
        assert_eq!(
            rep1, rep2,
            "chaos seed {chaos_seed}: the full run report (stages, retries, \
             traffic) must replay from the seed"
        );
        assert_rows_match_oracles(&out1, &g.to_dense(), &sources, "under chaos");
    }
}

// --- through the job service ------------------------------------------

fn runner() -> DpJobRunner {
    DpJobRunner::new(
        CostModel::new(ClusterSpec::skylake(), 4),
        DpConfig::new(1, 1),
    )
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
    assert_rows_match_oracles(&first, &adj, &[0, 5, 19], "service run 1");
    let third = decode_matrix_f64(r1[2].as_ref().expect("done")).expect("decode");
    assert_rows_match_oracles(&third, &adj, &[1, 2], "service run 3");
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
