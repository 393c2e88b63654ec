//! Chaos acceptance at the solver level: a deterministic (seeded)
//! Floyd–Warshall run under injected faults must produce bit-identical
//! distances to the fault-free run, with `RunSummary` counters that
//! replay exactly from the seed — and match the goldens recorded
//! across commits. Failures print a `CHAOS_SEED` line.

mod harness;

use std::panic::{catch_unwind, AssertUnwindSafe};

use dp_core::{solve, solve_sparse_apsp, DpConfig, RunSummary};
use gep_kernels::graph::sparse_erdos_renyi;
use gep_kernels::{Matrix, Tropical};
use harness::{assert_retries_keep_the_plan, cluster, seeds, sweep, Case, Chaos, Mode, Problem};
use sparklet::{ChaosPolicy, SparkContext};

/// A seeded FW row on 4 nodes × 16 partitions; the suite's fault mix
/// is `Chaos::Mix(60)`: 6 % task panics (retried from lineage) and 6 %
/// stragglers (virtual time only).
fn fw(seed: u64) -> Case {
    let conf = cluster(4, 2, 16).with_retry_backoff(4, 64);
    Case::new(Problem::Fw, 32, 8).on(conf).mode(Mode::Sim(seed))
}

#[test]
fn fw_under_seeded_chaos_is_bitwise_correct_and_replayable() {
    // Both rows equal the reference and replay their reports; the
    // chaotic one keeps the clean one's stage structure and committed
    // shuffle volume (retries commit exactly one attempt per task).
    sweep(3, |seed| {
        assert_retries_keep_the_plan(&fw(seed).seed(99), &[Chaos::Mix(60)])
    });
}

#[test]
fn fw_chaos_retries_fire_across_the_default_sweep() {
    // Per-seed retry counts vary, but a 6% panic rate over three full
    // FW solves must retry somewhere — this guards against the chaos
    // hook silently disconnecting from the solver path.
    if std::env::var("CHAOS_SEED").is_ok() {
        return; // pinned replay of the other test's seed
    }
    let retries = |seed| {
        fw(seed)
            .seed(7)
            .chaos(Chaos::Mix(60))
            .check()
            .summary
            .retries
    };
    let total: u64 = seeds(3).into_iter().map(retries).sum();
    assert!(total > 0, "chaos panics never reached the solver's stages");
}

#[test]
fn a_panicking_chaos_solve_leaves_no_policy_behind() {
    // A caller that fences a solver panic (as the job service fences
    // its runners) must get its context back clean: the guard dropped
    // during the unwind, so the next plain solve on the context reports
    // exactly what a fresh context's fault-free solve reports. The
    // dense solver reports a shape mismatch as a typed driver error
    // before stage 0 — the same holds for that early return.
    let heavy = || ChaosPolicy::seeded(5).with_task_panics(300);
    let dense = fw(5).seed(3);
    let fresh = dense.check().summary;
    let sc = dense.context();
    let input = harness::weights(32, &mut harness::Rng::new(3));
    let fenced = catch_unwind(AssertUnwindSafe(|| {
        let _chaos = sc.install_chaos(heavy());
        solve::<Tropical>(&sc, &dense.cfg, &input.copy_block(0, 0, 24, 24))
    }));
    assert!(
        matches!(fenced, Ok(Err(sparklet::JobError::Driver(_)))),
        "size mismatch is a typed driver error"
    );
    solve::<Tropical>(&sc, &dense.cfg, &input).unwrap();
    assert_eq!(sc.summary(), fresh);

    // Same for the sparse sweep path (a source out of range is refused
    // the same way).
    let problem = Problem::Sparse {
        density: 0.2,
        sources: Some(vec![0, 7]),
    };
    let sparse = Case {
        problem,
        ..fw(5).seed(11)
    };
    let fresh = sparse.check().summary;
    let sc = sparse.context();
    let edges = sparse_erdos_renyi(32, 0.2, 1.0, 10.0, 11);
    let fenced = catch_unwind(AssertUnwindSafe(|| {
        let _chaos = sc.install_chaos(heavy());
        solve_sparse_apsp(&sc, &edges, &[99], 8)
    }));
    assert!(
        matches!(fenced, Ok(Err(sparklet::JobError::Driver(_)))),
        "out-of-range source is a typed driver error"
    );
    solve_sparse_apsp(&sc, &edges, &[0, 7], 8).unwrap();
    assert_eq!(sc.summary(), fresh);
}

/// The input the goldens below were recorded on: the suite's own
/// xorshift stream at the time, kept so the recorded runs stay the
/// recorded runs.
fn recorded_input(n: usize, seed: u64) -> Matrix<f64> {
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

/// What one run of `case`'s context and fault schedule did.
fn summary_of(case: &Case, solve: impl FnOnce(&SparkContext)) -> RunSummary {
    let sc = case.context();
    let _chaos = case.policy().map(|p| sc.install_chaos(p));
    solve(&sc);
    sc.summary()
}

/// Golden reports, recorded at the commit before the driver layer was
/// rewritten onto `RunSummary` / `Plan` (the parent of PR 14) through
/// `solve_with_report` / `solve_chaos` / `solve_sparse_apsp_with_report`
/// / `solve_sparse_apsp_chaos`. Every other assertion in this suite
/// compares a run with its own replay; these compare across commits.
/// `local_bytes` and `kernel_updates` were read off the parent's event
/// log (`total_local_bytes()`, Σ `kernels[].updates`). The FW rows were
/// re-recorded once since, when IM began cogrouping the in-place blocks
/// as a narrow side (CHANGES.md keeps the old values); the sparse rows
/// are unchanged.
#[test]
fn seeded_reports_match_the_goldens_recorded_before_the_rewrite() {
    let fw_clean = RunSummary {
        stages: 13,
        tasks: 208,
        remote_bytes: 41496,
        local_bytes: 28392,
        staged_bytes: 69888,
        kernel_updates: 32768.0,
        collect_bytes: 8720,
        broadcast_bytes: 0,
        retries: 0,
        staged_released_bytes: 69888,
        staged_lost_bytes: 0,
        stage_resubmissions: 0,
        cache_hits: 208,
        cache_misses: 0,
        spilled_bytes: 0,
        evicted_bytes: 0,
        recomputes: 0,
        max_concurrent_stages: 1,
        adaptive_decisions: vec![],
    };
    // What the suite's chaos moves: retried attempts re-fetch, re-read
    // the cache and have their partial writes reconciled.
    let fw_chaos = RunSummary {
        remote_bytes: 47495,
        local_bytes: 26208,
        retries: 17,
        staged_released_bytes: 72618,
        cache_hits: 222,
        ..fw_clean.clone()
    };
    let input = recorded_input(32, 3);
    let cfg = DpConfig::new(32, 8);
    let dense = |sc: &SparkContext| {
        solve::<Tropical>(sc, &cfg, &input).unwrap();
    };
    assert_eq!(summary_of(&fw(5), dense), fw_clean);
    assert_eq!(summary_of(&fw(5).chaos(Chaos::Mix(60)), dense), fw_chaos);

    let sparse_clean = RunSummary {
        stages: 17,
        tasks: 51,
        remote_bytes: 2824,
        local_bytes: 12291,
        staged_bytes: 15115,
        kernel_updates: 788.0,
        collect_bytes: 1809,
        broadcast_bytes: 0,
        retries: 0,
        staged_released_bytes: 15115,
        staged_lost_bytes: 0,
        stage_resubmissions: 0,
        cache_hits: 30,
        cache_misses: 0,
        spilled_bytes: 0,
        evicted_bytes: 0,
        recomputes: 0,
        max_concurrent_stages: 1,
        adaptive_decisions: vec![],
    };
    let sparse_chaos = RunSummary {
        remote_bytes: 5236,
        retries: 8,
        cache_hits: 38,
        ..sparse_clean.clone()
    };
    let edges = sparse_erdos_renyi(24, 0.2, 1.0, 9.0, 11);
    let sparse = |sc: &SparkContext| {
        solve_sparse_apsp(sc, &edges, &[0, 7], 3).unwrap();
    };
    assert_eq!(summary_of(&fw(5), sparse), sparse_clean);
    assert_eq!(
        summary_of(&fw(5).chaos(Chaos::Mix(60)), sparse),
        sparse_chaos
    );
}
