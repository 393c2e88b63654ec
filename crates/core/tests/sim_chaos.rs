//! Chaos acceptance at the solver level: a deterministic (seeded)
//! Floyd–Warshall run under injected faults must produce bit-identical
//! distances to the fault-free run, with `RunSummary` counters that
//! replay exactly from the seed. Failures print a `CHAOS_SEED` line.
//!
//! A run's report is `sc.summary()` after the solve; a chaotic run is
//! the same solve inside `let _chaos = sc.install_chaos(..)`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dp_core::{solve, solve_sparse_apsp, DpConfig, RunSummary};
use gep_kernels::gep::gep_reference;
use gep_kernels::graph::sparse_erdos_renyi;
use gep_kernels::sparse::Csr;
use gep_kernels::{Matrix, Tropical};
use sparklet::{ChaosPolicy, SparkConf, SparkContext};

const NODES: usize = 4;

fn sim_ctx(seed: u64) -> SparkContext {
    SparkContext::new(
        SparkConf::default()
            .with_executors(NODES)
            .with_executor_cores(2)
            .with_partitions(16)
            .with_retry_backoff(4, 64)
            .with_sim_seed(seed),
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

/// The suite's fault mix: 6 % task panics (retried from lineage) and
/// 6 % stragglers (virtual time only).
fn chaos(seed: u64) -> ChaosPolicy {
    ChaosPolicy::seeded(seed)
        .with_task_panics(60)
        .with_stragglers(60, 100)
}

/// One FW solve on a fresh seeded context, optionally under `policy`:
/// the distances and what the run did.
fn fw_run(
    seed: u64,
    cfg: &DpConfig,
    input: &Matrix<f64>,
    policy: Option<ChaosPolicy>,
) -> (Matrix<f64>, RunSummary) {
    let sc = sim_ctx(seed);
    let _chaos = policy.map(|p| sc.install_chaos(p));
    let out = solve::<Tropical>(&sc, cfg, input).expect("seeded solve");
    (out, sc.summary())
}

/// The sparse twin of [`fw_run`].
fn sparse_run(
    seed: u64,
    edges: &Csr<f64>,
    sources: &[u32],
    policy: Option<ChaosPolicy>,
) -> (Matrix<f64>, RunSummary) {
    let sc = sim_ctx(seed);
    let _chaos = policy.map(|p| sc.install_chaos(p));
    let out = solve_sparse_apsp(&sc, edges, sources, 3).expect("seeded sparse solve");
    (out, sc.summary())
}

fn seeds(default_n: u64) -> Vec<u64> {
    if let Ok(pin) = std::env::var("CHAOS_SEED") {
        return vec![pin.trim().parse().expect("CHAOS_SEED must be a u64")];
    }
    let n = std::env::var("SIM_SEEDS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default_n);
    (0..n).map(|i| 0x5eed_0000 + i).collect()
}

fn sweep(name: &str, default_n: u64, body: impl Fn(u64)) {
    for seed in seeds(default_n) {
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| body(seed))) {
            eprintln!(
                "\n{name} failed at seed {seed}; replay with:\n    \
                 CHAOS_SEED={seed} cargo test -p dp-core --test sim_chaos\n"
            );
            std::panic::resume_unwind(panic);
        }
    }
}

#[test]
fn fw_under_seeded_chaos_is_bitwise_correct_and_replayable() {
    let input = dist_matrix(32, 99);
    let mut reference = input.clone();
    gep_reference::<Tropical>(&mut reference);
    let cfg = DpConfig::new(32, 8);

    sweep("fw chaos", 3, |seed| {
        // Fault-free deterministic run of the same seed.
        let (clean_out, clean_rep) = fw_run(seed, &cfg, &input, None);
        assert_eq!(
            clean_out.first_difference(&reference),
            None,
            "CHAOS_SEED={seed}: clean deterministic run diverged from the reference"
        );

        // Chaotic run: panics retry from lineage, stragglers only cost
        // virtual time — the distances must not change, and the stage
        // structure and committed shuffle volume must match the clean
        // run exactly (retries commit exactly one attempt per task).
        let (out, rep) = fw_run(seed, &cfg, &input, Some(chaos(seed)));
        assert_eq!(
            out.first_difference(&reference),
            None,
            "CHAOS_SEED={seed}: chaotic run diverged from the reference"
        );
        assert_eq!(
            (rep.stages, rep.tasks),
            (clean_rep.stages, clean_rep.tasks),
            "CHAOS_SEED={seed}: chaos must not change the stage structure"
        );
        assert_eq!(
            rep.staged_bytes, clean_rep.staged_bytes,
            "CHAOS_SEED={seed}: committed shuffle volume must match the clean run"
        );
        assert_eq!(
            rep.speculative_launches, 0,
            "CHAOS_SEED={seed}: sequential sim schedules cannot speculate"
        );

        // Replay: the same seed must reproduce the identical report.
        let (out2, rep2) = fw_run(seed, &cfg, &input, Some(chaos(seed)));
        assert_eq!(
            out2.first_difference(&out),
            None,
            "CHAOS_SEED={seed}: replay produced different distances"
        );
        assert_eq!(
            rep2, rep,
            "CHAOS_SEED={seed}: replay produced a different report"
        );
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
    let input = dist_matrix(32, 7);
    let cfg = DpConfig::new(32, 8);
    let mut total_retries = 0u64;
    for seed in seeds(3) {
        let policy = ChaosPolicy::seeded(seed).with_task_panics(60);
        total_retries += fw_run(seed, &cfg, &input, Some(policy)).1.retries;
    }
    assert!(
        total_retries > 0,
        "chaos panics never reached the solver's stages"
    );
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
    let input = dist_matrix(32, 3);
    let cfg = DpConfig::new(32, 8);
    let (_, fresh) = fw_run(5, &cfg, &input, None);
    let sc = sim_ctx(5);
    let wrong_size = dist_matrix(24, 3);
    let fenced = catch_unwind(AssertUnwindSafe(|| {
        let _chaos = sc.install_chaos(heavy());
        solve::<Tropical>(&sc, &cfg, &wrong_size)
    }));
    assert!(
        matches!(fenced, Ok(Err(sparklet::JobError::Driver(_)))),
        "size mismatch is a typed driver error"
    );
    solve::<Tropical>(&sc, &cfg, &input).unwrap();
    assert_eq!(sc.summary(), fresh);

    // Same for the sparse sweep path (a source out of range is refused
    // the same way).
    let edges = sparse_erdos_renyi(24, 0.2, 1.0, 9.0, 11);
    let (_, fresh) = sparse_run(5, &edges, &[0, 7], None);
    let sc = sim_ctx(5);
    let fenced = catch_unwind(AssertUnwindSafe(|| {
        let _chaos = sc.install_chaos(heavy());
        solve_sparse_apsp(&sc, &edges, &[99], 3)
    }));
    assert!(
        matches!(fenced, Ok(Err(sparklet::JobError::Driver(_)))),
        "out-of-range source is a typed driver error"
    );
    solve_sparse_apsp(&sc, &edges, &[0, 7], 3).unwrap();
    assert_eq!(sc.summary(), fresh);
}

/// Golden reports, recorded at the commit before the driver layer was
/// rewritten onto `RunSummary` / `Plan` (the parent of PR 14) through
/// `solve_with_report` / `solve_chaos` / `solve_sparse_apsp_with_report`
/// / `solve_sparse_apsp_chaos`. Every other assertion in this suite
/// compares a run with its own replay; these compare across commits.
/// `local_bytes` and `kernel_updates` were read off the parent's event
/// log (`total_local_bytes()`, Σ `kernels[].updates`).
#[test]
fn seeded_reports_match_the_goldens_recorded_before_the_rewrite() {
    let fw_clean = RunSummary {
        stages: 17,
        tasks: 464,
        remote_bytes: 42008,
        local_bytes: 96928,
        staged_bytes: 138936,
        kernel_updates: 32768.0,
        collect_bytes: 8720,
        broadcast_bytes: 0,
        retries: 0,
        speculative_launches: 0,
        zombie_writes_fenced: 0,
        staged_released_bytes: 138936,
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
        remote_bytes: 57903,
        local_bytes: 85393,
        retries: 38,
        staged_released_bytes: 147731,
        cache_hits: 221,
        ..fw_clean.clone()
    };
    let input = dist_matrix(32, 3);
    let cfg = DpConfig::new(32, 8);
    assert_eq!(fw_run(5, &cfg, &input, None).1, fw_clean);
    assert_eq!(fw_run(5, &cfg, &input, Some(chaos(5))).1, fw_chaos);

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
        speculative_launches: 0,
        zombie_writes_fenced: 0,
        staged_released_bytes: 15115,
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
    assert_eq!(sparse_run(5, &edges, &[0, 7], None).1, sparse_clean);
    assert_eq!(
        sparse_run(5, &edges, &[0, 7], Some(chaos(5))).1,
        sparse_chaos
    );
}
