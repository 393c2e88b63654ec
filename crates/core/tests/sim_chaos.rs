//! Chaos acceptance at the solver level: a deterministic (seeded)
//! Floyd–Warshall run under injected faults must produce bit-identical
//! distances to the fault-free run, with `SolveReport` counters that
//! replay exactly from the seed. Failures print a `CHAOS_SEED` line.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dp_core::{
    solve_chaos, solve_sparse_apsp_chaos, solve_sparse_apsp_with_report, solve_with_report,
    DpConfig,
};
use gep_kernels::gep::gep_reference;
use gep_kernels::graph::sparse_erdos_renyi;
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
        let chaos = || {
            ChaosPolicy::seeded(seed)
                .with_task_panics(60)
                .with_stragglers(60, 100)
        };
        // Fault-free deterministic run of the same seed.
        let sc = sim_ctx(seed);
        let (clean_out, clean_rep) =
            solve_with_report::<Tropical>(&sc, &cfg, &input).expect("fault-free solve");
        assert_eq!(
            clean_out.first_difference(&reference),
            None,
            "CHAOS_SEED={seed}: clean deterministic run diverged from the reference"
        );

        // Chaotic run: panics retry from lineage, stragglers only cost
        // virtual time — the distances must not change, and the stage
        // structure and committed shuffle volume must match the clean
        // run exactly (retries commit exactly one attempt per task).
        let sc = sim_ctx(seed);
        let (out, rep) =
            solve_chaos::<Tropical>(&sc, &cfg, &input, chaos()).expect("chaotic solve");
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
        let sc = sim_ctx(seed);
        let (out2, rep2) =
            solve_chaos::<Tropical>(&sc, &cfg, &input, chaos()).expect("replayed solve");
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
        let sc = sim_ctx(seed);
        let chaos = ChaosPolicy::seeded(seed).with_task_panics(60);
        let (_, rep) = solve_chaos::<Tropical>(&sc, &cfg, &input, chaos).expect("chaotic solve");
        total_retries += rep.retries;
    }
    assert!(
        total_retries > 0,
        "chaos panics never reached the solver's stages"
    );
}

#[test]
fn a_panicking_chaos_solve_leaves_no_policy_behind() {
    // The solvers `assert!` on shape mismatch. A caller that fences the
    // panic (as the job service fences its runners) must get its
    // context back clean: the next plain solve on it reports exactly
    // what a fresh context's fault-free solve reports.
    let chaos = || ChaosPolicy::seeded(5).with_task_panics(300);
    let input = dist_matrix(32, 3);
    let cfg = DpConfig::new(32, 8);
    let (_, fresh) = solve_with_report::<Tropical>(&sim_ctx(5), &cfg, &input).unwrap();
    let sc = sim_ctx(5);
    let wrong_size = dist_matrix(24, 3);
    let fenced = catch_unwind(AssertUnwindSafe(|| {
        solve_chaos::<Tropical>(&sc, &cfg, &wrong_size, chaos())
    }));
    assert!(fenced.is_err(), "size mismatch must panic");
    let (_, after) = solve_with_report::<Tropical>(&sc, &cfg, &input).unwrap();
    assert_eq!(after, fresh);

    // Same for the sparse sweep path (a source out of range panics).
    let edges = sparse_erdos_renyi(24, 0.2, 1.0, 9.0, 11);
    let (_, fresh) = solve_sparse_apsp_with_report(&sim_ctx(5), &edges, &[0, 7], 3).unwrap();
    let sc = sim_ctx(5);
    let fenced = catch_unwind(AssertUnwindSafe(|| {
        solve_sparse_apsp_chaos(&sc, &edges, &[99], 3, chaos())
    }));
    assert!(fenced.is_err(), "out-of-range source must panic");
    let (_, after) = solve_sparse_apsp_with_report(&sc, &edges, &[0, 7], 3).unwrap();
    assert_eq!(after, fresh);
}
