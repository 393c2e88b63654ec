//! End-to-end validation of the distributed solver: every strategy ×
//! kernel combination must reproduce the sequential Fig. 1 reference
//! bitwise (GE always; FW/TC on exact-arithmetic inputs).

use dp_core::{solve, solve_virtual, DpConfig, KernelSpec, Strategy};
use gep_kernels::gep::gep_reference;
use gep_kernels::{GaussianElim, Matrix, TransitiveClosure, Tropical};
use sparklet::{ChaosEvent, ChaosPolicy, SparkConf, SparkContext};

fn ctx() -> SparkContext {
    SparkContext::new(
        SparkConf::default()
            .with_executors(4)
            .with_executor_cores(2)
            .with_partitions(8),
    )
}

fn dd_matrix(n: usize, seed: u64) -> Matrix<f64> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut m = Matrix::from_fn(n, n, |_, _| next() * 2.0 - 1.0);
    for i in 0..n {
        m.set(i, i, n as f64 + 1.0 + next());
    }
    m
}

fn dist_matrix(n: usize, seed: u64) -> Matrix<f64> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    // Integer weights: exact arithmetic ⇒ bitwise-stable distances.
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

fn all_variants() -> Vec<(Strategy, KernelSpec)> {
    vec![
        (Strategy::InMemory, KernelSpec::iterative()),
        (Strategy::InMemory, KernelSpec::recursive(2, 2, 2)),
        (Strategy::CollectBroadcast, KernelSpec::iterative()),
        (Strategy::CollectBroadcast, KernelSpec::recursive(4, 2, 3)),
    ]
}

#[test]
fn ge_all_variants_match_reference_bitwise() {
    let input = dd_matrix(24, 42);
    let mut reference = input.clone();
    gep_reference::<GaussianElim>(&mut reference);
    for (strategy, kernel) in all_variants() {
        let sc = ctx();
        let cfg = DpConfig::new(24, 8)
            .with_strategy(strategy)
            .with_kernel(kernel);
        let out = solve::<GaussianElim>(&sc, &cfg, &input).expect("solve");
        assert_eq!(out.first_difference(&reference), None, "{}", cfg.label());
    }
}

#[test]
fn fw_all_variants_match_reference_bitwise() {
    let input = dist_matrix(24, 7);
    let mut reference = input.clone();
    gep_reference::<Tropical>(&mut reference);
    for (strategy, kernel) in all_variants() {
        let sc = ctx();
        let cfg = DpConfig::new(24, 6)
            .with_strategy(strategy)
            .with_kernel(kernel);
        let out = solve::<Tropical>(&sc, &cfg, &input).expect("solve");
        assert_eq!(out.first_difference(&reference), None, "{}", cfg.label());
    }
}

#[test]
fn tc_both_strategies_match_reference() {
    let mut state = 99u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let input = Matrix::from_fn(16, 16, |i, j| i == j || next() % 6 == 0);
    let mut reference = input.clone();
    gep_reference::<TransitiveClosure>(&mut reference);
    for strategy in [Strategy::InMemory, Strategy::CollectBroadcast] {
        let sc = ctx();
        let cfg = DpConfig::new(16, 4).with_strategy(strategy);
        let out = solve::<TransitiveClosure>(&sc, &cfg, &input).expect("solve");
        assert_eq!(out.first_difference(&reference), None);
    }
}

#[test]
fn non_divisible_size_pads_virtually() {
    // n = 21, block = 8 → padded to 24; padding must be inert.
    let input = dd_matrix(21, 5);
    let mut reference = input.clone();
    gep_reference::<GaussianElim>(&mut reference);
    let sc = ctx();
    let cfg = DpConfig::new(21, 8).with_strategy(Strategy::CollectBroadcast);
    let out = solve::<GaussianElim>(&sc, &cfg, &input).expect("solve");
    assert_eq!(out.rows(), 21);
    assert_eq!(out.first_difference(&reference), None);
}

#[test]
fn grid_partitioner_variant_matches_reference() {
    let input = dist_matrix(16, 3);
    let mut reference = input.clone();
    gep_reference::<Tropical>(&mut reference);
    let sc = ctx();
    let cfg = DpConfig::new(16, 4).with_grid_partitioner(true);
    let out = solve::<Tropical>(&sc, &cfg, &input).expect("solve");
    assert_eq!(out.first_difference(&reference), None);
}

#[test]
fn fw_apsp_agrees_with_dijkstra_on_random_graph() {
    let adj = gep_kernels::graph::erdos_renyi(20, 0.3, 1.0, 9.0, 11);
    let sc = ctx();
    let cfg = DpConfig::new(20, 5).with_kernel(KernelSpec::recursive(2, 2, 2));
    let out = solve::<Tropical>(&sc, &cfg, &adj).expect("solve");
    assert_eq!(gep_kernels::graph::check_apsp(&adj, &out, 1e-9), None);
}

#[test]
fn im_moves_more_shuffle_bytes_than_cb() {
    // The defining difference of the two strategies.
    let cfg_im = DpConfig::new(64, 16);
    let sc_im = ctx();
    let rep_im = solve_virtual::<GaussianElim>(&sc_im, &cfg_im).unwrap();

    let cfg_cb = DpConfig::new(64, 16).with_strategy(Strategy::CollectBroadcast);
    let sc_cb = ctx();
    let rep_cb = solve_virtual::<GaussianElim>(&sc_cb, &cfg_cb).unwrap();

    let im_shuffle = rep_im.remote_bytes + rep_im.staged_bytes;
    let cb_shuffle = rep_cb.remote_bytes + rep_cb.staged_bytes;
    assert!(
        im_shuffle > 2 * cb_shuffle,
        "IM shuffles {im_shuffle}, CB {cb_shuffle}"
    );
    // And CB is the one with driver traffic.
    assert_eq!(rep_im.collect_bytes, 0, "IM never collects blocks");
    assert!(rep_cb.collect_bytes > 0 && rep_cb.broadcast_bytes > 0);
}

#[test]
fn virtual_and_real_runs_produce_identical_stage_structure() {
    let n = 24;
    let cfg_real = DpConfig::new(n, 8);
    let sc_real = ctx();
    let input = dd_matrix(n, 13);
    solve::<GaussianElim>(&sc_real, &cfg_real, &input).unwrap();
    let real = sc_real.summary();

    let cfg_virt = DpConfig::new(n, 8);
    let sc_virt = ctx();
    solve_virtual::<GaussianElim>(&sc_virt, &cfg_virt).unwrap();
    let virt = sc_virt.summary();

    // The virtual run has one final `count` stage where the real run
    // has one final `collect`; everything else is identical.
    assert_eq!(real.stages, virt.stages);
    assert_eq!(real.tasks, virt.tasks);
}

#[test]
fn virtual_byte_accounting_reflects_full_scale() {
    // 4×4 grid of 1K×1K virtual FW blocks: one IM iteration's A-stage
    // alone copies the diagonal to 15 consumers ≈ 15 × 8 MB.
    let cfg = DpConfig::new(4096, 1024);
    let sc = ctx();
    let rep = solve_virtual::<Tropical>(&sc, &cfg).unwrap();
    let block_bytes = (1024u64 * 1024 * 8) + 17;
    assert!(
        rep.staged_bytes > 4 * 15 * block_bytes,
        "staged {} should exceed the A-copy volume alone",
        rep.staged_bytes
    );
}

#[test]
fn solver_is_deterministic_across_runs() {
    let input = dist_matrix(16, 77);
    let run = || {
        let sc = ctx();
        let cfg = DpConfig::new(16, 4);
        solve::<Tropical>(&sc, &cfg, &input).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.first_difference(&b), None);
}

#[test]
fn injected_task_failure_recovers_mid_solve() {
    let input = dd_matrix(16, 21);
    let mut reference = input.clone();
    gep_reference::<GaussianElim>(&mut reference);
    let sc = ctx();
    // Fail a couple of tasks in early stages; lineage retry must heal.
    let _chaos = sc.install_chaos(
        ChaosPolicy::seeded(0)
            .script(1, 0, 1, ChaosEvent::TaskPanic)
            .script(3, 2, 1, ChaosEvent::TaskPanic)
            .script(3, 2, 2, ChaosEvent::TaskPanic),
    );
    let cfg = DpConfig::new(16, 4);
    let out = solve::<GaussianElim>(&sc, &cfg, &input).expect("solve with failures");
    assert_eq!(out.first_difference(&reference), None);
}
