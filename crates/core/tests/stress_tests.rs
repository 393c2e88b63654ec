//! Heavier end-to-end runs, ignored by default (run with
//! `cargo test --release -- --ignored`): larger tables, more
//! executors, deeper recursion — the soak coverage a release build
//! should pass.

use dp_core::{solve, solve_parenthesis, DpConfig, KernelSpec, Strategy};
use gep_kernels::gep::gep_reference;
use gep_kernels::graph::{check_apsp, erdos_renyi};
use gep_kernels::parenthesis::{solve_reference, ParenWeight};
use gep_kernels::{GaussianElim, Matrix, Tropical};
use sparklet::{SparkConf, SparkContext};

fn big_ctx() -> SparkContext {
    SparkContext::new(
        SparkConf::default()
            .with_executors(8)
            .with_executor_cores(4)
            .with_partitions(64),
    )
}

#[test]
#[ignore = "heavy: ~512×512 real distributed solves"]
fn large_fw_apsp_all_variants() {
    let n = 512;
    let adj = erdos_renyi(n, 0.01, 1.0, 10.0, 99);
    for (strategy, kernel) in [
        (Strategy::InMemory, KernelSpec::iterative()),
        (Strategy::InMemory, KernelSpec::recursive(4, 32, 2)),
        (Strategy::CollectBroadcast, KernelSpec::recursive(8, 16, 2)),
    ] {
        let sc = big_ctx();
        let cfg = DpConfig::new(n, 128)
            .with_strategy(strategy)
            .with_kernel(kernel);
        let out = solve::<Tropical>(&sc, &cfg, &adj).expect("solve");
        assert_eq!(check_apsp(&adj, &out, 1e-9), None, "{}", cfg.label());
    }
}

#[test]
#[ignore = "heavy: 384×384 GE across many (r, base) combinations"]
fn large_ge_bitwise_grid() {
    let n = 384;
    let mut state = 7u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut input = Matrix::from_fn(n, n, |_, _| next() - 0.5);
    for i in 0..n {
        input.set(i, i, n as f64 + 1.0);
    }
    let mut reference = input.clone();
    gep_reference::<GaussianElim>(&mut reference);
    for (block, r_shared, base) in [(64, 2, 8), (96, 4, 12), (128, 8, 16)] {
        let sc = big_ctx();
        let cfg = DpConfig::new(n, block)
            .with_strategy(Strategy::CollectBroadcast)
            .with_kernel(KernelSpec::recursive(r_shared, base, 2));
        let out = solve::<GaussianElim>(&sc, &cfg, &input).expect("solve");
        assert_eq!(out.first_difference(&reference), None, "{}", cfg.label());
    }
}

#[test]
#[ignore = "heavy: 300-matrix chain distributed wavefront"]
fn large_matrix_chain() {
    let mut state = 3u64;
    let dims: Vec<u64> = (0..=300)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 50 + 5
        })
        .collect();
    let w = ParenWeight::MatrixChain(dims);
    let sc = big_ctx();
    let dist = solve_parenthesis(&sc, &w, 32).expect("solve");
    let reference = solve_reference(&w);
    assert_eq!(dist.first_difference(&reference), None);
}

#[test]
#[ignore = "heavy: paper-scale virtual sweep smoke (several minutes)"]
fn paper_scale_virtual_smoke() {
    use cluster_model::ClusterSpec;
    use dp_core::simulate_seconds;
    let cluster = ClusterSpec::skylake();
    for strategy in [Strategy::InMemory, Strategy::CollectBroadcast] {
        let cfg = DpConfig::new(32 * 1024, 2048)
            .with_strategy(strategy)
            .with_kernel(KernelSpec::recursive(4, 64, 8));
        let secs = simulate_seconds::<Tropical>(&cluster, 32, &cfg, None).expect("simulate");
        assert!(secs > 10.0 && secs < 8.0 * 3600.0, "{strategy:?}: {secs}");
    }
}
