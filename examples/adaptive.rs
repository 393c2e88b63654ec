//! Adaptive runtime configuration selection — the paper's "on-the-fly"
//! tuning mode: probe candidate kernels on the live workload, commit to
//! the fastest, finish the job with it.
//!
//! ```text
//! cargo run --release --example adaptive
//! ```

use dp_core::{adaptive_solve, registry, DpConfig, KernelParams, KernelSpec, Strategy};
use gep_kernels::graph::{check_apsp, erdos_renyi};
use gep_kernels::Tropical;
use sparklet::{SparkConf, SparkContext};

fn main() {
    let n = 512;
    let adj = erdos_renyi(n, 0.02, 1.0, 10.0, 2024);

    let sc = SparkContext::new(
        SparkConf::default()
            .with_executors(4)
            .with_executor_cores(2)
            .with_partitions(16),
    );
    let cfg = DpConfig::new(n, 128).with_strategy(Strategy::InMemory);
    // Every registered backend at one shape (the fixed-shape ones
    // ignore it), plus a second shape of the recursive kernel.
    let params = KernelParams {
        r_shared: 2,
        base: 32,
        threads: 2,
    };
    let mut candidates = registry::<Tropical>().dense_candidates(params);
    candidates.push(KernelSpec::recursive(4, 32, 4));

    println!(
        "probing {} kernel candidates on a 1-phase prefix …",
        candidates.len()
    );
    let out = adaptive_solve::<Tropical>(&sc, &cfg, &adj, &candidates, 1).expect("adaptive solve");
    for (c, secs) in candidates.iter().zip(&out.probe_seconds) {
        println!("  {}: {secs:.3} s", c.label());
    }
    println!("chosen: {}", out.chosen.label());

    assert_eq!(check_apsp(&adj, &out.result, 1e-9), None);
    println!("validated: full solve with the chosen kernel matches Dijkstra");
}
