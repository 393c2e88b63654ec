//! Quickstart: all-pairs shortest paths on a simulated Spark cluster.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a random directed graph, solves FW-APSP with the In-Memory
//! strategy and a parallel 4-way recursive kernel, validates against
//! Dijkstra, and prints what the engine did.

use dp_core::{solve, DpConfig, KernelSpec, Strategy};
use gep_kernels::graph::{check_apsp, erdos_renyi};
use gep_kernels::Tropical;
use sparklet::{SparkConf, SparkContext};

fn main() {
    // A "cluster": 4 executors × 4 task slots, 32 RDD partitions
    // (2 × total cores, the paper's guideline).
    let sc = SparkContext::new(
        SparkConf::default()
            .with_executors(4)
            .with_executor_cores(4)
            .with_partitions(32),
    );

    // Workload: dense-ish random digraph with 256 vertices.
    let n = 256;
    let adj = erdos_renyi(n, 0.05, 1.0, 10.0, 42);

    // Decompose into 64×64 blocks (grid 4×4); run recursive 4-way
    // kernels with 4 "OpenMP" threads inside each task.
    let cfg = DpConfig::new(n, 64)
        .with_strategy(Strategy::InMemory)
        .with_kernel(KernelSpec::recursive(4, 16, 4));

    println!("solving {n}×{n} FW-APSP as {} …", cfg.label());
    let t0 = std::time::Instant::now();
    let dist = solve::<Tropical>(&sc, &cfg, &adj).expect("distributed solve");
    println!("done in {:.2?} (wall, host machine)", t0.elapsed());

    // Validate against Dijkstra from every source.
    match check_apsp(&adj, &dist, 1e-9) {
        None => println!("validated: distances match Dijkstra from all {n} sources"),
        Some((s, t)) => panic!("mismatch at ({s}, {t})"),
    }

    // A couple of answers.
    println!("d(0 → 1) = {}", dist.get(0, 1));
    println!("d(0 → {}) = {}", n - 1, dist.get(0, n - 1));

    // What the engine did.
    let did = sc.summary();
    println!(
        "engine: {} stages, {} tasks, {:.1} MB shuffled ({:.1} MB cross-node)",
        did.stages,
        did.tasks,
        (did.local_bytes + did.remote_bytes) as f64 / 1e6,
        did.remote_bytes as f64 / 1e6,
    );
}
