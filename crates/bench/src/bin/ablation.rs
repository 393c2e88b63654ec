//! **Ablation — custom partitioner** (the paper's future work:
//! "the dependency structure among the kernels provides an opportunity
//! to design and implement highly-efficient custom partitioners").
//!
//! ```text
//! cargo run --release -p dp-bench --bin ablation
//! ```
//!
//! Runs the same paper-scale FW-APSP dataflow with Spark's default hash
//! partitioner and with the locality-aware grid partitioner, and
//! compares cross-node traffic and simulated time.

use cluster_model::{ClusterSpec, CostModel, KernelType};
use dp_bench::with_kernel;
use dp_core::{solve_virtual, DpConfig, Strategy};
use gep_kernels::Tropical;
use sparklet::{SparkConf, SparkContext};

fn run(cluster: &ClusterSpec, grid: bool) -> (u64, u64, f64) {
    let cfg = DpConfig::new(dp_bench::PAPER_N, 1024)
        .with_strategy(Strategy::InMemory)
        .with_grid_partitioner(grid);
    let sc = SparkContext::new(
        SparkConf::default()
            .with_executors(cluster.nodes)
            .with_executor_cores(cluster.node.cores)
            .with_partitions(cluster.default_partitions())
            .with_worker_threads(1),
    );
    let report = solve_virtual::<Tropical>(&sc, &cfg).expect("dataflow");
    let records = sc.with_event_log(|log| log.records());
    let priced = with_kernel(
        &records,
        KernelType::Recursive {
            r_shared: 4,
            threads: 8,
        },
    );
    let secs = CostModel::new(cluster.clone(), cluster.node.cores).job_seconds(&priced);
    (report.remote_bytes, report.staged_bytes, secs)
}

fn main() {
    let cluster = ClusterSpec::skylake();
    println!("Partitioner ablation — FW-APSP 32K×32K, IM, 4-way×8t, b=1024, 16-node Skylake\n");
    eprintln!("running hash-partitioned dataflow …");
    let (hash_remote, hash_staged, hash_secs) = run(&cluster, false);
    eprintln!("running grid-partitioned dataflow …");
    let (grid_remote, grid_staged, grid_secs) = run(&cluster, true);

    println!(
        "{:<14}{:>16}{:>16}{:>14}",
        "partitioner", "remote GB", "staged GB", "sim seconds"
    );
    println!(
        "{:<14}{:>16.1}{:>16.1}{:>14.0}",
        "hash (default)",
        hash_remote as f64 / 1e9,
        hash_staged as f64 / 1e9,
        hash_secs
    );
    println!(
        "{:<14}{:>16.1}{:>16.1}{:>14.0}",
        "grid (custom)",
        grid_remote as f64 / 1e9,
        grid_staged as f64 / 1e9,
        grid_secs
    );
    println!(
        "\ncross-node traffic reduction: {:.1}%  |  time: {:+.1}%",
        100.0 * (1.0 - grid_remote as f64 / hash_remote as f64),
        100.0 * (grid_secs / hash_secs - 1.0),
    );
    assert!(
        grid_remote < hash_remote,
        "the dependency-aware partitioner must cut cross-node traffic"
    );
}
