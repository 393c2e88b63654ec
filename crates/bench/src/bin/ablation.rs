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

use cluster_model::{ClusterSpec, CostModel};
use dp_core::{price, record_virtual, DpConfig, KernelSpec, Strategy};
use gep_kernels::Tropical;

/// Remote and staged shuffle bytes and simulated seconds of one run.
fn run(cluster: &ClusterSpec, grid: bool) -> (u64, u64, f64) {
    let cfg = DpConfig::new(dp_bench::PAPER_N, 1024)
        .with_strategy(Strategy::InMemory)
        .with_grid_partitioner(grid);
    let records = record_virtual::<Tropical>(cluster, &cfg).expect("dataflow");
    let tasks = || records.iter().flat_map(|s| &s.tasks);
    let secs = price(
        &records,
        &KernelSpec::recursive(4, 64, 8),
        &CostModel::new(cluster.clone(), cluster.node.cores),
    );
    (
        tasks().map(|t| t.remote_read_bytes).sum(),
        tasks().map(|t| t.shuffle_write_bytes).sum(),
        secs,
    )
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
