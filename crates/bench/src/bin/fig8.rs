//! **E-F8 — Fig. 8**: performance portability — the same FW-APSP
//! configurations on cluster 1 (Skylake, 32c/192GB/SSD) and cluster 2
//! (Haswell, 20c/64GB/spinning disks).
//!
//! ```text
//! cargo run --release -p dp-bench --bin fig8 [--quick]
//! ```

use cluster_model::{ClusterSpec, CostModel};
use dp_bench::{print_row, TIMEOUT_SECS};
use dp_core::{price, record_virtual, DpConfig, KernelSpec, Strategy};
use gep_kernels::Tropical;

struct Cell {
    strategy: Strategy,
    kernel: &'static str,
    block: usize,
    secs: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let blocks: Vec<usize> = if quick {
        vec![256, 512, 1024, 2048]
    } else {
        dp_bench::BLOCK_SIZES.to_vec()
    };
    let variants = [
        ("iter", KernelSpec::iterative()),
        ("4-way×8t", KernelSpec::recursive(4, 64, 8)),
        ("16-way×8t", KernelSpec::recursive(16, 64, 8)),
    ];

    println!("Fig. 8 — FW-APSP on two clusters (seconds; columns are block sizes)");
    let mut all: Vec<Vec<Cell>> = Vec::new();
    for cluster in [ClusterSpec::skylake(), ClusterSpec::haswell()] {
        println!(
            "\n=== {} ({} cores/node, {} partitions, {:?} storage) ===",
            cluster.name,
            cluster.node.cores,
            cluster.default_partitions(),
            cluster.storage.kind
        );
        let model = CostModel::new(cluster.clone(), cluster.node.cores);
        let mut cells = Vec::new();
        for strategy in [Strategy::InMemory, Strategy::CollectBroadcast] {
            let sname = strategy.tag();
            let mut recordings = Vec::new();
            for &b in &blocks {
                eprintln!("  dataflow {} {sname} b={b} …", cluster.name);
                let cfg = DpConfig::new(dp_bench::PAPER_N, b).with_strategy(strategy);
                recordings.push(record_virtual::<Tropical>(&cluster, &cfg).expect("dataflow"));
            }
            print!("{:<22}", format!("{sname} kernel\\block"));
            for b in &blocks {
                print!("{b:>9}");
            }
            println!();
            for (name, kernel) in &variants {
                let row: Vec<f64> = recordings
                    .iter()
                    .map(|r| price(r, kernel, &model))
                    .collect();
                print_row(&format!("{sname} {name}"), &row);
                for (bi, &secs) in row.iter().enumerate() {
                    cells.push(Cell {
                        strategy,
                        kernel: name,
                        block: blocks[bi],
                        secs,
                    });
                }
            }
        }
        all.push(cells);
    }

    let best_of = |cells: &[Cell]| -> usize {
        cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.secs.is_finite() && c.secs < TIMEOUT_SECS)
            .min_by(|a, b| a.1.secs.partial_cmp(&b.1.secs).unwrap())
            .map(|(i, _)| i)
            .unwrap()
    };
    let (c1, c2) = (&all[0], &all[1]);
    let b1 = best_of(c1);
    let b2 = best_of(c2);
    let describe = |c: &Cell| {
        format!(
            "{:?}/{}/b{} = {:.0} s",
            c.strategy, c.kernel, c.block, c.secs
        )
    };
    println!("\ncluster-1 best: {}", describe(&c1[b1]));
    println!("cluster-2 best: {}", describe(&c2[b2]));
    // Price cluster 1's winning configuration on cluster 2 (same index:
    // the sweep grid is identical on both clusters).
    let transplanted = &c2[b1];
    println!(
        "cluster-1's best configuration on cluster 2: {} → {:.2}× cluster-2's own best",
        describe(transplanted),
        transplanted.secs / c2[b2].secs
    );
    println!(
        "(paper: IM 4-way b=1024 runs 302 s on cluster 1 but 3144 s on cluster 2,\n\
         3.3× slower than cluster-2's best 951 s)"
    );
    // Robustness (the paper's Section VI conclusion): "recursive kernels
    // are more robust than iterative kernels under changes in the
    // amount of available memory". Compare cross-cluster penalties.
    let penalty = |kernel: &str, block: usize| {
        let find = |cells: &[Cell]| {
            cells
                .iter()
                .find(|c| {
                    c.kernel == kernel && c.block == block && c.strategy == Strategy::InMemory
                })
                .map(|c| c.secs)
                .unwrap()
        };
        find(c2) / find(c1)
    };
    let iter_penalty = penalty("iter", 512);
    let rec_penalty = penalty("4-way×8t", 1024);
    println!(
        "\ncross-cluster penalty: iterative b=512 {iter_penalty:.2}× vs recursive 4-way b=1024 {rec_penalty:.2}×"
    );
    println!("(iterative kernels lose their L2 residency on Haswell's 256 KB L2; recursive kernels are cache-oblivious)");
    assert!(
        c2[b2].secs > c1[b1].secs,
        "the weaker cluster must be slower overall"
    );
    assert!(
        transplanted.secs >= c2[b2].secs,
        "transplanted parameters cannot beat the native optimum"
    );
    assert!(
        iter_penalty > 1.2 * rec_penalty,
        "iterative kernels must degrade more across clusters than recursive ones"
    );
}
