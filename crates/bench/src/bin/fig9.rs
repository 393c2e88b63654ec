//! **E-F9 — Fig. 9**: weak scaling on 1, 8, and 64 Skylake nodes with
//! fixed work per node (FW: N³/p = 4K³; GE: N³/p = 8K³), comparing an
//! iterative configuration against a 4-way recursive one.
//!
//! ```text
//! cargo run --release -p dp-bench --bin fig9
//! ```

use cluster_model::{ClusterSpec, CostModel};
use dp_core::{price, record_virtual, DpConfig, DpProblem, KernelSpec, Strategy};
use gep_kernels::{GaussianElim, Tropical};

const NODES: [usize; 3] = [1, 8, 64];

/// N such that N³/p = base³ → N = base · p^(1/3).
fn weak_n(base: usize, nodes: usize) -> usize {
    let n = (base as f64) * (nodes as f64).cbrt();
    // Round to a multiple of 1024 so every block size divides.
    ((n / 1024.0).round() as usize).max(1) * 1024
}

fn series<S: DpProblem>(
    name: &str,
    strategy: Strategy,
    base: usize,
    iter_block: usize,
    rec_block: usize,
) -> (Vec<f64>, Vec<f64>) {
    println!("\n--- {name} (work/node = {base}³) ---");
    println!(
        "{:<8}{:>8}{:>16}{:>16}{:>10}",
        "nodes", "N", "iter b=512 (s)", "4-way b=1024 (s)", "ratio"
    );
    let mut iters = Vec::new();
    let mut recs = Vec::new();
    for nodes in NODES {
        let n = weak_n(base, nodes);
        let cluster = ClusterSpec::skylake().with_nodes(nodes);
        let model = CostModel::new(cluster.clone(), cluster.node.cores);
        let time = |block: usize, kernel: KernelSpec| {
            eprintln!("  dataflow {name} nodes={nodes} N={n} b={block} …");
            let cfg = DpConfig::new(n, block).with_strategy(strategy);
            let records = record_virtual::<S>(&cluster, &cfg).expect("dataflow");
            price(&records, &kernel, &model)
        };
        let t_iter = time(iter_block, KernelSpec::iterative());
        let t_rec = time(rec_block, KernelSpec::recursive(4, 64, 8));
        println!(
            "{nodes:<8}{n:>8}{t_iter:>16.0}{t_rec:>16.0}{:>10.2}",
            t_iter / t_rec
        );
        iters.push(t_iter);
        recs.push(t_rec);
    }
    (iters, recs)
}

fn main() {
    println!("Fig. 9 — weak scaling, 1/8/64 Skylake nodes");
    // Paper configs: FW IM (iter b=512 vs rec 4-way b=1024, OMP=8);
    // GE CB (same kernel configs).
    let (fw_iter, fw_rec) = series::<Tropical>("FW-APSP / IM", Strategy::InMemory, 4096, 512, 1024);
    let (ge_iter, ge_rec) =
        series::<GaussianElim>("GE / CB", Strategy::CollectBroadcast, 8192, 512, 1024);

    // Weak-scaling efficiency = t(1 node) / t(p nodes) (1.0 is perfect).
    let eff = |series: &[f64]| series[0] / series[series.len() - 1];
    println!("\nweak-scaling efficiency 1→64 nodes (1.0 = perfect):");
    println!(
        "  FW iter: {:.2}   FW 4-way: {:.2}",
        eff(&fw_iter),
        eff(&fw_rec)
    );
    println!(
        "  GE iter: {:.2}   GE 4-way: {:.2}",
        eff(&ge_iter),
        eff(&ge_rec)
    );
    println!("(paper: the 4-way recursive CB execution of GE scales better than its iterative counterpart)");
    assert!(
        eff(&ge_rec) >= eff(&ge_iter) * 0.95,
        "recursive GE must scale at least as well as iterative"
    );
    assert!(
        fw_rec.iter().zip(&fw_iter).all(|(r, i)| r < i),
        "recursive FW must be faster at every scale"
    );
}
