//! Diagnostic: decompose a configuration's simulated time into
//! compute / shuffle-I/O / driver / overhead per stage group — the tool
//! used to understand *why* a configuration wins or loses.
//!
//! ```text
//! cargo run --release -p dp-bench --bin breakdown [-- fw|ge] [-- im|cb]
//! ```

use std::collections::BTreeMap;

use cluster_model::{ClusterSpec, CostModel};
use dp_core::{record_virtual, DpConfig, KernelSpec, Strategy};
use gep_kernels::{GaussianElim, Tropical};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ge = args.iter().any(|a| a == "ge");
    let cb = args.iter().any(|a| a == "cb");
    let strategy = if cb {
        Strategy::CollectBroadcast
    } else {
        Strategy::InMemory
    };
    let cluster = ClusterSpec::skylake();
    // The recording prices every invocation as the config's kernel.
    let cfg = DpConfig::new(dp_bench::PAPER_N, 1024)
        .with_strategy(strategy)
        .with_kernel(KernelSpec::recursive(4, 64, 8));
    eprintln!(
        "running {} {:?} dataflow (32K, b=1024) …",
        if ge { "GE" } else { "FW-APSP" },
        strategy
    );
    let records = if ge {
        record_virtual::<GaussianElim>(&cluster, &cfg).expect("dataflow")
    } else {
        record_virtual::<Tropical>(&cluster, &cfg).expect("dataflow")
    };
    let model = CostModel::new(cluster, 32);

    // Group stages by structural role (strip digits from labels built
    // by the engine: shuffle maps, checkpoints, collects).
    let mut groups: BTreeMap<&'static str, (f64, f64, f64, f64, usize)> = BTreeMap::new();
    let mut total = 0.0;
    for stage in &records {
        let cost = model.stage_breakdown(stage);
        let role = if stage.collect_bytes > 0 || stage.broadcast_bytes > 0 {
            "driver (collect/broadcast)"
        } else if stage.tasks.iter().any(|t| !t.kernels.is_empty()) {
            "kernel stages"
        } else {
            "data-movement stages"
        };
        let e = groups.entry(role).or_default();
        e.0 += cost.compute;
        e.1 += cost.io;
        e.2 += cost.driver;
        e.3 += cost.overhead;
        e.4 += 1;
        total += cost.total;
    }
    println!(
        "\n{:<28}{:>10}{:>10}{:>10}{:>10}{:>8}",
        "stage group", "compute", "io", "driver", "overhead", "stages"
    );
    for (role, (c, i, d, o, n)) in &groups {
        println!("{role:<28}{c:>10.1}{i:>10.1}{d:>10.1}{o:>10.1}{n:>8}");
    }
    println!("\ntotal simulated: {total:.0} s");
}
