//! **E-T1 — Table I**: GE benchmark, CB implementation with recursive
//! 4-way kernels, 32K×32K with 1K×1K blocks on the 16-node Skylake
//! cluster; sweep `OMP_NUM_THREADS` (rows) × `executor-cores` (columns).
//!
//! ```text
//! cargo run --release -p dp-bench --bin table1
//! ```

use cluster_model::{ClusterSpec, CostModel};
use dp_bench::{best, print_row, EC_COLS, OMP_ROWS};
use dp_core::{price, record_virtual, DpConfig, KernelSpec, Strategy};
use gep_kernels::GaussianElim;

fn main() {
    let cluster = ClusterSpec::skylake();
    let cfg = DpConfig::new(dp_bench::PAPER_N, 1024).with_strategy(Strategy::CollectBroadcast);
    eprintln!("running GE CB dataflow (32K, b=1024, grid 32×32) …");
    let records = record_virtual::<GaussianElim>(&cluster, &cfg).expect("virtual dataflow");

    println!("\nTable I — GE (seconds), CB + recursive 4-way kernels, 32K×32K, b=1K");
    println!("rows: OMP_NUM_THREADS; columns: executor-cores");
    print!("{:<22}", "omp\\executor-cores");
    for ec in EC_COLS {
        print!("{ec:>9}");
    }
    println!();
    let mut table = Vec::new();
    for omp in OMP_ROWS {
        let kernel = KernelSpec::recursive(4, 64, omp);
        let row: Vec<f64> = EC_COLS
            .iter()
            .map(|&ec| price(&records, &kernel, &CostModel::new(cluster.clone(), ec)))
            .collect();
        print_row(&format!("OMP={omp}"), &row);
        table.push(row);
    }

    if let Some(dir) = dp_bench::csv_dir_from_args() {
        let cols: Vec<String> = EC_COLS.iter().map(|c| c.to_string()).collect();
        let rows: Vec<(String, Vec<f64>)> = OMP_ROWS
            .iter()
            .zip(&table)
            .map(|(omp, row)| (format!("OMP={omp}"), row.clone()))
            .collect();
        let path = dir.join("ge_cb_rec4.csv");
        dp_bench::write_csv(&path, "omp\\ec", &cols, &rows).expect("write csv");
        eprintln!("wrote {}", path.display());
    }

    let (bi, bj, secs) = best(&table);
    println!(
        "\nbest: {secs:.0} s at OMP={}, executor-cores={} (paper: 204 s at OMP=16, ec=32; same valley shape)",
        OMP_ROWS[bi], EC_COLS[bj]
    );
    // The paper's qualitative claims:
    let corner_under = table[0][EC_COLS.len() - 1]; // omp=2, ec=1
    let corner_over = table[OMP_ROWS.len() - 1][0]; // omp=32, ec=32
    println!(
        "underutilized corner (OMP=2, ec=1): {corner_under:.0} s — {:.1}× worse than best",
        corner_under / secs
    );
    println!(
        "oversubscribed corner (OMP=32, ec=32): {corner_over:.0} s — {:.1}× worse than best",
        corner_over / secs
    );
    assert!(corner_under > 1.5 * secs, "underutilization must hurt");
    assert!(corner_over > secs, "oversubscription must not win");
}
