//! **E-T2 — Table II**: FW-APSP benchmark, IM implementation with
//! recursive 16-way kernels, 32K×32K on the 16-node Skylake cluster;
//! sweep `OMP_NUM_THREADS` (rows) × `executor-cores` (columns).
//!
//! ```text
//! cargo run --release -p dp-bench --bin table2
//! ```

use cluster_model::{ClusterSpec, CostModel};
use dp_bench::{best, print_row, EC_COLS, OMP_ROWS};
use dp_core::{price, record_virtual, DpConfig, KernelSpec, Strategy};
use gep_kernels::Tropical;

fn main() {
    let cluster = ClusterSpec::skylake();
    // The paper's best FW block size for recursive IM runs: 1024.
    let cfg = DpConfig::new(dp_bench::PAPER_N, 1024).with_strategy(Strategy::InMemory);
    eprintln!("running FW IM dataflow (32K, b=1024, grid 32×32) …");
    let records = record_virtual::<Tropical>(&cluster, &cfg).expect("virtual dataflow");

    println!("\nTable II — FW-APSP (seconds), IM + recursive 16-way kernels, 32K×32K, b=1K");
    println!("rows: OMP_NUM_THREADS; columns: executor-cores");
    print!("{:<22}", "omp\\executor-cores");
    for ec in EC_COLS {
        print!("{ec:>9}");
    }
    println!();
    let mut table = Vec::new();
    for omp in OMP_ROWS {
        let kernel = KernelSpec::recursive(16, 64, omp);
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
        let path = dir.join("fw_im_rec16.csv");
        dp_bench::write_csv(&path, "omp\\ec", &cols, &rows).expect("write csv");
        eprintln!("wrote {}", path.display());
    }

    let (bi, bj, secs) = best(&table);
    println!(
        "\nbest: {secs:.0} s at OMP={}, executor-cores={} (paper: 302 s at OMP=8, ec=32)",
        OMP_ROWS[bi], EC_COLS[bj]
    );
    let corner_under = table[0][EC_COLS.len() - 1]; // omp=2, ec=1
    println!(
        "underutilized corner (OMP=2, ec=1): {corner_under:.0} s — {:.1}× worse than best (paper: 2233/302 = 7.4×)",
        corner_under / secs
    );
    assert!(corner_under > 2.0 * secs, "underutilization must hurt");
}
