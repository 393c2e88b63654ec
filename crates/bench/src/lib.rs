//! `dp-bench` — shared plumbing for the reproduction binaries (one per
//! table/figure of the paper) and the wall-clock microbenches.
//!
//! The repro pattern: record the **virtual** dataflow once per distinct
//! dataflow shape (problem, strategy, block size, partition count) with
//! [`dp_core::record_virtual`], then [`dp_core::price`] the recording
//! for each kernel choice / `executor-cores` / `OMP_NUM_THREADS`
//! combination — the dataflow (stages, tasks, bytes) is independent of
//! those knobs, only the cost model's inputs change. This turns the
//! paper's hundreds of cluster-hours into seconds.

use dp_core::KernelSpec;

/// The paper's standard experiment dimensions (Section V-B).
pub const PAPER_N: usize = 32 * 1024;
pub const BLOCK_SIZES: [usize; 5] = [256, 512, 1024, 2048, 4096];
pub const R_SHARED: [usize; 4] = [2, 4, 8, 16];
/// Tables I–II sweep: OMP_NUM_THREADS rows, executor-cores columns.
pub const OMP_ROWS: [usize; 5] = [2, 4, 8, 16, 32];
pub const EC_COLS: [usize; 6] = [32, 16, 8, 4, 2, 1];
/// The paper's 8-hour experiment timeout.
pub const TIMEOUT_SECS: f64 = 8.0 * 3600.0;

/// Named kernel variant for Fig. 6-style sweeps.
#[derive(Debug, Clone)]
pub struct Variant {
    pub name: String,
    pub kernel: KernelSpec,
}

/// The kernel variants Fig. 6 compares per (strategy, block size):
/// the iterative baseline plus each `r_shared`-way recursive kernel at
/// the given thread count.
pub fn fig6_variants(threads: usize) -> Vec<Variant> {
    let mut v = vec![Variant {
        name: "iter".into(),
        kernel: KernelSpec::iterative(),
    }];
    for r in R_SHARED {
        v.push(Variant {
            name: format!("{r}-way"),
            kernel: KernelSpec::recursive(r, 64, threads),
        });
    }
    v
}

/// Pretty row printer for sweep tables (— for missing/timeout cells).
pub fn print_row(label: &str, cells: &[f64]) {
    print!("{label:<22}");
    for &c in cells {
        if c.is_finite() && c < TIMEOUT_SECS {
            print!("{c:>9.0}");
        } else {
            print!("{:>9}", "—");
        }
    }
    println!();
}

/// Minimum finite cell of a table with its indices.
pub fn best(table: &[Vec<f64>]) -> (usize, usize, f64) {
    let mut best = (0, 0, f64::INFINITY);
    for (i, row) in table.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            if v < best.2 {
                best = (i, j, v);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_finds_minimum() {
        let t = vec![vec![5.0, 2.0], vec![f64::INFINITY, 3.0]];
        assert_eq!(best(&t), (0, 1, 2.0));
    }

    #[test]
    fn fig6_variant_names() {
        let v = fig6_variants(8);
        assert_eq!(v.len(), 5);
        assert_eq!(v[0].name, "iter");
        assert_eq!(v[4].name, "16-way");
    }
}

/// Write a results table as CSV (for downstream plotting): `row_label`
/// column first, then one column per entry of `cols`.
pub fn write_csv(
    path: &std::path::Path,
    corner: &str,
    cols: &[String],
    rows: &[(String, Vec<f64>)],
) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{corner},{}", cols.join(","))?;
    for (label, cells) in rows {
        let rendered: Vec<String> = cells
            .iter()
            .map(|c| {
                if c.is_finite() && *c < TIMEOUT_SECS {
                    format!("{c:.1}")
                } else {
                    String::new()
                }
            })
            .collect();
        writeln!(f, "{label},{}", rendered.join(","))?;
    }
    Ok(())
}

/// One measurement from a bench suite (`benches/*.rs`): printed as it
/// is taken, and a row of the `BENCH_<suite>.json` sidecar.
#[derive(Debug, Clone)]
pub struct BenchSample {
    /// Benchmark name (`group/function` style).
    pub name: String,
    /// Mean wall time per iteration, in nanoseconds.
    pub mean_ns: f64,
    /// Bytes moved per iteration (0 when the bench moves none).
    pub bytes: u64,
}

/// Iterations per sample for a bench suite: `full`, or one when the
/// command line carries `--test` (`cargo bench … -- --test`, the smoke
/// run CI makes).
pub fn bench_iters(full: u32) -> u32 {
    if std::env::args().any(|a| a == "--test") {
        1
    } else {
        full
    }
}

/// Time `iters` runs of `body`, print the mean and return the sample.
pub fn time_sample(name: &str, bytes: u64, iters: u32, mut body: impl FnMut()) -> BenchSample {
    // One warmup pass so lazy setup (page faults, socket buffers)
    // stays out of the mean.
    body();
    let start = std::time::Instant::now();
    for _ in 0..iters {
        body();
    }
    let mean_ns = start.elapsed().as_nanos() as f64 / f64::from(iters.max(1));
    println!("{name:<44} {:>12.3} ms  ({iters} iters)", mean_ns / 1e6);
    BenchSample {
        name: name.to_string(),
        mean_ns,
        bytes,
    }
}

/// Write `BENCH_<suite>.json` into `$BENCH_OUT` (default `bench-out/`,
/// which is gitignored): a JSON array of `{bench, mean_ns, bytes}`
/// rows. Returns the path written.
pub fn write_bench_json(
    suite: &str,
    samples: &[BenchSample],
) -> std::io::Result<std::path::PathBuf> {
    use std::io::Write;
    let dir = std::env::var("BENCH_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from("bench-out"));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{suite}.json"));
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "[")?;
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 < samples.len() { "," } else { "" };
        writeln!(
            f,
            "  {{\"bench\": \"{}\", \"mean_ns\": {:.1}, \"bytes\": {}}}{comma}",
            s.name.replace('"', "\\\""),
            s.mean_ns,
            s.bytes
        )?;
    }
    writeln!(f, "]")?;
    Ok(path)
}

/// Directory for CSV output when the user passes `--csv`; `None` when
/// the flag is absent.
pub fn csv_dir_from_args() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == "--csv").map(|i| {
        args.get(i + 1)
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| std::path::PathBuf::from("bench_results"))
    })
}

#[cfg(test)]
mod csv_tests {
    use super::*;

    #[test]
    fn csv_writes_table_with_blank_timeouts() {
        let dir = std::env::temp_dir().join("dp-bench-csv-test");
        let path = dir.join("t.csv");
        write_csv(
            &path,
            "k\\b",
            &["256".into(), "512".into()],
            &[
                ("iter".into(), vec![1.5, f64::INFINITY]),
                ("rec".into(), vec![2.25, 40000.0]),
            ],
        )
        .unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "k\\b,256,512\niter,1.5,\nrec,2.2,\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn csv_dir_flag_absent_is_none() {
        assert_eq!(csv_dir_from_args(), None);
    }

    #[test]
    fn bench_json_is_wellformed() {
        let dir = std::env::temp_dir().join("dp-bench-json-test");
        // Env-var override is process-global; write via a direct path
        // by temporarily pointing BENCH_OUT at the temp dir.
        std::env::set_var("BENCH_OUT", &dir);
        let samples = vec![
            BenchSample {
                name: "wire/encode".into(),
                mean_ns: 1234.5,
                bytes: 65536,
            },
            BenchSample {
                name: "wire/decode".into(),
                mean_ns: 2345.0,
                bytes: 65536,
            },
        ];
        let path = write_bench_json("testsuite", &samples).unwrap();
        std::env::remove_var("BENCH_OUT");
        assert_eq!(path.file_name().unwrap(), "BENCH_testsuite.json");
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            body,
            "[\n  {\"bench\": \"wire/encode\", \"mean_ns\": 1234.5, \"bytes\": 65536},\n  \
             {\"bench\": \"wire/decode\", \"mean_ns\": 2345.0, \"bytes\": 65536}\n]\n"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn time_sample_times_the_body() {
        let s = time_sample("noop", 8, 4, || {});
        assert_eq!((s.name.as_str(), s.bytes), ("noop", 8));
        assert!(s.mean_ns >= 0.0);
    }
}
