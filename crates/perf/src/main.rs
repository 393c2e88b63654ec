//! Command line of the benchmark.
//!
//! ```text
//! dp-perf --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//!                                                         one run; last stdout line is the result object
//! dp-perf all     [--seed N] [--seconds S] [--out DIR]     every workload, untraced then traced
//! dp-perf aa      [--seed N] [--seconds S] [--rounds R] [--out DIR]
//!                                                         the whole set twice, R runs each, then compared
//! dp-perf compare A.json B.json                            B against baseline A
//! ```

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use dp_perf::json::{self, Json};
use dp_perf::report::Against;
use dp_perf::run::RunArgs;
use dp_perf::spec::{Sizes, WORKLOADS};
use dp_perf::{host, report, run_workload, trace};

const DEFAULT_SEED: u64 = 20200914;
const DEFAULT_SECONDS: f64 = 20.0;

struct Flags(HashMap<String, String>);

impl Flags {
    /// `--name value` pairs.
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = HashMap::new();
        for pair in args.chunks(2) {
            match pair {
                [name, value] if name.starts_with("--") => {
                    map.insert(name[2..].to_string(), value.clone())
                }
                _ => return Err(format!("expected `--name value`, got {pair:?}")),
            };
        }
        Ok(Flags(map))
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
            None => Ok(default),
        }
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One run in the driver's form.
fn bench(flags: &Flags) -> Result<bool, String> {
    let workload: String = flags.get("workload", String::new())?;
    let sizes = Sizes::full();
    let args = RunArgs {
        seed: flags.get("seed", DEFAULT_SEED)?,
        seconds: flags.get("seconds", DEFAULT_SECONDS)?,
        trace: flags.get("trace", 0u8)? != 0,
        sizes: &sizes,
    };
    let out = run_workload(&workload, &args)?;
    eprint!("{}", report::listing(&workload, &out));
    eprintln!("{workload:<15} built against {}", host::dependencies());
    if args.trace {
        let dir: PathBuf = flags.get("out", PathBuf::from("bench-out"))?;
        let mut file = Vec::new();
        trace::write_jsonl(&mut file, &workload, &out.spans).map_err(|e| e.to_string())?;
        write_file(
            &trace_file(&dir, &workload),
            &String::from_utf8_lossy(&file),
        )?;
    }
    println!("{}", report::result_object(&out).encode());
    Ok(out.correct())
}

fn trace_file(dir: &Path, workload: &str) -> PathBuf {
    dir.join(format!("perf_trace.{workload}.jsonl"))
}

/// One run in a process of its own (so its peak memory is its own):
/// this binary again, in the driver's form. Prints the child's listing
/// and returns its row for a result file, or `None` if it was incorrect.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: &Path,
) -> Result<Option<Json>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(dir)
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    print!("{}", String::from_utf8_lossy(&child.stderr));
    let stdout = String::from_utf8_lossy(&child.stdout);
    let Some(line) = stdout.lines().last().filter(|_| child.status.success()) else {
        return Ok(None);
    };
    Ok(Some(report::run_row(
        workload,
        seed,
        trace,
        &json::parse(line)?,
    )))
}

/// Every workload in `order`, each in its own process, all traced or
/// all untraced. Returns the runs' rows and whether every run was
/// correct; an incorrect run contributes no row. The spans of traced
/// runs are gathered into `perf_trace.jsonl`.
fn run_set(
    order: &[&str],
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: &Path,
) -> Result<(Vec<Json>, bool), String> {
    let (mut rows, mut spans, mut ok) = (Vec::new(), String::new(), true);
    for &workload in order {
        let row = child_run(workload, seed, seconds, trace, dir)?;
        ok &= row.is_some();
        if trace && row.is_some() {
            let part = trace_file(dir, workload);
            spans +=
                &std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
            std::fs::remove_file(&part).map_err(|e| format!("{}: {e}", part.display()))?;
        }
        rows.extend(row);
    }
    if trace {
        write_file(&dir.join("perf_trace.jsonl"), &spans)?;
    }
    Ok((rows, ok))
}

fn document(meta: &Json, rows: Vec<Json>) -> String {
    Json::obj([("meta", meta.clone()), ("runs", Json::Arr(rows))]).encode() + "\n"
}

/// What a result file says of its runs; read once the host has settled.
fn meta(seed: u64, seconds: f64) -> Json {
    host::settle();
    let mut pairs = host::provenance().members().to_vec();
    pairs.push(("seed".into(), Json::Num(seed as f64)));
    pairs.push(("seconds".into(), Json::Num(seconds)));
    pairs.push(("sizes".into(), Json::Str(format!("{:?}", Sizes::full()))));
    Json::Obj(pairs)
}

fn all(flags: &Flags) -> Result<bool, String> {
    let (seed, seconds) = (
        flags.get("seed", DEFAULT_SEED)?,
        flags.get("seconds", DEFAULT_SECONDS)?,
    );
    let dir: PathBuf = flags.get("out", PathBuf::from("bench-out"))?;
    let meta = meta(seed, seconds);
    let (e2e, e2e_ok) = run_set(&WORKLOADS, seed, seconds, false, &dir)?;
    let (layers, layers_ok) = run_set(&WORKLOADS, seed, seconds, true, &dir)?;
    write_file(&dir.join("perf_e2e.json"), &document(&meta, e2e))?;
    write_file(&dir.join("perf_layers.json"), &document(&meta, layers))?;
    Ok(e2e_ok && layers_ok)
}

/// Same code, two sets of runs: every end-to-end metric must agree
/// within its bound in both directions, and every count that must
/// repeat must repeat. A set is `--rounds` untraced runs of every
/// workload (seeds `seed`, `seed + 1`, …, the same on both sides) plus
/// one traced run. The sets run the workloads in opposite orders and
/// take turns round by round, as the pairs of a parent-against-change
/// measurement do, so that a slow quarter hour of the host falls on both.
fn aa(flags: &Flags) -> Result<bool, String> {
    let (seed, seconds): (u64, f64) = (
        flags.get("seed", DEFAULT_SEED)?,
        flags.get("seconds", DEFAULT_SECONDS)?,
    );
    let rounds: u64 = flags.get("rounds", 5)?;
    let dir: PathBuf = flags.get("out", PathBuf::from("bench-out"))?;
    let meta = meta(seed, seconds);
    let mut reversed = WORKLOADS;
    reversed.reverse();
    let orders = [WORKLOADS, reversed];
    let mut sides = [Vec::new(), Vec::new()];
    let mut ok = true;
    for round in 0..rounds.max(1) {
        let first = (round % 2) as usize;
        for side in [first, 1 - first] {
            let (rows, correct) = run_set(&orders[side], seed + round, seconds, false, &dir)?;
            sides[side].extend(rows);
            ok &= correct;
        }
    }
    let mut docs = Vec::new();
    for (side, mut rows) in sides.into_iter().enumerate() {
        let (layers, correct) = run_set(&orders[side], seed, seconds, true, &dir)?;
        rows.extend(layers);
        ok &= correct;
        let text = document(&meta, rows);
        write_file(&dir.join(format!("perf_aa_{}.json", side + 1)), &text)?;
        docs.push(json::parse(&text)?);
    }
    let (table, agree) = report::compare(&docs[0], &docs[1], Against::SameCode);
    print!("{table}");
    Ok(ok && agree)
}

fn compare(files: &[String]) -> Result<bool, String> {
    let [a, b] = files else {
        return Err("compare takes two result files".into());
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| json::parse(&t))
    };
    let (table, ok) = report::compare(&read(a)?, &read(b)?, Against::Baseline);
    print!("{table}");
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => Flags::parse(&args[1..]).and_then(|f| all(&f)),
        Some("aa") => Flags::parse(&args[1..]).and_then(|f| aa(&f)),
        Some("compare") => compare(&args[1..]),
        Some(flag) if flag.starts_with("--") => Flags::parse(&args).and_then(|f| bench(&f)),
        _ => Err(
            "usage: dp-perf --workload W --seed N --seconds S --trace 0|1 | all | aa | compare A B"
                .into(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("dp-perf: a run was incorrect or a comparison failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("dp-perf: {e}");
            ExitCode::from(2)
        }
    }
}
