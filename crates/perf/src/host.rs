//! What the benchmark reads from the host: process CPU time and peak
//! memory from `/proc`, and the provenance stamped on every output.

use std::process::Command;

use crate::json::Json;

/// Kernel clock ticks per second in `/proc/<pid>/stat`; 100 on every
/// Linux configuration this runs on (`getconf CLK_TCK`).
const CLK_TCK: f64 = 100.0;

fn read_proc(pid: u32, file: &str) -> Option<String> {
    std::fs::read_to_string(format!("/proc/{pid}/{file}")).ok()
}

/// User + system CPU seconds consumed so far by process `pid` (all its
/// threads, living and exited); 0.0 if the process is gone.
pub fn cpu_seconds(pid: u32) -> f64 {
    // Fields after the parenthesised command name, which may itself
    // contain spaces: state is field 3, utime 14, stime 15.
    let ticks = read_proc(pid, "stat").and_then(|stat| {
        let rest = stat.rsplit_once(')')?.1;
        let mut fields = rest.split_ascii_whitespace().skip(11);
        let utime: f64 = fields.next()?.parse().ok()?;
        let stime: f64 = fields.next()?.parse().ok()?;
        Some(utime + stime)
    });
    ticks.unwrap_or(0.0) / CLK_TCK
}

/// Peak resident set (`VmHWM`) of process `pid` in MB; 0.0 if gone.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let kb = read_proc(pid, "status").and_then(|status| {
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_ascii_whitespace().nth(1)?.parse::<f64>().ok()
    });
    kb.unwrap_or(0.0) / 1024.0
}

/// CPU seconds of this process plus `children`.
pub fn cpu_seconds_all(children: &[u32]) -> f64 {
    std::iter::once(std::process::id())
        .chain(children.iter().copied())
        .map(cpu_seconds)
        .sum()
}

/// Peak resident MB of this process plus `children`.
pub fn peak_rss_mb_all(children: &[u32]) -> f64 {
    std::iter::once(std::process::id())
        .chain(children.iter().copied())
        .map(peak_rss_mb)
        .sum()
}

/// One-minute load average, if `/proc/loadavg` is readable.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Wait, two minutes at most, for the 1-minute load average to fall
/// under 1: what ran just before (the build, usually) still counts in
/// it, and a set of runs should start on an idle host.
pub fn settle() {
    let began = std::time::Instant::now();
    while load_average().is_some_and(|l| l > 1.0) && began.elapsed().as_secs() < 120 {
        std::thread::sleep(std::time::Duration::from_secs(5));
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Which crates.io dependencies the measured program was built against,
/// as the runner script found out: `registry` (the published crates) or
/// `stand-ins` (the offline replacements under `stubs/`).
pub fn dependencies() -> String {
    std::env::var("DP_PERF_DEPS").unwrap_or_else(|_| "unknown".into())
}

/// Provenance of a run: commit, compiler, dependencies, host shape and
/// load at start.
/// Warns on stderr (never fails) when the host is already busy, since
/// every workload wants both cores.
pub fn provenance() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .map(str::to_string)
        })
        .and_then(|l| l.split_once(':').map(|(_, m)| m.trim().to_string()))
        .unwrap_or_else(|| "unknown".into());
    let load = load_average();
    if load.is_some_and(|l| l > 1.0) {
        eprintln!(
            "dp-perf: warning: 1-minute load average is {:.2}; timings will be noisy",
            load.unwrap_or(0.0)
        );
    }
    Json::obj([
        (
            "git_sha",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        ("deps", Json::Str(dependencies())),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("cpu_model", Json::Str(cpu_model)),
        ("load_1m", load.map_or(Json::Null, Json::Num)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let pid = std::process::id();
        let mut x = 0u64;
        while cpu_seconds(pid) == 0.0 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(peak_rss_mb(pid) > 0.5);
        assert_eq!(cpu_seconds(u32::MAX), 0.0);
        assert_eq!(peak_rss_mb(u32::MAX), 0.0);
    }
}
