//! `dp-perf` — the repo's end-to-end benchmark.
//!
//! Four workloads drive the program the way its users do: three hand
//! `dp_core::solve` one table (in-process with few huge tiles,
//! in-process with many tiny tiles, and over the Unix-socket executor
//! transport) and one replays a mixed job script against the socket
//! `JobService` as two tenants in a closed loop. A run with tracing off
//! reports the end-to-end metrics; a separate traced run reports the
//! per-layer metrics, all measured from outside the program. Every
//! result is compared bit for bit with the benchmark's own references.
//! See the crate's README for the metric glossary.

#![warn(missing_docs)]

pub mod batch;
pub mod gen;
pub mod host;
pub mod json;
pub mod oracle;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod sut;
pub mod svc;
pub mod trace;

use run::{Outcome, RunArgs};

/// Run one workload by name.
pub fn run_workload(workload: &str, args: &RunArgs) -> Result<Outcome, String> {
    match workload {
        "fw_im_kernel" => batch::Batch::fw_im_kernel(args).run(args),
        "ge_cb_overhead" => batch::Batch::ge_cb_overhead(args).run(args),
        "fw_im_unix" => batch::Batch::fw_im_unix(args).run(args),
        "svc_mixed" => svc::run(args),
        other => Err(format!(
            "unknown workload {other:?}; known: {}",
            spec::WORKLOADS.join(", ")
        )),
    }
}
