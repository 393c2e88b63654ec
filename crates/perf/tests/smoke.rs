//! All four workloads at toy size through the same code path as the
//! real benchmark — including the executor subprocesses of the Unix
//! transport and the socket job service — checking the shape of what
//! comes out, not the numbers.
//!
//! The Unix-transport workload needs the `sparklet-executor` binary,
//! which a workspace `cargo test` builds alongside. `cargo test -p
//! dp-perf` alone does not build it: that workload is then skipped with
//! a message, until a `cargo build -p sparklet --bins` provides it.

use dp_perf::run::{Outcome, RunArgs};
use dp_perf::spec::{Sizes, END_TO_END, PER_LAYER, WORKLOADS};
use dp_perf::{report, run_workload, sut, trace};

/// The workloads this test binary can run here.
fn runnable() -> Vec<&'static str> {
    let mut workloads = WORKLOADS.to_vec();
    if let Err(why) = sut::executor_binary() {
        eprintln!("smoke: skipping fw_im_unix: {why}");
        workloads.retain(|w| *w != "fw_im_unix");
    }
    workloads
}

fn run(workload: &str, traced: bool) -> Outcome {
    let sizes = Sizes::toy();
    let args = RunArgs {
        seed: 7,
        seconds: 0.2,
        trace: traced,
        sizes: &sizes,
    };
    let out = run_workload(workload, &args).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(
        out.correct(),
        "{workload}: {}",
        report::listing(workload, &out)
    );
    assert_eq!(out.failed, 0);
    out
}

fn positive(out: &Outcome, workload: &str, names: &[&str]) {
    for name in names {
        let v = out
            .metric(name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert!(v > 0.0, "{workload}: {name} = {v}");
    }
}

#[test]
fn end_to_end_runs_report_every_metric_once_and_never_zero() {
    for workload in runnable() {
        let out = run(workload, false);
        let names: Vec<&str> = out.metrics.iter().map(|(n, _)| *n).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, declared, "{workload}");
        positive(&out, workload, &declared);
        assert!(out.metrics.iter().all(|(_, v)| v.is_finite()));
        assert!(out.spans.is_empty());
    }
}

#[test]
fn traced_runs_report_every_layer_and_the_ones_on_their_path_are_measured() {
    let on_every_batch_path = [
        "kernel.updates",
        "kernel.busy_s",
        "kernel.share",
        "kernel.d_s",
        "core.scatter_s",
        "core.gather_s",
        "core.tile_encode_s",
        "core.tile_decode_s",
        "payload.seal_s",
        "payload.open_s",
        "shuffle.roundtrip_s",
        "shuffle.bytes_per_s",
        "sched.task_overhead_s",
        "sched.stage_overhead_s",
        "storage.checkpoint_s",
        "storage.spill_write_s",
        "storage.spill_read_s",
        "driver.collect_s",
        "driver.broadcast_s",
        "pool.join_ns",
        "engine.stages",
        "engine.tasks",
        "engine.stage_wall_s",
        "model.sim_seconds",
        "model.price_s",
    ];
    let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    for workload in runnable() {
        let out = run(workload, true);
        let names: Vec<&str> = out.metrics.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared, "{workload}");
        assert!(out.metrics.iter().all(|(_, v)| v.is_finite()), "{workload}");
        match workload {
            "svc_mixed" => positive(
                &out,
                workload,
                &[
                    "service.inproc_submit_s",
                    "service.submit_rpc_s",
                    "service.wait_rpc_s",
                    "service.estimate_s",
                    "service.queue_wait_p50_s",
                    "service.run_p50_s",
                    "service.latency_p50_s.apsp",
                    "service.latency_p50_s.align",
                    "service.latency_p50_s.sparse",
                    "service.latency_p95_s",
                    "service.body_bytes",
                    "service.result_bytes",
                    "core.job_encode_s",
                    "core.job_decode_s",
                    "core.lineage_key_s",
                    "kernel.sweep_updates_per_s",
                    "kernel.align_cells_per_s",
                    "engine.stages",
                ],
            ),
            _ => positive(&out, workload, &on_every_batch_path),
        }
        if workload == "fw_im_unix" {
            positive(
                &out,
                workload,
                &[
                    "transport.spawn_s",
                    "transport.put_get_rtt_s",
                    "transport.heartbeat_rtt_s",
                    "transport.wire_encode_s",
                    "transport.wire_decode_s",
                    "transport.wire_tx_bytes",
                    "transport.wire_rx_bytes",
                    "transport.inproc_twin_wall_s",
                    "engine.shuffle_wire_bytes",
                ],
            );
        } else {
            assert_eq!(
                out.metric("transport.wire_tx_bytes"),
                Some(0.0),
                "{workload} has no wire"
            );
        }

        // The trace artefact: every span closes after it opens, parents
        // come first, and the file format gives the spans back.
        assert!(out.spans.iter().any(|s| s.name == "setup"), "{workload}");
        assert!(
            out.spans.iter().any(|s| s.name.starts_with("probe:")),
            "{workload}"
        );
        let op = if workload == "svc_mixed" {
            "run"
        } else {
            "solve"
        };
        assert!(
            out.spans.iter().any(|s| s.name == op),
            "{workload}: no {op} span"
        );
        for (i, s) in out.spans.iter().enumerate() {
            assert!(s.end_ns >= s.start_ns, "{workload}: span {i}");
            assert!(s.parent.is_none_or(|p| p < i), "{workload}: span {i}");
        }
        let mut file = Vec::new();
        trace::write_jsonl(&mut file, workload, &out.spans).unwrap();
        assert_eq!(
            trace::read_jsonl(&String::from_utf8(file).unwrap()).unwrap(),
            out.spans
        );
    }
}

#[test]
fn an_unknown_workload_is_an_error_not_a_result() {
    let sizes = Sizes::toy();
    let args = RunArgs {
        seed: 1,
        seconds: 0.1,
        trace: false,
        sizes: &sizes,
    };
    assert!(run_workload("no_such_workload", &args).is_err());
}
