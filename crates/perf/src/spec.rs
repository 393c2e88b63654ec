//! What the benchmark declares: its workloads, every metric it reports
//! (name, unit, direction, regression bound) and the input sizes.
//! `BENCHMARK.json` at the repo root states the same lists; a unit test
//! keeps the two from drifting apart.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see. Reported by every workload
/// with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics. An *operation* is one warm `dp_core::solve`
/// call on the batch workloads and one service job (submit sent to
/// reply received) on `svc_mixed`.
pub const END_TO_END: [EndToEnd; 5] = [
    end_to_end("setup_s", "s", Better::Lower, 0.25),
    end_to_end("op_latency_p50_s", "s", Better::Lower, 0.25),
    end_to_end("ops_per_s", "1/s", Better::Higher, 0.25),
    end_to_end("cpu_s_per_op", "s", Better::Lower, 0.25),
    end_to_end("peak_rss_mb", "MB", Better::Lower, 0.20),
];

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// A metric of a single layer. Reported by every workload with tracing
/// on; 0 where the layer is not on that workload's path.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name, prefixed by the module it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// A count read from the program's own counters that must repeat
    /// exactly between two runs of one commit on one seed (batch
    /// workloads only; counts that depend on thread timing are not
    /// marked).
    pub exact: bool,
}

const fn time(name: &'static str) -> Layer {
    Layer {
        name,
        unit: "s",
        better: Better::Lower,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics, outside in.
pub const PER_LAYER: [Layer; 74] = [
    // gep-kernels + dp-core::backend
    exact("kernel.updates", "count"),
    time("kernel.busy_s"),
    layer("kernel.updates_per_s", "1/s", Higher),
    layer("kernel.share", "ratio", Higher),
    time("kernel.a_s"),
    time("kernel.bc_s"),
    time("kernel.d_s"),
    exact("kernel.computed_bytes_per_update", "B"),
    layer("kernel.sweep_updates_per_s", "1/s", Higher),
    layer("kernel.align_cells_per_s", "1/s", Higher),
    // par-pool
    layer("pool.join_ns", "ns", Lower),
    // dp-core: solver, block, jobs
    time("core.scatter_s"),
    time("core.gather_s"),
    time("core.tile_encode_s"),
    time("core.tile_decode_s"),
    time("core.tile_codec_est_s"),
    time("core.job_encode_s"),
    time("core.job_decode_s"),
    time("core.lineage_key_s"),
    // sparklet data plane
    time("payload.seal_s"),
    time("payload.open_s"),
    time("shuffle.roundtrip_s"),
    layer("shuffle.bytes_per_s", "B/s", Higher),
    time("sched.task_overhead_s"),
    time("sched.stage_overhead_s"),
    time("storage.checkpoint_s"),
    time("storage.spill_write_s"),
    time("storage.spill_read_s"),
    time("driver.collect_s"),
    time("driver.broadcast_s"),
    // sparklet engine counters
    exact("engine.stages", "count"),
    exact("engine.tasks", "count"),
    layer("engine.remote_bytes", "B", Lower),
    layer("engine.local_bytes", "B", Lower),
    exact("engine.staged_bytes", "B"),
    exact("engine.collect_bytes", "B"),
    exact("engine.broadcast_bytes", "B"),
    layer("engine.shuffle_wire_bytes", "B", Lower),
    exact("engine.spilled_bytes", "B"),
    exact("engine.retries", "count"),
    layer("engine.max_concurrent_stages", "count", Higher),
    time("engine.stage_wall_s"),
    time("engine.driver_gap_s"),
    // sparklet::transport
    time("transport.spawn_s"),
    time("transport.put_get_rtt_s"),
    time("transport.heartbeat_rtt_s"),
    time("transport.wire_encode_s"),
    time("transport.wire_decode_s"),
    layer("transport.wire_tx_bytes", "B", Lower),
    layer("transport.wire_rx_bytes", "B", Lower),
    time("transport.inproc_twin_wall_s"),
    time("transport.wire_overhead_s"),
    layer("transport.wire_overhead_share", "ratio", Lower),
    // sparklet::service
    time("service.inproc_submit_s"),
    time("service.submit_rpc_s"),
    time("service.wait_rpc_s"),
    time("service.estimate_s"),
    time("service.queue_wait_p50_s"),
    time("service.queue_wait_p95_s"),
    time("service.run_p50_s"),
    layer("service.cache_hit_ratio", "ratio", Higher),
    time("service.cache_hit_latency_p50_s"),
    time("service.latency_p50_s.apsp"),
    time("service.latency_p50_s.align"),
    time("service.latency_p50_s.sparse"),
    time("service.latency_p95_s"),
    layer("service.tenant_p50_ratio", "ratio", Lower),
    layer("service.rejected", "count", Lower),
    layer("service.body_bytes", "B", Lower),
    layer("service.result_bytes", "B", Lower),
    // cluster-model
    layer("model.sim_seconds", "s", Lower),
    time("model.price_s"),
    layer("model.sim_over_wall", "ratio", Lower),
    // the benchmark itself
    layer("trace.overhead_share", "ratio", Lower),
];

/// Workload names, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = ["fw_im_kernel", "ge_cb_overhead", "fw_im_unix", "svc_mixed"];

/// Whether `workload`'s counts can repeat exactly (the service's depend
/// on how many jobs fit the window).
pub fn counts_repeat(workload: &str) -> bool {
    workload != "svc_mixed"
}

/// Sizes of the `svc_mixed` job mix and closed loop.
#[derive(Debug, Clone)]
pub struct SvcSizes {
    /// Dense APSP vertices and tile side.
    pub apsp: (usize, usize),
    /// Alignment sequence length (both sequences) and tile side.
    pub align: (usize, usize),
    /// Sparse APSP vertices.
    pub sparse_n: usize,
    /// Sparse APSP edge probability.
    pub sparse_density: f64,
    /// Sparse APSP source count.
    pub sparse_sources: usize,
    /// Sparse APSP vertex-range partitions.
    pub sparse_parts: usize,
    /// Submitted-but-unawaited jobs each tenant keeps.
    pub window: usize,
    /// Jobs of the cold script run during set-up.
    pub warm_jobs: usize,
    /// Share of submissions that repeat an earlier body.
    pub repeat_share: f64,
    /// How far back (in script positions) a repeat reaches.
    pub repeat_distance: (usize, usize),
}

/// Every size a run depends on.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `fw_im_kernel`: table side, tile side.
    pub fw_kernel: (usize, usize),
    /// `ge_cb_overhead`: table side, tile side, recursion base.
    pub ge: (usize, usize, usize),
    /// `fw_im_unix`: table side, tile side.
    pub fw_unix: (usize, usize),
    /// `svc_mixed`.
    pub svc: SvcSizes,
    /// Cycles of an untraced run: lifetimes of the program under test,
    /// each set up afresh and timed for an equal share of the window.
    pub cycles: usize,
    /// Set-ups per cycle, by workload in [`WORKLOADS`] order: more than
    /// one where a set-up is short. The run's median is reported.
    pub setups: [usize; 4],
    /// Fewest timed operations of a batch run, however short the window.
    pub min_ops: usize,
    /// Timed calls per layer probe.
    pub probe_calls: usize,
}

impl Sizes {
    /// The calibrated sizes `BENCHMARK.json` is measured at.
    pub fn full() -> Self {
        Sizes {
            fw_kernel: (1024, 128),
            ge: (512, 8, 64),
            fw_unix: (1024, 64),
            svc: SvcSizes {
                apsp: (96, 32),
                align: (256, 64),
                sparse_n: 1024,
                sparse_density: 0.004,
                sparse_sources: 16,
                sparse_parts: 4,
                window: 4,
                warm_jobs: 16,
                repeat_share: 0.25,
                repeat_distance: (16, 48),
            },
            cycles: 4,
            setups: [1, 2, 1, 3],
            min_ops: 3,
            probe_calls: 200,
        }
    }

    /// Toy sizes for the smoke test: the same code path in well under a
    /// second per workload in a debug build.
    pub fn toy() -> Self {
        Sizes {
            fw_kernel: (96, 32),
            ge: (64, 16, 8),
            fw_unix: (64, 16),
            svc: SvcSizes {
                apsp: (24, 8),
                align: (32, 16),
                sparse_n: 48,
                sparse_density: 0.08,
                sparse_sources: 4,
                sparse_parts: 2,
                window: 4,
                warm_jobs: 4,
                repeat_share: 0.25,
                repeat_distance: (4, 8),
            },
            cycles: 1,
            setups: [1, 1, 1, 1],
            min_ops: 1,
            probe_calls: 10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS);
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` must list exactly what this module declares.
    #[test]
    fn benchmark_json_matches_the_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field =
            |v: &Json, k: &str| v.get(k).and_then(Json::str).unwrap_or_default().to_string();

        let workloads: Vec<String> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert!(doc.get("workloads").unwrap().items().iter().all(|w| {
            let why = field(w, "why");
            !why.is_empty() && why.len() <= 200 && !why.contains('\n')
        }));

        let e2e = doc.get("end_to_end").unwrap().items();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better.as_str());
            assert_eq!(got.get("bound").and_then(Json::num), Some(want.bound));
        }
        let layers = doc.get("per_layer").unwrap().items();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better.as_str());
            assert_eq!(got.members().len(), 3, "per-layer metrics have no bound");
        }
        assert_eq!(
            doc.get("paths").unwrap().items(),
            [Json::Str("crates/perf".into())]
        );
        let secs = doc.get("run_seconds").and_then(Json::num).unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    }
}
