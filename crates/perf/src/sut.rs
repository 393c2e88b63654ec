//! The adapter: the one module of the benchmark that names items of the
//! program under test. Everything else works on plain vectors, byte
//! slices and the types re-exported here, so a later API change in the
//! program is repaired in this file alone. The README lists the frozen
//! surface this module depends on.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use cluster_model::{ClusterSpec, CostModel, StageRecord};
use dp_core::jobs::{DpJobRequest, DpJobRunner};
use dp_core::kernels::omp_pool;
use dp_core::{registry, solve, Block, DpConfig, DpProblem, KernelSpec, Strategy};
use gep_kernels::alignment::{align_block, AlignScore};
use gep_kernels::gep::{block_active, Kind};
use gep_kernels::padding::{pad_to_multiple, unpad};
use gep_kernels::sparse::sweep_gep;
use gep_kernels::{Csr, GaussianElim, GepSpec, Matrix, Tropical};
use sparklet::codec::{decode_one, encode_one};
use sparklet::service::{
    JobRunner, JobService, ServeHandle, ServiceAddr, ServiceClient, ServiceConfig,
};
use sparklet::transport::wire::{decode_body, encode_body, WireMsg};
use sparklet::transport::{ExecutorManager, TransportMode};
use sparklet::{
    BlockStore, Compression, GridPartitioner, HashPartitioner, JobError, Partitioner, Payload,
    SparkConf, SparkContext, StorageLevel, TaskContext,
};

use crate::oracle::{digest_bytes, SparseGraph};
use crate::stats::time_median;
use crate::trace::{Hook, Stamp, Tracer};

/// A dense `f64` table as the program takes and returns it.
pub type Table = Matrix<f64>;

/// Executors, cores per executor, worker threads per executor and
/// partitions every workload runs the engine with: two busy threads on
/// a two-core host.
pub const EXECUTORS: usize = 2;
const PARTITIONS: usize = 4;

/// Wrap row-major cells as the program's table type.
pub fn table(n: usize, cells: Vec<f64>) -> Table {
    Matrix::from_vec(n, n, cells)
}

/// The cells of a table, row-major.
pub fn cells(t: &Table) -> &[f64] {
    t.as_slice()
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------
// Run hygiene
// ---------------------------------------------------------------------

/// Refuse to measure a build whose kernels were rebound from outside,
/// and find the executor binary before anything needs it.
pub fn preflight(needs_executor: bool) -> Result<(), String> {
    if std::env::var_os("DP_KERNEL_BACKEND").is_some_and(|v| !v.is_empty()) {
        return Err(
            "DP_KERNEL_BACKEND is set: it rebinds every kernel spec, so the \
                    numbers would not be the default build's; unset it"
                .into(),
        );
    }
    if needs_executor {
        executor_binary()?;
    }
    Ok(())
}

/// Where the program will find `sparklet-executor`: the
/// `SPARKLET_EXECUTOR_BIN` override, else next to this binary or in a
/// directory above it (a test binary runs from `deps/`).
pub fn executor_binary() -> Result<PathBuf, String> {
    if let Some(p) = std::env::var_os("SPARKLET_EXECUTOR_BIN") {
        let p = PathBuf::from(p);
        return if p.is_file() {
            Ok(p)
        } else {
            Err(format!(
                "SPARKLET_EXECUTOR_BIN points at {}, which is not a file",
                p.display()
            ))
        };
    }
    let exe = std::env::current_exe().map_err(err)?;
    exe.ancestors()
        .skip(1)
        .map(|dir| dir.join("sparklet-executor"))
        .find(|cand| cand.is_file())
        .ok_or_else(|| {
            format!(
                "sparklet-executor not found next to {} or above it; build it with \
                 `cargo build --release -p sparklet` or set SPARKLET_EXECUTOR_BIN",
                exe.display()
            )
        })
}

// ---------------------------------------------------------------------
// Batch solves
// ---------------------------------------------------------------------

/// Which GEP instance a batch workload solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Problem {
    /// Floyd–Warshall all-pairs shortest paths (`Tropical`).
    FloydWarshall,
    /// Gaussian elimination without pivoting (`GaussianElim`).
    GaussianElimination,
}

/// One batch configuration: problem, sizes, strategy and kernel spec.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    /// The problem solved.
    pub problem: Problem,
    /// Table side.
    pub n: usize,
    /// Tile side.
    pub b: usize,
    cfg: DpConfig,
}

impl BatchPlan {
    /// FW-APSP, In-Memory strategy, `DpConfig::new`'s default kernel.
    pub fn fw_in_memory(n: usize, b: usize) -> Self {
        BatchPlan {
            problem: Problem::FloydWarshall,
            n,
            b,
            cfg: DpConfig::new(n, b),
        }
    }

    /// GE, Collect-Broadcast strategy, 4-way recursive kernel with base
    /// `base` on one thread (the paper's Table I pairing).
    pub fn ge_collect_broadcast(n: usize, b: usize, base: usize) -> Self {
        let cfg = DpConfig::new(n, b)
            .with_strategy(Strategy::CollectBroadcast)
            .with_kernel(KernelSpec::recursive(4, base, 1));
        BatchPlan {
            problem: Problem::GaussianElimination,
            n,
            b,
            cfg,
        }
    }

    /// Tiles per side.
    pub fn grid(&self) -> usize {
        self.cfg.grid()
    }
}

/// How the engine's executors are hosted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Thread pools in this process.
    InProcess,
    /// Two `sparklet-executor` subprocesses over a Unix socket.
    Unix,
}

fn conf(transport: Transport) -> SparkConf {
    let conf = SparkConf::default()
        .with_executors(EXECUTORS)
        .with_executor_cores(1)
        .with_worker_threads(1)
        .with_partitions(PARTITIONS)
        .with_compression(Compression::None);
    match transport {
        Transport::InProcess => conf,
        Transport::Unix => conf.with_unix_transport(),
    }
}

/// What one solve (or one timed service section) left in the engine's
/// event log, folded to the counters the benchmark reports.
#[derive(Debug, Clone, Default)]
pub struct EngineLog {
    /// Stages run.
    pub stages: u64,
    /// Tasks run.
    pub tasks: u64,
    /// Shuffle bytes read across nodes.
    pub remote_bytes: u64,
    /// Shuffle bytes read node-locally.
    pub local_bytes: u64,
    /// Map-output bytes staged.
    pub staged_bytes: u64,
    /// Bytes collected to the driver.
    pub collect_bytes: u64,
    /// Bytes broadcast from the driver.
    pub broadcast_bytes: u64,
    /// Shuffle bytes as they crossed a wire (after framing).
    pub shuffle_wire_bytes: u64,
    /// Bytes serialised into the disk tier.
    pub spilled_bytes: u64,
    /// Task attempts retried.
    pub retries: u64,
    /// Most stages in flight at once.
    pub max_concurrent_stages: u64,
    /// Sum of per-stage wall seconds.
    pub stage_wall_s: f64,
    /// Kernel updates the tasks recorded.
    pub kernel_updates: f64,
    records: Vec<StageRecord>,
}

impl EngineLog {
    /// The `engine.*` and `kernel.updates` metrics of this log, counts
    /// and seconds divided by `ops` (1 for the log of one solve).
    pub fn metrics(&self, ops: f64) -> Probes {
        let per = |count: u64| count as f64 / ops;
        vec![
            ("kernel.updates", self.kernel_updates / ops),
            ("engine.stages", per(self.stages)),
            ("engine.tasks", per(self.tasks)),
            ("engine.remote_bytes", per(self.remote_bytes)),
            ("engine.local_bytes", per(self.local_bytes)),
            ("engine.staged_bytes", per(self.staged_bytes)),
            ("engine.collect_bytes", per(self.collect_bytes)),
            ("engine.broadcast_bytes", per(self.broadcast_bytes)),
            ("engine.shuffle_wire_bytes", per(self.shuffle_wire_bytes)),
            ("engine.spilled_bytes", per(self.spilled_bytes)),
            ("engine.retries", per(self.retries)),
            (
                "engine.max_concurrent_stages",
                self.max_concurrent_stages as f64,
            ),
            ("engine.stage_wall_s", self.stage_wall_s / ops),
        ]
    }

    /// Simulated seconds of this log on the paper's Skylake cluster at
    /// 32 executor cores, and the wall seconds pricing it took.
    pub fn price(&self) -> (f64, f64) {
        let model = CostModel::new(ClusterSpec::skylake(), 32);
        let t = Instant::now();
        let sim = model.job_seconds(&self.records);
        (sim, t.elapsed().as_secs_f64())
    }
}

fn drain_log(sc: &SparkContext) -> EngineLog {
    let mut log = EngineLog::default();
    for ev in sc.take_event_log() {
        let r = ev.record;
        log.stages += 1;
        log.tasks += r.tasks.len() as u64;
        log.collect_bytes += r.collect_bytes;
        log.broadcast_bytes += r.broadcast_bytes;
        log.spilled_bytes += r.spilled_bytes;
        log.retries += r.retries;
        log.max_concurrent_stages = log.max_concurrent_stages.max(r.concurrent_stages);
        log.stage_wall_s += ev.wall_seconds;
        for t in &r.tasks {
            log.remote_bytes += t.remote_read_bytes;
            log.local_bytes += t.local_read_bytes;
            log.staged_bytes += t.shuffle_write_bytes;
            log.shuffle_wire_bytes += t.remote_read_wire_bytes + t.local_read_wire_bytes;
            log.kernel_updates += t.kernels.iter().map(|k| k.updates).sum::<f64>();
        }
        log.records.push(r);
    }
    log
}

fn finish(sc: &SparkContext) -> Result<(), String> {
    sc.audit().map_err(|e| format!("audit: {e}"))?;
    let codes = sc.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    if codes.iter().any(|&c| c != 0) {
        return Err(format!("executor exit codes {codes:?}"));
    }
    Ok(())
}

fn executor_pids(sc: &SparkContext) -> Vec<u32> {
    (0..EXECUTORS)
        .filter_map(|node| sc.executor_pid(node))
        .collect()
}

/// A running engine context.
pub struct Engine {
    sc: SparkContext,
}

impl Engine {
    /// Build the context (and, for [`Transport::Unix`], spawn and
    /// handshake the executor subprocesses).
    pub fn start(transport: Transport) -> Engine {
        Engine {
            sc: SparkContext::new(conf(transport)),
        }
    }

    /// One `dp_core::solve` call: table in, table out.
    pub fn solve(&self, plan: &BatchPlan, input: &Table) -> Result<Table, String> {
        match plan.problem {
            Problem::FloydWarshall => solve::<Tropical>(&self.sc, &plan.cfg, input),
            Problem::GaussianElimination => solve::<GaussianElim>(&self.sc, &plan.cfg, input),
        }
        .map_err(err)
    }

    /// Take (and reset) the event log.
    pub fn drain_log(&self) -> EngineLog {
        drain_log(&self.sc)
    }

    /// Pids of the executor subprocesses (empty in-process).
    pub fn executor_pids(&self) -> Vec<u32> {
        executor_pids(&self.sc)
    }

    /// `(sent, received)` wire bytes so far, summed over executors.
    pub fn wire_bytes(&self) -> (u64, u64) {
        self.sc.total_wire_bytes()
    }

    /// Audit the engine's ledgers, shut the executors down and require
    /// every exit code to be 0.
    pub fn finish(self) -> Result<(), String> {
        finish(&self.sc)
    }
}

// ---------------------------------------------------------------------
// Kernel replay
// ---------------------------------------------------------------------

/// Single-thread replay of a plan's tile schedule through the resolved
/// kernel backend, with no engine around it.
#[derive(Debug, Clone)]
pub struct KernelReplay {
    /// Seconds inside A kernels.
    pub a_s: f64,
    /// Seconds inside B and C kernels.
    pub bc_s: f64,
    /// Seconds inside D kernels.
    pub d_s: f64,
    /// Updates performed, by the program's own per-kernel count.
    pub updates: f64,
    /// The table the replay produced, to be checked like any solve.
    pub result: Table,
}

/// Replay `plan` on `input`.
pub fn replay_kernels(plan: &BatchPlan, input: &Table) -> Result<KernelReplay, String> {
    match plan.problem {
        Problem::FloydWarshall => replay::<Tropical>(plan, input),
        Problem::GaussianElimination => replay::<GaussianElim>(plan, input),
    }
}

fn replay<S: DpProblem<Elem = f64>>(
    plan: &BatchPlan,
    input: &Table,
) -> Result<KernelReplay, String> {
    let (b, g) = (plan.b, plan.grid());
    let backend = registry::<S>().resolve(&plan.cfg.kernel).map_err(err)?;
    let params = &plan.cfg.kernel.params;
    let mut tiles = scatter::<S>(input, b, g);
    let (mut a_s, mut bc_s, mut d_s, mut updates) = (0.0, 0.0, 0.0, 0.0);
    let timed = |acc: &mut f64, f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        *acc += t.elapsed().as_secs_f64();
    };
    for k in 0..g {
        timed(&mut a_s, &mut || {
            let mut x = tiles[k * g + k].view_mut_at(k * b, k * b);
            backend.run(Kind::A, params, &mut x, None, None, None);
        });
        updates += S::updates_for(Kind::A, b);
        let diag = tiles[k * g + k].clone();
        let w = || Some(diag.view_at(k * b, k * b));
        for (kind, i, j) in (0..g)
            .filter(|&m| m != k)
            .flat_map(|m| [(Kind::B, k, m), (Kind::C, m, k)])
        {
            if !block_active::<S>(i, j, k, b) {
                continue;
            }
            timed(&mut bc_s, &mut || {
                let mut x = tiles[i * g + j].view_mut_at(i * b, j * b);
                backend.run(kind, params, &mut x, None, None, w());
            });
            updates += S::updates_for(kind, b);
        }
        let column: Vec<Table> = (0..g).map(|i| tiles[i * g + k].clone()).collect();
        let row: Vec<Table> = (0..g).map(|j| tiles[k * g + j].clone()).collect();
        for i in (0..g).filter(|&i| i != k) {
            for j in (0..g).filter(|&j| j != k) {
                if !block_active::<S>(i, j, k, b) {
                    continue;
                }
                timed(&mut d_s, &mut || {
                    let mut x = tiles[i * g + j].view_mut_at(i * b, j * b);
                    let u = Some(column[i].view_at(i * b, k * b));
                    let v = Some(row[j].view_at(k * b, j * b));
                    backend.run(
                        Kind::D,
                        params,
                        &mut x,
                        u,
                        v,
                        if S::USES_W { w() } else { None },
                    );
                });
                updates += S::updates_for(Kind::D, b);
            }
        }
    }
    Ok(KernelReplay {
        a_s,
        bc_s,
        d_s,
        updates,
        result: gather::<S>(&tiles, b, g, plan.n),
    })
}

fn scatter<S: GepSpec<Elem = f64>>(input: &Table, b: usize, g: usize) -> Vec<Table> {
    let padded = pad_to_multiple::<S>(input, b);
    (0..g * g)
        .map(|t| padded.copy_block(t / g * b, t % g * b, b, b))
        .collect()
}

fn gather<S: GepSpec<Elem = f64>>(tiles: &[Table], b: usize, g: usize, n: usize) -> Table {
    let mut out = Matrix::filled(g * b, g * b, S::padding_value(0, 1));
    for (t, tile) in tiles.iter().enumerate() {
        out.paste_block(t / g * b, t % g * b, tile);
    }
    unpad(&out, n)
}

// ---------------------------------------------------------------------
// Data-plane probes
// ---------------------------------------------------------------------

/// Named probe results: `(per-layer metric name, value)`.
pub type Probes = Vec<(&'static str, f64)>;

/// Runs probes: each is one `probe:<metric>` span around a batch of
/// `calls` timed calls.
pub struct Prober<'a> {
    /// Where the probe spans go.
    pub tracer: &'a Tracer,
    /// Timed calls per probe (see [`time_median`]).
    pub calls: usize,
}

impl Prober<'_> {
    /// Median seconds per call of `f`, spanned as `probe:<name>`.
    fn time(&self, name: &str, f: impl FnMut()) -> f64 {
        self.tracer.span(&format!("probe:{name}"), 0, None, || {
            time_median(self.calls, f)
        })
    }

    /// [`Prober::time`] `f` and report the seconds under `name`.
    fn record(&self, out: &mut Probes, name: &'static str, f: impl FnMut()) {
        out.push((name, self.time(name, f)));
    }
}

type Key = (usize, usize);

/// Time each data-plane layer's public function on the plan's own tile
/// shape and tile set, on the workload's own engine (so under
/// [`Transport::Unix`] the shuffle and broadcast probes cross the
/// socket). Also returns the bytes of one encoded tile.
pub fn probe_data_plane(
    engine: &Engine,
    plan: &BatchPlan,
    input: &Table,
    prober: &Prober,
) -> (Probes, f64) {
    match plan.problem {
        Problem::FloydWarshall => data_plane::<Tropical>(&engine.sc, plan, input, prober),
        Problem::GaussianElimination => data_plane::<GaussianElim>(&engine.sc, plan, input, prober),
    }
}

fn data_plane<S: GepSpec<Elem = f64>>(
    sc: &SparkContext,
    plan: &BatchPlan,
    input: &Table,
    prober: &Prober,
) -> (Probes, f64) {
    let (b, g, n) = (plan.b, plan.grid(), plan.n);
    let mut out = Probes::new();

    prober.record(&mut out, "core.scatter_s", || {
        black_box(scatter::<S>(input, b, g));
    });
    let tiles = scatter::<S>(input, b, g);
    prober.record(&mut out, "core.gather_s", || {
        black_box(gather::<S>(&tiles, b, g, n));
    });

    let block = Block::Real(tiles[0].clone());
    let raw = encode_one(&block);
    prober.record(&mut out, "core.tile_encode_s", || {
        black_box(encode_one(&block));
    });
    prober.record(&mut out, "core.tile_decode_s", || {
        black_box(decode_one::<Block<f64>>(raw.clone()).expect("tile decodes"));
    });
    let sealed = Payload::seal(raw.clone(), Compression::None);
    prober.record(&mut out, "payload.seal_s", || {
        black_box(Payload::seal(raw.clone(), Compression::None));
    });
    prober.record(&mut out, "payload.open_s", || {
        black_box(sealed.open().expect("payload opens"));
    });

    let hash = || Arc::new(HashPartitioner) as Arc<dyn Partitioner<Key>>;
    let grid = || Arc::new(GridPartitioner::new(g)) as Arc<dyn Partitioner<Key>>;
    let keyed: Vec<(Key, Block<f64>)> = tiles
        .iter()
        .enumerate()
        .map(|(t, m)| ((t / g, t % g), Block::Real(m.clone())))
        .collect();
    let set_bytes = (raw.len() * keyed.len()) as f64;
    let tile_set = sc.parallelize_with(keyed.clone(), PARTITIONS, hash());
    let shuffle_s = prober.time("shuffle.roundtrip_s", || {
        let moved = tile_set
            .partition_by(PARTITIONS, grid())
            .count()
            .expect("shuffle job");
        assert_eq!(moved, g * g);
    });
    out.push(("shuffle.roundtrip_s", shuffle_s));
    out.push(("shuffle.bytes_per_s", set_bytes / shuffle_s));

    let tiny = sc.parallelize_with(
        (0..PARTITIONS).map(|i| ((i, i), i)).collect(),
        PARTITIONS,
        hash(),
    );
    let job_s = prober.time("sched.task_overhead_s", || {
        black_box(tiny.count().expect("empty job"));
    });
    out.push(("sched.task_overhead_s", job_s / PARTITIONS as f64));
    const SHUFFLES: usize = 8;
    let chain_s = prober.time("sched.stage_overhead_s", || {
        let mut r = tiny.partition_by(PARTITIONS, grid());
        for s in 1..SHUFFLES {
            r = r.partition_by(PARTITIONS, if s % 2 == 0 { grid() } else { hash() });
        }
        black_box(r.count().expect("shuffle chain"));
    });
    out.push(("sched.stage_overhead_s", chain_s / (SHUFFLES + 1) as f64));

    prober.record(&mut out, "storage.checkpoint_s", || {
        black_box(
            tile_set
                .checkpoint_with_level(StorageLevel::MemoryAndDisk)
                .expect("checkpoint"),
        );
    });
    let store = BlockStore::new(0, None, None);
    let one: Arc<Vec<(Key, Block<f64>)>> = Arc::new(vec![keyed[0].clone()]);
    let put = || {
        store
            .put(
                1,
                0,
                Arc::clone(&one),
                raw.len() as u64,
                StorageLevel::DiskOnly,
                false,
                None,
            )
            .expect("disk-tier put");
    };
    prober.record(&mut out, "storage.spill_write_s", put);
    prober.record(&mut out, "storage.spill_read_s", || {
        black_box(
            store
                .get::<Vec<(Key, Block<f64>)>>(1, 0, None)
                .expect("disk-tier get"),
        );
    });

    let cached = tile_set
        .checkpoint_with_level(StorageLevel::MemoryAndDisk)
        .expect("checkpoint");
    prober.record(&mut out, "driver.collect_s", || {
        black_box(cached.collect().expect("collect"));
    });
    let tc = TaskContext::new(0);
    prober.record(&mut out, "driver.broadcast_s", || {
        let bc = sc.broadcast(&keyed);
        black_box(bc.value(&tc).expect("broadcast value"));
    });

    let pool = omp_pool(1);
    let join_s = prober.time("pool.join_ns", || {
        black_box(pool.join(|| (), || ()));
    });
    out.push(("pool.join_ns", join_s * 1e9));
    sc.take_event_log();
    (out, raw.len() as f64)
}

// ---------------------------------------------------------------------
// Transport probes
// ---------------------------------------------------------------------

/// Time the executor transport by itself: spawn-to-handshake, block and
/// heartbeat round trips on a live executor, and the wire codec on a
/// `ShufflePut` carrying one sealed `b × b` tile frame.
pub fn probe_transport(tile_side: usize, prober: &Prober) -> Result<Probes, String> {
    let mut out = Probes::new();
    let launch = || ExecutorManager::launch(TransportMode::Unix, EXECUTORS).map_err(err);
    let mut spawn = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let manager = prober
            .tracer
            .span("probe:transport.spawn_s", 0, None, launch)?;
        spawn.push(t.elapsed().as_secs_f64());
        manager.shutdown()?;
    }
    out.push(("transport.spawn_s", crate::stats::median(&spawn)));

    let manager = launch()?;
    let tile = Block::Real(Matrix::filled(tile_side, tile_side, 1.5f64));
    let frame = Payload::seal(encode_one(&tile), Compression::None).frame();
    prober.record(&mut out, "transport.put_get_rtt_s", || {
        manager
            .put_block(1, 1, 0, 0, frame.clone())
            .expect("put_block");
        black_box(
            manager
                .fetch_block(1, 1, 0, 0)
                .expect("fetch_block")
                .expect("block is held"),
        );
    });
    let mut seq = 0;
    prober.record(&mut out, "transport.heartbeat_rtt_s", || {
        seq += 1;
        black_box(manager.heartbeat(0, seq).expect("heartbeat"));
    });
    manager.shutdown()?;

    let msg = WireMsg::ShufflePut {
        shuffle: 1,
        map_task: 0,
        reduce: 0,
        frame,
    };
    let body = encode_body(&msg);
    prober.record(&mut out, "transport.wire_encode_s", || {
        black_box(encode_body(&msg));
    });
    prober.record(&mut out, "transport.wire_decode_s", || {
        black_box(decode_body(&body).expect("wire body decodes"));
    });
    Ok(out)
}

// ---------------------------------------------------------------------
// Job bodies
// ---------------------------------------------------------------------

/// One encoded `DpJobRequest`, as a tenant submits it.
#[derive(Debug, Clone)]
pub struct Body(Bytes);

impl Body {
    /// Encoded length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the body is empty (it never is).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The key a [`Stamp`] of this body carries.
    pub fn key(&self) -> u64 {
        digest_bytes(&self.0) as u64
    }
}

/// Needleman–Wunsch scores `(matched, mismatch, gap)`.
pub type NwScore = (i64, i64, i64);

fn nw((matched, mismatch, gap): NwScore) -> AlignScore {
    AlignScore::NeedlemanWunsch {
        matched,
        mismatch,
        gap,
    }
}

fn csr(g: &SparseGraph) -> Csr<f64> {
    Csr::try_new(
        g.n,
        g.n,
        f64::INFINITY,
        g.row_ptr.clone(),
        g.col_idx.clone(),
        g.weights.clone(),
    )
    .expect("generated graph is canonical CSR")
}

/// Dense APSP job: full `n × n` table back.
pub fn apsp_body(n: usize, dist: &[f64], block: usize) -> Body {
    let dist = Matrix::from_vec(n, n, dist.to_vec());
    Body(
        DpJobRequest::Apsp {
            dist,
            block,
            sources: None,
        }
        .encode(),
    )
}

/// Alignment job: full `(a+1) × (b+1)` score table back.
pub fn alignment_body(a: &[u8], b: &[u8], score: NwScore, block: usize) -> Body {
    Body(
        DpJobRequest::Alignment {
            a: a.to_vec(),
            b: b.to_vec(),
            score: nw(score),
            block,
        }
        .encode(),
    )
}

/// Sparse APSP job: `sources × n` distances back.
pub fn sparse_apsp_body(g: &SparseGraph, sources: &[u32], parts: usize) -> Body {
    Body(
        DpJobRequest::SparseApsp {
            edges: csr(g),
            sources: sources.to_vec(),
            parts,
        }
        .encode(),
    )
}

/// Mean seconds per job of `DpJobRequest::encode`, `decode` and
/// `lineage_key` over `bodies` (one of each kind in the mix).
pub fn probe_job_codec(bodies: &[Body], prober: &Prober) -> Probes {
    let mut sums = [0.0f64; 3];
    for body in bodies {
        let req = DpJobRequest::decode(&body.0).expect("own body decodes");
        sums[0] += prober.time("core.job_encode_s", || {
            black_box(req.encode());
        });
        sums[1] += prober.time("core.job_decode_s", || {
            black_box(DpJobRequest::decode(&body.0).expect("own body decodes"));
        });
        sums[2] += prober.time("core.lineage_key_s", || {
            black_box(req.lineage_key());
        });
    }
    let per = bodies.len().max(1) as f64;
    vec![
        ("core.job_encode_s", sums[0] / per),
        ("core.job_decode_s", sums[1] / per),
        ("core.lineage_key_s", sums[2] / per),
    ]
}

/// Updates per second of `sweep_gep` relaxing every edge of `g` for
/// `sources` all-reachable source rows.
pub fn probe_sweep(g: &SparseGraph, sources: usize, prober: &Prober) -> Probes {
    let edges = csr(g);
    let dist = Matrix::filled(sources, g.n, 1.0f64);
    let mut cand = Matrix::filled(sources, g.n, f64::INFINITY);
    let s = prober.time("kernel.sweep_updates_per_s", || {
        sweep_gep::<Tropical>(&edges, &dist, f64::INFINITY, &mut cand);
    });
    let updates = (sources * edges.nnz()) as f64;
    vec![("kernel.sweep_updates_per_s", updates / s)]
}

/// Cells per second of `align_block` on one interior `block × block`
/// tile of the `a × b` score table.
pub fn probe_align(a: &[u8], b: &[u8], score: NwScore, block: usize, prober: &Prober) -> Probes {
    let score = nw(score);
    assert!(block <= a.len() && block <= b.len());
    let mut tile = Matrix::filled(block, block, 0i64);
    let (top, left) = (vec![0i64; block + 1], vec![0i64; block]);
    let s = prober.time("kernel.align_cells_per_s", || {
        // The tile at table offset (1, 1): the first interior block.
        let mut x = tile.view_mut_at(1, 1);
        align_block(&mut x, &top, &left, a, b, &score);
    });
    vec![("kernel.align_cells_per_s", (block * block) as f64 / s)]
}

// ---------------------------------------------------------------------
// The job service
// ---------------------------------------------------------------------

/// `DpJobRunner` with entry and exit of `estimate` and `run` stamped;
/// the traced service uses it, the measured one uses the bare runner.
struct Stamped {
    inner: DpJobRunner,
    tracer: Arc<Tracer>,
}

impl Stamped {
    fn stamped<T>(&self, hook: Hook, body: &Bytes, f: impl FnOnce() -> T) -> T {
        let enter_ns = self.tracer.now_ns();
        let out = f();
        let exit_ns = self.tracer.now_ns();
        self.tracer.stamp(Stamp {
            hook,
            body_key: digest_bytes(body) as u64,
            enter_ns,
            exit_ns,
        });
        out
    }
}

impl JobRunner for Stamped {
    fn estimate(&self, body: &Bytes) -> Result<f64, JobError> {
        self.stamped(Hook::Estimate, body, || self.inner.estimate(body))
    }

    fn cache_key(&self, body: &Bytes) -> Result<Option<u128>, JobError> {
        self.inner.cache_key(body)
    }

    fn run(&self, sc: &SparkContext, body: &Bytes) -> Result<Bytes, JobError> {
        self.stamped(Hook::Run, body, || self.inner.run(sc, body))
    }

    fn project(&self, body: &Bytes, full: &Bytes) -> Result<Bytes, JobError> {
        self.inner.project(body, full)
    }
}

/// A runner that does nothing, to time the service around it.
struct Noop;

impl JobRunner for Noop {
    fn estimate(&self, _: &Bytes) -> Result<f64, JobError> {
        Ok(0.0)
    }

    fn cache_key(&self, _: &Bytes) -> Result<Option<u128>, JobError> {
        Ok(None)
    }

    fn run(&self, _: &SparkContext, _: &Bytes) -> Result<Bytes, JobError> {
        Ok(Bytes::new())
    }
}

fn dp_runner() -> DpJobRunner {
    DpJobRunner::new(
        CostModel::new(ClusterSpec::skylake(), 4),
        DpConfig::new(1, 1),
    )
}

/// Counters read from `JobService::stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceCounters {
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs failed.
    pub failed: u64,
    /// Submissions refused by admission.
    pub rejected: u64,
    /// Completions served from the lineage cache.
    pub cache_hits: u64,
}

/// A job service listening on a Unix socket: default `ServiceConfig`,
/// two workers, an in-process engine.
pub struct Service {
    svc: JobService,
    handle: ServeHandle,
    sc: SparkContext,
}

impl Service {
    /// Start serving on `socket` with the bare `DpJobRunner`, or with
    /// the stamping wrapper when a `tracer` is given.
    pub fn start(socket: &Path, tracer: Option<Arc<Tracer>>) -> Result<Service, String> {
        match tracer {
            None => Self::serve(socket, dp_runner(), 2),
            Some(tracer) => Self::serve(
                socket,
                Stamped {
                    inner: dp_runner(),
                    tracer,
                },
                2,
            ),
        }
    }

    fn serve(socket: &Path, runner: impl JobRunner, workers: usize) -> Result<Service, String> {
        let sc = SparkContext::new(conf(Transport::InProcess));
        let svc = JobService::new(sc.clone(), ServiceConfig::default(), runner);
        svc.start_workers(workers);
        let handle = svc
            .serve(ServiceAddr::Unix(socket.to_path_buf()))
            .map_err(|e| format!("serve on {}: {e}", socket.display()))?;
        Ok(Service { svc, handle, sc })
    }

    /// Open one client connection.
    pub fn client(&self) -> Result<Client, String> {
        ServiceClient::connect(self.handle.addr())
            .map(Client)
            .map_err(err)
    }

    /// The service's own counters.
    pub fn counters(&self) -> ServiceCounters {
        let s = self.svc.stats();
        ServiceCounters {
            completed: s.completed,
            failed: s.failed,
            rejected: s.rejected,
            cache_hits: s.cache_hits,
        }
    }

    /// Take (and reset) the engine's event log.
    pub fn drain_log(&self) -> EngineLog {
        drain_log(&self.sc)
    }

    /// Stop serving, join the workers and audit the engine.
    pub fn finish(self) -> Result<(), String> {
        self.handle.stop();
        finish(&self.sc)
    }
}

/// One blocking client connection.
pub struct Client(ServiceClient);

/// A settled job as the client saw it.
pub struct Reply {
    result: Bytes,
    /// Whether the service answered from its lineage cache.
    pub cache_hit: bool,
}

impl Reply {
    /// The result bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.result
    }
}

impl Client {
    /// Submit `body` for `tenant`; the job id, or why it was refused.
    pub fn submit(&mut self, tenant: u64, body: &Body) -> Result<u64, String> {
        match self.0.submit(tenant, body.0.clone()).map_err(err)? {
            Ok(job) => Ok(job),
            Err((code, message)) => Err(format!("refused ({code}): {message}")),
        }
    }

    /// Block until `job` settles; its reply, or why it has no result.
    pub fn wait(&mut self, job: u64) -> Result<Reply, String> {
        let view = self.0.wait(job).map_err(err)?;
        match view.result {
            Some(result) => Ok(Reply {
                result,
                cache_hit: view.cache_hit,
            }),
            None => Err(format!(
                "job {job} ended {:?}: {}",
                view.state,
                view.error.unwrap_or_default()
            )),
        }
    }
}

/// Time the service with a no-op runner around `body`: submit + wait
/// in-process, and the submit and wait RPCs over a client connection.
pub fn probe_service(socket: &Path, body: &Body, prober: &Prober) -> Result<Probes, String> {
    let mut out = Probes::new();
    let service = Service::serve(socket, Noop, 1)?;
    prober.record(&mut out, "service.inproc_submit_s", || {
        let job = service.svc.submit(1, body.0.clone()).expect("admitted");
        black_box(service.svc.wait(job).expect("known job"));
    });
    let mut client = service.client()?;
    let (mut submit, mut wait) = (Vec::new(), Vec::new());
    let tracer = prober.tracer;
    for _ in 0..prober.calls {
        let t0 = tracer.now_ns();
        let job = client.submit(1, body)?;
        let t1 = tracer.now_ns();
        black_box(client.wait(job)?);
        let t2 = tracer.now_ns();
        tracer.record("probe:service.submit_rpc_s", 0, t0, t1, None);
        tracer.record("probe:service.wait_rpc_s", 0, t1, t2, None);
        submit.push((t1 - t0) as f64 / 1e9);
        wait.push((t2 - t1) as f64 / 1e9);
    }
    out.push(("service.submit_rpc_s", crate::stats::median(&submit)));
    out.push(("service.wait_rpc_s", crate::stats::median(&wait)));
    drop(client);
    service.finish()?;
    Ok(out)
}
