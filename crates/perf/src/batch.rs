//! The three batch workloads: a caller hands `dp_core::solve` one table
//! and waits for the solved one.

use std::time::Instant;

use crate::gen::{self, Rng};
use crate::host;
use crate::oracle::{self, digest_f64};
use crate::run::{end_to_end_metrics, Checker, Metrics, Outcome, RunArgs, Stretch};
use crate::stats::{median, ratio};
use crate::sut::{self, BatchPlan, Engine, EngineLog, Prober, Problem, Table, Transport};
use crate::trace::Tracer;

/// Consecutive timed solves of an untraced run that are measured as one
/// stretch: enough for a median, few enough that a quiet spell of the
/// host covers one.
const STRETCH: usize = 3;

/// One batch workload: a plan, where its executors live, and how many
/// set-ups each cycle of an untraced run makes.
pub struct Batch {
    plan: BatchPlan,
    transport: Transport,
    setups: usize,
    stream: u64,
}

impl Batch {
    /// Few huge tiles, In-Memory, in-process: kernels carry the run.
    pub fn fw_im_kernel(args: &RunArgs) -> Batch {
        let (n, b) = args.sizes.fw_kernel;
        Batch {
            plan: BatchPlan::fw_in_memory(n, b),
            transport: Transport::InProcess,
            setups: args.sizes.setups[0],
            stream: 1,
        }
    }

    /// Many tiny tiles, Collect-Broadcast, in-process: the framework
    /// carries the run.
    pub fn ge_cb_overhead(args: &RunArgs) -> Batch {
        let (n, b, base) = args.sizes.ge;
        Batch {
            plan: BatchPlan::ge_collect_broadcast(n, b, base),
            transport: Transport::InProcess,
            setups: args.sizes.setups[1],
            stream: 2,
        }
    }

    /// In-Memory over two executor subprocesses: the wire carries the run.
    pub fn fw_im_unix(args: &RunArgs) -> Batch {
        let (n, b) = args.sizes.fw_unix;
        Batch {
            plan: BatchPlan::fw_in_memory(n, b),
            transport: Transport::Unix,
            setups: args.sizes.setups[2],
            stream: 3,
        }
    }

    /// Generate the input, compute the oracle's digest, run.
    pub fn run(&self, args: &RunArgs) -> Result<Outcome, String> {
        sut::preflight(self.transport == Transport::Unix)?;
        let n = self.plan.n;
        let mut rng = Rng::new(args.seed, self.stream);
        let cells = match self.plan.problem {
            Problem::FloydWarshall => gen::dense_graph(n, &mut rng),
            Problem::GaussianElimination => gen::dominant_matrix(n, &mut rng),
        };
        let mut solved = cells.clone();
        match self.plan.problem {
            Problem::FloydWarshall => oracle::floyd_warshall(n, &mut solved),
            Problem::GaussianElimination => oracle::gaussian_elimination(n, &mut solved),
        }
        let job = Job {
            batch: self,
            input: sut::table(n, cells),
            want: digest_f64(n, n, &solved),
            check: Checker::default(),
        };
        if args.trace {
            job.traced(args)
        } else {
            job.end_to_end(args)
        }
    }
}

struct Job<'a> {
    batch: &'a Batch,
    input: Table,
    want: u128,
    check: Checker,
}

impl Job<'_> {
    /// One solve: seconds it took (if it returned a table at all) and
    /// whether the table is the oracle's.
    fn solve(&mut self, engine: &Engine, what: &str) -> Option<f64> {
        let t = Instant::now();
        let out = engine.solve(&self.batch.plan, &self.input);
        let took = t.elapsed().as_secs_f64();
        let n = self.batch.plan.n;
        let digest = out.map(|table| digest_f64(n, n, sut::cells(&table)));
        self.check.check(what, digest, self.want).then_some(took)
    }

    fn outcome(
        self,
        metrics: Vec<(&'static str, f64)>,
        mut errors: Vec<String>,
        tracer: Option<&Tracer>,
    ) -> Outcome {
        errors.extend(self.check.notes);
        Outcome {
            attempted: self.check.attempted,
            failed: self.check.failed,
            errors,
            metrics,
            spans: tracer.map(Tracer::spans).unwrap_or_default(),
        }
    }

    fn end_to_end(mut self, args: &RunArgs) -> Result<Outcome, String> {
        let sizes = args.sizes;
        let budget = args.seconds / sizes.cycles.max(1) as f64;
        let mut errors = Vec::new();
        let (mut setup, mut stretch) = (Vec::new(), Vec::new());
        let mut rss = 0.0;
        let mut op = 0;
        for cycle in 0..sizes.cycles.max(1) {
            let began = Instant::now();
            // Set up (more than once where a set-up is short); the last
            // engine serves this cycle's timed solves.
            let mut engine = None;
            for i in 0..self.batch.setups.max(1) {
                if let Some(Err(e)) = engine.take().map(Engine::finish) {
                    errors.push(e);
                }
                let t = Instant::now();
                let fresh = Engine::start(self.batch.transport);
                self.solve(&fresh, &format!("cycle {cycle} cold solve {i}"));
                setup.push(t.elapsed().as_secs_f64());
                fresh.drain_log();
                engine = Some(fresh);
            }
            let engine = engine.expect("at least one set-up");

            // Timed solves, back to back, until the cycle's share of the
            // window is used up, with the clock and the CPU time read
            // after each.
            let pids = engine.executor_pids();
            let mut latency = Vec::new();
            let mut marks = vec![(Instant::now(), host::cpu_seconds_all(&pids))];
            while marks.len() <= sizes.min_ops || began.elapsed().as_secs_f64() < budget {
                latency.push(self.solve(&engine, &format!("solve {op}")));
                engine.drain_log();
                marks.push((Instant::now(), host::cpu_seconds_all(&pids)));
                op += 1;
            }
            if cycle == 0 {
                rss = host::peak_rss_mb_all(&pids);
            }
            // One stretch per STRETCH consecutive solves (the last takes
            // the remainder), so the quietest one is found even when only
            // part of a cycle was quiet.
            let stretches = (latency.len() / STRETCH).max(1);
            for i in 0..stretches {
                let from = i * STRETCH;
                let to = if i + 1 == stretches {
                    latency.len()
                } else {
                    from + STRETCH
                };
                let correct: Vec<f64> = latency[from..to].iter().flatten().copied().collect();
                let wall = (marks[to].0 - marks[from].0).as_secs_f64();
                stretch.push(Stretch::new(&correct, wall, marks[to].1 - marks[from].1));
            }
            errors.extend(engine.finish().err());
        }
        Ok(self.outcome(end_to_end_metrics(&setup, &stretch, rss), errors, None))
    }

    fn traced(mut self, args: &RunArgs) -> Result<Outcome, String> {
        let plan = self.batch.plan.clone();
        let tracer = Tracer::default();
        let mut errors = Vec::new();
        let mut m = Metrics::default();

        let engine = tracer.span("setup", 0, None, || {
            let engine = Engine::start(self.batch.transport);
            self.solve(&engine, "cold solve");
            engine
        });
        engine.drain_log();

        // Alternate untraced and traced solves on the one engine: the
        // traced ones are spanned and their event log is folded.
        let (mut plain, mut spanned, mut gaps) = (Vec::new(), Vec::new(), Vec::new());
        let mut first: Option<EngineLog> = None;
        let mut log = EngineLog::default();
        let mut wire = (0, 0);
        let start = Instant::now();
        let mut op = 0u64;
        while op < 2 * args.sizes.min_ops as u64 || start.elapsed().as_secs_f64() < args.seconds {
            if op.is_multiple_of(2) {
                plain.extend(self.solve(&engine, &format!("solve {op}")));
                engine.drain_log();
            } else {
                let before = engine.wire_bytes();
                let took = tracer.span("solve", op, None, || {
                    self.solve(&engine, &format!("solve {op}"))
                });
                let after = engine.wire_bytes();
                wire = (after.0 - before.0, after.1 - before.1);
                log = engine.drain_log();
                if let Some(took) = took {
                    spanned.push(took);
                    gaps.push(took - log.stage_wall_s);
                }
                // Worth a note, not a failed run: results are judged by
                // their digests, counts by `compare`.
                if let Some(drift) = first.as_ref().and_then(|f| exact_drift(f, &log)) {
                    eprintln!(
                        "dp-perf: note: solve {op}: {drift} differs from the first traced solve"
                    );
                }
                first.get_or_insert_with(|| log.clone());
            }
            op += 1;
        }
        let all: Vec<f64> = plain.iter().chain(&spanned).copied().collect();
        let solve_wall = median(&all);
        m.set(
            "trace.overhead_share",
            ratio(median(&spanned), median(&plain)) - 1.0,
        );

        // Engine counters of one (the last traced) solve.
        m.extend(log.metrics(1.0));
        let (sim, price_s) = tracer.span("probe:model.price_s", 0, None, || log.price());
        m.extend([
            ("model.sim_seconds", sim),
            ("model.price_s", price_s),
            ("model.sim_over_wall", ratio(sim, solve_wall)),
        ]);

        // The layers by themselves, on this workload's shapes.
        let prober = Prober {
            tracer: &tracer,
            calls: args.sizes.probe_calls,
        };
        let (probes, tile_bytes) = sut::probe_data_plane(&engine, &plan, &self.input, &prober);
        m.extend(probes);
        let moved = |bytes: u64| ratio(bytes as f64, tile_bytes);
        m.set(
            "core.tile_codec_est_s",
            m.get("core.tile_encode_s") * moved(log.staged_bytes)
                + m.get("core.tile_decode_s") * moved(log.remote_bytes + log.local_bytes),
        );
        let overheads = m.get("core.scatter_s") + m.get("core.gather_s");
        let gaps: Vec<f64> = gaps.iter().map(|g| (g - overheads).max(0.0)).collect();
        m.set("engine.driver_gap_s", median(&gaps));

        let replay = tracer.span("probe:kernel.busy_s", 0, None, || {
            sut::replay_kernels(&plan, &self.input)
        })?;
        let n = plan.n;
        self.check.check(
            "kernel replay",
            Ok(digest_f64(n, n, sut::cells(&replay.result))),
            self.want,
        );
        if replay.updates != log.kernel_updates {
            eprintln!(
                "dp-perf: note: the kernel replay made {} updates, the engine recorded {}: \
                 kernel.busy_s no longer replays this workload's schedule",
                replay.updates, log.kernel_updates
            );
        }
        let busy = replay.a_s + replay.bc_s + replay.d_s;
        m.extend([
            ("kernel.busy_s", busy),
            ("kernel.updates_per_s", ratio(replay.updates, busy)),
            (
                "kernel.share",
                ratio(busy, solve_wall * sut::EXECUTORS as f64),
            ),
            ("kernel.a_s", replay.a_s),
            ("kernel.bc_s", replay.bc_s),
            ("kernel.d_s", replay.d_s),
            // Computed, not measured: a b-wide inner loop reads two
            // operand cells and read-modify-writes a third per update,
            // each 8 bytes, and reuses every operand tile b times.
            ("kernel.computed_bytes_per_update", 24.0 / plan.b as f64),
        ]);

        if self.batch.transport == Transport::Unix {
            m.extend(sut::probe_transport(plan.b, &prober)?);
            let twin = Engine::start(Transport::InProcess);
            self.solve(&twin, "in-process twin, cold");
            let warm: Vec<f64> = (0..3)
                .filter_map(|i| {
                    tracer.span("probe:transport.inproc_twin_wall_s", i, None, || {
                        self.solve(&twin, "in-process twin")
                    })
                })
                .collect();
            errors.extend(twin.finish().err());
            let twin_wall = median(&warm);
            m.extend([
                ("transport.wire_tx_bytes", wire.0 as f64),
                ("transport.wire_rx_bytes", wire.1 as f64),
                ("transport.inproc_twin_wall_s", twin_wall),
                ("transport.wire_overhead_s", solve_wall - twin_wall),
                (
                    "transport.wire_overhead_share",
                    ratio(solve_wall - twin_wall, solve_wall),
                ),
            ]);
        }
        errors.extend(engine.finish().err());
        Ok(self.outcome(m.per_layer(), errors, Some(&tracer)))
    }
}

/// The first count that must repeat exactly between two solves of one
/// input but does not.
fn exact_drift(a: &EngineLog, b: &EngineLog) -> Option<&'static str> {
    [
        ("kernel.updates", a.kernel_updates == b.kernel_updates),
        ("engine.stages", a.stages == b.stages),
        ("engine.tasks", a.tasks == b.tasks),
        ("engine.staged_bytes", a.staged_bytes == b.staged_bytes),
        ("engine.collect_bytes", a.collect_bytes == b.collect_bytes),
        (
            "engine.broadcast_bytes",
            a.broadcast_bytes == b.broadcast_bytes,
        ),
        ("engine.spilled_bytes", a.spilled_bytes == b.spilled_bytes),
        ("engine.retries", a.retries == b.retries),
    ]
    .into_iter()
    .find(|(_, same)| !same)
    .map(|(name, _)| name)
}
