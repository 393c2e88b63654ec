//! The differential harness of dp-core's acceptance tests: the one
//! place that builds inputs, contexts and oracles, and that says what
//! every solve path must hold.
//!
//! A [`Case`] is one row: problem × kernel × strategy × block and
//! partition shape × codec × [`Mode`] × [`Chaos`] schedule.
//! [`Case::check`] solves it and asserts that the result equals the
//! problem's sequential oracle — `gep_reference` (bitwise), Dijkstra at
//! 1e-9 for real weights, Bellman–Ford and Dijkstra (bitwise) for the
//! sparse sweeps, `align_reference`, `parenthesis::solve_reference` —
//! that the ledgers audit clean, that a socket row crossed its sockets
//! and shut its executors down cleanly, and that a sim row replays its
//! `RunSummary` from its seed. The [`Run`] it returns is for assertions
//! that relate rows to each other.
//!
//! A new execution path is one [`Mode`] or [`Chaos`] value; a new
//! problem is one [`Problem`] arm: its input, its oracle, its job body.

#![allow(dead_code)] // every test target uses a different subset

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use bytes::Bytes;
use cluster_model::{ClusterSpec, CostModel};
use dp_core::jobs::{decode_matrix_f64, decode_matrix_i64, DpJobRequest, DpJobRunner};
use dp_core::{solve, DpConfig, DpProblem, KernelParams, KernelSpec, RunSummary, Strategy};
use gep_kernels::alignment::{align_reference, AlignScore};
use gep_kernels::gep::{gep_reference, SemiringPaths};
use gep_kernels::graph::{bellman_ford, check_apsp, dijkstra, erdos_renyi, sparse_erdos_renyi};
use gep_kernels::matrix::Elem;
use gep_kernels::parenthesis::{solve_reference, ParenWeight};
use gep_kernels::semiring::MaxMin;
use gep_kernels::{GaussianElim, Matrix, TransitiveClosure, Tropical};
use sparklet::service::{JobRunner, JobService};
use sparklet::{ChaosEvent, ChaosPolicy, Compression, JobState, ServiceConfig};
use sparklet::{SparkConf, SparkContext, StorageLevel, TransportMode};
pub use testkit::{check, Rng};

pub const STRATEGIES: [Strategy; 2] = [Strategy::InMemory, Strategy::CollectBroadcast];

/// What is solved, and against which oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum Problem {
    /// Floyd–Warshall on integer weights (exact, so bitwise).
    Fw,
    /// Floyd–Warshall on a real-weight Erdős–Rényi graph.
    FwDijkstra {
        density: f64,
    },
    /// Gaussian elimination of a diagonally dominant matrix.
    Ge,
    Tc,
    /// Widest paths, `SemiringPaths<MaxMin>`.
    MaxMin,
    /// Sparse APSP by sweeps; the row's `block` is the partition count
    /// and `None` asks for every source.
    Sparse {
        density: f64,
        sources: Option<Vec<u32>>,
    },
    /// Alignment of an `n`-long with an `m`-long sequence.
    Align(AlignScore, usize),
    /// Matrix-chain parenthesization of `n` matrices.
    Paren,
}

impl Problem {
    /// Any problem, its parameters drawn.
    pub fn draw(rng: &mut Rng) -> Problem {
        match rng.range(0..8) {
            0 => Problem::Fw,
            1 => Problem::FwDijkstra {
                density: *rng.pick(&[0.05, 0.3]),
            },
            2 => Problem::Ge,
            3 => Problem::Tc,
            4 => Problem::MaxMin,
            5 => Problem::Sparse {
                density: *rng.pick(&[0.05, 0.15, 0.4]),
                sources: None,
            },
            6 => Problem::Align(any_score(rng), rng.range(0usize..40)),
            _ => Problem::Paren,
        }
    }

    /// Solved by the blocked GEP driver, so it takes a kernel.
    pub fn is_gep(&self) -> bool {
        use Problem::*;
        matches!(self, Fw | FwDijkstra { .. } | Ge | Tc | MaxMin)
    }

    /// Has a `DpJobRequest` body.
    pub fn is_job(&self) -> bool {
        !matches!(self, Problem::Ge | Problem::Tc | Problem::MaxMin)
    }
}

pub fn any_score(rng: &mut Rng) -> AlignScore {
    let nw = AlignScore::NeedlemanWunsch {
        matched: 2,
        mismatch: -1,
        gap: -2,
    };
    if rng.bool() {
        AlignScore::Lcs
    } else {
        nw
    }
}

/// Where the solve runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    InProcess,
    /// Deterministic simulation under this seed.
    Sim(u64),
    /// Executor subprocesses over a Unix socket.
    Unix,
    Tcp,
    /// A job body submitted to a `JobService` over a `DpJobRunner`.
    Service,
}

/// The fault schedule a row runs under.
#[derive(Debug, Clone, PartialEq)]
pub enum Chaos {
    None,
    /// Task panics per mille, and as many 100 ms stragglers in sim.
    Mix(u32),
    /// Partition 0 of every stage panics on its first attempt.
    EveryWave,
    /// Shuffle fetches fail per mille.
    FetchFailures(u32),
    /// Partition 0's first attempt in stages 1 and 3 loses its executor.
    ExecutorLoss,
    /// Task panics at these `(stage, partition, attempt)`s.
    Panics(Vec<(u64, usize, u64)>),
    /// Executor memory a quarter of a node's share of the table: the
    /// default `MemoryAndDisk` level spills.
    Spill,
    /// The same cap under `MemoryOnly` + recompute-on-evict.
    Recompute,
}

/// `executors` nodes of `cores` slots, `partitions` by default.
pub fn cluster(executors: usize, cores: usize, partitions: usize) -> SparkConf {
    SparkConf::default()
        .with_executors(executors)
        .with_executor_cores(cores)
        .with_partitions(partitions)
}

/// One row of the table.
#[derive(Debug, Clone)]
pub struct Case {
    pub problem: Problem,
    /// Table side, first sequence length or matrix count.
    pub n: usize,
    /// Block side, or the sweep's partition count.
    pub block: usize,
    /// Names the input (and a real-time row's chaos draws).
    pub seed: u64,
    /// Kernel, strategy, partitioning and storage of a GEP solve.
    pub cfg: DpConfig,
    pub conf: SparkConf,
    pub mode: Mode,
    pub chaos: Chaos,
}

/// What a checked row did.
pub struct Run {
    pub sc: SparkContext,
    pub summary: RunSummary,
}

/// The summary without the context's stage-concurrency high-water mark:
/// a timing artifact of concurrent jobs, not a property of the plan.
pub fn masked(mut summary: RunSummary) -> RunSummary {
    summary.max_concurrent_stages = 0;
    summary
}

impl Case {
    /// An in-process, fault-free, iterative IM row of seed 1 on 4
    /// nodes × 8 partitions.
    pub fn new(problem: Problem, n: usize, block: usize) -> Case {
        Case {
            problem,
            n,
            block,
            seed: 1,
            cfg: DpConfig::new(n.max(1), block.max(1)),
            conf: cluster(4, 2, 8),
            mode: Mode::InProcess,
            chaos: Chaos::None,
        }
    }

    /// A row of `problem` with every other axis drawn, a sim row's seed
    /// included: the case's `TESTKIT_SEED` replays it.
    pub fn draw(problem: Problem, rng: &mut Rng) -> Case {
        let (n, block) = match problem {
            Problem::Sparse { .. } => (rng.range(2usize..24), rng.range(1usize..24)),
            Problem::Align(..) => (rng.range(0usize..40), rng.range(2usize..12)),
            Problem::Paren => (rng.range(3usize..25), rng.range(2usize..9)),
            _ => (rng.range(4usize..28), rng.range(2usize..9)),
        };
        let mut case = Case::new(problem, n, block).seed(rng.u64());
        case.conf = cluster(
            rng.range(1usize..5),
            rng.range(1usize..3),
            rng.range(1usize..20),
        );
        if let Problem::Sparse { sources, .. } = &mut case.problem {
            case.block = block.min(n);
            let some: Vec<u32> = (0..n as u32).filter(|_| rng.range(0..3) == 0).collect();
            *sources = (rng.bool() && !some.is_empty()).then_some(some);
        }
        if case.problem.is_gep() {
            let params = KernelParams {
                r_shared: rng.range(2usize..=4),
                base: rng.range(1usize..=4),
                threads: rng.range(1usize..=3),
            };
            let kernel = *rng.pick(&KernelSpec::both(params));
            // `drawn_rows` runs both kernels, and the recursive one
            // needs `r_shared <= block`.
            case.block = block.min(n).max(params.r_shared);
            case.cfg = DpConfig::new(n, case.block)
                .with_kernel(kernel)
                .with_strategy(*rng.pick(&STRATEGIES))
                .with_grid_partitioner(rng.bool());
            if rng.bool() {
                case.cfg = case.cfg.with_partitions(rng.range(1usize..20));
            }
        }
        if rng.bool() {
            case = case.lz4();
        }
        case.mode = match rng.range(0..4) {
            0 => Mode::Sim(rng.u64()),
            1 if case.problem.is_job() => Mode::Service,
            _ => Mode::InProcess,
        };
        // Rates low enough that no drawn row runs out of attempts (four
        // a task, eight resubmissions an action); memory pressure only
        // acts on a cached GEP table.
        let schedules = [
            Chaos::Mix(30),
            Chaos::EveryWave,
            Chaos::FetchFailures(20),
            Chaos::ExecutorLoss,
            Chaos::Spill,
            Chaos::Recompute,
        ];
        let usable: usize = if case.problem.is_gep() { 6 } else { 4 };
        if rng.bool() {
            case.chaos = schedules[rng.range(0..usable)].clone();
        }
        case
    }

    pub fn seed(mut self, seed: u64) -> Case {
        self.seed = seed;
        self
    }

    pub fn cfg(mut self, f: impl FnOnce(DpConfig) -> DpConfig) -> Case {
        self.cfg = f(self.cfg);
        self
    }

    pub fn on(self, conf: SparkConf) -> Case {
        self.conf(|_| conf)
    }

    pub fn conf(mut self, f: impl FnOnce(SparkConf) -> SparkConf) -> Case {
        self.conf = f(self.conf);
        self
    }

    /// Seal every frame with LZ4.
    pub fn lz4(self) -> Case {
        self.conf(|c| c.with_compression(Compression::Lz4))
    }

    pub fn mode(mut self, mode: Mode) -> Case {
        self.mode = mode;
        self
    }

    pub fn chaos(mut self, chaos: Chaos) -> Case {
        self.chaos = chaos;
        self
    }

    pub fn label(&self) -> String {
        format!("{self:?}")
    }

    fn sockets(&self) -> bool {
        matches!(self.mode, Mode::Unix | Mode::Tcp)
    }

    /// The row's context, its fault schedule not installed.
    pub fn context(&self) -> SparkContext {
        let mut conf = match self.mode {
            Mode::Sim(seed) => self.conf.clone().with_sim_seed(seed),
            Mode::Unix => self.conf.clone().with_transport(TransportMode::Unix),
            Mode::Tcp => self.conf.clone().with_transport(TransportMode::Tcp),
            Mode::InProcess | Mode::Service => self.conf.clone(),
        };
        if matches!(self.chaos, Chaos::Spill | Chaos::Recompute) {
            let elem = if self.problem == Problem::Tc { 1 } else { 8 };
            let share = (self.n * self.n * elem / conf.executors) as u64;
            conf = conf.with_executor_memory((share / 4).max(1));
        }
        SparkContext::new(conf)
    }

    /// The GEP config the row solves with.
    fn dp_config(&self) -> DpConfig {
        let cfg = DpConfig {
            n: self.n.max(1),
            block: self.block.max(1),
            ..self.cfg.clone()
        };
        match self.chaos {
            Chaos::Recompute => cfg
                .with_storage_level(StorageLevel::MemoryOnly)
                .with_recompute_on_evict(true),
            _ => cfg,
        }
    }

    /// The row's fault schedule, seeded by its sim seed (in real time,
    /// by its input seed).
    pub fn policy(&self) -> Option<ChaosPolicy> {
        let (seed, sim) = match self.mode {
            Mode::Sim(seed) => (seed, true),
            _ => (self.seed, false),
        };
        let policy = ChaosPolicy::seeded(seed);
        let panics = |p: ChaosPolicy, at: &[(u64, usize, u64)], event| {
            at.iter()
                .fold(p, |p, &(s, part, a)| p.script(s, part, a, event))
        };
        Some(match &self.chaos {
            Chaos::None | Chaos::Spill | Chaos::Recompute => return None,
            // A straggler costs real time outside the simulation.
            Chaos::Mix(rate) => policy
                .with_task_panics(*rate)
                .with_stragglers(if sim { *rate } else { 0 }, 100),
            Chaos::EveryWave => policy.with_standing_panics(0, 1),
            Chaos::FetchFailures(rate) => policy.with_fetch_failures(*rate),
            Chaos::ExecutorLoss => {
                panics(policy, &[(1, 0, 1), (3, 0, 1)], ChaosEvent::ExecutorLoss)
            }
            Chaos::Panics(at) => panics(policy, at, ChaosEvent::TaskPanic),
        })
    }

    /// Solve the row and assert what every row must hold.
    pub fn check(&self) -> Run {
        let run = self.check_once();
        if let Mode::Sim(_) = self.mode {
            let replay = self.check_once().summary;
            assert_eq!(replay, run.summary, "sim rows replay: {}", self.label());
        }
        run
    }

    fn check_once(&self) -> Run {
        let sc = self.context();
        let checked = catch_unwind(AssertUnwindSafe(|| {
            let chaos = self.policy().map(|p| sc.install_chaos(p));
            self.solve_against_oracle(&sc);
            drop(chaos);
            sc.audit().expect("post-solve audit");
            let (tx, rx) = sc.total_wire_bytes();
            assert!(
                !self.sockets() || tx.min(rx) > 0,
                "no bytes crossed the sockets"
            );
            let did = sc.summary();
            match self.chaos {
                Chaos::Spill => assert!(did.spilled_bytes > 0, "nothing spilled"),
                Chaos::Recompute => assert!(did.recomputes > 0 && did.spilled_bytes == 0),
                _ => {}
            }
        }));
        if let Err(panic) = checked {
            let (target, test) = (env!("CARGO_CRATE_NAME"), test_name());
            let row = self.label();
            eprintln!(
                "\nrow failed: {row}\nreplay: cargo test -p dp-core --test {target} {test}\n"
            );
            resume_unwind(panic);
        }
        if self.sockets() {
            let exits = sc.shutdown().expect("orderly shutdown");
            assert_eq!(
                exits,
                vec![0; self.conf.executors],
                "executors exit cleanly"
            );
        }
        Run {
            summary: sc.summary(),
            sc,
        }
    }

    fn solve_against_oracle(&self, sc: &SparkContext) {
        let rng = &mut Rng::new(self.seed);
        let (n, block) = (self.n, self.block);
        match &self.problem {
            Problem::Ge => self.gep::<GaussianElim>(sc, diag_dominant(n, rng)),
            Problem::Tc => self.gep::<TransitiveClosure>(sc, reachability(n, rng)),
            Problem::MaxMin => self.gep::<SemiringPaths<MaxMin>>(sc, widths(n, rng)),
            Problem::Fw | Problem::FwDijkstra { .. } => {
                let dist = match self.problem {
                    Problem::FwDijkstra { density } => erdos_renyi(n, density, 1.0, 9.0, self.seed),
                    _ => weights(n, rng),
                };
                let real = self.problem != Problem::Fw;
                let sources = None;
                let out = self.job(
                    sc,
                    DpJobRequest::Apsp {
                        dist: dist.clone(),
                        block,
                        sources,
                    },
                );
                let out = decode_matrix_f64(&out).unwrap();
                if real {
                    assert_eq!(check_apsp(&dist, &out, 1e-9), None, "differs from Dijkstra");
                } else {
                    same(&out, &reference::<Tropical>(&dist), "gep_reference");
                }
            }
            Problem::Sparse { density, sources } => {
                let edges = sparse_erdos_renyi(n, *density, 1.0, 10.0, self.seed);
                let sources = sources.clone().unwrap_or_else(|| (0..n as u32).collect());
                let out = self.job(
                    sc,
                    DpJobRequest::SparseApsp {
                        edges: edges.clone(),
                        sources: sources.clone(),
                        parts: block,
                    },
                );
                assert_rows_match_oracles(
                    &decode_matrix_f64(&out).unwrap(),
                    &edges.to_dense(),
                    &sources,
                );
            }
            Problem::Align(score, m) => {
                let (a, b) = (dna(n, rng), dna(*m, rng));
                let oracle = align_reference(&a, &b, score);
                let score = score.clone();
                let out = self.job(sc, DpJobRequest::Alignment { a, b, score, block });
                same(
                    &decode_matrix_i64(&out).unwrap(),
                    &oracle,
                    "align_reference",
                );
            }
            Problem::Paren => {
                let dims: Vec<u64> = (0..=n).map(|_| rng.range(1u64..40)).collect();
                let weight = ParenWeight::MatrixChain(dims);
                let oracle = solve_reference(&weight);
                let out = self.job(sc, DpJobRequest::Parenthesis { weight, block });
                same(
                    &decode_matrix_f64(&out).unwrap(),
                    &oracle,
                    "parenthesis::solve_reference",
                );
            }
        }
    }

    fn gep<S: DpProblem>(&self, sc: &SparkContext, input: Matrix<S::Elem>) {
        assert!(
            self.mode != Mode::Service,
            "no job body solves {:?}",
            self.problem
        );
        let out = solve::<S>(sc, &self.dp_config(), &input).expect("solve");
        same(&out, &reference::<S>(&input), "gep_reference");
    }

    /// The result bytes of `job`: submitted to a `JobService` in a
    /// service row, handed straight to the runner's solve otherwise.
    fn job(&self, sc: &SparkContext, job: DpJobRequest) -> Bytes {
        let runner = runner(self.dp_config());
        if self.mode != Mode::Service {
            return runner.run(sc, &job.encode()).expect("solve");
        }
        let svc = JobService::new(sc.clone(), ServiceConfig::default(), runner);
        let id = svc.submit(1, job.encode()).expect("admitted");
        svc.pump_all();
        let view = svc.wait(id).expect("a known job");
        assert_eq!(view.state, JobState::Done, "{:?}", view.error);
        view.result.expect("a done job has a result")
    }
}

/// A `DpJobRunner` solving with `template`'s knobs.
pub fn runner(template: DpConfig) -> DpJobRunner {
    DpJobRunner::new(CostModel::new(ClusterSpec::skylake(), 4), template)
}

/// A schedule that only fails attempts leaves the plan alone: the
/// stages, tasks and committed shuffle volume of the fault-free row.
pub fn assert_retries_keep_the_plan(clean: &Case, schedules: &[Chaos]) {
    let plan = |s: &RunSummary| (s.stages, s.tasks, s.staged_bytes);
    let want = plan(&clean.check().summary);
    for chaos in schedules {
        let row = clean.clone().chaos(chaos.clone());
        let got = row.check().summary;
        assert_eq!(plan(&got), want, "{}", row.label());
    }
}

/// `f` of every node of the context.
pub fn per_node<T>(sc: &SparkContext, f: impl Fn(&SparkContext, usize) -> T) -> Vec<T> {
    (0..sc.num_executors()).map(|node| f(sc, node)).collect()
}

/// The sequential Fig. 1 loop over a copy of `input`.
pub fn reference<S: DpProblem>(input: &Matrix<S::Elem>) -> Matrix<S::Elem> {
    let mut out = input.clone();
    gep_reference::<S>(&mut out);
    out
}

fn same<E: Elem>(out: &Matrix<E>, oracle: &Matrix<E>, name: &str) {
    let shape = |m: &Matrix<E>| (m.rows(), m.cols());
    assert_eq!(
        shape(out),
        shape(oracle),
        "result shape differs from {name}"
    );
    if let Some((i, j)) = out.first_difference(oracle) {
        let (got, want) = (out.get(i, j), oracle.get(i, j));
        panic!("differs from {name} at ({i}, {j}): {got:?}, the oracle says {want:?}");
    }
}

/// Row `s` of `out` holds source `sources[s]`'s distances: bitwise
/// Bellman–Ford's and Dijkstra's.
pub fn assert_rows_match_oracles(out: &Matrix<f64>, adj: &Matrix<f64>, sources: &[u32]) {
    assert_eq!((out.rows(), out.cols()), (sources.len(), adj.rows()));
    for (s, &src) in sources.iter().enumerate() {
        let bf = bellman_ford(adj, src as usize).expect("no negative cycles");
        let dj = dijkstra(adj, src as usize);
        for v in 0..adj.rows() {
            let got = out.get(s, v).to_bits();
            assert_eq!(got, bf[v].to_bits(), "src={src} v={v} vs Bellman–Ford");
            assert_eq!(got, dj[v].to_bits(), "src={src} v={v} vs Dijkstra");
        }
    }
}

// --- inputs -----------------------------------------------------------

/// Integer weights in `1..=9` at 40 % density: every summation order
/// gives the same bits.
pub fn weights(n: usize, rng: &mut Rng) -> Matrix<f64> {
    Matrix::from_fn(n, n, |i, j| match (i == j, rng.range(0.0..1.0) < 0.4) {
        (true, _) => 0.0,
        (false, true) => rng.range(1u32..=9) as f64,
        (false, false) => f64::INFINITY,
    })
}

/// Diagonally dominant: elimination without pivoting is stable.
fn diag_dominant(n: usize, rng: &mut Rng) -> Matrix<f64> {
    let mut m = Matrix::from_fn(n, n, |_, _| rng.range(-1.0..1.0));
    for i in 0..n {
        m.set(i, i, n as f64 + 1.0 + rng.range(0.0..1.0));
    }
    m
}

fn reachability(n: usize, rng: &mut Rng) -> Matrix<bool> {
    Matrix::from_fn(n, n, |i, j| i == j || rng.range(0u32..5) == 0)
}

fn widths(n: usize, rng: &mut Rng) -> Matrix<MaxMin> {
    Matrix::from_fn(n, n, |i, j| match (i == j, rng.range(0.0..1.0) < 0.35) {
        (true, _) => MaxMin(f64::INFINITY),
        (false, true) => MaxMin(rng.range(0u32..50) as f64),
        (false, false) => MaxMin(f64::NEG_INFINITY),
    })
}

fn dna(len: usize, rng: &mut Rng) -> Vec<u8> {
    (0..len).map(|_| *rng.pick(b"ACGT")).collect()
}

// --- seeds ------------------------------------------------------------

/// The sim seeds of a sweep: `default_n` of them, `SIM_SEEDS` when set,
/// only `CHAOS_SEED` when that is set.
pub fn seeds(default_n: u64) -> Vec<u64> {
    if let Ok(pin) = std::env::var("CHAOS_SEED") {
        return vec![pin.trim().parse().expect("CHAOS_SEED must be a u64")];
    }
    let n = std::env::var("SIM_SEEDS")
        .ok()
        .and_then(|v| v.trim().parse().ok());
    (0..n.unwrap_or(default_n))
        .map(|i| 0x5eed_0000 + i)
        .collect()
}

/// `body` for every seed of [`seeds`]; a failing seed prints the line
/// that replays it.
pub fn sweep(default_n: u64, body: impl Fn(u64)) {
    for seed in seeds(default_n) {
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| body(seed))) {
            let (target, test) = (env!("CARGO_CRATE_NAME"), test_name());
            eprintln!(
                "\nfailed at seed {seed}; replay with (and the TESTKIT_SEED the panic names, \
                 if any):\n    CHAOS_SEED={seed} cargo test -p dp-core --test {target} {test}\n"
            );
            resume_unwind(panic);
        }
    }
}

/// `cases` rows, each of a problem drawn by `problem`, every other axis
/// drawn by [`Case::draw`]. A GEP row is checked under both kernels at
/// its drawn params, the one it drew and the other.
pub fn drawn_rows(cases: u32, problem: impl Fn(&mut Rng) -> Problem) {
    check(cases, |rng| {
        let case = Case::draw(problem(rng), rng);
        if !case.problem.is_gep() {
            case.check();
            return;
        }
        for kernel in KernelSpec::both(case.cfg.kernel.params) {
            case.clone().cfg(|c| c.with_kernel(kernel)).check();
        }
    });
}

/// The running test (libtest names its threads after tests).
fn test_name() -> String {
    std::thread::current().name().unwrap_or("").to_string()
}
