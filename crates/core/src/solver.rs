//! Top-level solver: distribute the table, iterate phases, validate,
//! and (for paper-scale runs) map the event log to simulated seconds.
//!
//! The driver loop's state is one crate-private `Plan` value —
//! partition count, strategy, kernel shape and storage level, the four
//! things Section V tunes per cluster, beside the run's fixed shape.
//! The IM and CB steps and the adaptive planner read it; adopting an
//! adaptive decision is the one method that changes it. A run's report
//! is `sc.summary()` ([`sparklet::RunSummary`]) after any entry point
//! here, and faults are a scope
//! (`let _chaos = sc.install_chaos(policy);`), so no entry point has a
//! reporting or a chaos variant.

use std::sync::Arc;

use cluster_model::{ClusterSpec, CostModel, ModelParams};
use gep_kernels::padding::{pad_to_multiple, unpad};
use gep_kernels::Matrix;
use sparklet::{
    GridPartitioner, HashPartitioner, JobError, Partitioner, Rdd, RunSummary, SparkConf,
    SparkContext, StorageLevel,
};

use crate::aqe::{AqeAction, AqeDecision, AqePlanner};
use crate::backend::KernelSpec;
use crate::block::Block;
use crate::config::{DpConfig, Strategy, DEFAULT_LEVEL};
use crate::problem::DpProblem;
use crate::{cb, im};

type K = (usize, usize);

/// How the iterations still to run are executed.
pub(crate) struct Plan {
    /// Grid side `g` (fixed for the run).
    pub grid: usize,
    /// Block side `b` (fixed for the run).
    pub block: usize,
    /// Grid or hash placement of block keys (fixed for the run).
    pub partitioner: Arc<dyn Partitioner<K>>,
    /// Materialize iterations with `persist` (lineage retained) instead
    /// of `checkpoint` (fixed for the run).
    pub keep_lineage: bool,
    /// RDD partition count.
    pub partitions: usize,
    /// IM or CB.
    pub strategy: Strategy,
    /// Executor kernel backend and shape.
    pub kernel: KernelSpec,
    /// Storage level of each iteration's materialization.
    pub level: StorageLevel,
}

impl Plan {
    /// The plan `cfg` asks for on `sc`, defaults resolved.
    pub(crate) fn new(sc: &SparkContext, cfg: &DpConfig) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid DpConfig: {e}"));
        let mut kernel = cfg.kernel.clone();
        // A context-level backend override (e.g. `DP_KERNEL_BACKEND` via
        // the sparklet conf) rebinds the spec's primary backend while
        // keeping its params and fallback chain — the hook the CI matrix
        // uses to run the whole suite per backend.
        if let Some(name) = sc.conf().kernel_backend.as_deref() {
            kernel.backend = name.to_string();
        }
        Plan {
            grid: cfg.grid(),
            block: cfg.block,
            partitioner: if cfg.grid_partitioner {
                Arc::new(GridPartitioner::new(cfg.grid()))
            } else {
                Arc::new(HashPartitioner)
            },
            keep_lineage: cfg.recompute_on_evict,
            partitions: cfg.partitions.unwrap_or(sc.conf().default_partitions),
            strategy: cfg.strategy,
            kernel,
            level: cfg.storage_level.unwrap_or(DEFAULT_LEVEL),
        }
    }

    /// Adopt one adaptive decision for the remaining iterations and
    /// log it. A divisor shrink goes through `coalesce` (narrow, keeps
    /// the partitioner signature so the next `partition_by` elides its
    /// shuffle); any other partition change re-shuffles `dp` once.
    fn adopt<S: DpProblem>(
        &mut self,
        sc: &SparkContext,
        d: AqeDecision,
        iteration: u64,
        dp: &mut Rdd<K, Block<S::Elem>>,
    ) {
        match d.action {
            AqeAction::Repartition(p) => {
                *dp = if p < self.partitions && self.partitions.is_multiple_of(p) {
                    dp.coalesce(p)
                } else {
                    dp.partition_by(p, Arc::clone(&self.partitioner))
                };
                self.partitions = p;
            }
            AqeAction::SwitchStrategy(s) => self.strategy = s,
            AqeAction::Retune(spec) => self.kernel = spec,
            AqeAction::Retier(level) => self.level = level,
        }
        sc.log_adaptive_decision(iteration, &d.label, &d.reason);
    }
}

/// Run the distributed GEP loop over an already-created block RDD.
///
/// Under `SparkConf::with_adaptive_execution` the loop consults an
/// [`AqePlanner`] after each iteration commits: the planner summarises
/// the event-log records the iteration appended and may coalesce/split
/// the partition count, switch IM↔CB, re-pick the recursive fan-out, or
/// re-tier storage. Every adopted decision is logged to the event log.
fn run_loop<S: DpProblem>(
    sc: &SparkContext,
    mut plan: Plan,
    mut dp: Rdd<K, Block<S::Elem>>,
) -> Result<Rdd<K, Block<S::Elem>>, JobError> {
    let mut planner = sc
        .conf()
        .adaptive_execution
        .then(|| AqePlanner::new(sc, std::mem::size_of::<S::Elem>()));
    if let Some(planner) = planner.as_ref() {
        for d in planner.plan_initial::<S>(&plan) {
            plan.adopt::<S>(sc, d, 0, &mut dp);
        }
    }
    for k in 0..plan.grid {
        let next = match plan.strategy {
            Strategy::InMemory => im::step::<S>(&dp, k, &plan)?,
            Strategy::CollectBroadcast => cb::step::<S>(sc, &dp, k, &plan)?,
        };
        // Materialize the iteration (the paper's programs are bounded
        // the same way: each iteration's output feeds the next). The
        // checkpoint cuts the lineage, so dropping `next` at the end
        // of this iteration releases the consumed shuffles' staged
        // bytes individually (per-shuffle GC — Spark's ContextCleaner
        // role), keeping long runs clear of the staging cap. With
        // `recompute_on_evict` the materialization is a `persist`
        // instead: lineage is retained (upstream shuffles stay staged)
        // so blocks may be dropped under memory pressure and rebuilt
        // on demand.
        dp = if plan.keep_lineage {
            next.persist(plan.level)?
        } else {
            next.checkpoint_with_level(plan.level)?
        };
        if let Some(planner) = planner.as_mut() {
            if k + 1 < plan.grid {
                for d in planner.replan::<S>(sc, k, &plan) {
                    plan.adopt::<S>(sc, d, k as u64, &mut dp);
                }
            }
        }
    }
    Ok(dp)
}

/// Deal the `g×g` blocks `block_at` makes to the plan's partitions and
/// run the loop over them.
fn scatter_and_run<S: DpProblem>(
    sc: &SparkContext,
    cfg: &DpConfig,
    block_at: impl Fn(usize, usize) -> Block<S::Elem>,
) -> Result<Rdd<K, Block<S::Elem>>, JobError> {
    let plan = Plan::new(sc, cfg);
    let g = plan.grid;
    let mut blocks: Vec<(K, Block<S::Elem>)> = Vec::with_capacity(g * g);
    for i in 0..g {
        for j in 0..g {
            blocks.push(((i, j), block_at(i, j)));
        }
    }
    let dp = sc.parallelize_with(blocks, plan.partitions, Arc::clone(&plan.partitioner));
    run_loop::<S>(sc, plan, dp)
}

/// Solve a GEP instance on the engine and return the resulting table
/// (same shape as `input`; virtual padding applied and removed
/// internally).
pub fn solve<S: DpProblem>(
    sc: &SparkContext,
    cfg: &DpConfig,
    input: &Matrix<S::Elem>,
) -> Result<Matrix<S::Elem>, JobError> {
    assert_eq!(input.rows(), input.cols(), "GEP tables are square");
    assert_eq!(input.rows(), cfg.n, "config/problem size mismatch");
    let padded = pad_to_multiple::<S>(input, cfg.block);
    let g = cfg.grid();
    let b = cfg.block;
    let dp = scatter_and_run::<S>(sc, cfg, |i, j| {
        Block::Real(padded.copy_block(i * b, j * b, b, b))
    })?;
    let mut out = Matrix::filled(g * b, g * b, S::padding_value(0, 1));
    for ((i, j), blk) in dp.collect()? {
        out.paste_block(i * b, j * b, blk.expect_real());
    }
    Ok(unpad(&out, cfg.n))
}

/// Run the identical dataflow with virtual blocks: kernels become cost
/// records, bytes are declared at full scale. There is no table to
/// return, so this returns `sc.summary()`.
pub fn solve_virtual<S: DpProblem>(
    sc: &SparkContext,
    cfg: &DpConfig,
) -> Result<RunSummary, JobError> {
    let b = cfg.block;
    let dp = scatter_and_run::<S>(sc, cfg, |_, _| Block::Virtual { rows: b, cols: b })?;
    let n_blocks = dp.count()?;
    debug_assert_eq!(
        n_blocks,
        cfg.grid() * cfg.grid(),
        "table must stay complete"
    );
    Ok(sc.summary())
}

/// Paper-scale timing: run the full dataflow virtually on a context
/// shaped like `cluster`, then price the event log with the cost model.
/// Returns simulated seconds.
pub fn simulate_seconds<S: DpProblem>(
    cluster: &ClusterSpec,
    executor_cores: usize,
    cfg: &DpConfig,
    params: Option<ModelParams>,
) -> Result<f64, JobError> {
    let partitions = cfg
        .partitions
        .unwrap_or_else(|| cluster.default_partitions());
    let conf = SparkConf::default()
        .with_executors(cluster.nodes)
        .with_executor_cores(executor_cores)
        .with_partitions(partitions)
        .with_worker_threads(1)
        .with_staging_capacity(cluster.storage.capacity);
    let sc = SparkContext::new(conf);
    solve_virtual::<S>(&sc, cfg)?;
    let mut model = CostModel::new(cluster.clone(), executor_cores);
    if let Some(p) = params {
        model = model.with_params(p);
    }
    let records = sc.with_event_log(|log| log.records());
    Ok(model.job_seconds(&records))
}
