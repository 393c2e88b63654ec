//! Top-level solver: distribute the table, iterate phases, validate,
//! and (for paper-scale runs) record the event log and price it in
//! simulated seconds.
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

use std::marker::PhantomData;
use std::sync::Arc;

use cluster_model::{ClusterSpec, CostModel, StageRecord};
use gep_kernels::matrix::Elem;
use gep_kernels::padding::{pad_to_multiple, unpad};
use gep_kernels::Matrix;
use sparklet::{
    GridPartitioner, HashPartitioner, JobError, Partitioner, Rdd, RunSummary, SparkConf,
    SparkContext, StorageLevel,
};

use crate::aqe::{AqeAction, AqeDecision, AqePlanner};
use crate::backend::{ConfigError, KernelSpec};
use crate::block::Block;
use crate::config::{DpConfig, Strategy, DEFAULT_LEVEL};
use crate::iteration;
use crate::problem::DpProblem;

type K = (usize, usize);

/// How the iterations still to run are executed.
pub(crate) struct Plan<S: DpProblem> {
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
    /// Executor kernel and its shape.
    pub kernel: KernelSpec,
    /// Storage level of each iteration's materialization.
    pub level: StorageLevel,
    /// The problem the plan solves.
    pub problem: PhantomData<S>,
}

impl<S: DpProblem> Plan<S> {
    /// The plan `cfg` asks for on `sc`, defaults resolved.
    pub(crate) fn new(sc: &SparkContext, cfg: &DpConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Plan {
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
            kernel: cfg.kernel,
            level: cfg.storage_level.unwrap_or(DEFAULT_LEVEL),
            problem: PhantomData,
        })
    }

    /// Adopt one adaptive decision for the remaining iterations and
    /// log it. A divisor shrink goes through `coalesce` (narrow, keeps
    /// the partitioner signature so the next `partition_by` elides its
    /// shuffle); any other partition change re-shuffles `dp` once.
    fn adopt(
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
            AqeAction::Retune(params) => self.kernel.params = params,
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
    mut plan: Plan<S>,
    mut dp: Rdd<K, Block<S::Elem>>,
) -> Result<Rdd<K, Block<S::Elem>>, JobError> {
    let mut planner = sc
        .conf()
        .adaptive_execution
        .then(|| AqePlanner::new(sc, std::mem::size_of::<S::Elem>()));
    if let Some(planner) = planner.as_ref() {
        for d in planner.plan_initial(&plan) {
            plan.adopt(sc, d, 0, &mut dp);
        }
    }
    for k in 0..plan.grid {
        let next = iteration::step(sc, &dp, k, &plan)?;
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
                for d in planner.replan(sc, k, &plan) {
                    plan.adopt(sc, d, k as u64, &mut dp);
                }
            }
        }
    }
    Ok(dp)
}

/// A config the run cannot start from, as the driver error every entry
/// point returns before stage 0 (task-level recovery cannot repair it).
fn config_error(e: ConfigError) -> JobError {
    JobError::Driver(format!("invalid DpConfig: {e}"))
}

/// `input` must be the square `cfg.n`-sided table the config describes.
pub(crate) fn check_table<E: Elem>(cfg: &DpConfig, input: &Matrix<E>) -> Result<(), JobError> {
    let (rows, cols) = (input.rows(), input.cols());
    if rows != cols {
        return Err(JobError::Driver(format!(
            "GEP tables are square, got {rows}×{cols}"
        )));
    }
    if rows != cfg.n {
        return Err(JobError::Driver(format!(
            "config/problem size mismatch: table side {rows}, cfg.n {}",
            cfg.n
        )));
    }
    Ok(())
}

/// Deal the `g×g` blocks `block_at` makes to the plan's partitions and
/// run the loop over them.
fn scatter_and_run<S: DpProblem>(
    sc: &SparkContext,
    cfg: &DpConfig,
    block_at: impl Fn(usize, usize) -> Block<S::Elem>,
) -> Result<Rdd<K, Block<S::Elem>>, JobError> {
    let plan = Plan::<S>::new(sc, cfg).map_err(config_error)?;
    let g = plan.grid;
    let mut blocks: Vec<(K, Block<S::Elem>)> = Vec::with_capacity(g * g);
    for i in 0..g {
        for j in 0..g {
            blocks.push(((i, j), block_at(i, j)));
        }
    }
    let dp = sc.parallelize_with(blocks, plan.partitions, Arc::clone(&plan.partitioner));
    run_loop(sc, plan, dp)
}

/// Solve a GEP instance on the engine and return the resulting table
/// (same shape as `input`; virtual padding applied and removed
/// internally). A config that cannot run — invalid kernel params or a
/// table that is not the square `cfg.n` side — is
/// `Err(JobError::Driver(..))` before any stage is submitted.
pub fn solve<S: DpProblem>(
    sc: &SparkContext,
    cfg: &DpConfig,
    input: &Matrix<S::Elem>,
) -> Result<Matrix<S::Elem>, JobError> {
    check_table(cfg, input)?;
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

/// The sim seed of every [`record_virtual`] context. A seeded context
/// schedules a dataflow the same way every time, so one config is one
/// recording even where stages run concurrently and race for which of
/// them pays a node's local reads.
const RECORD_SEED: u64 = 0;

/// Paper-scale recording: run `cfg`'s dataflow virtually on a seeded
/// context shaped like `cluster` (its nodes and node cores,
/// `cfg.partitions` or the cluster default, one worker thread, the
/// cluster's staging capacity) and return the stage records.
///
/// A virtual block records its kernel and returns, and with one worker
/// thread every pool holds one worker whatever `executor-cores` says,
/// so one recording serves every kernel and every `executor-cores`:
/// [`price`] it as each.
pub fn record_virtual<S: DpProblem>(
    cluster: &ClusterSpec,
    cfg: &DpConfig,
) -> Result<Vec<StageRecord>, JobError> {
    let partitions = cfg
        .partitions
        .unwrap_or_else(|| cluster.default_partitions());
    let sc = SparkContext::new(
        SparkConf::default()
            .with_executors(cluster.nodes)
            .with_executor_cores(cluster.node.cores)
            .with_partitions(partitions)
            .with_worker_threads(1)
            .with_staging_capacity(cluster.storage.capacity)
            .with_sim_seed(RECORD_SEED),
    );
    solve_virtual::<S>(&sc, cfg)?;
    Ok(sc.with_event_log(|log| log.records()))
}

/// Simulated seconds of a recording with every kernel invocation run
/// as `kernel`, on `model`'s cluster, `executor-cores` and constants.
pub fn price(records: &[StageRecord], kernel: &KernelSpec, model: &CostModel) -> f64 {
    let kernel = kernel.kernel_type();
    let mut priced = records.to_vec();
    for inv in priced
        .iter_mut()
        .flat_map(|s| &mut s.tasks)
        .flat_map(|t| &mut t.kernels)
    {
        inv.kernel = kernel;
    }
    model.job_seconds(&priced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::adaptive_solve;
    use gep_kernels::{GaussianElim, Tropical};

    /// Four 4-core nodes, so a recording is 32 partitions of an 8×8
    /// grid.
    fn small_cluster() -> ClusterSpec {
        let mut cluster = ClusterSpec::skylake().with_nodes(4);
        cluster.node.cores = 4;
        cluster
    }

    fn cfg(strategy: Strategy) -> DpConfig {
        DpConfig::new(2048, 256).with_strategy(strategy)
    }

    /// The recipe every tuner and figure relies on: one recording,
    /// repriced under another kernel, is bit for bit what a fresh
    /// recording under that kernel prices to.
    fn check_repricing<S: DpProblem>() {
        let cluster = small_cluster();
        let model = CostModel::new(cluster.clone(), 2);
        for strategy in [Strategy::InMemory, Strategy::CollectBroadcast] {
            let once = record_virtual::<S>(&cluster, &cfg(strategy)).unwrap();
            for kernel in [
                KernelSpec::iterative(),
                KernelSpec::recursive(2, 64, 4),
                KernelSpec::recursive(4, 32, 8),
            ] {
                let fresh =
                    record_virtual::<S>(&cluster, &cfg(strategy).with_kernel(kernel)).unwrap();
                let repriced = price(&once, &kernel, &model);
                assert!(repriced > 0.0);
                assert_eq!(
                    repriced,
                    price(&fresh, &kernel, &model),
                    "{} {strategy:?} {kernel:?}",
                    S::NAME
                );
            }
        }
    }

    #[test]
    fn one_recording_reprices_exactly_under_every_kernel() {
        check_repricing::<Tropical>();
        check_repricing::<GaussianElim>();
    }

    /// The seeded recording context schedules one CB config the same
    /// way twice.
    #[test]
    fn two_recordings_of_one_cb_config_are_equal() {
        let cluster = small_cluster();
        let cb = cfg(Strategy::CollectBroadcast);
        assert_eq!(
            record_virtual::<GaussianElim>(&cluster, &cb).unwrap(),
            record_virtual::<GaussianElim>(&cluster, &cb).unwrap()
        );
    }

    /// Regression: an invalid config panicked in the plan, and a table
    /// of the wrong shape hit an `assert_eq!`. Both are one typed error
    /// at the front door, before anything is submitted.
    #[test]
    fn unusable_configs_are_driver_errors_before_stage_0() {
        let sc = SparkContext::new(SparkConf::default().with_executors(2).with_partitions(4));
        let message = |r: Result<(), JobError>| match r {
            Err(JobError::Driver(msg)) => msg,
            other => panic!("expected a driver error, got {other:?}"),
        };
        let table = |rows, cols| Matrix::from_fn(rows, cols, |i, j| ((i + j) % 5) as f64);
        let ok = DpConfig::new(8, 4);
        let run = |cfg: &DpConfig, input: &Matrix<f64>| {
            message(solve::<Tropical>(&sc, cfg, input).map(drop))
        };

        // Fields are public, so a config can dodge the builders' checks.
        let mut zero_base = ok.clone();
        zero_base.kernel.params.base = 0;
        assert!(run(&zero_base, &table(8, 8)).contains("base must be"));
        message(solve_virtual::<Tropical>(&sc, &zero_base).map(drop));

        assert!(run(&ok, &table(6, 6)).contains("size mismatch"));
        assert!(run(&ok, &table(8, 6)).contains("square"));
        let candidates = [KernelSpec::iterative()];
        message(adaptive_solve::<Tropical>(&sc, &ok, &table(6, 6), &candidates, 1).map(drop));

        let did = sc.summary();
        assert_eq!((did.stages, did.retries), (0, 0), "nothing was submitted");
    }
}
