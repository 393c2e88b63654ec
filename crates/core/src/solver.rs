//! Top-level solver: distribute the table, iterate phases, validate,
//! and (for paper-scale runs) map the event log to simulated seconds.

use std::sync::Arc;

use cluster_model::{ClusterSpec, CostModel, ModelParams};
use gep_kernels::padding::{pad_to_multiple, unpad};
use gep_kernels::Matrix;
use sparklet::{
    AdaptiveDecision, ChaosPolicy, GridPartitioner, HashPartitioner, JobError, Partitioner, Rdd,
    SparkConf, SparkContext,
};

use crate::aqe::{AqeAction, AqePlanner};
use crate::block::Block;
use crate::config::{DpConfig, Strategy};
use crate::problem::DpProblem;
use crate::{cb, im};

type K = (usize, usize);

/// Summary of a distributed run (for reports and tests).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Stages executed.
    pub stages: usize,
    /// Tasks executed.
    pub tasks: usize,
    /// Shuffle bytes crossing node boundaries.
    pub remote_bytes: u64,
    /// Map-output bytes staged to local storage.
    pub staged_bytes: u64,
    /// Bytes collected to the driver.
    pub collect_bytes: u64,
    /// Bytes broadcast via shared storage.
    pub broadcast_bytes: u64,
    /// Failed attempts re-launched via lineage retry.
    pub retries: u64,
    /// Straggler attempts re-launched speculatively.
    pub speculative_launches: u64,
    /// Late shuffle writes dropped by attempt fencing.
    pub zombie_writes_fenced: u64,
    /// Staged bytes released back by shuffle GC and retry
    /// reconciliation.
    pub staged_released_bytes: u64,
    /// Cached-partition reads served from either storage tier.
    pub cache_hits: u64,
    /// Cached-partition reads that found neither tier populated.
    pub cache_misses: u64,
    /// Cached bytes serialized into the disk tier (spills + `DiskOnly`
    /// puts).
    pub spilled_bytes: u64,
    /// Cached bytes dropped under memory pressure (recompute-backed
    /// evictions).
    pub evicted_bytes: u64,
    /// Lineage recomputations of dropped cached blocks.
    pub recomputes: u64,
    /// Highest number of stages the DAG scheduler had in flight
    /// simultaneously.
    pub max_concurrent_stages: u64,
    /// Adaptive re-plan decisions taken mid-job, in order (empty
    /// unless the context ran with `with_adaptive_execution`).
    pub adaptive_decisions: Vec<AdaptiveDecision>,
}

/// Build the run summary from a context's event log.
pub(crate) fn report_from(sc: &SparkContext) -> SolveReport {
    sc.with_event_log(|log| SolveReport {
        stages: log.stage_count(),
        tasks: log.task_count(),
        remote_bytes: log.total_remote_bytes(),
        staged_bytes: log.total_staged_bytes(),
        collect_bytes: log.total_collect_bytes(),
        broadcast_bytes: log.total_broadcast_bytes(),
        retries: log.total_retries(),
        speculative_launches: log.total_speculative_launches(),
        zombie_writes_fenced: log.total_zombie_writes_fenced(),
        staged_released_bytes: log.total_staged_released_bytes(),
        cache_hits: log.total_cache_hits(),
        cache_misses: log.total_cache_misses(),
        spilled_bytes: log.total_spilled_bytes(),
        evicted_bytes: log.total_evicted_bytes(),
        recomputes: log.total_recomputes(),
        max_concurrent_stages: log.max_concurrent_stages(),
        adaptive_decisions: log.decisions().to_vec(),
    })
}

fn partitioner_for(cfg: &DpConfig) -> Arc<dyn Partitioner<K>> {
    if cfg.grid_partitioner {
        Arc::new(GridPartitioner::new(cfg.grid()))
    } else {
        Arc::new(HashPartitioner)
    }
}

/// Run the distributed GEP loop over an already-created block RDD.
///
/// Under `SparkConf::with_adaptive_execution` the loop consults an
/// [`AqePlanner`] after each iteration commits: the planner reads the
/// iteration's event-log records and may coalesce/split the partition
/// count (a divisor-coalesce stays narrow and keeps the partitioner
/// signature, so the next `partition_by` elides its shuffle), switch
/// IM↔CB, re-pick the recursive fan-out, or re-tier storage. Every
/// adopted decision is logged to the event log.
fn run_loop<S: DpProblem>(
    sc: &SparkContext,
    cfg: &DpConfig,
    mut dp: Rdd<K, Block<S::Elem>>,
) -> Result<Rdd<K, Block<S::Elem>>, JobError> {
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid DpConfig: {e}"));
    let g = cfg.grid();
    let b = cfg.block;
    let mut partitions = cfg.partitions.unwrap_or(sc.conf().default_partitions);
    let mut strategy = cfg.strategy;
    let mut kernel = cfg.kernel.clone();
    // A context-level backend override (e.g. `DP_KERNEL_BACKEND` via
    // the sparklet conf) rebinds the spec's primary backend while
    // keeping its params and fallback chain — the hook the CI matrix
    // uses to run the whole suite per backend.
    if let Some(name) = sc.conf().kernel_backend.as_deref() {
        kernel.backend = name.to_string();
    }
    let partitioner = partitioner_for(cfg);
    let mut level = cfg.storage_level.unwrap_or_else(|| match cfg.strategy {
        Strategy::InMemory => im::default_storage_level(),
        Strategy::CollectBroadcast => cb::default_storage_level(),
    });
    let mut planner = sc
        .conf()
        .adaptive_execution
        .then(|| AqePlanner::new(sc, cfg, std::mem::size_of::<S::Elem>()));
    // Apply one adopted decision to the loop's mutable plan state and
    // log it. A divisor shrink goes through `coalesce` (narrow, keeps
    // the partitioner signature so the next `partition_by` elides its
    // shuffle); anything else re-shuffles once.
    let apply = |d: &crate::aqe::AqeDecision,
                 iteration: u64,
                 dp: &mut Rdd<K, Block<S::Elem>>,
                 partitions: &mut usize,
                 strategy: &mut Strategy,
                 kernel: &mut crate::backend::KernelSpec,
                 level: &mut sparklet::StorageLevel,
                 partitioner: &Arc<dyn Partitioner<K>>| {
        match &d.action {
            AqeAction::Repartition(p) => {
                let p = *p;
                *dp = if p < *partitions && partitions.is_multiple_of(p) {
                    dp.coalesce(p)
                } else {
                    dp.partition_by(p, Arc::clone(partitioner))
                };
                *partitions = p;
            }
            AqeAction::SwitchStrategy(s) => *strategy = *s,
            AqeAction::Retune(spec) => *kernel = spec.clone(),
            AqeAction::Retier(lv) => *level = *lv,
        }
        sc.log_adaptive_decision(iteration, &d.label, &d.reason);
    };
    if let Some(planner) = planner.as_mut() {
        for d in planner.plan_initial::<S>(cfg, partitions, strategy, &kernel) {
            apply(
                &d,
                0,
                &mut dp,
                &mut partitions,
                &mut strategy,
                &mut kernel,
                &mut level,
                &partitioner,
            );
        }
    }
    for k in 0..g {
        let next = match strategy {
            Strategy::InMemory => im::step::<S>(
                &dp,
                k,
                g,
                b,
                kernel.clone(),
                partitions,
                Arc::clone(&partitioner),
            )?,
            Strategy::CollectBroadcast => cb::step::<S>(
                sc,
                &dp,
                k,
                g,
                b,
                kernel.clone(),
                partitions,
                Arc::clone(&partitioner),
                level,
                cfg.recompute_on_evict,
            )?,
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
        dp = if cfg.recompute_on_evict {
            next.persist(level)?
        } else {
            next.checkpoint_with_level(level)?
        };
        if let Some(planner) = planner.as_mut() {
            if k + 1 < g {
                for d in planner.replan::<S>(sc, cfg, k, partitions, strategy, &kernel, level) {
                    apply(
                        &d,
                        k as u64,
                        &mut dp,
                        &mut partitions,
                        &mut strategy,
                        &mut kernel,
                        &mut level,
                        &partitioner,
                    );
                }
            }
        }
    }
    Ok(dp)
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
    let mut blocks: Vec<(K, Block<S::Elem>)> = Vec::with_capacity(g * g);
    for i in 0..g {
        for j in 0..g {
            blocks.push(((i, j), Block::Real(padded.copy_block(i * b, j * b, b, b))));
        }
    }
    let partitions = cfg.partitions.unwrap_or(sc.conf().default_partitions);
    let dp = sc.parallelize_with(blocks, partitions, partitioner_for(cfg));
    let dp = run_loop::<S>(sc, cfg, dp)?;
    let items = dp.collect()?;
    let mut out = Matrix::filled(g * b, g * b, S::padding_value(0, 1));
    for ((i, j), blk) in items {
        out.paste_block(i * b, j * b, blk.expect_real());
    }
    Ok(unpad(&out, cfg.n))
}

/// Like [`solve`], but also returns the run summary (stages, traffic,
/// cache behaviour) alongside the resulting table.
pub fn solve_with_report<S: DpProblem>(
    sc: &SparkContext,
    cfg: &DpConfig,
    input: &Matrix<S::Elem>,
) -> Result<(Matrix<S::Elem>, SolveReport), JobError> {
    let out = solve::<S>(sc, cfg, input)?;
    Ok((out, report_from(sc)))
}

/// Like [`solve_with_report`], but with a [`ChaosPolicy`] installed on
/// the context before the run: every task attempt consults the policy,
/// so a seeded deterministic context (`SparkConf::with_sim_seed`)
/// replays the exact same fault schedule from the seed. The policy is
/// removed again afterwards so later jobs on the context run clean.
pub fn solve_chaos<S: DpProblem>(
    sc: &SparkContext,
    cfg: &DpConfig,
    input: &Matrix<S::Elem>,
    chaos: ChaosPolicy,
) -> Result<(Matrix<S::Elem>, SolveReport), JobError> {
    let _installed = ChaosGuard::install(sc, chaos);
    solve_with_report::<S>(sc, cfg, input)
}

/// A [`ChaosPolicy`] installed for the guard's lifetime. Cleared on
/// drop, so a solve that panics (a shape `assert!`, fenced upstream by
/// `catch_unwind`) cannot leave its faults installed for every later
/// job on the context.
pub(crate) struct ChaosGuard<'a>(&'a SparkContext);

impl<'a> ChaosGuard<'a> {
    pub(crate) fn install(sc: &'a SparkContext, chaos: ChaosPolicy) -> Self {
        sc.install_chaos(chaos);
        ChaosGuard(sc)
    }
}

impl Drop for ChaosGuard<'_> {
    fn drop(&mut self) {
        self.0.clear_chaos();
    }
}

/// Run the identical dataflow with virtual blocks: kernels become cost
/// records, bytes are declared at full scale. Returns the run summary.
pub fn solve_virtual<S: DpProblem>(
    sc: &SparkContext,
    cfg: &DpConfig,
) -> Result<SolveReport, JobError> {
    assert!(cfg.padded_n().is_multiple_of(cfg.block));
    let g = cfg.grid();
    let b = cfg.block;
    let mut blocks: Vec<(K, Block<S::Elem>)> = Vec::with_capacity(g * g);
    for i in 0..g {
        for j in 0..g {
            blocks.push(((i, j), Block::Virtual { rows: b, cols: b }));
        }
    }
    let partitions = cfg.partitions.unwrap_or(sc.conf().default_partitions);
    let dp = sc.parallelize_with(blocks, partitions, partitioner_for(cfg));
    let dp = run_loop::<S>(sc, cfg, dp)?;
    let n_blocks = dp.count()?;
    debug_assert_eq!(n_blocks, g * g, "table must stay complete");
    Ok(report_from(sc))
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
