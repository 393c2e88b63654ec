//! Adaptive query execution: re-plan the remaining GEP iterations from
//! live stage metrics.
//!
//! Spark 3's AQE re-optimizes a query between stages using runtime
//! statistics; the analogue for the paper's bounded-iteration DP jobs
//! is a driver-side loop that, after each iteration commits, folds the
//! event-log records that iteration appended into a
//! [`sparklet::RunSummary`] (bytes moved, kernel updates, spill and
//! eviction counters — the same fold every report is), feeds it into
//! the `cluster-model` cost terms and decides, against the solver's
//! current [`Plan`], for the iterations still to run:
//!
//! * **partition count** — the GEP active set shrinks phase by phase
//!   (for Gaussian elimination, phase `k` touches `(g-k)²` blocks), so
//!   the per-task overhead of a wide partition count eventually
//!   outweighs its parallelism. The planner prices candidate counts
//!   (divisors of the current count, so [`sparklet::Rdd::coalesce`]
//!   stays narrow *and* keeps the partitioner signature, plus one 2×
//!   split) against the model over every remaining iteration, and
//!   coalesces or splits the winner.
//! * **strategy** — IM's wide shuffles are priced against CB's serial
//!   driver collect/broadcast phase at the *next* phase's volumes; the
//!   loop switches when the other pattern wins by a clear margin.
//! * **kernel shape** — for recursive kernels, `r_shared` is re-picked
//!   per level from [`cluster_model::CostModel::core_seconds`].
//! * **storage tier** — observed spills or evictions under
//!   `MemoryOnly` re-tier the materialization level to
//!   `MemoryAndDisk` (one-way: never flaps back).
//!
//! Every input is a recorded byte count or task count — never host
//! wall time — so under [`sparklet::SparkConf::with_sim_seed`] the
//! decision sequence is a pure function of the seed and replays
//! bit-identically. Each adopted decision is recorded via
//! [`sparklet::SparkContext::log_adaptive_decision`] and surfaces in
//! [`sparklet::RunSummary::adaptive_decisions`].

use cluster_model::{
    ClusterSpec, CostModel, KernelInvocation, KernelType, StageRecord, TaskRecord,
};
use sparklet::{RunSummary, SparkContext, StorageLevel};

use crate::backend::{Backend, KernelParams, KernelSpec};
use crate::config::Strategy;
use crate::filters;
use crate::iteration::{grid_keys, wave_of, Record, STRATEGIES, WAVES};
use crate::problem::DpProblem;
use crate::solver::Plan;

/// Relative improvement a re-plan must promise before it is adopted
/// (hysteresis against flapping on model noise).
const REPLAN_MARGIN: f64 = 0.95;
/// Stronger margin for strategy switches, which change the stage graph
/// wholesale.
const STRATEGY_MARGIN: f64 = 0.80;

/// One adopted re-plan step.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AqeAction {
    /// Change the RDD partition count for the remaining iterations
    /// (coalesce when it shrinks by a divisor, shuffle split otherwise).
    Repartition(usize),
    /// Switch the distribution strategy for the remaining iterations.
    SwitchStrategy(Strategy),
    /// Change the executor kernel shape for the remaining iterations
    /// (same kernel, new params).
    Retune(KernelParams),
    /// Re-tier the materialization storage level.
    Retier(StorageLevel),
}

/// An adopted decision plus its audit strings (what/why), as logged to
/// the event log.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AqeDecision {
    /// The plan change to apply.
    pub action: AqeAction,
    /// Machine-readable label, e.g. `coalesce:64->16`.
    pub label: String,
    /// The cost comparison that drove it.
    pub reason: String,
}

/// Driver-side adaptive planner. One instance lives for the duration
/// of a solve; it keeps a watermark into the event log so each replan
/// only summarises the records of the iteration that just committed.
pub(crate) struct AqePlanner {
    model: CostModel,
    stage_watermark: usize,
    min_partitions: usize,
    elem_bytes: usize,
    retiered: bool,
}

impl AqePlanner {
    /// Planner for a run on `sc`, pricing with a model shaped like the
    /// context (node count, cores) on the reference cluster node.
    /// Coalescing never goes below one partition per executor.
    pub(crate) fn new(sc: &SparkContext, elem_bytes: usize) -> Self {
        let conf = sc.conf();
        let spec = ClusterSpec::skylake().with_nodes(conf.executors);
        AqePlanner {
            model: CostModel::new(spec, conf.executor_cores),
            stage_watermark: sc.with_event_log(|log| log.stages().len()),
            min_partitions: conf.executors.max(1),
            elem_bytes,
            retiered: false,
        }
    }

    /// Model-only plan for iteration 0, taken before anything runs:
    /// phase volumes are estimated exactly from the problem's filters
    /// and per-kind update counts (no measurements exist yet), and the
    /// partition count is re-picked the same way [`Self::replan`]
    /// does. Measured records then refine the plan every iteration.
    pub(crate) fn plan_initial<S: DpProblem>(&self, plan: &Plan<S>) -> Vec<AqeDecision> {
        let (g, b) = (plan.grid, plan.block);
        let keys = active_keys::<S>(0, g, b);
        if keys.is_empty() {
            return Vec::new();
        }
        let updates: f64 = keys
            .iter()
            .filter_map(|&key| filters::kind_of::<S>(key, 0, b))
            .map(|kind| S::updates_for(kind, b))
            .sum();
        let bytes = self.estimate::<S>(plan.strategy, 0, g, b);
        self.repartition(plan, 0, bytes, updates)
            .into_iter()
            .collect()
    }

    /// Summarise the records the finished iteration `k` appended and
    /// decide the plan for iteration `k + 1`. Returns the adopted
    /// decisions in application order (storage, partitions, strategy,
    /// kernel — at most one each).
    pub(crate) fn replan<S: DpProblem>(
        &mut self,
        sc: &SparkContext,
        k: usize,
        plan: &Plan<S>,
    ) -> Vec<AqeDecision> {
        let did = sc.with_event_log(|log| {
            let stages = log.stages();
            let from = self.stage_watermark.min(stages.len());
            self.stage_watermark = stages.len();
            RunSummary::of(&stages[from..])
        });
        let (g, b) = (plan.grid, plan.block);
        let active_now = active_keys::<S>(k, g, b).len();
        let active_next = active_keys::<S>(k + 1, g, b).len();
        if active_now == 0 || active_next == 0 {
            return Vec::new();
        }
        let ratio = active_next as f64 / active_now as f64;
        let next_bytes = (plan.strategy.moved(&did) as f64 * ratio) as u64;
        let next_updates = did.kernel_updates * ratio;

        let mut out = Vec::new();
        out.extend(self.retier(&did, plan.level));
        let mut partitions = plan.partitions;
        if let Some(d) = self.repartition(plan, k + 1, next_bytes, next_updates) {
            if let AqeAction::Repartition(p) = d.action {
                partitions = p;
            }
            out.push(d);
        }
        out.extend(self.switch_strategy(plan, k + 1, partitions, next_bytes, next_updates));
        out.extend(self.retune(plan, next_updates, partitions));
        out
    }

    /// What iteration `k` of `strategy` moves, in bytes, from the
    /// filters alone.
    fn estimate<S: DpProblem>(&self, strategy: Strategy, k: usize, g: usize, b: usize) -> u64 {
        (strategy.tiles_moved::<S>(k, g, b) * b * b * self.elem_bytes) as u64
    }

    /// Synthetic stage record: `bytes` shuffled and `updates` computed
    /// over `p` tasks placed round-robin across the cluster's nodes.
    /// `loads` weights each task's share (the work the candidate
    /// partitioner actually places in each partition) — uniform spread
    /// would hide the quantization skew that makes very low partition
    /// counts straggle, and the planner would over-coalesce.
    fn synth_stage(
        &self,
        loads: &[f64],
        bytes: u64,
        updates: f64,
        b: usize,
        kernel: KernelType,
    ) -> StageRecord {
        let nodes = self.model.spec.nodes.max(1) as u64;
        let total: f64 = loads.iter().sum::<f64>().max(1.0);
        let tasks = loads
            .iter()
            .enumerate()
            .map(|(t, share)| {
                let frac = share / total;
                let task_bytes = (bytes as f64 * frac) as u64;
                TaskRecord {
                    node: t % nodes as usize,
                    kernels: vec![KernelInvocation {
                        updates: updates * frac,
                        block_side: b,
                        elem_bytes: self.elem_bytes,
                        kernel,
                    }],
                    remote_read_bytes: task_bytes * (nodes - 1) / nodes,
                    local_read_bytes: task_bytes / nodes,
                    shuffle_write_bytes: task_bytes,
                    ..Default::default()
                }
            })
            .collect();
        StageRecord {
            tasks,
            ..Default::default()
        }
    }

    /// Overhead-only stage: `p` empty tasks (models the stages of an
    /// iteration that run no kernel wave).
    fn synth_overhead(&self, p: usize) -> StageRecord {
        let nodes = self.model.spec.nodes.max(1);
        StageRecord {
            tasks: (0..p)
                .map(|t| TaskRecord {
                    node: t % nodes,
                    ..Default::default()
                })
                .collect(),
            ..Default::default()
        }
    }

    /// Modeled seconds for iteration `k` of `strategy` on `p`
    /// partitions: one synthetic record per record the iteration
    /// appends ([`Strategy::records`]). `bytes` is what it moves;
    /// `updates` is its kernel work. A wave's record runs its kernels
    /// over the partitioner's actual placement of that wave's blocks,
    /// so the waves' stragglers add up instead of hiding in one
    /// stage's total. The driver records split `bytes` by their waves'
    /// block counts.
    fn iter_seconds<S: DpProblem>(
        &self,
        plan: &Plan<S>,
        strategy: Strategy,
        k: usize,
        p: usize,
        bytes: u64,
        updates: f64,
    ) -> f64 {
        let (g, b, kt) = (plan.grid, plan.block, plan.kernel.kernel_type());
        let price = |stage: &StageRecord| self.model.stage_seconds(stage);
        // Each wave's block count, and its work per partition at the
        // partitioner's placement.
        let mut blocks = [0usize; WAVES.len()];
        let mut loads = vec![vec![0.0; p.max(1)]; WAVES.len()];
        for key in grid_keys(g) {
            if let Some(kind) = filters::kind_of::<S>(key, k, b) {
                let w = wave_of(kind);
                blocks[w] += 1;
                loads[w][plan.partitioner.partition(&key, p.max(1))] += S::updates_for(kind, b);
            }
        }
        // The measured work, split between the waves as the filters split it.
        let total: f64 = loads.iter().flatten().sum::<f64>().max(1.0);
        let records = strategy.records();
        let collected: usize = records
            .iter()
            .map(|r| match r {
                Record::Driver(w) => blocks[*w],
                _ => 0,
            })
            .sum();
        let wave = |w: usize, shuffled: u64| {
            let work = updates * loads[w].iter().sum::<f64>() / total;
            price(&self.synth_stage(&loads[w], shuffled, work, b, kt))
        };
        records
            .iter()
            .map(|record| match *record {
                Record::Wave(w) => wave(w, 0),
                Record::ShuffleWave(w) => wave(w, bytes),
                Record::Driver(w) => {
                    let share =
                        (bytes as f64 * (blocks[w] as f64 / collected.max(1) as f64)) as u64;
                    price(&StageRecord {
                        collect_bytes: share,
                        broadcast_bytes: share,
                        ..Default::default()
                    })
                }
                Record::Overhead => price(&self.synth_overhead(p)),
            })
            .sum()
    }

    /// Price candidate partition counts for iterations `k..` and adopt
    /// the winner if it clears the margin. Candidates are the divisors
    /// of the plan's current count at or above the floor (narrow,
    /// signature-preserving coalesce) plus one 2× split while the
    /// active set can use it. A count is priced over *every* remaining
    /// iteration, each at `bytes` and `updates` scaled by its active
    /// set: once that set is too small to split again a coalesce is
    /// final, so a count that wins the next iteration but loses the
    /// tail to quantization must not be taken.
    fn repartition<S: DpProblem>(
        &self,
        plan: &Plan<S>,
        k: usize,
        bytes: u64,
        updates: f64,
    ) -> Option<AqeDecision> {
        let (g, b, current) = (plan.grid, plan.block, plan.partitions);
        let active = |j: usize| active_keys::<S>(j, g, b).len();
        let active_next = active(k);
        let price = |p: usize| -> f64 {
            (k..g)
                .map(|j| {
                    let r = active(j) as f64 / active_next as f64;
                    let j_bytes = (bytes as f64 * r) as u64;
                    self.iter_seconds(plan, plan.strategy, j, p, j_bytes, updates * r)
                })
                .sum()
        };
        let mut candidates: Vec<usize> = (self.min_partitions..=current)
            .filter(|p| current.is_multiple_of(*p))
            .collect();
        if current * 2 <= active_next {
            candidates.push(current * 2);
        }
        let now = price(current);
        let best = candidates
            .into_iter()
            .map(|p| (p, price(p)))
            .min_by(|a, b| a.1.total_cmp(&b.1))?;
        if best.0 == current || best.1 >= now * REPLAN_MARGIN {
            return None;
        }
        let (p, cost) = best;
        let verb = if p < current { "coalesce" } else { "split" };
        Some(AqeDecision {
            action: AqeAction::Repartition(p),
            label: format!("{verb}:{current}->{p}"),
            reason: format!(
                "modeled {} iteration(s) {:.3}s at {p} parts vs {:.3}s at {current} ({active_next} active blocks)",
                g - k,
                cost,
                now
            ),
        })
    }

    /// Price IM vs CB for iteration `k` at `partitions` and switch if
    /// the other strategy wins by [`STRATEGY_MARGIN`].
    fn switch_strategy<S: DpProblem>(
        &self,
        plan: &Plan<S>,
        k: usize,
        partitions: usize,
        bytes: u64,
        updates: f64,
    ) -> Option<AqeDecision> {
        let (g, b, from) = (plan.grid, plan.block, plan.strategy);
        // Each strategy's volume: measured for the one running (scaled
        // by the caller), reconstructed from the filters for the other.
        let price = |s: Strategy| {
            let volume = if s == from {
                bytes
            } else {
                self.estimate::<S>(s, k, g, b)
            };
            self.iter_seconds(plan, s, k, partitions, volume, updates)
        };
        let to = STRATEGIES.into_iter().find(|&s| s != from)?;
        let (ours, theirs) = (price(from), price(to));
        if theirs >= ours * STRATEGY_MARGIN {
            return None;
        }
        let name = |s: Strategy| s.tag().to_lowercase();
        Some(AqeDecision {
            action: AqeAction::SwitchStrategy(to),
            label: format!("strategy:{}->{}", name(from), name(to)),
            reason: format!("modeled iter {theirs:.3}s vs {ours:.3}s staying"),
        })
    }

    /// Re-pick `r_shared` for the recursive kernel from the compute
    /// model at the next iteration's update volume. The iterative
    /// kernel has no fan-out knob, so it is left alone.
    fn retune<S: DpProblem>(
        &self,
        plan: &Plan<S>,
        updates: f64,
        partitions: usize,
    ) -> Option<AqeDecision> {
        let (kernel, b) = (plan.kernel, plan.block);
        if kernel.backend != Backend::Recursive {
            return None;
        }
        let r_shared = kernel.params.r_shared;
        let per_task = updates / partitions.max(1) as f64;
        let at = |r: usize| KernelParams {
            r_shared: r,
            ..kernel.params
        };
        let price = |r: usize| {
            self.model.core_seconds(&KernelInvocation {
                updates: per_task,
                block_side: b,
                elem_bytes: self.elem_bytes,
                kernel: KernelSpec {
                    params: at(r),
                    ..kernel
                }
                .kernel_type(),
            })
        };
        let now = price(r_shared);
        let best = [2usize, 4, 8]
            .into_iter()
            .filter(|&r| r != r_shared && r <= b)
            .map(|r| (r, price(r)))
            .min_by(|a, b| a.1.total_cmp(&b.1))?;
        if best.1 >= now * REPLAN_MARGIN {
            return None;
        }
        Some(AqeDecision {
            action: AqeAction::Retune(at(best.0)),
            label: format!("kernel:r{}->r{}", r_shared, best.0),
            reason: format!(
                "modeled task compute {:.4}s vs {:.4}s at r={}",
                best.1, now, r_shared
            ),
        })
    }

    /// Re-tier `MemoryOnly` to `MemoryAndDisk` once pressure shows up
    /// in the counters. One-way: never flaps back.
    fn retier(&mut self, did: &RunSummary, level: StorageLevel) -> Option<AqeDecision> {
        if self.retiered
            || level != StorageLevel::MemoryOnly
            || (did.spilled_bytes == 0 && did.evicted_bytes == 0)
        {
            return None;
        }
        self.retiered = true;
        Some(AqeDecision {
            action: AqeAction::Retier(StorageLevel::MemoryAndDisk),
            label: "storage:memory->memory+disk".into(),
            reason: format!(
                "pressure observed: {} spilled, {} evicted bytes",
                did.spilled_bytes, did.evicted_bytes
            ),
        })
    }
}

/// The block keys phase `k` touches, in row-major order (none once
/// `k` is past the last phase).
fn active_keys<S: DpProblem>(k: usize, g: usize, b: usize) -> Vec<(usize, usize)> {
    grid_keys(g)
        .filter(|&key| k < g && filters::touched::<S>(key, k, b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DpConfig;
    use gep_kernels::{GaussianElim, Tropical};

    #[test]
    fn active_set_shrinks_for_ge_not_fw() {
        let b = 8;
        let active = |k| active_keys::<GaussianElim>(k, 8, b).len();
        assert!(active(6) < active(0), "GE active set must shrink");
        assert_eq!(active_keys::<Tropical>(0, 8, b).len(), 64);
        assert_eq!(active_keys::<Tropical>(6, 8, b).len(), 64, "FW touches all");
        assert_eq!(active(8), 0, "past the end");
    }

    #[test]
    fn repartition_prefers_divisors_and_respects_floor() {
        let sc = SparkContext::new(
            sparklet::SparkConf::default()
                .with_executors(4)
                .with_executor_cores(2)
                .with_sim_seed(7),
        );
        let planner = AqePlanner::new(&sc, 8);
        // A tiny volume for the last phase at a huge partition count:
        // overhead dominates, so the planner must coalesce — and only
        // to a divisor at or above the 4-executor floor.
        let plan = Plan::<Tropical>::new(&sc, &DpConfig::new(64, 8).with_partitions(96))
            .expect("the default config resolves");
        let d = planner
            .repartition(&plan, 7, 1 << 12, 1e4)
            .expect("overhead-dominated stage must coalesce");
        let AqeAction::Repartition(p) = d.action else {
            panic!("expected repartition, got {d:?}");
        };
        assert!(96 % p == 0 && p >= 4, "non-divisor or below floor: {p}");
        assert!(d.label.starts_with("coalesce:96->"), "{}", d.label);
    }

    /// The synthetic iteration of each strategy must price what the
    /// recorded one costs, at every phase and partition count, or the
    /// planner's choices rest on a different run than the one it
    /// steers. GE's tail is where one wave's straggler decides an
    /// iteration; CB's driver records and kernel-free stages are a
    /// fixed cost per record, so each must be priced.
    #[test]
    fn synthetic_iterations_track_the_recorded_ones() {
        use crate::solver::solve_virtual;
        for (strategy, partitions) in STRATEGIES
            .into_iter()
            .flat_map(|s| [8, 16, 32].map(|p| (s, p)))
        {
            let sc = SparkContext::new(
                sparklet::SparkConf::default()
                    .with_executors(4)
                    .with_executor_cores(2)
                    .with_partitions(partitions),
            );
            let cfg = DpConfig::new(4096, 512)
                .with_partitions(partitions)
                .with_strategy(strategy);
            let plan = Plan::<GaussianElim>::new(&sc, &cfg).expect("the config resolves");
            let planner = AqePlanner::new(&sc, 8);
            solve_virtual::<GaussianElim>(&sc, &cfg).expect("virtual run");
            let stages = sc.with_event_log(|log| log.stages().to_vec());
            for (k, iteration) in stages
                .chunks(strategy.records().len())
                .take(plan.grid)
                .enumerate()
            {
                let recorded: f64 = iteration
                    .iter()
                    .map(|s| planner.model.stage_seconds(&s.record))
                    .sum();
                let did = RunSummary::of(iteration);
                let modeled = planner.iter_seconds(
                    &plan,
                    strategy,
                    k,
                    partitions,
                    strategy.moved(&did),
                    did.kernel_updates,
                );
                assert!(
                    (modeled / recorded - 1.0).abs() < 0.05,
                    "{strategy:?} iteration {k} at {partitions} partitions: modeled {modeled:.3}s, recorded {recorded:.3}s"
                );
            }
        }
    }

    #[test]
    fn strategy_switches_either_way_when_the_other_moves_far_less() {
        let sc = SparkContext::new(sparklet::SparkConf::default().with_executors(4));
        let planner = AqePlanner::new(&sc, 8);
        for (from, to) in [
            (Strategy::InMemory, Strategy::CollectBroadcast),
            (Strategy::CollectBroadcast, Strategy::InMemory),
        ] {
            let cfg = DpConfig::new(4096, 512).with_strategy(from);
            let plan = Plan::<GaussianElim>::new(&sc, &cfg).expect("the config resolves");
            // The running strategy measured a terabyte; the other one's
            // volume comes from the filters.
            let d = planner
                .switch_strategy(&plan, 1, 16, 1 << 40, 1e10)
                .expect("a terabyte must lose to the filters' volume");
            assert_eq!(d.action, AqeAction::SwitchStrategy(to));
        }
    }

    #[test]
    fn retier_fires_once_and_only_under_pressure() {
        let sc = SparkContext::new(sparklet::SparkConf::default().with_sim_seed(3));
        let mut planner = AqePlanner::new(&sc, 8);
        let clean = RunSummary::default();
        assert!(planner.retier(&clean, StorageLevel::MemoryOnly).is_none());
        let pressured = RunSummary {
            spilled_bytes: 1 << 20,
            ..Default::default()
        };
        let d = planner
            .retier(&pressured, StorageLevel::MemoryOnly)
            .expect("spill must re-tier");
        assert_eq!(d.action, AqeAction::Retier(StorageLevel::MemoryAndDisk));
        assert!(
            planner
                .retier(&pressured, StorageLevel::MemoryOnly)
                .is_none(),
            "one-way: must not fire twice"
        );
    }
}
