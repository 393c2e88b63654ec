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
use gep_kernels::gep::Kind;
use sparklet::{RunSummary, SparkContext, StorageLevel};

use crate::backend::KernelParams;
use crate::config::Strategy;
use crate::filters;
use crate::problem::DpProblem;
use crate::solver::Plan;

/// Stages one IM iteration runs: the A and B/C stages (each the map
/// side of a shuffle) and the D stage that materializes.
const IM_STAGES_PER_ITER: usize = 3;
/// Stages one CB iteration runs: the A and B/C collects, the driver's
/// collect/broadcast phase, and the D and A/B/C materializations.
const CB_STAGES_PER_ITER: usize = 5;
/// An iteration's kernel waves in dependency order. Each runs in a
/// stage of its own under both strategies.
const WAVES: [&[Kind]; 3] = [&[Kind::A], &[Kind::B, Kind::C], &[Kind::D]];
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
    /// (same backend, new params).
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
        let (panel, d_blocks) = phase_blocks::<S>(0, g, b);
        let bytes = match plan.strategy {
            Strategy::InMemory => self.im_shuffle_bytes::<S>(panel, d_blocks, b),
            Strategy::CollectBroadcast => self.cb_bytes(panel, b),
        };
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
        // What the iteration moved: IM's shuffles, or CB's driver phase.
        let moved = match plan.strategy {
            Strategy::InMemory => did.staged_bytes,
            Strategy::CollectBroadcast => did.broadcast_bytes,
        };
        let next_bytes = (moved as f64 * ratio) as u64;
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

    /// What one IM iteration shuffles, from block counts alone. The A
    /// stage ships the diagonal block and a copy of it per panel (and
    /// per D block when `f` reads `w`); the B/C stage ships the diagonal
    /// and the panels on, a copy per D block from each side, and any
    /// diagonal copies bound for D. The in-place blocks do not move.
    fn im_shuffle_bytes<S: DpProblem>(&self, panel: usize, d_blocks: usize, b: usize) -> u64 {
        let w_copies = if S::USES_W { d_blocks } else { 0 };
        ((2 * panel + 2 * d_blocks + 2 * w_copies) * b * b * self.elem_bytes) as u64
    }

    /// What one CB iteration collects to the driver and broadcasts
    /// back: the A block and its panels.
    fn cb_bytes(&self, panel: usize, b: usize) -> u64 {
        (panel * b * b * self.elem_bytes) as u64
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
    /// partitions. `bytes` is what IM shuffles, or what CB collects to
    /// the driver and broadcasts back; `updates` is the iteration's
    /// kernel work. The kernels run as the recorded iteration runs
    /// them: one synthetic stage per wave ([`WAVES`]), each over the
    /// partitioner's actual placement of that wave's blocks, so the
    /// waves' stragglers add up instead of hiding in one stage's total.
    /// IM's shuffle traffic rides the D wave.
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
        // Each wave's work per partition, at the partitioner's placement.
        let loads: Vec<Vec<f64>> = WAVES
            .iter()
            .map(|wave| {
                let mut loads = vec![0.0; p.max(1)];
                for key in grid_keys(g) {
                    match filters::kind_of::<S>(key, k, b) {
                        Some(kind) if wave.contains(&kind) => {
                            loads[plan.partitioner.partition(&key, p.max(1))] +=
                                S::updates_for(kind, b)
                        }
                        _ => {}
                    }
                }
                loads
            })
            .collect();
        // The measured work, split between the waves as the filters split it.
        let total: f64 = loads.iter().flatten().sum::<f64>().max(1.0);
        let waves: f64 = loads
            .iter()
            .zip(WAVES)
            .map(|(loads, wave)| {
                let shuffled = match strategy {
                    Strategy::InMemory if wave.contains(&Kind::D) => bytes,
                    _ => 0,
                };
                let work = updates * loads.iter().sum::<f64>() / total;
                price(&self.synth_stage(loads, shuffled, work, b, kt))
            })
            .sum();
        let extra = price(&self.synth_overhead(p));
        match strategy {
            Strategy::InMemory => waves + extra * (IM_STAGES_PER_ITER - WAVES.len()) as f64,
            Strategy::CollectBroadcast => {
                let driver = price(&StageRecord {
                    collect_bytes: bytes,
                    broadcast_bytes: bytes,
                    ..Default::default()
                });
                waves + driver + extra * (CB_STAGES_PER_ITER - WAVES.len() - 1) as f64
            }
        }
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
        let (g, b, strategy) = (plan.grid, plan.block, plan.strategy);
        // Each strategy's volume: measured for the one running (scaled
        // by the caller), reconstructed from the filters for the other.
        let (panel, d_blocks) = phase_blocks::<S>(k, g, b);
        let (im_volume, cb_volume) = match strategy {
            Strategy::InMemory => (bytes, self.cb_bytes(panel, b)),
            Strategy::CollectBroadcast => (self.im_shuffle_bytes::<S>(panel, d_blocks, b), bytes),
        };
        let price =
            |s: Strategy, volume: u64| self.iter_seconds(plan, s, k, partitions, volume, updates);
        let im = price(Strategy::InMemory, im_volume);
        let cb = price(Strategy::CollectBroadcast, cb_volume);
        let (to, ours, theirs) = match strategy {
            Strategy::InMemory => (Strategy::CollectBroadcast, im, cb),
            Strategy::CollectBroadcast => (Strategy::InMemory, cb, im),
        };
        if theirs >= ours * STRATEGY_MARGIN {
            return None;
        }
        let name = |s: Strategy| match s {
            Strategy::InMemory => "im",
            Strategy::CollectBroadcast => "cb",
        };
        Some(AqeDecision {
            action: AqeAction::SwitchStrategy(to),
            label: format!("strategy:{}->{}", name(strategy), name(to)),
            reason: format!("modeled iter {theirs:.3}s vs {ours:.3}s staying"),
        })
    }

    /// Re-pick `r_shared` for fan-out-parametric backends (the
    /// recursive family) from the compute model at the next
    /// iteration's update volume. Backends whose shape has no fan-out
    /// knob ([`crate::KernelBackend::fanout_parametric`] is `false`)
    /// are left alone.
    fn retune<S: DpProblem>(
        &self,
        plan: &Plan<S>,
        updates: f64,
        partitions: usize,
    ) -> Option<AqeDecision> {
        let (kernel, b) = (&plan.kernel, plan.block);
        if !kernel.fanout_parametric() {
            return None;
        }
        let r_shared = kernel.params().r_shared;
        let per_task = updates / partitions.max(1) as f64;
        let at = |r: usize| KernelParams {
            r_shared: r,
            ..kernel.params()
        };
        let price = |r: usize| {
            self.model.core_seconds(&KernelInvocation {
                updates: per_task,
                block_side: b,
                elem_bytes: self.elem_bytes,
                kernel: kernel.with_params(at(r)).kernel_type(),
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

/// Every block key of a `g×g` grid, in row-major order.
fn grid_keys(g: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..g).flat_map(move |i| (0..g).map(move |j| (i, j)))
}

/// The block keys phase `k` touches, in row-major order (none once
/// `k` is past the last phase).
fn active_keys<S: DpProblem>(k: usize, g: usize, b: usize) -> Vec<(usize, usize)> {
    grid_keys(g)
        .filter(|&key| k < g && filters::touched::<S>(key, k, b))
        .collect()
}

/// Phase `k`'s `(panel, d)` block counts: the A block with its B and C
/// panels, and the trailing D blocks.
fn phase_blocks<S: DpProblem>(k: usize, g: usize, b: usize) -> (usize, usize) {
    let count = |f: fn((usize, usize), usize, usize) -> bool| {
        grid_keys(g).filter(|&key| f(key, k, b)).count()
    };
    let panel = 1 + count(filters::filter_b::<S>) + count(filters::filter_c::<S>);
    (panel, count(filters::filter_d::<S>))
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

    /// The synthetic IM iteration must price what the recorded one
    /// costs, at every phase and partition count, or the planner's
    /// choices rest on a different run than the one it steers. GE's
    /// tail is where one wave's straggler decides an iteration.
    #[test]
    fn synthetic_im_iterations_track_the_recorded_ones() {
        use crate::solver::solve_virtual;
        for partitions in [8, 16, 32] {
            let sc = SparkContext::new(
                sparklet::SparkConf::default()
                    .with_executors(4)
                    .with_executor_cores(2)
                    .with_partitions(partitions),
            );
            let cfg = DpConfig::new(4096, 512).with_partitions(partitions);
            let plan = Plan::<GaussianElim>::new(&sc, &cfg).expect("the config resolves");
            let planner = AqePlanner::new(&sc, 8);
            solve_virtual::<GaussianElim>(&sc, &cfg).expect("virtual run");
            let stages = sc.with_event_log(|log| log.stages().to_vec());
            for (k, iteration) in stages
                .chunks(IM_STAGES_PER_ITER)
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
                    Strategy::InMemory,
                    k,
                    partitions,
                    did.staged_bytes,
                    did.kernel_updates,
                );
                assert!(
                    (modeled / recorded - 1.0).abs() < 0.05,
                    "iteration {k} at {partitions} partitions: modeled {modeled:.3}s, recorded {recorded:.3}s"
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
