//! Execution event log — the bridge between real `sparklet` runs and
//! the `cluster-model` cost model — and the one fold over it:
//! [`RunSummary::of`] totals any slice of stage events in a single
//! pass. Reports, the sim harness's counter fingerprints and the
//! adaptive planner's per-iteration evidence are all that fold, over
//! the whole log or a suffix of it.

use cluster_model::StageRecord;

/// One completed stage with a human-readable label.
#[derive(Debug, Clone, Default)]
pub struct StageEvent {
    /// Stage label (engine-assigned).
    pub label: String,
    /// The stage's recorded tasks and traffic.
    pub record: StageRecord,
    /// Real wall-clock seconds the stage took on the host (for
    /// comparing against the simulated cluster seconds).
    pub wall_seconds: f64,
}

/// One adaptive re-plan decision, recorded when a driver running under
/// [`crate::SparkConf::with_adaptive_execution`] changes the remaining
/// plan from live stage metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveDecision {
    /// Stage ordinal the decision was taken at: every stage with an id
    /// `>= at_stage` ran under the new plan.
    pub at_stage: u64,
    /// Driver-level step (e.g. DP iteration) the decision follows.
    pub iteration: u64,
    /// What changed, machine-readable (e.g. `coalesce:64->16`).
    pub action: String,
    /// Why, human-readable (the cost-model comparison that drove it).
    pub reason: String,
}

/// What a run (any slice of the stage log) did, totalled. It covers
/// every cumulative engine counter: each one is taken into the next
/// stage record to close, and [`crate::SparkContext::summary`] adds
/// what no record has taken yet, so this is the one place to read
/// them. Every field is replay-deterministic: two runs of one
/// `with_sim_seed` seed compare `==`, which is what the replay suites
/// assert. Host wall time is therefore not a field
/// ([`EventLog::total_wall_seconds`]), and neither are the measured
/// `*_wire_bytes` of the task records, which differ across codecs and
/// transports while everything here must not.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSummary {
    /// Stages executed.
    pub stages: usize,
    /// Tasks executed.
    pub tasks: usize,
    /// Shuffle bytes fetched across node boundaries.
    pub remote_bytes: u64,
    /// Shuffle bytes fetched from the task's own node.
    pub local_bytes: u64,
    /// Map-output bytes staged to local storage.
    pub staged_bytes: u64,
    /// Kernel cell updates recorded by the tasks (whole numbers, so
    /// the sum does not depend on stage order).
    pub kernel_updates: f64,
    /// Bytes collected to the driver (CB pattern).
    pub collect_bytes: u64,
    /// Broadcast bytes read back by executors (CB pattern).
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
    /// Staged bytes written off with dead executors (destroyed, not
    /// released).
    pub staged_lost_bytes: u64,
    /// Whole-job resubmissions taken after fetch failures.
    pub stage_resubmissions: u64,
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
    /// Cache puts dropped by attempt fencing (zombie checkpoint
    /// tasks).
    pub fenced_cache_puts: u64,
    /// Highest number of stages in flight on the context at any stage
    /// launch (each record carries the context's in-flight gauge at its
    /// launch instant). A job runs its stages one at a time, so a job
    /// alone reads 1; above 1 means concurrent jobs on one context.
    pub max_concurrent_stages: u64,
    /// Adaptive re-plan decisions in the order taken. Decisions live
    /// beside the stages, not in them, so [`RunSummary::of`] leaves
    /// this empty and [`EventLog::summary`] fills it.
    pub adaptive_decisions: Vec<AdaptiveDecision>,
}

impl RunSummary {
    /// Total `stages` in one pass. Additive over concatenation (max
    /// for `max_concurrent_stages`), so the summary of a log suffix is
    /// the summary of exactly the stages that suffix holds — what the
    /// adaptive planner's per-iteration watermark relies on.
    pub fn of(stages: &[StageEvent]) -> Self {
        let mut s = RunSummary {
            stages: stages.len(),
            ..Default::default()
        };
        for event in stages {
            s.add(&event.record);
        }
        s
    }

    /// Add one record's tasks and counters. The caller counts stages:
    /// a record of counts no stage has taken yet is not one.
    pub(crate) fn add(&mut self, r: &StageRecord) {
        self.tasks += r.tasks.len();
        for t in &r.tasks {
            self.remote_bytes += t.remote_read_bytes;
            self.local_bytes += t.local_read_bytes;
            self.staged_bytes += t.shuffle_write_bytes;
            self.kernel_updates += t.kernels.iter().map(|inv| inv.updates).sum::<f64>();
        }
        self.collect_bytes += r.collect_bytes;
        self.broadcast_bytes += r.broadcast_bytes;
        self.retries += r.retries;
        self.speculative_launches += r.speculative_launches;
        self.zombie_writes_fenced += r.zombie_writes_fenced;
        self.staged_released_bytes += r.staged_released_bytes;
        self.staged_lost_bytes += r.staged_lost_bytes;
        self.stage_resubmissions += r.stage_resubmissions;
        self.cache_hits += r.cache_hits;
        self.cache_misses += r.cache_misses;
        self.spilled_bytes += r.spilled_bytes;
        self.evicted_bytes += r.evicted_bytes;
        self.recomputes += r.recomputes;
        self.fenced_cache_puts += r.fenced_cache_puts;
        self.max_concurrent_stages = self.max_concurrent_stages.max(r.concurrent_stages);
    }
}

/// Ordered log of every stage a context has executed.
#[derive(Debug, Default)]
pub struct EventLog {
    stages: Vec<StageEvent>,
    decisions: Vec<AdaptiveDecision>,
}

impl EventLog {
    /// Append a completed stage.
    pub fn push(&mut self, label: String, record: StageRecord) {
        self.push_timed(label, record, 0.0);
    }

    /// Append a completed stage with its measured host wall time.
    pub fn push_timed(&mut self, label: String, record: StageRecord, wall_seconds: f64) {
        self.stages.push(StageEvent {
            label,
            record,
            wall_seconds,
        });
    }

    /// Total host wall seconds across stages. Kept apart from
    /// [`RunSummary`]: wall time differs between replays of one seed.
    pub fn total_wall_seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.wall_seconds).sum()
    }

    /// All stages in execution order.
    pub fn stages(&self) -> &[StageEvent] {
        &self.stages
    }

    /// [`RunSummary::of`] every stage logged so far, plus the adaptive
    /// decisions taken.
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            adaptive_decisions: self.decisions.clone(),
            ..RunSummary::of(&self.stages)
        }
    }

    /// Mutable view of the stage with the given stage id. Searches
    /// from the back: with concurrent jobs, the most recent record
    /// need not be the caller's, and ids are assigned monotonically so
    /// a match near the tail is the right one.
    pub fn stage_mut_by_id(&mut self, stage_id: u64) -> Option<&mut StageEvent> {
        self.stages
            .iter_mut()
            .rev()
            .find(|s| s.record.stage_id == stage_id)
    }

    /// Schedule fingerprint: `(stage_id, label)` in completion order.
    /// Two runs with the same sim seed must produce identical
    /// fingerprints — this is what the simulation harness compares to
    /// assert a seed fully determines the schedule.
    pub fn stage_order(&self) -> Vec<(u64, String)> {
        self.stages
            .iter()
            .map(|s| (s.record.stage_id, s.label.clone()))
            .collect()
    }

    /// Plain records for the cost model.
    pub fn records(&self) -> Vec<StageRecord> {
        self.stages.iter().map(|s| s.record.clone()).collect()
    }

    /// Record an adaptive re-plan decision.
    pub fn push_decision(&mut self, decision: AdaptiveDecision) {
        self.decisions.push(decision);
    }

    /// All adaptive re-plan decisions, in the order they were taken.
    pub fn decisions(&self) -> &[AdaptiveDecision] {
        &self.decisions
    }

    /// Drain everything (e.g. between benchmark configurations).
    pub fn take(&mut self) -> Vec<StageEvent> {
        self.decisions.clear();
        std::mem::take(&mut self.stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_model::TaskRecord;

    /// Field-wise sum (max for the concurrency gauge) of two
    /// decision-free summaries — what `of(a ++ b)` must equal.
    fn plus(a: &RunSummary, b: &RunSummary) -> RunSummary {
        RunSummary {
            stages: a.stages + b.stages,
            tasks: a.tasks + b.tasks,
            remote_bytes: a.remote_bytes + b.remote_bytes,
            local_bytes: a.local_bytes + b.local_bytes,
            staged_bytes: a.staged_bytes + b.staged_bytes,
            kernel_updates: a.kernel_updates + b.kernel_updates,
            collect_bytes: a.collect_bytes + b.collect_bytes,
            broadcast_bytes: a.broadcast_bytes + b.broadcast_bytes,
            retries: a.retries + b.retries,
            speculative_launches: a.speculative_launches + b.speculative_launches,
            zombie_writes_fenced: a.zombie_writes_fenced + b.zombie_writes_fenced,
            staged_released_bytes: a.staged_released_bytes + b.staged_released_bytes,
            staged_lost_bytes: a.staged_lost_bytes + b.staged_lost_bytes,
            stage_resubmissions: a.stage_resubmissions + b.stage_resubmissions,
            cache_hits: a.cache_hits + b.cache_hits,
            cache_misses: a.cache_misses + b.cache_misses,
            spilled_bytes: a.spilled_bytes + b.spilled_bytes,
            evicted_bytes: a.evicted_bytes + b.evicted_bytes,
            recomputes: a.recomputes + b.recomputes,
            fenced_cache_puts: a.fenced_cache_puts + b.fenced_cache_puts,
            max_concurrent_stages: a.max_concurrent_stages.max(b.max_concurrent_stages),
            adaptive_decisions: Vec::new(),
        }
    }

    fn kernel(updates: f64) -> cluster_model::KernelInvocation {
        cluster_model::KernelInvocation {
            updates,
            block_side: 8,
            elem_bytes: 8,
            kernel: cluster_model::KernelType::Iterative,
        }
    }

    #[test]
    fn summary_of_a_concatenation_is_the_sum_of_the_summaries() {
        let mut log = EventLog::default();
        log.push(
            "s0".into(),
            StageRecord {
                tasks: vec![TaskRecord {
                    node: 0,
                    kernels: vec![kernel(512.0), kernel(64.0)],
                    remote_read_bytes: 10,
                    local_read_bytes: 5,
                    shuffle_write_bytes: 7,
                    ..Default::default()
                }],
                concurrent_stages: 2,
                collect_bytes: 100,
                broadcast_bytes: 50,
                retries: 2,
                staged_released_bytes: 30,
                staged_lost_bytes: 3,
                ..Default::default()
            },
        );
        log.push(
            "s1".into(),
            StageRecord {
                tasks: vec![TaskRecord {
                    node: 1,
                    remote_read_bytes: 1,
                    ..Default::default()
                }],
                concurrent_stages: 3,
                stage_resubmissions: 1,
                ..Default::default()
            },
        );
        log.push(
            "s2".into(),
            StageRecord {
                tasks: vec![
                    TaskRecord {
                        node: 0,
                        kernels: vec![kernel(8.0)],
                        local_read_bytes: 9,
                        ..Default::default()
                    },
                    TaskRecord::default(),
                ],
                concurrent_stages: 1,
                speculative_launches: 1,
                zombie_writes_fenced: 4,
                cache_hits: 6,
                cache_misses: 1,
                spilled_bytes: 11,
                evicted_bytes: 12,
                recomputes: 13,
                fenced_cache_puts: 2,
                ..Default::default()
            },
        );
        let first_two = RunSummary::of(&log.stages()[..2]);
        assert_eq!(first_two.stages, 2);
        assert_eq!(first_two.tasks, 2);
        assert_eq!(first_two.remote_bytes, 11);
        assert_eq!(first_two.local_bytes, 5);
        assert_eq!(first_two.staged_bytes, 7);
        assert_eq!(first_two.kernel_updates, 576.0);
        assert_eq!(first_two.collect_bytes, 100);
        assert_eq!(first_two.broadcast_bytes, 50);
        assert_eq!(first_two.retries, 2);
        assert_eq!(first_two.speculative_launches, 0);
        assert_eq!(first_two.staged_released_bytes, 30);
        assert_eq!(
            (first_two.staged_lost_bytes, first_two.stage_resubmissions),
            (3, 1)
        );
        assert_eq!(first_two.max_concurrent_stages, 3);

        let whole = log.summary();
        assert_eq!(whole, RunSummary::of(log.stages()), "no decisions logged");
        assert_eq!(RunSummary::of(&[]), RunSummary::default());
        for cut in 0..=log.stages().len() {
            let (a, b) = log.stages().split_at(cut);
            assert_eq!(
                plus(&RunSummary::of(a), &RunSummary::of(b)),
                whole,
                "cut at {cut}"
            );
        }
        assert_eq!(
            (whole.tasks, whole.local_bytes, whole.kernel_updates),
            (4, 14, 584.0)
        );
        assert_eq!(
            (whole.speculative_launches, whole.zombie_writes_fenced),
            (1, 4)
        );
        assert_eq!((whole.cache_hits, whole.cache_misses), (6, 1));
        assert_eq!(
            (whole.spilled_bytes, whole.evicted_bytes, whole.recomputes),
            (11, 12, 13)
        );
        assert_eq!(whole.fenced_cache_puts, 2);

        let taken = log.take();
        assert_eq!(taken.len(), 3);
        assert!(log.stages().is_empty());
    }

    #[test]
    fn decisions_are_ordered_and_drained_with_take() {
        let mut log = EventLog::default();
        log.push_decision(AdaptiveDecision {
            at_stage: 4,
            iteration: 1,
            action: "coalesce:64->16".into(),
            reason: "modeled 0.8s < 1.3s".into(),
        });
        log.push_decision(AdaptiveDecision {
            at_stage: 9,
            iteration: 2,
            action: "storage:memory->memory+disk".into(),
            reason: "spill observed".into(),
        });
        assert_eq!(log.decisions().len(), 2);
        assert_eq!(log.decisions()[0].at_stage, 4);
        assert!(log.decisions()[1].action.starts_with("storage:"));
        assert_eq!(log.summary().adaptive_decisions, log.decisions());
        log.take();
        assert!(log.decisions().is_empty(), "take() drains decisions too");
    }
}
