//! Stage execution: task placement, waves, lineage retry with
//! exponential backoff, chaos verdicts, and event-log recording.
//!
//! `run_stage` is the per-stage engine: one bookkeeping value
//! (`StageRun`) makes every per-attempt decision — placement, fault
//! verdict, what a completion means, the stage record — and one of two
//! thin dispatchers drives it: executor pools plus a completion
//! channel, or (under a sim seed) a seeded pick on the driver thread
//! with a virtual clock.
//!
//! It does not own stage ordering. The driver-side DAG stage loop
//! ([`crate::dag`]) extracts the stage graph and assigns stage ordinals
//! at launch. A job runs one `run_stage` call at a time, but concurrent
//! jobs on one context keep several in flight on different driver
//! threads at once — so the engine counters a stage
//! record closes with are taken from their owners under the log lock
//! (`SparkContext::tally`), and a fault verdict is a
//! function of the attempt's `(stage, partition, attempt)` coordinate
//! ([`crate::ChaosPolicy`]), not of the order stages ask in.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cluster_model::{StageRecord, TaskRecord};
use par_pool::{Clock, Condvar, Mutex, VirtualClock};

use crate::context::{SimState, SparkContext, TaskContext};
use crate::error::JobError;
use crate::sim::ChaosEvent;

/// The completion queue a stage's driver loop waits on: many producers
/// (pool workers) and one consumer, which holds the queue for as long
/// as it waits — so there is no disconnected state.
/// A lock and a condvar — the structure every committed number was
/// measured on — rather than `std::sync::mpsc`, on which
/// `ge_cb_overhead` measured 5–8 % slower (EXPERIMENTS.md).
pub(crate) struct Mailbox<T> {
    queue: Mutex<VecDeque<T>>,
    ready: Condvar,
}

impl<T> Mailbox<T> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Mailbox {
            queue: Mutex::default(),
            ready: Condvar::new(),
        })
    }

    pub(crate) fn send(&self, msg: T) {
        self.queue.lock().push_back(msg);
        self.ready.notify_all();
    }

    /// The oldest message, waiting for one until `deadline` (`None`:
    /// for as long as it takes).
    pub(crate) fn recv(&self, deadline: Option<Instant>) -> Option<T> {
        let mut queue = self.queue.lock();
        loop {
            if let Some(msg) = queue.pop_front() {
                return Some(msg);
            }
            queue = match deadline {
                None => self.ready.wait(queue),
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    self.ready.wait_for(queue, left)
                }
            };
        }
    }
}

/// The closure a stage runs per task.
pub(crate) type TaskFn<R> = Arc<dyn Fn(usize, &TaskContext) -> Result<R, JobError> + Send + Sync>;

/// Identity and graph position of a stage, assigned by the DAG event
/// loop (or an action submitter) *before* the stage runs.
#[derive(Debug, Clone, Default)]
pub(crate) struct StageMeta {
    /// Driver-wide stage ordinal (also the chaos-script key).
    pub stage_id: u64,
    /// Direct parent shuffle ids from the stage graph.
    pub parent_shuffles: Vec<u64>,
    /// Stages in flight (including this one) at launch time.
    pub concurrent: u64,
}

/// Launches per partition before the job fails (lineage retry budget).
const MAX_TASK_ATTEMPTS: u64 = 4;

/// Is this error worth re-running the task for? Staging/memory/disk
/// overflows are deterministic — retrying cannot help. A fetch failure
/// is not *task*-retryable either: the map outputs it needs are gone,
/// so re-running the reduce task hits the same hole. It propagates to
/// the job level, which resubmits the producing map stage (Spark's
/// `FetchFailed` path).
fn retryable(err: &JobError) -> bool {
    !matches!(
        err,
        JobError::StagingOverflow { .. }
            | JobError::MemoryOverflow { .. }
            | JobError::DiskOverflow { .. }
            | JobError::FetchFailed { .. }
            | JobError::Cancelled(_)
    )
}

/// Execute one task attempt inline: a [`TaskContext`] with any chaos
/// verdict armed on it, straggler delay charged to `clock`,
/// panics caught, and chaos panics failing the attempt *after* its
/// side effects (shuffle writes, cache puts) have landed so retries
/// exercise real re-staging reconciliation. Shared by the threaded
/// executor path (inside the spawned closure) and the deterministic
/// scheduler (on the driver thread).
fn run_task_attempt<R>(
    label: &str,
    p: usize,
    attempt: u64,
    node: usize,
    work: &TaskFn<R>,
    chaos: Option<ChaosEvent>,
    clock: &Arc<dyn Clock>,
) -> (Result<R, JobError>, TaskRecord) {
    let tc = TaskContext::for_attempt(node, attempt).with_chaos(chaos.as_ref());
    if let Some(ChaosEvent::Straggler { delay_ms }) = chaos {
        clock.sleep_ms(delay_ms);
    }
    let outcome = match catch_unwind(AssertUnwindSafe(|| work(p, &tc))) {
        Ok(r) => r,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "task panicked".into());
            Err(JobError::TaskFailed {
                stage: label.to_string(),
                partition: p,
                attempts: attempt as usize,
                message: msg,
            })
        }
    };
    let outcome = match (chaos, outcome) {
        (Some(ChaosEvent::TaskPanic), Ok(_)) => Err(JobError::TaskFailed {
            stage: label.to_string(),
            partition: p,
            attempts: attempt as usize,
            message: format!("chaos panic (partition {p})"),
        }),
        (_, other) => other,
    };
    (outcome, tc.into_record())
}

/// Driver-side bookkeeping of one running stage: every decision about
/// an attempt — where it runs, whether a fault hits it, what its
/// completion means, what the stage's record says — is a method here,
/// made once. The two dispatchers ([`SparkContext::drive_pools`],
/// [`SparkContext::drive_seeded`]) only decide *when* a parked launch
/// happens and how its attempt is executed and awaited.
///
/// A partition launches only from `parked`, and is parked only before
/// its first attempt or after an attempt has *reported* a failure. So
/// at most one attempt per partition is in flight, every completion is
/// the partition's only live attempt, and a committed partition is
/// never launched again.
struct StageRun<'a, R> {
    ctx: &'a SparkContext,
    label: &'a str,
    meta: StageMeta,
    /// `meta.parent_shuffles` resolved to the stages that ran them.
    parent_stage_ids: Vec<u64>,
    /// Per partition: launches so far (= highest attempt number; every
    /// launch after the first is a retry).
    attempts: Vec<u64>,
    /// Launches waiting for their time, `(due, partition)` in clock
    /// milliseconds: every first attempt (due at 0) and every retry
    /// backing off. A parked partition has no attempt in flight, so no
    /// task message can arrive for it until it launches. Order matters
    /// to the seeded dispatcher, which draws an index into it.
    parked: Vec<(u64, usize)>,
    /// Committed attempts' records, in commit order, and results.
    records: Vec<TaskRecord>,
    results: Vec<Option<R>>,
}

impl<'a, R> StageRun<'a, R> {
    fn new(ctx: &'a SparkContext, label: &'a str, meta: StageMeta, ntasks: usize) -> Self {
        let parent_stage_ids = meta
            .parent_shuffles
            .iter()
            .filter_map(|&sid| ctx.inner.registry.stage_of(sid))
            .filter(|&s| s != meta.stage_id)
            .collect();
        StageRun {
            ctx,
            label,
            meta,
            parent_stage_ids,
            attempts: vec![0; ntasks],
            parked: (0..ntasks).map(|p| (0, p)).collect(),
            records: Vec::with_capacity(ntasks),
            results: (0..ntasks).map(|_| None).collect(),
        }
    }

    fn is_complete(&self) -> bool {
        self.records.len() == self.results.len()
    }

    /// Earliest parked deadline: how long a dispatcher may wait (or how
    /// far virtual time may jump) before a launch is due.
    fn next_deadline(&self) -> Option<u64> {
        self.parked.iter().map(|&(due, _)| due).min()
    }

    /// Unpark every partition due by `now`, earliest deadline first. A
    /// clock jump (virtual time, or a long completion burst) can pass
    /// several deadlines at once.
    fn take_due(&mut self, now: u64) -> Vec<usize> {
        let mut due: Vec<(u64, usize)> = Vec::new();
        self.parked.retain(|&slot| {
            let is_due = slot.0 <= now;
            if is_due {
                due.push(slot);
            }
            !is_due
        });
        due.sort_unstable();
        due.into_iter().map(|(_, p)| p).collect()
    }

    /// Count a launch of partition `p` and return its fresh attempt
    /// number.
    fn launch(&mut self, p: usize) -> u64 {
        self.attempts[p] += 1;
        self.attempts[p]
    }

    /// Where attempt `attempt` of partition `p` runs: its preferred
    /// node (cached partitions) or round-robin, with re-executions
    /// moving to the next node (the failed or slow one may be "bad"),
    /// matching Spark's blacklist-lite behaviour.
    fn place(&self, p: usize, attempt: u64, preferred: Option<usize>) -> usize {
        let nodes = self.ctx.inner.executors.len();
        (preferred.unwrap_or(p % nodes) + (attempt - 1) as usize) % nodes
    }

    /// The fault verdict for one launch: which chaos event, if any, is
    /// armed on the attempt. An executor loss is a driver-visible
    /// event, not task code: the node's state is killed synchronously
    /// and the attempt is reported dead (`Err`) without running.
    fn verdict(&self, p: usize, attempt: u64, node: usize) -> Result<Option<ChaosEvent>, JobError> {
        let chaos = self.ctx.chaos_event(self.meta.stage_id, p, attempt);
        if matches!(chaos, Some(ChaosEvent::ExecutorLoss)) {
            self.ctx.kill_executor(node);
            return Err(JobError::TaskFailed {
                stage: self.label.to_string(),
                partition: p,
                attempts: attempt as usize,
                message: format!("executor {node} lost (chaos)"),
            });
        }
        Ok(chaos)
    }

    /// What a finished attempt — the partition's only one in flight —
    /// means. A success commits the partition: its result and record
    /// are kept. A failure parks the partition until its backoff
    /// deadline (a zero backoff is due at once), or — not retryable, or
    /// out of attempts — fails the stage (`Err`; the error already
    /// carries its stage label and attempt count, filled at
    /// construction).
    fn finished(
        &mut self,
        p: usize,
        outcome: Result<R, JobError>,
        record: TaskRecord,
    ) -> Result<(), JobError> {
        match outcome {
            Ok(r) => {
                debug_assert!(self.results[p].is_none(), "partition {p} committed twice");
                self.results[p] = Some(r);
                self.records.push(record);
                Ok(())
            }
            Err(err) => {
                let conf = &self.ctx.inner.conf;
                if !retryable(&err) || self.attempts[p] >= MAX_TASK_ATTEMPTS {
                    return Err(err);
                }
                let backoff = retry_backoff_ms(
                    conf.retry_backoff_ms,
                    conf.retry_backoff_max_ms,
                    self.attempts[p],
                );
                self.parked
                    .push((self.ctx.inner.clock.now_ms() + backoff, p));
                Ok(())
            }
        }
    }

    /// Close the stage: append its [`StageRecord`] — stage id,
    /// parent-stage edges and achieved concurrency from `meta`, every
    /// committed task's metrics, the retry counter and
    /// every engine count since the previous record closed (taken
    /// under the log lock, so each count lands in exactly one record
    /// however stage completions interleave) — timed under its label
    /// when the stage completed (`Ok(wall seconds)`), under
    /// `"<label> (failed)"` with what it had when an attempt failed it.
    fn close(self, wall: Result<f64, JobError>) -> Result<Vec<R>, JobError> {
        let mut record = StageRecord {
            stage_id: self.meta.stage_id,
            parent_stage_ids: self.parent_stage_ids,
            concurrent_stages: self.meta.concurrent,
            tasks: self.records,
            retries: self.attempts.iter().map(|a| a.saturating_sub(1)).sum(),
            ..Default::default()
        };
        let mut log = self.ctx.inner.log.lock();
        self.ctx.tally(&mut record, true);
        match wall {
            Ok(seconds) => {
                log.push_timed(self.label.to_string(), record, seconds);
                Ok(self
                    .results
                    .into_iter()
                    .map(|r| r.expect("task completed"))
                    .collect())
            }
            Err(err) => {
                log.push(format!("{} (failed)", self.label), record);
                Err(err)
            }
        }
    }
}

impl SparkContext {
    /// Run one stage of `ntasks` tasks and wait.
    ///
    /// `preferred(p)` pins a task to a node (cached partitions);
    /// otherwise placement is round-robin. Each launch gets a fresh
    /// attempt number, and a partition has at most one attempt in
    /// flight: a success commits it, a failure is retried. Retries
    /// back off exponentially
    /// ([`crate::SparkConf::retry_backoff_ms`]) via *deferred
    /// relaunch*: the partition is parked until its deadline while
    /// other completions keep draining, so one backing-off task never
    /// stalls the stage. All of that lives in [`StageRun`]; this picks
    /// the dispatcher — executor pools normally, the seeded
    /// single-threaded one in sim mode — and records the stage.
    pub(crate) fn run_stage<R: Send + 'static>(
        &self,
        label: &str,
        meta: StageMeta,
        ntasks: usize,
        preferred: impl Fn(usize) -> Option<usize>,
        work: TaskFn<R>,
    ) -> Result<Vec<R>, JobError> {
        let mut run = StageRun::new(self, label, meta, ntasks);
        let wall = match (&self.inner.sim, &self.inner.vclock) {
            (Some(sim), Some(vclock)) => {
                self.drive_seeded(&mut run, sim, vclock, &preferred, &work)
            }
            _ => self.drive_pools(&mut run, &preferred, &work),
        };
        run.close(wall)
    }

    /// Threaded dispatcher: attempts run on the executor pools and
    /// report over a channel; the loop waits for the next completion,
    /// but only until the nearest parked deadline. A slow attempt is
    /// waited for, never raced by a second one.
    ///
    /// When an attempt fails the stage, this returns at once and the
    /// stage's other attempts run on to completion unobserved: their
    /// reports land in a mailbox nobody reads. Their side effects
    /// (shuffle writes, cache puts) still land, so a fetch-failure
    /// resubmission of the same map stage can overlap them on one
    /// slot — the ledgers reconcile by attempt, as for any retry.
    fn drive_pools<R: Send + 'static>(
        &self,
        run: &mut StageRun<'_, R>,
        preferred: &dyn Fn(usize) -> Option<usize>,
        work: &TaskFn<R>,
    ) -> Result<f64, JobError> {
        let t0 = Instant::now();
        let clock = &self.inner.clock;
        let done = Mailbox::new();
        let spawn = |run: &StageRun<'_, R>, p: usize, attempt: u64| {
            let node = run.place(p, attempt, preferred(p));
            let chaos = match run.verdict(p, attempt, node) {
                Ok(armed) => armed,
                Err(lost) => {
                    done.send((p, Err(lost), TaskRecord::default()));
                    return;
                }
            };
            let work = Arc::clone(work);
            let done = Arc::clone(&done);
            let label = run.label.to_string();
            let clock = Arc::clone(clock);
            self.inner.executors[node].pool.spawn(move || {
                let (outcome, record) =
                    run_task_attempt(&label, p, attempt, node, &work, chaos, &clock);
                // Release the task's lineage references *before*
                // reporting: once the driver has seen every task of a
                // stage, no executor-side `Arc` clones may keep the
                // stage's RDDs — and their Drop-based shuffle GC —
                // alive past the user's last handle.
                drop(work);
                done.send((p, outcome, record));
            });
        };
        while !run.is_complete() {
            for p in run.take_due(clock.now_ms()) {
                let attempt = run.launch(p);
                spawn(run, p, attempt);
            }
            let deadline = run.next_deadline().map(|due| {
                Instant::now() + Duration::from_millis(due.saturating_sub(clock.now_ms()))
            });
            let Some((p, outcome, record)) = done.recv(deadline) else {
                continue;
            };
            run.finished(p, outcome, record)?;
        }
        Ok(t0.elapsed().as_secs_f64())
    }

    /// Deterministic dispatcher: attempts run one at a time on the
    /// driver thread, the seeded context RNG picks which due launch
    /// goes next, deadlines live in *virtual* milliseconds (the clock
    /// jumps forward when nothing is due instead of sleeping), and each
    /// attempt's footprint is charged to the virtual clock through the
    /// tick charger — so a single `u64` seed fully determines the task
    /// schedule and faults replay exactly. Because the threaded
    /// dispatcher keeps at most one attempt per partition in flight,
    /// every order in which it can see attempts finish is one this
    /// sequential schedule reaches under some seed.
    fn drive_seeded<R>(
        &self,
        run: &mut StageRun<'_, R>,
        sim: &SimState,
        vclock: &VirtualClock,
        preferred: &dyn Fn(usize) -> Option<usize>,
        work: &TaskFn<R>,
    ) -> Result<f64, JobError> {
        let clock = &self.inner.clock;
        let t0_ms = clock.now_ms();
        while !run.is_complete() {
            let now = clock.now_ms();
            let due: Vec<usize> = (0..run.parked.len())
                .filter(|&i| run.parked[i].0 <= now)
                .collect();
            if due.is_empty() {
                // Every parked launch is backing off: jump virtual
                // time to the earliest deadline (this is where real
                // schedulers sleep).
                let deadline = run.next_deadline().unwrap_or_else(|| {
                    panic!(
                        "sim scheduler quiesced with {} of {} tasks incomplete \
                         (stage {}, CHAOS_SEED={:?})",
                        run.results.len() - run.records.len(),
                        run.results.len(),
                        run.meta.stage_id,
                        self.inner.conf.sim_seed
                    )
                });
                vclock.advance_to(deadline);
                continue;
            }
            let (_, p) = run.parked.swap_remove(due[self.sim_draw(due.len())]);
            let attempt = run.launch(p);
            let node = run.place(p, attempt, preferred(p));
            let (outcome, record) = match run.verdict(p, attempt, node) {
                Ok(chaos) => run_task_attempt(run.label, p, attempt, node, work, chaos, clock),
                Err(lost) => (Err(lost), TaskRecord::default()),
            };
            // Charge the attempt's recorded footprint to virtual time:
            // later deadlines (and chaos draws) see a clock that moved
            // like a real run's would.
            vclock.advance_ms(sim.charger.task_ticks(&record));
            run.finished(p, outcome, record)?;
        }
        Ok((clock.now_ms() - t0_ms) as f64 / 1000.0)
    }

    /// Add collect bytes to the record of stage `stage_id` (an action's
    /// result shipping to the driver), preserving its wall time. Keyed
    /// by stage id because with concurrent stages "the most recent
    /// record" may belong to another job.
    pub(crate) fn annotate_stage(&self, stage_id: u64, collect_bytes: u64, broadcast_bytes: u64) {
        let mut log = self.inner.log.lock();
        if let Some(ev) = log.stage_mut_by_id(stage_id) {
            ev.record.collect_bytes += collect_bytes;
            ev.record.broadcast_bytes += broadcast_bytes;
        }
    }
}

/// Exponential backoff before relaunching attempt `attempt + 1`:
/// `base × 2^(attempt-1)`, capped at `max`.
fn retry_backoff_ms(base: u64, max: u64, attempt: u64) -> u64 {
    if base == 0 {
        return 0;
    }
    let shift = (attempt.saturating_sub(1)).min(16) as u32;
    base.saturating_mul(1u64 << shift).min(max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(retry_backoff_ms(0, 1000, 1), 0);
        assert_eq!(retry_backoff_ms(10, 1000, 1), 10);
        assert_eq!(retry_backoff_ms(10, 1000, 2), 20);
        assert_eq!(retry_backoff_ms(10, 1000, 3), 40);
        assert_eq!(retry_backoff_ms(10, 25, 3), 25);
        assert_eq!(retry_backoff_ms(u64::MAX / 2, u64::MAX, 64), u64::MAX);
    }

    #[test]
    fn mailbox_is_fifo_wakes_its_waiter_and_times_out_empty() {
        let done = Mailbox::new();
        done.send(1);
        done.send(2);
        assert_eq!(done.recv(None), Some(1));
        assert_eq!(
            done.recv(Some(Instant::now())),
            Some(2),
            "queued beats expired"
        );
        let t0 = Instant::now();
        assert_eq!(done.recv(Some(t0 + Duration::from_millis(20))), None);
        assert!(t0.elapsed() >= Duration::from_millis(20));

        // The consumer is parked in `recv` (or about to be) when the
        // producer's message lands; either way it gets it.
        let producer = Arc::clone(&done);
        let sender = std::thread::spawn(move || producer.send(3));
        assert_eq!(done.recv(None), Some(3));
        sender.join().expect("no panic");
    }
}
