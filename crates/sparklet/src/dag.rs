//! The driver-side DAG scheduler.
//!
//! Actions do not materialize upstream shuffles through a recursive
//! serial walk. The driver runs a *plan pass* that extracts a stage
//! graph from the lineage — narrow chains stay fused into their
//! consuming stage; every shuffle boundary becomes a stage node with
//! explicit parent edges — and then one *stage loop*
//! (`materialize_stage_graph`) that runs the graph's ready stages one
//! at a time on the thread that called the action, each on the shared
//! executor pools. The plan (`StagePlan`) owns the progress
//! bookkeeping: pending-parent counts, the ready set and its order.
//! Under `with_sim_seed` the seeded context RNG picks which ready stage
//! goes next; otherwise the oldest goes first.
//!
//! Stages of *different* jobs do overlap: the job service, or any
//! caller, may run actions on one context from several threads.
//! Exactly-once dedup across them is latched per shuffle id
//! (`ShuffleLatch`): a shuffle referenced by several branches or by
//! several concurrent jobs is materialized once; a job that finds it
//! in flight waits on the winner's latch instead of re-running the map
//! stage. A failed materialization is sticky, exactly like the old
//! per-node `ShuffleState::Failed`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use par_pool::{Condvar, Mutex};

use crate::context::SparkContext;
use crate::error::JobError;
use crate::scheduler::StageMeta;

// ---------------------------------------------------------------------
// Cooperative job cancellation
// ---------------------------------------------------------------------

/// Cooperative cancellation flag for a driver-side job. Cloning shares
/// the flag. The DAG stage loop polls the *installed* token (see
/// [`with_cancel`]) at every stage boundary: once cancelled, no new
/// stage launches and the job returns [`JobError::Cancelled`]. A stage
/// already running settles its shuffle latch normally, so a cancelled
/// job never wedges lineage shared with other jobs.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; wakes nothing by itself — the
    /// job observes the flag at its next stage boundary.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// `Err(JobError::Cancelled)` once cancellation was requested.
    pub fn check(&self) -> Result<(), JobError> {
        if self.is_cancelled() {
            Err(JobError::Cancelled("cancel token tripped".into()))
        } else {
            Ok(())
        }
    }
}

thread_local! {
    /// Token installed for the job running on this driver thread.
    static CURRENT_CANCEL: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Run `f` with `token` installed as the current thread's job
/// cancellation token: every engine stage boundary reached under `f`
/// (plan passes, the DAG stage loop, action resubmission) polls it.
/// The previous token is restored on exit, so nested jobs compose.
pub fn with_cancel<R>(token: &CancelToken, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<CancelToken>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            CURRENT_CANCEL.with(|c| *c.borrow_mut() = prev);
        }
    }
    // Restore-on-drop so a panicking job never leaves its token
    // installed on a long-lived worker thread.
    let _restore = Restore(CURRENT_CANCEL.with(|c| c.replace(Some(token.clone()))));
    f()
}

/// Poll the installed token; `Err(Cancelled)` stops the current job at
/// this boundary. No token installed means not cancellable.
pub(crate) fn check_cancelled() -> Result<(), JobError> {
    CURRENT_CANCEL.with(|c| match &*c.borrow() {
        Some(token) => token.check(),
        None => Ok(()),
    })
}

/// A shuffle boundary in a lineage: one stage node of the DAG. Wide
/// RDD nodes implement this; narrow nodes forward to their parents.
pub(crate) trait ShuffleDep: Send + Sync {
    /// Unique shuffle id — also the plan-level identity of the map
    /// stage that materializes it.
    fn shuffle_id(&self) -> u64;
    /// Operator name for plan output.
    fn op_name(&self) -> &'static str;
    /// Map-task count (the parent RDD's partition count).
    fn num_maps(&self) -> usize;
    /// Reduce-side partition count.
    fn num_reduces(&self) -> usize;
    /// Direct upstream shuffle dependencies.
    fn parents(&self) -> Vec<Arc<dyn ShuffleDep>>;
    /// Execute the map stage that stages this shuffle's buckets.
    fn run_map_stage(&self, meta: StageMeta) -> Result<(), JobError>;
}

// ---------------------------------------------------------------------
// Per-shuffle dedup latch
// ---------------------------------------------------------------------

enum LatchState {
    Idle,
    Running,
    Done,
    Failed(JobError),
    /// Failed in a *recoverable* way (a fetch failure while reading a
    /// parent shuffle): waiters see the error, but unlike
    /// [`LatchState::Failed`] the latch is claimable again, so a
    /// job-level resubmission can re-run the map stage.
    Aborted(JobError),
}

/// What a stage launch is allowed to do with a shuffle.
pub(crate) enum Claim {
    /// Caller won the claim: run the map stage, then [`ShuffleLatch::finish`].
    Run,
    /// Another job is materializing it: [`ShuffleLatch::wait_done`].
    Wait,
    /// Already staged — nothing to do.
    Done,
    /// A previous materialization failed (sticky).
    Failed(JobError),
}

const STAGE_UNSET: u64 = u64::MAX;

/// Exactly-once in-flight dedup latch for one shuffle id.
pub(crate) struct ShuffleLatch {
    state: Mutex<LatchState>,
    cond: Condvar,
    /// Ordinal of the map stage that materialized the shuffle (for
    /// parent-edge resolution in stage records).
    stage_id: AtomicU64,
}

impl ShuffleLatch {
    fn new() -> Self {
        ShuffleLatch {
            state: Mutex::new(LatchState::Idle),
            cond: Condvar::new(),
            stage_id: AtomicU64::new(STAGE_UNSET),
        }
    }

    /// Claim the right to materialize the shuffle (non-blocking).
    pub(crate) fn try_claim(&self) -> Claim {
        let mut st = self.state.lock();
        match &*st {
            LatchState::Idle => {
                *st = LatchState::Running;
                Claim::Run
            }
            LatchState::Running => Claim::Wait,
            LatchState::Done => Claim::Done,
            LatchState::Failed(e) => Claim::Failed(e.clone()),
            // A fetch-failure abort is claimable again: the resubmitted
            // job re-runs the map stage from lineage.
            LatchState::Aborted(_) => {
                *st = LatchState::Running;
                Claim::Run
            }
        }
    }

    /// Publish the map stage's outcome and wake waiters. A failure is
    /// sticky — every later claim observes the winner's error — except
    /// a [`JobError::FetchFailed`], which marks the latch *aborted* so
    /// a job-level resubmission can re-run the stage after its lost
    /// parent outputs are regenerated.
    pub(crate) fn finish(&self, result: &Result<(), JobError>) {
        let mut st = self.state.lock();
        *st = match result {
            Ok(()) => LatchState::Done,
            Err(e @ JobError::FetchFailed { .. }) => LatchState::Aborted(e.clone()),
            Err(e) => LatchState::Failed(e.clone()),
        };
        self.cond.notify_all();
    }

    /// Block until the in-flight materialization settles.
    pub(crate) fn wait_done(&self) -> Result<(), JobError> {
        let mut st = self.state.lock();
        while matches!(&*st, LatchState::Idle | LatchState::Running) {
            st = self.cond.wait(st);
        }
        match &*st {
            LatchState::Done => Ok(()),
            LatchState::Failed(e) | LatchState::Aborted(e) => Err(e.clone()),
            _ => unreachable!("latch settled"),
        }
    }

    fn is_done(&self) -> bool {
        matches!(&*self.state.lock(), LatchState::Done)
    }

    /// Reset a settled latch back to `Idle` so the next plan pass
    /// re-runs the map stage. Only `Done`/`Aborted` latches reopen:
    /// an in-flight materialization keeps running and a hard failure
    /// stays sticky.
    fn reopen(&self) {
        let mut st = self.state.lock();
        if matches!(&*st, LatchState::Done | LatchState::Aborted(_)) {
            *st = LatchState::Idle;
            self.stage_id.store(STAGE_UNSET, Ordering::Release);
        }
    }

    fn set_stage(&self, stage: u64) {
        self.stage_id.store(stage, Ordering::Release);
    }

    fn stage(&self) -> Option<u64> {
        match self.stage_id.load(Ordering::Acquire) {
            STAGE_UNSET => None,
            s => Some(s),
        }
    }
}

/// Context-wide table of [`ShuffleLatch`]es, keyed by shuffle id.
/// Entries are created lazily at plan time and removed by the owning
/// wide RDD's `Drop` (alongside shuffle GC).
#[derive(Default)]
pub(crate) struct ShuffleRegistry {
    latches: Mutex<HashMap<u64, Arc<ShuffleLatch>>>,
}

impl ShuffleRegistry {
    pub(crate) fn latch(&self, id: u64) -> Arc<ShuffleLatch> {
        Arc::clone(
            self.latches
                .lock()
                .entry(id)
                .or_insert_with(|| Arc::new(ShuffleLatch::new())),
        )
    }

    pub(crate) fn remove(&self, id: u64) {
        self.latches.lock().remove(&id);
    }

    pub(crate) fn is_done(&self, id: u64) -> bool {
        self.latches.lock().get(&id).is_some_and(|l| l.is_done())
    }

    /// Record which stage ordinal materialized shuffle `id`.
    pub(crate) fn note_stage(&self, id: u64, stage: u64) {
        self.latch(id).set_stage(stage);
    }

    /// Stage ordinal that materialized shuffle `id`, if it ran.
    pub(crate) fn stage_of(&self, id: u64) -> Option<u64> {
        self.latches.lock().get(&id).and_then(|l| l.stage())
    }

    /// Invalidate shuffle `id` after its map outputs were lost (e.g.
    /// with a dead executor): the next plan pass stops pruning it and
    /// re-runs its map stage.
    pub(crate) fn invalidate(&self, id: u64) {
        if let Some(l) = self.latches.lock().get(&id) {
            l.reopen();
        }
    }
}

// ---------------------------------------------------------------------
// Plan pass: lineage -> stage graph
// ---------------------------------------------------------------------

/// The distinct shuffle ids of `deps`, in first-occurrence order.
pub(crate) fn shuffle_ids(deps: &[Arc<dyn ShuffleDep>]) -> Vec<u64> {
    let mut ids = Vec::new();
    for dep in deps {
        let id = dep.shuffle_id();
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids
}

struct StageNode {
    dep: Arc<dyn ShuffleDep>,
    /// Direct parent shuffle ids (including already-staged ones, for
    /// stage-record edges).
    parents: Vec<u64>,
    /// Children among the plan's pending nodes.
    children: Vec<u64>,
    /// Parents among the plan's pending nodes that have not settled.
    pending: usize,
}

/// The stage graph of one action and its progress: which stages are
/// ready and how many unsettled parents each pending stage still has.
struct StagePlan {
    nodes: HashMap<u64, StageNode>,
    /// Stages whose parents have all settled, oldest first: seeded from
    /// the deterministic postorder (parents before children, roots in
    /// submission order), then in promotion order.
    ready: Vec<u64>,
}

fn visit(
    ctx: &SparkContext,
    dep: &Arc<dyn ShuffleDep>,
    plan: &mut StagePlan,
    order: &mut Vec<u64>,
) {
    let id = dep.shuffle_id();
    if plan.nodes.contains_key(&id) {
        return;
    }
    // Prune anything already staged: its whole upstream subgraph was
    // materialized when it ran (same cut the old recursive walk made).
    if ctx.inner.registry.is_done(id) {
        return;
    }
    plan.nodes.insert(
        id,
        StageNode {
            dep: Arc::clone(dep),
            parents: Vec::new(),
            children: Vec::new(),
            pending: 0,
        },
    );
    let parents = dep.parents();
    for parent in &parents {
        visit(ctx, parent, plan, order);
    }
    plan.nodes.get_mut(&id).expect("just inserted").parents = shuffle_ids(&parents);
    order.push(id);
}

impl StagePlan {
    /// Plan pass: every pending shuffle the roots (transitively) depend
    /// on, with child edges, pending-parent counts and the initial
    /// ready set.
    fn build(ctx: &SparkContext, roots: &[Arc<dyn ShuffleDep>]) -> StagePlan {
        let mut plan = StagePlan {
            nodes: HashMap::new(),
            ready: Vec::new(),
        };
        let mut order = Vec::new();
        for root in roots {
            visit(ctx, root, &mut plan, &mut order);
        }
        // Walk `order`, not the node map: HashMap iteration order would
        // make each parent's `children` list — and therefore the
        // ready-set order — vary from run to run, which breaks seeded
        // replay.
        for &id in &order {
            let parents = plan.nodes[&id].parents.clone();
            let mut pending = 0;
            for parent in parents {
                if let Some(node) = plan.nodes.get_mut(&parent) {
                    node.children.push(id);
                    pending += 1;
                }
            }
            plan.nodes.get_mut(&id).expect("in plan").pending = pending;
            if pending == 0 {
                plan.ready.push(id);
            }
        }
        plan
    }

    /// Take the next ready stage: the seeded draw picks it in sim mode
    /// (so one `u64` seed fixes the stage schedule while still visiting
    /// every order a ready set allows), the oldest one otherwise.
    fn next(&mut self, ctx: &SparkContext) -> Option<u64> {
        if self.ready.is_empty() {
            None
        } else if ctx.is_deterministic() {
            Some(self.ready.swap_remove(ctx.sim_draw(self.ready.len())))
        } else {
            Some(self.ready.remove(0))
        }
    }

    /// Stage `id` settled: queue the children whose parents all have.
    fn settle(&mut self, id: u64) {
        let children = std::mem::take(&mut self.nodes.get_mut(&id).expect("in plan").children);
        for child in children {
            let node = self.nodes.get_mut(&child).expect("child in plan");
            node.pending -= 1;
            if node.pending == 0 {
                self.ready.push(child);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The stage loop
// ---------------------------------------------------------------------

/// Materialize every pending shuffle the given roots (transitively)
/// depend on, one ready stage at a time on the calling thread.
///
/// Each stage claims its shuffle latch: the winner runs the map stage;
/// a stage another job is already materializing waits on that job's
/// latch; an already-staged stage settles at once. A settled stage
/// promotes the children whose parents have all settled. The installed
/// [`CancelToken`] is polled before every stage, and the first failure
/// is returned at once (its latch is already settled for other jobs).
pub(crate) fn materialize_stage_graph(
    ctx: &SparkContext,
    roots: &[Arc<dyn ShuffleDep>],
) -> Result<(), JobError> {
    let mut plan = StagePlan::build(ctx, roots);
    loop {
        check_cancelled()?;
        let Some(id) = plan.next(ctx) else {
            return Ok(());
        };
        let latch = ctx.inner.registry.latch(id);
        match latch.try_claim() {
            Claim::Done => {}
            Claim::Failed(e) => return Err(e),
            Claim::Wait => latch.wait_done()?,
            Claim::Run => {
                let node = &plan.nodes[&id];
                let meta = StageMeta {
                    stage_id: ctx.alloc_stage_ordinal(),
                    parent_shuffles: node.parents.clone(),
                    concurrent: ctx.stage_launched(),
                };
                ctx.inner.registry.note_stage(id, meta.stage_id);
                let res = node.dep.run_map_stage(meta);
                latch.finish(&res);
                ctx.stage_finished();
                res?;
            }
        }
        plan.settle(id);
    }
}

// ---------------------------------------------------------------------
// Plan explain
// ---------------------------------------------------------------------

/// Render parent shuffle ids as `[shuffle#a, shuffle#b]` or `[input]`.
pub(crate) fn fmt_parent_ids(ids: &[u64]) -> String {
    if ids.is_empty() {
        "[input]".to_string()
    } else {
        format!(
            "[{}]",
            ids.iter()
                .map(|i| format!("shuffle#{i}"))
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

/// Append the full (unpruned) stage graph to `out`, one stage per line
/// in postorder — parents always print before children.
pub(crate) fn explain_graph_into(roots: &[Arc<dyn ShuffleDep>], out: &mut String) {
    fn walk(dep: &Arc<dyn ShuffleDep>, seen: &mut Vec<u64>, out: &mut String) {
        let id = dep.shuffle_id();
        if seen.contains(&id) {
            return;
        }
        seen.push(id);
        let parents = dep.parents();
        for parent in &parents {
            walk(parent, seen, out);
        }
        out.push_str(&format!(
            "stage shuffle#{} {} [{} map tasks -> {} partitions] <- {}\n",
            id,
            dep.op_name(),
            dep.num_maps(),
            dep.num_reduces(),
            fmt_parent_ids(&shuffle_ids(&parents))
        ));
    }
    let mut seen = Vec::new();
    for root in roots {
        walk(root, &mut seen, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_claims_run_once_and_waiters_see_result() {
        let latch = Arc::new(ShuffleLatch::new());
        assert!(matches!(latch.try_claim(), Claim::Run));
        assert!(matches!(latch.try_claim(), Claim::Wait));
        let waiter = {
            let latch = Arc::clone(&latch);
            std::thread::spawn(move || latch.wait_done())
        };
        latch.finish(&Ok(()));
        assert!(waiter.join().unwrap().is_ok());
        assert!(matches!(latch.try_claim(), Claim::Done));
    }

    #[test]
    fn latch_failure_is_sticky() {
        let latch = ShuffleLatch::new();
        assert!(matches!(latch.try_claim(), Claim::Run));
        latch.finish(&Err(JobError::MissingBlock("x".into())));
        assert!(matches!(latch.try_claim(), Claim::Failed(_)));
        assert!(latch.wait_done().is_err());
    }

    #[test]
    fn fetch_failure_aborts_without_sticking() {
        let latch = ShuffleLatch::new();
        assert!(matches!(latch.try_claim(), Claim::Run));
        latch.finish(&Err(JobError::FetchFailed {
            shuffle: 7,
            partition: 0,
            reason: "map output lost".into(),
        }));
        // Waiters of the aborted run still see the error...
        assert!(latch.wait_done().is_err());
        // ...but a resubmitted job can claim and re-run the stage.
        assert!(matches!(latch.try_claim(), Claim::Run));
        latch.finish(&Ok(()));
        assert!(matches!(latch.try_claim(), Claim::Done));
    }

    #[test]
    fn invalidate_reopens_done_latches_but_keeps_hard_failures_sticky() {
        let reg = ShuffleRegistry::default();
        let latch = reg.latch(1);
        assert!(matches!(latch.try_claim(), Claim::Run));
        latch.finish(&Ok(()));
        assert!(reg.is_done(1));
        reg.invalidate(1);
        assert!(!reg.is_done(1));
        assert!(matches!(latch.try_claim(), Claim::Run));
        latch.finish(&Err(JobError::MissingBlock("x".into())));
        reg.invalidate(1);
        assert!(matches!(latch.try_claim(), Claim::Failed(_)));
    }
}
