//! The driver-side context: executors, shared services, and task state.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use cluster_model::{KernelInvocation, StageRecord, TaskRecord, TickCharger};
use par_pool::{Clock, Mutex, SystemClock, VirtualClock};

use crate::broadcast::{Broadcast, BroadcastStore};
use crate::codec::Storable;
use crate::config::SparkConf;
use crate::dag::ShuffleRegistry;
use crate::metrics::{EventLog, RunSummary};
use crate::partitioner::{HashPartitioner, Partitioner};
use crate::rdd::{Key, Rdd, ShufVal};
use crate::shuffle::ShuffleManager;
use crate::sim::{ChaosEvent, ChaosPolicy, SimRng};
use crate::storage::BlockStore;
use crate::transport::{ExecutorManager, TransportMode};
use crate::Data;

/// One simulated cluster node: a worker pool plus its block store.
pub struct Executor {
    /// Node index.
    pub node: usize,
    /// Worker pool executing this node's tasks.
    pub pool: par_pool::Pool,
    /// This node's cached-partition store.
    pub store: BlockStore,
}

pub(crate) struct CtxInner {
    pub conf: SparkConf,
    pub executors: Vec<Executor>,
    pub shuffle: ShuffleManager,
    pub bcast: Arc<BroadcastStore>,
    pub log: Mutex<EventLog>,
    ids: AtomicU64,
    pub stage_ordinal: AtomicU64,
    /// Per-shuffle materialization latches (exactly-once in-flight
    /// dedup across branches and concurrent jobs).
    pub registry: ShuffleRegistry,
    /// Stages currently in flight (driver-wide gauge).
    pub stages_in_flight: AtomicU64,
    /// The context's time source: wall clock normally, the virtual
    /// clock in sim mode.
    pub clock: Arc<dyn Clock>,
    /// Concrete handle on the virtual clock when in sim mode (the
    /// simulated scheduler advances it explicitly).
    pub vclock: Option<Arc<VirtualClock>>,
    /// Seeded scheduler state, present iff `conf.sim_seed` is set.
    pub sim: Option<SimState>,
    /// Installed chaos policy, consulted per task attempt.
    pub chaos: Mutex<Option<ChaosPolicy>>,
    /// Whole-job resubmissions taken after fetch failures since the
    /// last stage record took them ([`SparkContext::tally`]).
    pub stage_resubmissions: AtomicU64,
    /// Executor subprocess manager, present iff the conf selects a
    /// wire transport. Shared with the shuffle manager (remote bucket
    /// routing) and every broadcast (per-executor distribution).
    pub remote: Option<Arc<ExecutorManager>>,
}

/// Deterministic-mode scheduler state: the seeded pick stream and the
/// virtual-time cost charger.
pub(crate) struct SimState {
    /// Stream behind every "which ready item next" choice.
    pub rng: Mutex<SimRng>,
    /// Converts task records into logical milliseconds.
    pub charger: TickCharger,
}

/// The entry point: create one per simulated cluster. Cheap to clone
/// (shared handle), like Spark's `SparkContext`.
#[derive(Clone)]
pub struct SparkContext {
    pub(crate) inner: Arc<CtxInner>,
}

/// An installed [`ChaosPolicy`]; dropping it removes the policy, so
/// later jobs on the context run clean. A scope, not a pair of calls:
/// a job that panics under the policy (fenced upstream by
/// `catch_unwind`, as the job service fences its runners) cannot
/// leave its faults installed for every later job.
#[must_use = "the policy is removed as soon as the guard drops"]
pub struct InstalledChaos(SparkContext);

impl Drop for InstalledChaos {
    fn drop(&mut self) {
        *self.0.inner.chaos.lock() = None;
    }
}

impl SparkContext {
    /// Build a context (spawns the executor pools, and — under a wire
    /// transport — the executor subprocesses).
    pub fn new(conf: SparkConf) -> Self {
        assert!(conf.executors >= 1);
        assert!(
            conf.transport == TransportMode::InProcess || conf.sim_seed.is_none(),
            "deterministic simulation requires the in-process transport"
        );
        let remote = match conf.transport {
            TransportMode::InProcess => None,
            mode => Some(Arc::new(
                ExecutorManager::launch(mode, conf.executors)
                    .unwrap_or_else(|e| panic!("launch executor subprocesses: {e}")),
            )),
        };
        let vclock = conf.sim_seed.map(|_| Arc::new(VirtualClock::new()));
        let clock: Arc<dyn Clock> = match &vclock {
            Some(v) => Arc::clone(v) as Arc<dyn Clock>,
            None => Arc::new(SystemClock::new()),
        };
        let sim = conf.sim_seed.map(|seed| SimState {
            rng: Mutex::new(SimRng::new(seed)),
            charger: TickCharger::default(),
        });
        let executors = (0..conf.executors)
            .map(|node| Executor {
                node,
                pool: par_pool::Pool::builder()
                    .threads(conf.worker_threads.min(conf.executor_cores).max(1))
                    .name_prefix(format!("exec-{node}"))
                    .clock(Arc::clone(&clock))
                    .build(),
                store: BlockStore::new(node, conf.executor_memory, conf.disk_capacity)
                    .with_compression(conf.compression),
            })
            .collect();
        let mut shuffle = ShuffleManager::new(conf.executors, conf.staging_capacity);
        if let Some(manager) = &remote {
            shuffle = shuffle.with_remote(Arc::clone(manager));
        }
        SparkContext {
            inner: Arc::new(CtxInner {
                executors,
                shuffle,
                bcast: Arc::new(BroadcastStore::default()),
                log: Mutex::new(EventLog::default()),
                ids: AtomicU64::new(1),
                stage_ordinal: AtomicU64::new(0),
                registry: ShuffleRegistry::default(),
                stages_in_flight: AtomicU64::new(0),
                clock,
                vclock,
                sim,
                chaos: Mutex::new(None),
                stage_resubmissions: AtomicU64::new(0),
                remote,
                conf,
            }),
        }
    }

    /// The configuration this context was built with.
    pub fn conf(&self) -> &SparkConf {
        &self.inner.conf
    }

    /// Number of executors (simulated nodes).
    pub fn num_executors(&self) -> usize {
        self.inner.conf.executors
    }

    pub(crate) fn next_id(&self) -> u64 {
        self.inner.ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Create a pair RDD from driver-side data, hash-partitioned into
    /// `partitions` (defaults to the configured partition count).
    pub fn parallelize<K: Key, V: ShufVal>(
        &self,
        data: Vec<(K, V)>,
        partitions: Option<usize>,
    ) -> Rdd<K, V> {
        let parts = partitions.unwrap_or(self.inner.conf.default_partitions);
        self.parallelize_with(data, parts, Arc::new(HashPartitioner))
    }

    /// Create a pair RDD with an explicit partitioner.
    pub fn parallelize_with<K: Key, V: ShufVal>(
        &self,
        data: Vec<(K, V)>,
        partitions: usize,
        partitioner: Arc<dyn Partitioner<K>>,
    ) -> Rdd<K, V> {
        Rdd::parallelize(self.clone(), data, partitions, partitioner)
    }

    /// Union several RDDs in one narrow node (no shuffle). Parents that
    /// all report one partitioner signature are zipped (Spark's
    /// `PartitionerAwareUnionRDD`): partition `p` is each parent's
    /// partition `p` in parent order, on the node most of them prefer
    /// (ties to the earliest), and the signature survives, so a
    /// following `partition_by` with it elides. Otherwise partitions
    /// concatenate, parent after parent, with no signature.
    pub fn union<K: Key, V: ShufVal>(&self, rdds: Vec<Rdd<K, V>>) -> Rdd<K, V> {
        assert!(!rdds.is_empty(), "union of zero RDDs");
        Rdd::union_of(self.clone(), rdds)
    }

    /// Ship a value to all executors through shared storage (the CB
    /// transport). Driver traffic is *not* logged here — the CB driver
    /// loop logs it per stage via [`SparkContext::log_driver_traffic`].
    pub fn broadcast<T: Data + Storable>(&self, value: &T) -> Broadcast<T> {
        Broadcast::create(
            self.next_id(),
            value,
            Arc::clone(&self.inner.bcast),
            self.inner.conf.compression,
            self.inner.remote.clone(),
        )
    }

    /// Append a driver-only pseudo-stage carrying collect/broadcast
    /// byte volumes (the CB pattern's serial phase).
    pub fn log_driver_traffic(&self, label: &str, collect_bytes: u64, broadcast_bytes: u64) {
        self.inner.log.lock().push(
            label.to_string(),
            cluster_model::StageRecord {
                stage_id: self.alloc_stage_ordinal(),
                tasks: vec![],
                collect_bytes,
                broadcast_bytes,
                ..Default::default()
            },
        );
    }

    /// Record an adaptive re-plan decision against the next stage
    /// ordinal: every stage launched after this call ran under the new
    /// plan. Only meaningful when
    /// [`crate::SparkConf::adaptive_execution`] is set, but always
    /// safe to call.
    pub fn log_adaptive_decision(&self, iteration: u64, action: &str, reason: &str) {
        self.inner
            .log
            .lock()
            .push_decision(crate::metrics::AdaptiveDecision {
                at_stage: self.next_stage_ordinal(),
                iteration,
                action: action.to_string(),
                reason: reason.to_string(),
            });
    }

    /// Run `f` over a snapshot view of the event log.
    pub fn with_event_log<R>(&self, f: impl FnOnce(&EventLog) -> R) -> R {
        f(&self.inner.log.lock())
    }

    /// [`RunSummary`] of the whole context log plus every count no
    /// stage record has taken yet (say, the shuffle releases of RDDs
    /// dropped after their last action): the report of a run when the
    /// context ran nothing else, and the one read path for the
    /// engine's cumulative counters. Runs sharing a context add up;
    /// for one of them, take `mark = stages().len()` before it and
    /// fold `RunSummary::of(&stages()[mark..])` after it
    /// ([`SparkContext::with_event_log`]).
    pub fn summary(&self) -> RunSummary {
        let log = self.inner.log.lock();
        let mut pending = StageRecord::default();
        self.tally(&mut pending, false);
        let mut summary = log.summary();
        summary.add(&pending);
        summary
    }

    /// Add every counter owner's counts since the last stage record
    /// took them — the shuffle ledger's, each block store's and this
    /// context's resubmissions — to `record`; `take` also resets them.
    /// Callers hold the log lock, so a summary never sees a tally
    /// that a closing stage has half taken.
    pub(crate) fn tally(&self, record: &mut StageRecord, take: bool) {
        self.inner.shuffle.tally(record, take);
        for e in &self.inner.executors {
            e.store.tally(record, take);
        }
        let resubmissions = &self.inner.stage_resubmissions;
        record.stage_resubmissions += if take {
            resubmissions.swap(0, Ordering::Relaxed)
        } else {
            resubmissions.load(Ordering::Relaxed)
        };
    }

    /// Drain the event log (between benchmark configurations).
    pub fn take_event_log(&self) -> Vec<crate::metrics::StageEvent> {
        self.inner.log.lock().take()
    }

    /// Currently staged shuffle bytes on `node`.
    pub fn staged_bytes(&self, node: usize) -> u64 {
        self.inner.shuffle.staged_bytes(node)
    }

    /// High-water mark of staged shuffle bytes on `node` over the
    /// context's lifetime (for calibrating staging capacities).
    pub fn peak_staged_bytes(&self, node: usize) -> u64 {
        self.inner.shuffle.peak_staged_bytes(node)
    }

    /// Global ordinal the *next* stage will get.
    pub fn next_stage_ordinal(&self) -> u64 {
        self.inner.stage_ordinal.load(Ordering::Relaxed)
    }

    /// Allocate the next stage ordinal (DAG event loop / action
    /// submitters — taken at launch so ordinals follow launch order).
    pub(crate) fn alloc_stage_ordinal(&self) -> u64 {
        self.inner.stage_ordinal.fetch_add(1, Ordering::Relaxed)
    }

    /// Note a stage entering flight; returns the gauge *including* the
    /// new stage (recorded as the stage's achieved concurrency).
    pub(crate) fn stage_launched(&self) -> u64 {
        self.inner.stages_in_flight.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Note a stage leaving flight.
    pub(crate) fn stage_finished(&self) {
        self.inner.stages_in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Currently cached memory-tier bytes on `node`.
    pub fn cached_bytes(&self, node: usize) -> u64 {
        self.inner.executors[node].store.used_bytes()
    }

    /// Currently cached disk-tier bytes on `node` (declared sizes of
    /// spilled/`DiskOnly` blocks).
    pub fn cached_disk_bytes(&self, node: usize) -> u64 {
        self.inner.executors[node].store.disk_used_bytes()
    }

    /// `true` when this context runs in deterministic simulation mode
    /// ([`SparkConf::with_sim_seed`]).
    pub fn is_deterministic(&self) -> bool {
        self.inner.sim.is_some()
    }

    /// The context's time source (virtual in sim mode).
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.inner.clock
    }

    /// Milliseconds since the context was created: wall time normally,
    /// logical time in sim mode.
    pub fn now_ms(&self) -> u64 {
        self.inner.clock.now_ms()
    }

    /// Install a seeded [`ChaosPolicy`] for the returned guard's
    /// lifetime; every task attempt in that scope consults it.
    /// Replaces any previous policy.
    pub fn install_chaos(&self, policy: ChaosPolicy) -> InstalledChaos {
        *self.inner.chaos.lock() = Some(policy);
        InstalledChaos(self.clone())
    }

    /// Kill executor `node`: its cached blocks vanish (recomputable
    /// ones recompute from lineage; others surface `MissingBlock`) and
    /// its staged map outputs become unfetchable (reduces see
    /// [`crate::JobError::FetchFailed`], triggering map-stage
    /// resubmission). In-process, the pool survives — the model is an
    /// instantly-restarted executor with empty local state. Under a
    /// wire transport the kill is *real*: the node's subprocess gets a
    /// `SIGKILL`, is reaped, and a fresh empty executor is spawned and
    /// handshaken in its place before this returns.
    pub fn kill_executor(&self, node: usize) -> ExecutorLoss {
        // SIGKILL the subprocess first (no lock interleaving: the slot
        // lock is never held together with the shuffle lock here), so
        // by the time the driver ledger marks buckets lost, the bytes
        // that backed them are genuinely gone.
        if let Some(manager) = &self.inner.remote {
            manager
                .kill_respawn(node)
                .unwrap_or_else(|e| panic!("kill executor {node}: {e}"));
        }
        let (cached_mem_bytes, cached_disk_bytes) = self.inner.executors[node].store.wipe();
        let (map_buckets_lost, map_bytes_lost) = self.inner.shuffle.drop_node_outputs(node);
        ExecutorLoss {
            node,
            cached_mem_bytes,
            cached_disk_bytes,
            map_buckets_lost,
            map_bytes_lost,
        }
    }

    /// Cross-check every manager's running counters against a recount
    /// of its actual state: the shuffle staging ledger and each node's
    /// block-store tier accounting. The simulation harness calls this
    /// after every scenario; an `Err` names the first discrepancy.
    pub fn audit(&self) -> Result<(), String> {
        self.inner.shuffle.audit()?;
        for (node, ex) in self.inner.executors.iter().enumerate() {
            ex.store.audit().map_err(|e| format!("node {node}: {e}"))?;
        }
        // Under a wire transport, also verify every executor subprocess
        // is alive (reaping any that died behind the driver's back) and
        // that each one's bucket inventory matches the driver ledger.
        if let Some(manager) = &self.inner.remote {
            manager.audit(Some(&self.inner.shuffle.bucket_counts()))?;
        }
        Ok(())
    }

    /// Shut down executor subprocesses in an orderly way, returning
    /// each child's exit code (0 = clean). In-process mode has no
    /// subprocesses and returns an empty list; so does a second call
    /// (shutdown is idempotent, and dropping the context performs it
    /// implicitly — no zombies or orphans either way).
    pub fn shutdown(&self) -> Result<Vec<i32>, String> {
        match &self.inner.remote {
            Some(manager) => manager.shutdown(),
            None => Ok(Vec::new()),
        }
    }

    /// Measured `(sent, received)` wire bytes the driver exchanged
    /// with `node`'s executor subprocess. Zero in in-process mode —
    /// these counters exist only where a real socket does.
    pub fn wire_bytes(&self, node: usize) -> (u64, u64) {
        match &self.inner.remote {
            Some(manager) => manager.wire_bytes(node),
            None => (0, 0),
        }
    }

    /// Measured `(sent, received)` wire bytes summed over every
    /// executor subprocess.
    pub fn total_wire_bytes(&self) -> (u64, u64) {
        match &self.inner.remote {
            Some(manager) => manager.total_wire_bytes(),
            None => (0, 0),
        }
    }

    /// Executor subprocesses SIGKILLed and respawned so far (0 in
    /// in-process mode).
    pub fn executor_respawns(&self) -> u64 {
        self.inner.remote.as_ref().map_or(0, |m| m.respawns())
    }

    /// OS pid of `node`'s executor subprocess (`None` in-process or
    /// after shutdown). For tests that kill executors externally.
    pub fn executor_pid(&self, node: usize) -> Option<u32> {
        self.inner
            .remote
            .as_ref()
            .and_then(|m| m.executor_pid(node))
    }

    /// The directory `node`'s executor keeps its segment files in
    /// (`None` in-process or over TCP). For tests that check what a
    /// kill, a release or a drop leaves on disk.
    pub fn executor_segment_dir(&self, node: usize) -> Option<std::path::PathBuf> {
        self.inner
            .remote
            .as_ref()
            .and_then(|m| m.segment_dir(node).map(std::path::Path::to_path_buf))
    }

    /// Seeded pick in `0..n` (sim-mode schedulers). Falls back to 0
    /// outside sim mode — callers gate on [`SparkContext::is_deterministic`].
    pub(crate) fn sim_draw(&self, n: usize) -> usize {
        match &self.inner.sim {
            Some(sim) if n > 0 => sim.rng.lock().pick(n),
            _ => 0,
        }
    }

    /// The chaos verdict for one task attempt, if a policy is
    /// installed.
    pub(crate) fn chaos_event(
        &self,
        stage: u64,
        partition: usize,
        attempt: u64,
    ) -> Option<ChaosEvent> {
        self.inner
            .chaos
            .lock()
            .as_mut()
            .and_then(|p| p.event_for(stage, partition, attempt))
    }

    /// Note a fetch-failure-driven resubmission of `shuffle`: reopen
    /// its latch so the next planning pass re-runs the map stage.
    pub(crate) fn note_stage_resubmission(&self, shuffle: u64) {
        self.inner.registry.invalidate(shuffle);
        self.inner
            .stage_resubmissions
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// What [`SparkContext::kill_executor`] destroyed, for assertions and
/// logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorLoss {
    /// The executor that died.
    pub node: usize,
    /// Memory-tier cached bytes wiped.
    pub cached_mem_bytes: u64,
    /// Disk-tier cached bytes wiped.
    pub cached_disk_bytes: u64,
    /// Staged map-output buckets lost.
    pub map_buckets_lost: u64,
    /// Staged map-output bytes lost.
    pub map_bytes_lost: u64,
}

/// Per-task state handed to every task closure: identifies the node
/// and attempt, and accumulates the task's metric record.
pub struct TaskContext {
    node: usize,
    attempt: u64,
    record: Mutex<TaskRecord>,
    /// Armed by a [`ChaosEvent::FetchFailure`]; the first shuffle
    /// fetch this task makes consumes it and fails.
    chaos_fetch_fail: AtomicBool,
    /// Armed by a [`ChaosEvent::DiskFull`]; every disk write this task
    /// triggers sees a full disk.
    chaos_disk_full: bool,
}

impl TaskContext {
    /// Context for a first-attempt task on `node` (unit tests and
    /// driver-local work).
    pub fn new(node: usize) -> Self {
        Self::for_attempt(node, 1)
    }

    /// Context for attempt `attempt` of a task on `node`
    /// (scheduler-side constructor).
    pub(crate) fn for_attempt(node: usize, attempt: u64) -> Self {
        TaskContext {
            node,
            attempt,
            record: Mutex::new(TaskRecord {
                node,
                ..Default::default()
            }),
            chaos_fetch_fail: AtomicBool::new(false),
            chaos_disk_full: false,
        }
    }

    /// Arm this task's chaos flags from its attempt's event.
    pub(crate) fn with_chaos(mut self, event: Option<&ChaosEvent>) -> Self {
        match event {
            Some(ChaosEvent::FetchFailure) => {
                self.chaos_fetch_fail = AtomicBool::new(true);
            }
            Some(ChaosEvent::DiskFull) => self.chaos_disk_full = true,
            _ => {}
        }
        self
    }

    /// Consume the armed fetch failure, if any (first fetch only).
    pub(crate) fn take_chaos_fetch_failure(&self) -> bool {
        self.chaos_fetch_fail.swap(false, Ordering::Relaxed)
    }

    /// Is this task doomed to see a full disk on every spill?
    pub(crate) fn chaos_disk_full(&self) -> bool {
        self.chaos_disk_full
    }

    /// The executor (node) this task runs on.
    pub fn node(&self) -> usize {
        self.node
    }

    /// 1-based attempt number of this task execution.
    pub fn attempt(&self) -> u64 {
        self.attempt
    }

    /// Record a kernel execution (called by the DP executors so the
    /// cost model can price the compute).
    pub fn record_kernel(&self, inv: KernelInvocation) {
        self.record.lock().kernels.push(inv);
    }

    /// Record shuffle bytes fetched from another node: `bytes` is the
    /// declared (logical) size that drives all ledgers, `wire` the
    /// compressed frame size actually moved (0 = uncompressed).
    pub fn add_remote_read(&self, bytes: u64, wire: u64) {
        let mut r = self.record.lock();
        r.remote_read_bytes += bytes;
        r.remote_read_wire_bytes += wire;
    }

    /// Record bytes read from this node's storage (declared + wire).
    pub fn add_local_read(&self, bytes: u64, wire: u64) {
        let mut r = self.record.lock();
        r.local_read_bytes += bytes;
        r.local_read_wire_bytes += wire;
    }

    /// Record map-output bytes staged to local storage (declared +
    /// wire).
    pub fn add_shuffle_write(&self, bytes: u64, wire: u64) {
        let mut r = self.record.lock();
        r.shuffle_write_bytes += bytes;
        r.shuffle_write_wire_bytes += wire;
    }

    /// Record cached bytes serialized to the disk tier (a spill this
    /// task triggered, or a `DiskOnly` put), declared + wire.
    pub fn add_spill_write(&self, bytes: u64, wire: u64) {
        let mut r = self.record.lock();
        r.spill_write_bytes += bytes;
        r.spill_write_wire_bytes += wire;
    }

    /// Record cached bytes deserialized back from the disk tier
    /// (declared + wire).
    pub fn add_spill_read(&self, bytes: u64, wire: u64) {
        let mut r = self.record.lock();
        r.spill_read_bytes += bytes;
        r.spill_read_wire_bytes += wire;
    }

    /// Copy of the record so far (tests; the scheduler takes the final).
    pub fn snapshot(&self) -> TaskRecord {
        self.record.lock().clone()
    }

    pub(crate) fn into_record(self) -> TaskRecord {
        self.record.into_inner()
    }
}
