//! The multi-tenant job service: a long-running driver front end that
//! multiplexes concurrent job submissions over one [`SparkContext`]
//! (ROADMAP item 2 — serve heavy traffic instead of cold-starting per
//! query).
//!
//! Three policies compose, each deterministic on its own:
//!
//! * **admission control** ([`admit`]) prices every submission with a
//!   caller-supplied cost estimate and rejects over-budget work with
//!   typed errors — a pure function of an explicit queue snapshot;
//! * **fair scheduling** ([`sched`]) dispatches queued jobs across
//!   tenants by weighted round-robin with per-tenant and global
//!   in-flight caps, sitting *above* the DAG scheduler (the service
//!   bounds whole jobs; each job runs its own stages one at a time on
//!   its worker thread);
//! * **lineage-keyed result caching** ([`cache`]) memoizes completed
//!   results under a digest of the job's logical lineage, so
//!   identical — or overlapping, via [`JobRunner::project`] — queries
//!   skip the engine entirely.
//!
//! The engine binding is the [`JobRunner`] trait: the service is
//! generic over what a "job" is (dp-core supplies the DP descriptors),
//! which keeps sparklet free of problem-specific code.
//!
//! This file is the state machine: a job is admitted or refused in one
//! place (`SvcState::enter`) and leaves the active set in one place
//! (`SvcState::exit`), whoever asks. The socket front end is `front`,
//! the message table and every conversion to or from a message is
//! [`wire`].
//!
//! Every policy outcome is appended to a [`ServiceDecision`] log, and
//! [`ServiceStats`] counts what was appended. In
//! sim mode (driven by [`JobService::pump`] /
//! [`JobService::run_script`] on a seeded context) the whole service
//! is single-threaded and clock-free, so two runs of the same script
//! produce byte-identical decision logs and results — the replay
//! property the acceptance tests pin. Worker threads
//! ([`JobService::start_workers`]) and the socket front end
//! ([`JobService::serve`]) trade that determinism for real
//! concurrency.

pub mod cache;
mod front;
pub mod sched;
pub mod wire;

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::Bytes;
use par_pool::{Condvar, Mutex};

use crate::context::SparkContext;
use crate::dag::{with_cancel, CancelToken};
use crate::error::JobError;

pub use crate::wire::Addr as ServiceAddr;
pub use cache::LineageHasher;
pub use front::{ServeHandle, ServiceClient};
pub use sched::{admit, AdmissionState, JobId, Rejection, TenantId};
pub use wire::SvcMsg;

use cache::ResultCache;
use sched::FairScheduler;

// ---------------------------------------------------------------------
// Engine binding
// ---------------------------------------------------------------------

/// What the service needs to know about a job, given only its opaque
/// body bytes. Implementations must be deterministic: same body, same
/// estimate / key / result — the service's replay guarantee is only as
/// strong as the runner's.
pub trait JobRunner: Send + Sync + 'static {
    /// Price the job in cost units (modeled seconds) for admission
    /// control. Must be cheap — it runs on the submission path.
    fn estimate(&self, body: &Bytes) -> Result<f64, JobError>;

    /// The job's lineage digest: jobs with equal keys must produce
    /// bitwise-identical *cacheable* results ([`JobRunner::run`]'s
    /// output). `None` opts the job out of caching. Overlapping
    /// queries (same underlying computation, different slice) should
    /// map to the same key and differ only in
    /// [`JobRunner::project`].
    fn cache_key(&self, body: &Bytes) -> Result<Option<u128>, JobError>;

    /// Execute the job on the engine, returning the cacheable result
    /// encoding (the *full* result for overlapping-query families).
    fn run(&self, sc: &SparkContext, body: &Bytes) -> Result<Bytes, JobError>;

    /// Derive this request's response from a cacheable result (its
    /// own or a cached peer's). Identity by default.
    fn project(&self, _body: &Bytes, full: &Bytes) -> Result<Bytes, JobError> {
        Ok(full.clone())
    }
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Service policy knobs (the engine's own knobs stay on
/// [`crate::SparkConf`]).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Per-tenant WRR weights; tenants not listed get
    /// [`ServiceConfig::default_weight`].
    pub tenant_weights: Vec<(TenantId, u32)>,
    /// Weight for tenants without an explicit entry.
    pub default_weight: u32,
    /// Max jobs one tenant may have in flight.
    pub per_tenant_inflight: usize,
    /// Max jobs in flight across all tenants (the service-level
    /// concurrency window; the only source of overlapping stages).
    pub max_inflight: usize,
    /// Cost units (queued + in-flight) admission may commit to.
    pub admission_budget: f64,
    /// Per-job cost ceiling.
    pub max_job_cost: f64,
    /// Max queued (undispatched) jobs per tenant.
    pub max_queued_per_tenant: usize,
    /// Result-cache capacity in bytes (0 disables caching).
    pub cache_capacity: u64,
    /// How many settled (done/failed/cancelled) jobs to retain for
    /// [`JobService::poll`] / [`JobService::wait`]. Oldest settled
    /// entries beyond this are dropped, and late status probes see
    /// "unknown job". A retained entry holds no body, and holds its
    /// result only until a [`JobService::wait`] collects it, so the
    /// ring bounds the results nobody waited for. It does not bound
    /// the engine's event log, which still grows with every job a
    /// long-lived service runs.
    pub settled_retention: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            tenant_weights: Vec::new(),
            default_weight: 1,
            per_tenant_inflight: 2,
            max_inflight: 4,
            admission_budget: f64::INFINITY,
            max_job_cost: f64::INFINITY,
            max_queued_per_tenant: 64,
            cache_capacity: 64 << 20,
            settled_retention: 1024,
        }
    }
}

impl ServiceConfig {
    /// Set one tenant's WRR weight (≥ 1).
    pub fn with_tenant_weight(mut self, tenant: TenantId, weight: u32) -> Self {
        self.tenant_weights.retain(|(t, _)| *t != tenant);
        self.tenant_weights.push((tenant, weight.max(1)));
        self
    }

    /// Set the global and per-tenant in-flight caps.
    pub fn with_inflight(mut self, global: usize, per_tenant: usize) -> Self {
        self.max_inflight = global.max(1);
        self.per_tenant_inflight = per_tenant.max(1);
        self
    }

    /// Set the admission budget in cost units.
    pub fn with_admission_budget(mut self, budget: f64) -> Self {
        self.admission_budget = budget;
        self
    }

    /// Set the per-job cost ceiling.
    pub fn with_max_job_cost(mut self, limit: f64) -> Self {
        self.max_job_cost = limit;
        self
    }

    /// Set the per-tenant queue cap.
    pub fn with_max_queued_per_tenant(mut self, limit: usize) -> Self {
        self.max_queued_per_tenant = limit.max(1);
        self
    }

    /// Set how many settled jobs stay pollable (≥ 1).
    pub fn with_settled_retention(mut self, keep: usize) -> Self {
        self.settled_retention = keep.max(1);
        self
    }
}

// ---------------------------------------------------------------------
// Job lifecycle
// ---------------------------------------------------------------------

/// Client-visible job lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a dispatch slot.
    Queued,
    /// Dispatched and executing.
    Running,
    /// Finished successfully; the result is available.
    Done,
    /// Finished with an error.
    Failed,
    /// Aborted before completion.
    Cancelled,
}

/// A job's status snapshot as returned by [`JobService::poll`] /
/// [`JobService::wait`] and reconstructed by [`ServiceClient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatusView {
    /// The job's id.
    pub job: JobId,
    /// Lifecycle state at snapshot time.
    pub state: JobState,
    /// Whether the result came from the lineage cache.
    pub cache_hit: bool,
    /// Engine stages this job ran (0 on a cache hit; meaningful when
    /// jobs run sequentially, e.g. sim mode — concurrent jobs
    /// interleave the shared stage counter).
    pub stages_run: u64,
    /// The response bytes, present iff `state == Done` and no
    /// [`JobService::wait`] has collected them yet.
    pub result: Option<Bytes>,
    /// The failure message, present iff `state == Failed`.
    pub error: Option<String>,
}

enum EntryState {
    Queued,
    Running,
    /// `resp` is `None` once a [`JobService::wait`] has collected it.
    Done {
        resp: Option<Bytes>,
        hit: bool,
        stages: u64,
    },
    Failed(JobError),
    Cancelled,
}

struct JobEntry {
    tenant: TenantId,
    cost: f64,
    key: Option<u128>,
    body: Bytes,
    cancel: CancelToken,
    state: EntryState,
}

impl JobEntry {
    fn view(&self, job: JobId) -> JobStatusView {
        let mut view = JobStatusView {
            job,
            state: JobState::Queued,
            cache_hit: false,
            stages_run: 0,
            result: None,
            error: None,
        };
        match &self.state {
            EntryState::Queued => {}
            EntryState::Running => view.state = JobState::Running,
            EntryState::Done { resp, hit, stages } => {
                view.state = JobState::Done;
                view.cache_hit = *hit;
                view.stages_run = *stages;
                view.result = resp.clone();
            }
            EntryState::Failed(e) => {
                view.state = JobState::Failed;
                view.error = Some(e.to_string());
            }
            EntryState::Cancelled => view.state = JobState::Cancelled,
        }
        view
    }
}

// ---------------------------------------------------------------------
// Decision log & counters
// ---------------------------------------------------------------------

/// One policy decision, appended in the order taken. Under sequential
/// driving (sim mode) the log is a pure function of the submission
/// script, so replay equality is byte equality of two logs. Costs are
/// recorded in integer milli-units to keep the log `Eq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceDecision {
    /// Admission accepted the job.
    Admitted {
        /// Assigned job id.
        job: JobId,
        /// Submitting tenant.
        tenant: TenantId,
        /// Cost estimate in milli-units.
        cost_milli: u64,
    },
    /// Admission rejected the submission (no job id was assigned).
    Rejected {
        /// Submitting tenant.
        tenant: TenantId,
        /// Rejection class (the code [`SvcMsg::SubmitErr`] carries).
        code: u8,
    },
    /// The WRR scheduler dispatched the job.
    Dispatched {
        /// Dispatched job.
        job: JobId,
        /// Its tenant.
        tenant: TenantId,
        /// Global dispatch sequence number.
        seq: u64,
    },
    /// The job was served from the lineage cache.
    CacheHit {
        /// The job.
        job: JobId,
        /// Its tenant.
        tenant: TenantId,
        /// The lineage key that hit.
        key: u128,
    },
    /// The job's result was stored in the cache.
    CacheStore {
        /// The job.
        job: JobId,
        /// The lineage key stored.
        key: u128,
    },
    /// The job settled (success or failure).
    Completed {
        /// The job.
        job: JobId,
        /// Its tenant.
        tenant: TenantId,
        /// Whether it succeeded.
        ok: bool,
        /// Engine stages it ran.
        stages_run: u64,
    },
    /// The job was cancelled (queued drop or mid-run abort).
    Cancelled {
        /// The job.
        job: JobId,
        /// Its tenant.
        tenant: TenantId,
    },
}

/// Monotonic service counters. Each is the number of decisions of one
/// kind ever logged (`submitted` = `Admitted` + `Rejected`, `completed`
/// and `failed` = `Completed` by `ok`, the rest one kind each): they
/// are bumped where the decision is appended and nowhere else.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Submissions seen (admitted + rejected).
    pub submitted: u64,
    /// Submissions admitted.
    pub admitted: u64,
    /// Submissions rejected.
    pub rejected: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs failed.
    pub failed: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Completions served from the cache.
    pub cache_hits: u64,
    /// Results stored into the cache.
    pub cache_stores: u64,
}

// ---------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------

struct SvcState {
    sched: FairScheduler,
    /// Ordered by id, and ids are handed out in admission order, so a
    /// walk over the table is a walk in admission order on every
    /// instance — what [`JobService::stop`] cancels queued jobs in.
    jobs: BTreeMap<JobId, JobEntry>,
    /// Settled job ids in settling order: the retention ring. Only
    /// terminal entries are ever listed here, so eviction never drops
    /// a queued or running job.
    settled: VecDeque<JobId>,
    /// How many settled jobs the ring keeps
    /// ([`ServiceConfig::settled_retention`], at least 1).
    retention: usize,
    next_job: JobId,
    committed: f64,
    dispatch_seq: u64,
    /// The most recent decisions: a ring of [`DECISIONS_PER_JOB`] ×
    /// the settled-job retention, so the log is bounded the way the
    /// job table is.
    decisions: VecDeque<ServiceDecision>,
    stats: ServiceStats,
}

/// Most decisions one job logs (admitted, dispatched, cache store or
/// hit, completed): sizes the decision ring so it reaches at least as
/// far back as the settled jobs still pollable.
const DECISIONS_PER_JOB: usize = 4;

impl SvcState {
    /// Append to the decision ring, dropping the oldest entry at the
    /// cap, and count the decision: the one place [`ServiceStats`]
    /// changes.
    fn log(&mut self, decision: ServiceDecision) {
        let s = &mut self.stats;
        match decision {
            ServiceDecision::Admitted { .. } => {
                s.submitted += 1;
                s.admitted += 1;
            }
            ServiceDecision::Rejected { .. } => {
                s.submitted += 1;
                s.rejected += 1;
            }
            ServiceDecision::Dispatched { .. } => {}
            ServiceDecision::CacheHit { .. } => s.cache_hits += 1,
            ServiceDecision::CacheStore { .. } => s.cache_stores += 1,
            ServiceDecision::Completed { ok: true, .. } => s.completed += 1,
            ServiceDecision::Completed { ok: false, .. } => s.failed += 1,
            ServiceDecision::Cancelled { .. } => s.cancelled += 1,
        }
        if self.decisions.len() == DECISIONS_PER_JOB * self.retention {
            self.decisions.pop_front();
        }
        self.decisions.push_back(decision);
    }

    /// The one way in, for a submission already priced and keyed (body,
    /// cost, lineage key). One that arrives refused (the service is
    /// stopping, the frame or body did not decode or price) and one
    /// that [`admit`] refuses against the current queue snapshot end
    /// in the same `Rejected` decision; anything else is given an id,
    /// commits its cost and joins its tenant's queue.
    fn enter(
        &mut self,
        tenant: TenantId,
        priced: Result<(Bytes, f64, Option<u128>), Rejection>,
        conf: &ServiceConfig,
    ) -> Result<JobId, Rejection> {
        let admitted = priced.and_then(|(body, cost, key)| {
            let snapshot = AdmissionState {
                committed: self.committed,
                tenant_queued: self.sched.queued(tenant),
            };
            admit(&snapshot, tenant, cost, conf).map(|()| (body, cost, key))
        });
        let (body, cost, key) = match admitted {
            Ok(priced) => priced,
            Err(r) => {
                self.log(ServiceDecision::Rejected {
                    tenant,
                    code: wire::rejection_code(&r),
                });
                return Err(r);
            }
        };
        let job = self.next_job;
        self.next_job += 1;
        self.committed += cost;
        self.log(ServiceDecision::Admitted {
            job,
            tenant,
            cost_milli: (cost * 1000.0).round() as u64,
        });
        self.jobs.insert(
            job,
            JobEntry {
                tenant,
                cost,
                key,
                body,
                cancel: CancelToken::new(),
                state: EntryState::Queued,
            },
        );
        self.sched.enqueue(tenant, job);
        Ok(job)
    }

    /// The one way out: `job` leaves the active set for the terminal
    /// state `end`. Whichever of `Queued` / `Running` it leaves from
    /// gives back what that state held (its queue entry or its
    /// dispatch slot), its admission cost is released, the terminal
    /// decision is logged, and the entry joins the retention ring.
    fn exit(&mut self, job: JobId, end: EntryState) {
        let entry = self
            .jobs
            .get_mut(&job)
            .expect("an active job is in the table");
        let (tenant, cost) = (entry.tenant, entry.cost);
        let terminal = match &end {
            EntryState::Done { stages, .. } => ServiceDecision::Completed {
                job,
                tenant,
                ok: true,
                stages_run: *stages,
            },
            EntryState::Failed(_) => ServiceDecision::Completed {
                job,
                tenant,
                ok: false,
                stages_run: 0,
            },
            EntryState::Cancelled => ServiceDecision::Cancelled { job, tenant },
            EntryState::Queued | EntryState::Running => unreachable!("exit to an active state"),
        };
        match std::mem::replace(&mut entry.state, end) {
            EntryState::Queued => {
                self.sched.remove_queued(tenant, job);
                // Never dispatched: nobody took its body.
                entry.body = Bytes::new();
            }
            EntryState::Running => self.sched.job_finished(tenant),
            _ => unreachable!("job {job} settled twice"),
        }
        self.committed = (self.committed - cost).max(0.0);
        self.log(terminal);
        self.retire(job);
    }

    /// Record `job` as settled and evict the oldest settled entries
    /// beyond the retention cap, freeing any result no wait collected.
    fn retire(&mut self, job: JobId) {
        self.settled.push_back(job);
        while self.settled.len() > self.retention {
            let old = self.settled.pop_front().expect("nonempty ring");
            self.jobs.remove(&old);
        }
    }
}

struct SvcInner {
    sc: SparkContext,
    conf: ServiceConfig,
    runner: Box<dyn JobRunner>,
    state: Mutex<SvcState>,
    /// Workers park here for dispatchable jobs.
    work: Condvar,
    /// Waiters park here for job completions.
    done: Condvar,
    cache: Mutex<ResultCache>,
    stopping: AtomicBool,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// A running job service. Cheap to clone (all clones share state);
/// drive it inline ([`JobService::pump`], deterministic), with worker
/// threads ([`JobService::start_workers`]), or over a socket
/// ([`JobService::serve`]).
#[derive(Clone)]
pub struct JobService {
    inner: Arc<SvcInner>,
}

struct Dispatch {
    job: JobId,
    tenant: TenantId,
    body: Bytes,
    key: Option<u128>,
    cancel: CancelToken,
}

/// Run a [`JobRunner`] hook with a panic fence: `JobRunner` is a
/// public trait, and a panicking implementation must settle the job
/// as failed — not kill a worker thread that holds a dispatched
/// scheduler slot and committed admission budget.
fn catch_runner<T>(what: &str, f: impl FnOnce() -> Result<T, JobError>) -> Result<T, JobError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            Err(JobError::Driver(format!(
                "job runner panicked in {what}: {msg}"
            )))
        }
    }
}

impl JobService {
    /// Build a service over `sc` with the given policy knobs and
    /// engine binding.
    pub fn new(sc: SparkContext, conf: ServiceConfig, runner: impl JobRunner) -> Self {
        let sched = FairScheduler::new(&conf);
        let cache = ResultCache::new(conf.cache_capacity);
        let retention = conf.settled_retention.max(1);
        JobService {
            inner: Arc::new(SvcInner {
                sc,
                conf,
                runner: Box::new(runner),
                state: Mutex::new(SvcState {
                    sched,
                    jobs: BTreeMap::new(),
                    settled: VecDeque::new(),
                    retention,
                    next_job: 1,
                    committed: 0.0,
                    dispatch_seq: 0,
                    decisions: VecDeque::new(),
                    stats: ServiceStats::default(),
                }),
                work: Condvar::new(),
                done: Condvar::new(),
                cache: Mutex::new(cache),
                stopping: AtomicBool::new(false),
                workers: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The context the service runs jobs on.
    pub fn sc(&self) -> &SparkContext {
        &self.inner.sc
    }

    /// Submit a job body for `tenant`: price it, take the admission
    /// decision against the current queue snapshot, and enqueue it
    /// under the WRR scheduler. Returns the job id, or the typed
    /// rejection.
    pub fn submit(&self, tenant: TenantId, body: Bytes) -> Result<JobId, Rejection> {
        self.admit_body(tenant, Ok(body))
    }

    /// [`JobService::submit`] for a body that may not have survived
    /// its trip: the socket front end hands over what opening the
    /// submitted frame gave, so a frame that does not inflate is
    /// refused as `Malformed` like a body that does not decode.
    fn admit_body(
        &self,
        tenant: TenantId,
        body: Result<Bytes, JobError>,
    ) -> Result<JobId, Rejection> {
        let inner = &self.inner;
        let priced = if inner.stopping.load(Ordering::Acquire) {
            Err(Rejection::ShuttingDown)
        } else {
            // Price and key the body outside the lock — both are pure.
            // Panic-fenced: this runs on the submitting client's thread.
            body.and_then(|body| {
                let (cost, key) = catch_runner("estimate", || {
                    inner
                        .runner
                        .estimate(&body)
                        .and_then(|cost| inner.runner.cache_key(&body).map(|key| (cost, key)))
                })?;
                Ok((body, cost, key))
            })
            .map_err(|e| Rejection::Malformed(e.to_string()))
        };
        let job = inner.state.lock().enter(tenant, priced, &inner.conf)?;
        inner.work.notify_all();
        Ok(job)
    }

    /// Take the next WRR dispatch, marking it running. `None` when
    /// nothing is dispatchable (empty queues or caps reached). The
    /// body moves into the dispatch: a settled entry kept for polling
    /// does not hold it.
    fn dispatch_next(&self) -> Option<Dispatch> {
        let mut st = self.inner.state.lock();
        let (tenant, job) = st.sched.next()?;
        let seq = st.dispatch_seq;
        st.dispatch_seq += 1;
        st.log(ServiceDecision::Dispatched { job, tenant, seq });
        let entry = st.jobs.get_mut(&job).expect("dispatched job exists");
        entry.state = EntryState::Running;
        Some(Dispatch {
            job,
            tenant,
            body: std::mem::take(&mut entry.body),
            key: entry.key,
            cancel: entry.cancel.clone(),
        })
    }

    /// Record a dispatched job's outcome, after the cache event that
    /// led to it, and wake whoever waits on the job or on its slot.
    fn settle(
        &self,
        d: &Dispatch,
        outcome: Result<(Bytes, bool, u64), JobError>,
        stored_key: Option<u128>,
    ) {
        let mut st = self.inner.state.lock();
        if let Some(key) = stored_key {
            st.log(ServiceDecision::CacheStore { job: d.job, key });
        }
        if let Ok((_, true, _)) = outcome {
            st.log(ServiceDecision::CacheHit {
                job: d.job,
                tenant: d.tenant,
                key: d.key.expect("hit implies key"),
            });
        }
        st.exit(
            d.job,
            match outcome {
                Ok((resp, hit, stages)) => EntryState::Done {
                    resp: Some(resp),
                    hit,
                    stages,
                },
                Err(JobError::Cancelled(_)) => EntryState::Cancelled,
                Err(e) => EntryState::Failed(e),
            },
        );
        drop(st);
        self.inner.done.notify_all();
        self.inner.work.notify_all();
    }

    /// Execute one dispatched job to completion on the calling thread.
    fn execute(&self, d: Dispatch) {
        let inner = &self.inner;
        // Cache probe first: a hit runs zero engine stages.
        if let Some(key) = d.key {
            let cached = inner.cache.lock().get(key);
            if let Some(full) = cached {
                let outcome = catch_runner("project", || inner.runner.project(&d.body, &full))
                    .map(|r| (r, true, 0));
                self.settle(&d, outcome, None);
                return;
            }
        }
        if d.cancel.is_cancelled() {
            self.settle(
                &d,
                Err(JobError::Cancelled("cancelled before start".into())),
                None,
            );
            return;
        }
        let before = inner.sc.with_event_log(|l| l.stages().len()) as u64;
        let res = catch_runner("run", || {
            with_cancel(&d.cancel, || inner.runner.run(&inner.sc, &d.body))
        });
        let stages = (inner.sc.with_event_log(|l| l.stages().len()) as u64).saturating_sub(before);
        match res {
            Ok(full) => {
                let stored = match d.key {
                    Some(key) if inner.cache.lock().put(key, full.clone()) => Some(key),
                    _ => None,
                };
                let outcome = catch_runner("project", || inner.runner.project(&d.body, &full))
                    .map(|r| (r, false, stages));
                self.settle(&d, outcome, stored);
            }
            Err(e) => self.settle(&d, Err(e), None),
        }
    }

    /// Run one queued job inline on the calling thread (the
    /// deterministic sim driver). Returns `false` when nothing was
    /// dispatchable.
    pub fn pump(&self) -> bool {
        match self.dispatch_next() {
            Some(d) => {
                self.execute(d);
                true
            }
            None => false,
        }
    }

    /// Drain every queued job inline; returns jobs run.
    pub fn pump_all(&self) -> usize {
        let mut n = 0;
        while self.pump() {
            n += 1;
        }
        n
    }

    /// Spawn `n` worker threads that dispatch and execute jobs until
    /// [`JobService::stop`].
    pub fn start_workers(&self, n: usize) {
        let mut workers = self.inner.workers.lock();
        for i in 0..n.max(1) {
            let svc = self.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("svc-worker-{i}"))
                    .spawn(move || loop {
                        if let Some(d) = svc.dispatch_next() {
                            svc.execute(d);
                            continue;
                        }
                        let st = svc.inner.state.lock();
                        if svc.inner.stopping.load(Ordering::Acquire) {
                            return;
                        }
                        // Re-check under the lock: a submit between our
                        // failed dispatch and this wait would be lost.
                        if st.sched.total_queued() == 0 || st.sched.inflight() > 0 {
                            drop(svc.inner.work.wait(st));
                        }
                    })
                    .expect("spawn service worker"),
            );
        }
    }

    /// Stop the service: reject new submissions, drop every queued job
    /// as cancelled (releasing its admission budget) in admission
    /// order, let running jobs finish, and join the workers.
    pub fn stop(&self) {
        self.inner.stopping.store(true, Ordering::Release);
        {
            let mut st = self.inner.state.lock();
            let queued: Vec<JobId> = st
                .jobs
                .iter()
                .filter(|(_, e)| matches!(e.state, EntryState::Queued))
                .map(|(&job, _)| job)
                .collect();
            for job in queued {
                st.exit(job, EntryState::Cancelled);
            }
        }
        self.inner.work.notify_all();
        self.inner.done.notify_all();
        let workers: Vec<JoinHandle<()>> = self.inner.workers.lock().drain(..).collect();
        for w in workers {
            let _ = w.join();
        }
    }

    /// Non-blocking status probe.
    pub fn poll(&self, job: JobId) -> Option<JobStatusView> {
        self.inner.state.lock().jobs.get(&job).map(|e| e.view(job))
    }

    /// Block until `job` settles (done, failed, or cancelled), and
    /// collect a `Done` job's result: this view carries the bytes, and
    /// every later [`JobService::poll`] or `wait` answers `Done` with
    /// `result: None`. [`JobService::poll`] never collects.
    pub fn wait(&self, job: JobId) -> Option<JobStatusView> {
        let mut st = self.inner.state.lock();
        loop {
            match st.jobs.get_mut(&job) {
                None => return None,
                Some(e) if !matches!(e.state, EntryState::Queued | EntryState::Running) => {
                    let mut view = e.view(job);
                    if let EntryState::Done { resp, .. } = &mut e.state {
                        view.result = resp.take();
                    }
                    return Some(view);
                }
                Some(_) => st = self.inner.done.wait(st),
            }
        }
    }

    /// Abort a job: queued jobs are dropped immediately (admission
    /// budget released), running jobs get their [`CancelToken`]
    /// tripped and settle as cancelled at the next stage boundary.
    /// Returns `false` for unknown job ids.
    pub fn cancel(&self, job: JobId) -> bool {
        let mut st = self.inner.state.lock();
        let Some(entry) = st.jobs.get(&job) else {
            return false;
        };
        match entry.state {
            EntryState::Queued => {
                st.exit(job, EntryState::Cancelled);
                drop(st);
                self.inner.done.notify_all();
                self.inner.work.notify_all();
            }
            EntryState::Running => {
                entry.cancel.cancel();
            }
            _ => {}
        }
        true
    }

    /// The most recent window of the decision log, oldest first
    /// (replay-comparable under sequential driving). The window holds
    /// four decisions per retained settled job
    /// ([`ServiceConfig::settled_retention`]); older ones are dropped,
    /// so the log is bounded the way the job table is. Collecting a
    /// result ([`JobService::wait`]) is not a decision and logs
    /// nothing.
    pub fn decisions(&self) -> Vec<ServiceDecision> {
        self.inner.state.lock().decisions.iter().cloned().collect()
    }

    /// Counters snapshot.
    pub fn stats(&self) -> ServiceStats {
        self.inner.state.lock().stats.clone()
    }

    /// Cost units currently committed (queued + in-flight). Returns to
    /// zero when the service quiesces — cancellation included.
    pub fn committed_cost(&self) -> f64 {
        self.inner.state.lock().committed
    }

    /// Result-cache (hits, misses, evictions).
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        self.inner.cache.lock().stats()
    }

    // -----------------------------------------------------------------
    // Scripted (sim-harness) driving
    // -----------------------------------------------------------------

    /// Run a scripted tenant arrival process deterministically:
    /// arrivals are processed in `(at_ms, script order)` order, the
    /// sim virtual clock (when the context is deterministic) advancing
    /// to each arrival time; after each time step's submissions,
    /// `pump_per_step` queued jobs run inline. Whatever remains queued
    /// is drained at the end. Returns each arrival's admission
    /// outcome, in script order.
    pub fn run_script(
        &self,
        script: &[Arrival],
        pump_per_step: usize,
    ) -> Vec<Result<JobId, Rejection>> {
        let mut order: Vec<usize> = (0..script.len()).collect();
        order.sort_by_key(|&i| script[i].at_ms); // stable: ties keep script order
        let mut results: Vec<Option<Result<JobId, Rejection>>> = vec![None; script.len()];
        let mut at = 0;
        while at < order.len() {
            let t = script[order[at]].at_ms;
            if let Some(vc) = &self.inner.sc.inner.vclock {
                vc.advance_to(t);
            }
            while at < order.len() && script[order[at]].at_ms == t {
                let i = order[at];
                results[i] = Some(self.submit(script[i].tenant, script[i].body.clone()));
                at += 1;
            }
            for _ in 0..pump_per_step {
                if !self.pump() {
                    break;
                }
            }
        }
        self.pump_all();
        results
            .into_iter()
            .map(|r| r.expect("all filled"))
            .collect()
    }
}

/// One scripted submission for [`JobService::run_script`].
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Virtual-clock arrival time in milliseconds.
    pub at_ms: u64,
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Job body.
    pub body: Bytes,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SparkConf;

    /// Echoes the body back; every job costs one unit and is uncached.
    struct Echo;

    impl JobRunner for Echo {
        fn estimate(&self, _body: &Bytes) -> Result<f64, JobError> {
            Ok(1.0)
        }

        fn cache_key(&self, _body: &Bytes) -> Result<Option<u128>, JobError> {
            Ok(None)
        }

        fn run(&self, _sc: &SparkContext, body: &Bytes) -> Result<Bytes, JobError> {
            Ok(body.clone())
        }
    }

    #[test]
    fn settled_entries_keep_no_body() {
        let sc = SparkContext::new(SparkConf::default().with_sim_seed(1));
        let svc = JobService::new(sc, ServiceConfig::default(), Echo);
        let ran = svc.submit(1, Bytes::from_static(b"run me")).expect("admit");
        let queued = svc
            .submit(1, Bytes::from_static(b"cancel me"))
            .expect("admit");
        assert!(svc.cancel(queued));
        assert!(svc.pump());
        assert_eq!(svc.poll(ran).expect("retained").state, JobState::Done);
        let st = svc.inner.state.lock();
        for job in [ran, queued] {
            assert!(st.jobs[&job].body.is_empty(), "job {job} kept its body");
        }
    }

    #[test]
    fn collected_results_are_released() {
        let sc = SparkContext::new(SparkConf::default().with_sim_seed(1));
        let svc = JobService::new(sc, ServiceConfig::default(), Echo);
        let job = svc.submit(1, Bytes::from_static(b"echo")).expect("admit");
        assert!(svc.pump());
        let held = |svc: &JobService| match &svc.inner.state.lock().jobs[&job].state {
            EntryState::Done { resp, .. } => resp.clone(),
            _ => panic!("job {job} is not done"),
        };
        // A poll is a peek: it answers with the bytes and leaves them.
        let peek = svc.poll(job).expect("retained");
        assert_eq!(peek.result.as_deref(), Some(&b"echo"[..]));
        assert_eq!(held(&svc).as_deref(), Some(&b"echo"[..]));
        // The wait collects them: the entry keeps its status, not them.
        let got = svc.wait(job).expect("retained");
        assert_eq!(got.result.as_deref(), Some(&b"echo"[..]));
        assert_eq!(held(&svc), None, "a collected result stays held");
        for again in [svc.wait(job), svc.poll(job)] {
            let again = again.expect("still retained");
            assert_eq!((again.state, again.result), (JobState::Done, None));
        }
    }
}
