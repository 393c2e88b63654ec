//! Work-stealing pool: workers, deques, sleeping, and job routing.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::clock::{Clock, SystemClock};
use crate::scope::Scope;
use crate::sync::{Condvar, Mutex};

/// A type-erased unit of work. Scoped tasks are lifetime-transmuted into
/// this by [`Scope::spawn`]; the scope guarantees they run before the
/// borrowed frame is released.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its worker threads.
pub(crate) struct Shared {
    /// Jobs pushed by threads outside the pool, taken in FIFO order.
    injector: Mutex<VecDeque<Job>>,
    /// One deque per worker. The owner pushes and pops at the back
    /// (nested spawns run depth-first, the cache-friendly order for
    /// recursive divide-&-conquer); thieves take from the front.
    deques: Vec<Mutex<VecDeque<Job>>>,
    shutdown: AtomicBool,
    /// Condvar used both by idle workers and by threads blocked in a
    /// scope wait. Wakeups are broadcast: at our job granularity (block
    /// kernels) the cost is negligible and it rules out lost-wakeup bugs.
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
}

thread_local! {
    /// Identifies the pool worker running on this thread, if any:
    /// (address of its `Shared`, worker index). The address is only used
    /// for identity comparison, never dereferenced from here; a worker
    /// holds its `Shared` alive for as long as this is set.
    static CURRENT_WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

impl Shared {
    fn new(threads: usize) -> Self {
        Shared {
            injector: Mutex::default(),
            deques: (0..threads).map(|_| Mutex::default()).collect(),
            shutdown: AtomicBool::new(false),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
        }
    }

    fn shared_id(&self) -> usize {
        self as *const Self as usize
    }

    /// The calling thread's deque index, when it is one of this pool's
    /// workers.
    fn local_index(&self) -> Option<usize> {
        let (id, index) = CURRENT_WORKER.get()?;
        (id == self.shared_id()).then_some(index)
    }

    /// Push a job: onto the local deque when called from one of this
    /// pool's workers, otherwise onto the global injector.
    pub(crate) fn push_job(&self, job: Job) {
        match self.local_index() {
            Some(index) => self.deques[index].lock().push_back(job),
            None => self.injector.lock().push_back(job),
        }
        self.notify();
    }

    pub(crate) fn notify(&self) {
        let _guard = self.sleep_lock.lock();
        self.sleep_cv.notify_all();
    }

    /// Find a job from the perspective of worker `me` (`None`: a thread
    /// outside the pool helping a scope): its own deque first, then the
    /// injector, then steal from siblings.
    fn find_job(&self, me: Option<usize>) -> Option<Job> {
        me.and_then(|i| self.deques[i].lock().pop_back())
            .or_else(|| self.take_injected(me))
            .or_else(|| self.steal(me))
    }

    /// The injector's oldest job. A worker also moves up to half of the
    /// rest (at most 32) to its own deque, where siblings can steal them
    /// — reversed, so its LIFO pops still see them in injector order.
    fn take_injected(&self, me: Option<usize>) -> Option<Job> {
        let mut injector = self.injector.lock();
        let job = injector.pop_front()?;
        let batch = (injector.len() / 2).min(32);
        if let Some(i) = me.filter(|_| batch > 0) {
            self.deques[i].lock().extend(injector.drain(..batch).rev());
        }
        Some(job)
    }

    fn steal(&self, me: Option<usize>) -> Option<Job> {
        let siblings = self.deques.iter().enumerate();
        siblings
            .filter(|&(i, _)| Some(i) != me)
            .find_map(|(_, deque)| deque.lock().pop_front())
    }

    /// Whether any job is queued, on the injector or on a deque.
    fn has_work(&self) -> bool {
        !self.injector.lock().is_empty() || self.deques.iter().any(|d| !d.lock().is_empty())
    }

    /// Sleep until notified or `timeout` passes, unless a job is queued
    /// or `done()` already holds. Both are checked under `sleep_lock`,
    /// which [`Shared::notify`] also takes: a push (or a scope
    /// completion) that lands after the check cannot notify before this
    /// thread waits, so no wake-up is lost and the timeout is only a
    /// backstop.
    fn park(&self, timeout: Duration, done: &dyn Fn() -> bool) {
        let guard = self.sleep_lock.lock();
        if done() || self.has_work() {
            return;
        }
        drop(self.sleep_cv.wait_for(guard, timeout));
    }

    /// Block until `should_stop` returns true, executing pool jobs while
    /// waiting. Used by scope waits from both worker and external threads.
    pub(crate) fn help_until(&self, should_stop: &dyn Fn() -> bool) {
        let me = self.local_index();
        while !should_stop() {
            match self.find_job(me) {
                Some(job) => job(),
                None => self.park(Duration::from_millis(1), should_stop),
            }
        }
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    CURRENT_WORKER.set(Some((shared.shared_id(), index)));
    let shutdown = || shared.shutdown.load(Ordering::Acquire);
    loop {
        match shared.find_job(Some(index)) {
            Some(job) => job(),
            None if shutdown() => break,
            None => shared.park(Duration::from_millis(5), &shutdown),
        }
    }
}

/// Builder for [`Pool`] (thread count, thread name prefix).
#[derive(Debug, Clone)]
pub struct PoolBuilder {
    threads: usize,
    name_prefix: String,
    stack_size: usize,
    clock: Arc<dyn Clock>,
}

impl Default for PoolBuilder {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            name_prefix: "par-pool".to_string(),
            // Help-first waiting means a worker's stack holds one frame
            // chain per task it helped with; recursive divide-&-conquer
            // kernels therefore want roomy stacks.
            stack_size: 16 << 20,
            clock: Arc::new(SystemClock::new()),
        }
    }
}

impl PoolBuilder {
    /// Number of worker threads; clamped to at least 1.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Prefix for worker thread names (`<prefix>-<index>`).
    pub fn name_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.name_prefix = prefix.into();
        self
    }

    /// Stack size per worker thread in bytes (default 16 MiB).
    pub fn stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = bytes;
        self
    }

    /// Time source the pool exposes to its clients via [`Pool::clock`]
    /// (default: a fresh [`SystemClock`]). A [`crate::VirtualClock`]
    /// here makes every timed decision taken *through the pool handle*
    /// deterministic; the workers' internal condvar waits stay real —
    /// they affect liveness only, never the observable schedule.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Spawn the workers and return the pool handle.
    pub fn build(self) -> Pool {
        let threads = self.threads.max(1);
        let shared = Arc::new(Shared::new(threads));
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{}-{}", self.name_prefix, i))
                    .stack_size(self.stack_size)
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            workers,
            clock: self.clock,
        }
    }
}

/// A fixed-size work-stealing thread pool with structured (scoped)
/// fork-join parallelism. See the crate docs for the execution model.
pub struct Pool {
    pub(crate) shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    clock: Arc<dyn Clock>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads())
            .finish_non_exhaustive()
    }
}

impl Pool {
    /// A pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        PoolBuilder::default().threads(threads).build()
    }

    /// Builder with defaults (one worker per available core).
    pub fn builder() -> PoolBuilder {
        PoolBuilder::default()
    }

    /// A process-wide shared pool sized to the machine, for callers that
    /// do not manage their own (e.g. examples and tests).
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            PoolBuilder::default()
                .name_prefix("par-pool-global")
                .build()
        })
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.shared.deques.len()
    }

    /// The pool's time source (see [`PoolBuilder::clock`]).
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Fire-and-forget: run `f` on some pool worker. Unlike
    /// [`Pool::scope`] there is no completion barrier — callers
    /// coordinate through channels or counters (this is what a task
    /// scheduler submitting to executor pools wants).
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        self.shared.push_job(Box::new(f));
    }

    /// Structured fork-join: run `op` with a [`Scope`] that may spawn
    /// tasks borrowing from the caller's stack frame. Returns only after
    /// every transitively spawned task has completed. Panics from tasks
    /// (or from `op`) are propagated after all tasks finish.
    pub fn scope<'env, F, R>(&self, op: F) -> R
    where
        F: FnOnce(&Scope<'env>) -> R,
    {
        Scope::enter(&self.shared, op)
    }

    /// Run two closures, potentially in parallel, returning both results.
    /// `a` runs on the calling thread; `b` is offered to the pool.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        let mut rb = None;
        let ra = self.scope(|s| {
            s.spawn(|_| rb = Some(b()));
            a()
        });
        (ra, rb.expect("join branch completed"))
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify();
        // The last handle may be dropped by a job running on one of
        // these workers. That worker cannot join itself (`EDEADLK`); it
        // is detached instead and leaves its loop when the job returns,
        // having seen `shutdown`.
        let me = std::thread::current().id();
        for handle in self.workers.drain(..) {
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A pool's shared state with no worker threads, so the test thread
    /// decides who takes what; every job sends its number when run.
    fn rig(threads: usize) -> (Shared, impl Fn(u32) -> Job, impl Fn(Option<Job>) -> u32) {
        let (tx, rx) = mpsc::channel();
        let job = move |n: u32| -> Job {
            let tx = tx.clone();
            Box::new(move || tx.send(n).expect("the test holds the receiver"))
        };
        let run = move |job: Option<Job>| {
            job.expect("a job was queued")();
            rx.try_recv().expect("the job just ran")
        };
        (Shared::new(threads), job, run)
    }

    #[test]
    fn owner_pops_lifo_and_thieves_take_fifo() {
        let (shared, job, run) = rig(2);
        CURRENT_WORKER.set(Some((shared.shared_id(), 0)));
        for n in 1..=4 {
            shared.push_job(job(n));
        }
        assert!(shared.injector.lock().is_empty(), "a worker pushes locally");
        assert_eq!(shared.deques[0].lock().len(), 4);
        assert_eq!(
            run(shared.find_job(Some(0))),
            4,
            "the owner takes its newest"
        );
        assert_eq!(
            run(shared.find_job(Some(1))),
            1,
            "a sibling steals the oldest"
        );
        assert_eq!(
            (shared.deques[0].lock().len(), shared.deques[1].lock().len()),
            (2, 0),
            "a thief takes one job and moves none"
        );
        assert_eq!(
            run(shared.find_job(None)),
            2,
            "and so does a helping outsider"
        );
        assert_eq!(run(shared.find_job(Some(0))), 3);
        assert!(shared.find_job(Some(0)).is_none());
        assert!(!shared.has_work(), "four pushes, four jobs run");
    }

    #[test]
    fn park_returns_at_once_while_a_job_is_queued() {
        let (shared, job, run) = rig(2);
        // Queued without a notify: a park that only listened for the
        // condvar would sleep out its whole timeout here.
        shared.injector.lock().push_back(job(1));
        let long = Duration::from_secs(30);
        let t = std::time::Instant::now();
        shared.park(long, &|| false);
        assert!(t.elapsed() < long / 2, "parked past a queued job");
        assert_eq!(run(shared.find_job(Some(0))), 1);
        // The same for a job on a deque, and for a scope already done.
        shared.deques[1].lock().push_back(job(2));
        shared.park(long, &|| false);
        assert_eq!(run(shared.find_job(Some(1))), 2);
        shared.park(long, &|| true);
        assert!(t.elapsed() < long / 2, "parked past a finished scope");
    }

    #[test]
    fn batch_steal_hands_the_owner_its_jobs_in_injector_order() {
        let (shared, job, run) = rig(2);
        for n in 0..100 {
            shared.push_job(job(n)); // not a worker thread: the injector
        }
        assert_eq!(run(shared.find_job(Some(0))), 0);
        assert_eq!(
            shared.deques[0].lock().len(),
            32,
            "half of the rest, capped"
        );
        assert_eq!(shared.injector.lock().len(), 67);
        assert!(
            shared.deques[1].lock().is_empty(),
            "the batch goes to the taker, not to a sibling"
        );
        for n in 1..100 {
            assert_eq!(run(shared.find_job(Some(0))), n);
        }
        assert!(shared.find_job(Some(0)).is_none());
        assert!(!shared.has_work());

        // A thread outside the pool takes one job and moves none.
        shared.push_job(job(7));
        shared.push_job(job(8));
        shared.push_job(job(9));
        assert_eq!(run(shared.find_job(None)), 7);
        assert_eq!(shared.injector.lock().len(), 2);
    }
}
