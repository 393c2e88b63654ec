//! Structured fork-join scopes.
//!
//! Soundness argument for the lifetime erasure performed here (the same
//! one Rayon and `std::thread::scope` rely on):
//!
//! 1. every spawned closure's borrow of the `'env` frame is protected by
//!    the scope's pending-task counter, incremented *before* the job is
//!    published;
//! 2. [`Scope::enter`] does not return — not even by unwinding — until
//!    the counter reaches zero, i.e. until every transitively spawned
//!    task has run to completion (or panicked and been recorded);
//! 3. therefore no task can observe the `'env` frame after it is freed,
//!    and the `'env → 'static` transmute of the boxed job is safe.
//!
//! The protocol cuts both ways: the *completing* side must not touch
//! the scope after its decrement lands, because the owner may already
//! have returned — `complete` clones the pool handle out first (this
//! was a real use-after-free once, caught by the bench suite under
//! rapid scope churn).

use std::any::Any;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::pool::{Job, Shared};
use crate::sync::Mutex;

/// A fork-join scope handed to [`crate::Pool::scope`] closures and to
/// every spawned task, allowing recursive spawning.
pub struct Scope<'env> {
    shared: Arc<Shared>,
    /// Tasks spawned but not yet completed.
    pending: AtomicUsize,
    /// First panic payload captured from a task, if any.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// Invariant over `'env`: a scope must not be coerced to a shorter
    /// environment lifetime, or borrows could be smuggled out.
    _marker: PhantomData<fn(&'env ()) -> &'env ()>,
}

/// Raw pointer to a scope that is safe to ship to a worker thread: the
/// scope outlives all tasks (see module docs), so dereferencing inside a
/// task is valid.
struct ScopePtr(*const ());
// SAFETY: the pointee is a `Scope`, which is only read through `&Scope`
// (all its fields are Sync), and the pointer is guaranteed valid for the
// task's lifetime by the pending-counter protocol.
unsafe impl Send for ScopePtr {}

impl ScopePtr {
    fn get(&self) -> *const () {
        self.0
    }
}

impl<'env> Scope<'env> {
    pub(crate) fn enter<F, R>(shared: &Arc<Shared>, op: F) -> R
    where
        F: FnOnce(&Scope<'env>) -> R,
    {
        let scope = Scope {
            shared: Arc::clone(shared),
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            _marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| op(&scope)));
        // Wait for all tasks even if `op` itself panicked: tasks may
        // still borrow the caller's frame.
        scope
            .shared
            .help_until(&|| scope.pending.load(Ordering::Acquire) == 0);
        if let Some(payload) = scope.panic.lock().take() {
            std::panic::resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Spawn a task into the pool. The closure receives the scope again
    /// so it can spawn further tasks (recursive fork-join). Tasks run in
    /// unspecified order, possibly on the spawning thread while it waits.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'env>) + Send + 'env,
    {
        self.pending.fetch_add(1, Ordering::SeqCst);
        let ptr = ScopePtr(self as *const Scope<'env> as *const ());
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            // SAFETY: see module docs — the scope is alive until
            // `pending` hits zero, and we only decrement after `f` runs.
            let scope: &Scope<'env> = unsafe { &*(ptr.get() as *const Scope<'env>) };
            let result = catch_unwind(AssertUnwindSafe(|| f(scope)));
            if let Err(payload) = result {
                let mut slot = scope.panic.lock();
                slot.get_or_insert(payload);
            }
            scope.complete();
        });
        // SAFETY: lifetime erasure justified by the pending-counter
        // protocol (module docs).
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send + 'static>>(
                job,
            )
        };
        self.shared.push_job(job);
    }

    fn complete(&self) {
        // The decrement may be the scope owner's cue to return and free
        // the scope's stack frame — `self` must not be touched after
        // it. Keep the pool handle alive independently for the wakeup.
        let shared = Arc::clone(&self.shared);
        if self.pending.fetch_sub(1, Ordering::Release) == 1 {
            shared.notify();
        }
    }
}
