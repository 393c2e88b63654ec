//! `par-pool` — an OpenMP-style scoped fork-join thread pool.
//!
//! This crate is the substitute for the paper's OpenMP runtime: the
//! recursive r-way R-DP kernels in `gep-kernels` offload their
//! `parallel for` loops and fork-join recursion onto a [`Pool`] whose
//! thread count plays the role of `OMP_NUM_THREADS`.
//!
//! Design follows the idioms of Rayon's core (work-stealing deques, a
//! global injector, help-first waiting) on `std::sync` alone. The
//! queues are lock-based (`Mutex<VecDeque>`), not lock-free; every
//! committed measurement of the pool (`pool.join_ns`, `sched.*`) was
//! taken on them.
//!
//! * every worker owns a deque it pushes to and pops from at the back
//!   (LIFO), and steals from the front of a sibling's, or drains the
//!   global FIFO injector, when empty;
//! * [`Pool::scope`] provides structured fork-join parallelism: tasks may
//!   borrow from the enclosing stack frame, and the scope does not return
//!   until every transitively spawned task has finished;
//! * a thread that blocks waiting for a scope *helps*: it keeps executing
//!   pool tasks instead of sleeping, so nested scopes (recursive
//!   divide-&-conquer) cannot deadlock the pool;
//! * panics inside tasks are captured and propagated to the scope owner,
//!   matching `std::thread::scope` semantics.
//!
//! The crate also exports the workspace's [`Mutex`] and [`Condvar`]:
//! `std::sync`'s, with the poison rule — a lock held across a panic
//! stays usable — stated once for the pool and the engine above it.
//!
//! ```
//! use par_pool::Pool;
//!
//! let pool = Pool::new(4);
//! let mut data = vec![0u64; 1024];
//! pool.scope(|s| {
//!     for (k, chunk) in data.chunks_mut(64).enumerate() {
//!         s.spawn(move |_| {
//!             for (i, x) in chunk.iter_mut().enumerate() {
//!                 *x = (k * 64 + i) as u64 * 2;
//!             }
//!         });
//!     }
//! });
//! assert_eq!(data[10], 20);
//! let (a, b) = pool.join(|| data[0], || data[1023]);
//! assert_eq!((a, b), (0, 2046));
//! ```

#![warn(missing_docs)]

mod clock;
mod pool;
mod scope;
mod sync;

pub use clock::{Clock, SystemClock, VirtualClock};
pub use pool::{Pool, PoolBuilder};
pub use scope::Scope;
pub use sync::{Condvar, Mutex};
