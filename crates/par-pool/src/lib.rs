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
//! pool.parallel_for_chunks(&mut data, 64, |chunk, base| {
//!     for (i, x) in chunk.iter_mut().enumerate() {
//!         *x = (base + i) as u64 * 2;
//!     }
//! });
//! assert_eq!(data[10], 20);
//! ```

#![warn(missing_docs)]

mod clock;
mod metrics;
mod pool;
mod scope;
mod sync;

pub use clock::{Clock, SystemClock, VirtualClock};
pub use metrics::PoolMetrics;
pub use pool::{Pool, PoolBuilder};
pub use scope::Scope;
pub use sync::{Condvar, Mutex};

/// Splits `n` items into at most `parts` contiguous ranges of nearly equal
/// length (difference at most one). Returns an iterator of `(start, end)`
/// half-open ranges; empty ranges are skipped.
pub fn split_ranges(n: usize, parts: usize) -> impl Iterator<Item = (usize, usize)> {
    let parts = parts.max(1);
    let base = n / parts;
    let rem = n % parts;
    let mut start = 0usize;
    (0..parts).filter_map(move |p| {
        let len = base + usize::from(p < rem);
        let s = start;
        start += len;
        (len > 0).then_some((s, s + len))
    })
}

#[cfg(test)]
mod split_tests {
    use super::split_ranges;

    #[test]
    fn covers_everything_without_overlap() {
        for n in 0..80 {
            for parts in 1..12 {
                let ranges: Vec<_> = split_ranges(n, parts).collect();
                let mut expect = 0;
                for &(s, e) in &ranges {
                    assert_eq!(s, expect, "n={n} parts={parts}");
                    assert!(e > s);
                    expect = e;
                }
                assert_eq!(expect, n);
                assert!(ranges.len() <= parts);
            }
        }
    }

    #[test]
    fn ranges_are_balanced() {
        let lens: Vec<_> = split_ranges(10, 3).map(|(s, e)| e - s).collect();
        assert_eq!(lens, vec![4, 3, 3]);
    }

    #[test]
    fn zero_parts_treated_as_one() {
        let ranges: Vec<_> = split_ranges(5, 0).collect();
        assert_eq!(ranges, vec![(0, 5)]);
    }
}
