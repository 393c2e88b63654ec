//! Behavioural tests for the fork-join pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use par_pool::Pool;

#[test]
fn join_returns_both_results() {
    let pool = Pool::new(2);
    let (a, b) = pool.join(|| 6 * 7, || "ok".to_string());
    assert_eq!(a, 42);
    assert_eq!(b, "ok");
}

#[test]
fn nested_scopes_do_not_deadlock() {
    // Recursive fan-out deeper than the worker count: only help-first
    // waiting makes this terminate.
    fn fib(pool: &Pool, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = pool.join(|| fib(pool, n - 1), || fib(pool, n - 2));
        a + b
    }
    // A waiting thread's stack holds one frame chain per task it helped
    // with, so the caller gets the stack the pool gives its own workers:
    // on a test thread's 2 MiB a debug build overflows one run in three.
    let caller = std::thread::Builder::new()
        .stack_size(16 << 20)
        .spawn(|| fib(&Pool::new(2), 16))
        .expect("spawn the caller");
    assert_eq!(caller.join().expect("no panic"), 987);
}

#[test]
fn scope_tasks_can_borrow_stack_data() {
    let pool = Pool::new(4);
    let mut buckets = [0usize; 8];
    pool.scope(|s| {
        for (i, slot) in buckets.iter_mut().enumerate() {
            s.spawn(move |_| *slot = i * i);
        }
    });
    assert_eq!(buckets[7], 49);
}

#[test]
fn recursive_spawns_complete_before_scope_returns() {
    let pool = Pool::new(3);
    let count = AtomicUsize::new(0);
    pool.scope(|s| {
        for _ in 0..4 {
            s.spawn(|s| {
                count.fetch_add(1, Ordering::SeqCst);
                for _ in 0..4 {
                    s.spawn(|_| {
                        count.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }
    });
    assert_eq!(count.load(Ordering::SeqCst), 4 + 16);
}

#[test]
fn panics_propagate_after_all_tasks_finish() {
    let pool = Pool::new(2);
    let completed = AtomicUsize::new(0);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.scope(|s| {
            s.spawn(|_| panic!("task boom"));
            for _ in 0..8 {
                s.spawn(|_| {
                    completed.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
    }));
    assert!(result.is_err());
    assert_eq!(completed.load(Ordering::SeqCst), 8);
    // Pool must stay usable after a panic.
    let (a, b) = pool.join(|| 1, || 2);
    assert_eq!(a + b, 3);
}

#[test]
fn a_job_panicking_under_a_lock_does_not_wedge_the_next_scope() {
    // What the engine's chaos suites inject: a task dies while it holds
    // a lock the next stage's tasks need.
    let pool = Pool::new(2);
    let total = par_pool::Mutex::new(0u32);
    let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.scope(|s| {
            s.spawn(|_| {
                let _held = total.lock();
                panic!("task boom with the lock taken");
            });
        });
    }));
    assert!(first.is_err());
    pool.scope(|s| {
        for _ in 0..8 {
            s.spawn(|_| *total.lock() += 1);
        }
    });
    assert_eq!(*total.lock(), 8);
}

#[test]
fn single_thread_pool_runs_inline_deterministically() {
    // A scope entered on the pool's only worker has no one to share
    // with: every task runs on that thread, newest first off its own
    // deque, so the order is fixed. (The lock keeps the pushes sound
    // wherever a task runs; an earlier unsynchronized `*const -> *mut
    // Vec` cast here was undefined behavior and crashed under release
    // optimization.)
    let pool = Arc::new(Pool::new(1));
    let inner = Arc::clone(&pool);
    let (tx, rx) = mpsc::channel();
    pool.spawn(move || {
        let owner = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        inner.scope(|s| {
            for i in 0..16usize {
                let order = &order;
                s.spawn(move |_| {
                    let here = std::thread::current().id();
                    order.lock().unwrap().push((i, here == owner));
                });
            }
        });
        tx.send(order.into_inner().unwrap())
            .expect("the test is waiting");
    });
    let order = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the scope finished");
    let want: Vec<(usize, bool)> = (0..16).rev().map(|i| (i, true)).collect();
    assert_eq!(order, want);
}

#[test]
fn chunked_mutation_covers_slice() {
    let pool = Pool::new(4);
    let mut data = vec![0u32; 301];
    pool.scope(|s| {
        for (k, chunk) in data.chunks_mut(37).enumerate() {
            s.spawn(move |_| {
                for (i, x) in chunk.iter_mut().enumerate() {
                    *x = (k * 37 + i) as u32;
                }
            });
        }
    });
    for (i, x) in data.iter().enumerate() {
        assert_eq!(*x, i as u32);
    }
}

#[test]
fn heavy_mixed_load_smoke() {
    let pool = Pool::new(4);
    let total = AtomicUsize::new(0);
    pool.scope(|s| {
        for _ in 0..32 {
            s.spawn(|s| {
                for _ in 0..8 {
                    s.spawn(|_| {
                        total.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
    });
    assert_eq!(total.load(Ordering::Relaxed), 32 * 8);
    // Pool keeps working across many scopes.
    for _ in 0..50 {
        let sum = AtomicUsize::new(0);
        pool.scope(|s| {
            for i in 0..100 {
                let sum = &sum;
                s.spawn(move |_| {
                    sum.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }
}

#[test]
fn scope_completion_race_hammer() {
    // Regression: `Scope::complete` once touched the scope after the
    // pending counter hit zero — a use-after-free when the owner
    // returned between the decrement and the wakeup. Thousands of
    // short-lived scopes with instant tasks maximize that window.
    let pool = Pool::new(2);
    for _ in 0..20_000 {
        let mut x = 0u64;
        pool.scope(|s| {
            s.spawn(|_| {
                std::hint::black_box(1u64);
            });
            x += 1;
        });
        assert_eq!(x, 1);
    }
    // And from several driver threads at once.
    std::thread::scope(|ts| {
        for _ in 0..4 {
            ts.spawn(|| {
                let local = Pool::new(2);
                for _ in 0..2_000 {
                    local.scope(|s| {
                        s.spawn(|_| {
                            std::hint::black_box(2u64);
                        });
                    });
                }
            });
        }
    });
}

#[test]
fn last_handle_dropped_on_a_worker_does_not_join_itself() {
    // An engine context owns its pools and is itself shared with the
    // jobs running on them, so the last reference can die on a worker.
    let pool = Arc::new(Pool::new(2));
    let inside = Arc::clone(&pool);
    let (released, wait_released) = mpsc::channel::<()>();
    let (done, wait_done) = mpsc::channel::<()>();
    pool.spawn(move || {
        wait_released.recv().expect("main dropped its handle first");
        drop(inside); // the last one: `Pool::drop` runs on this worker
        done.send(()).expect("main is waiting");
    });
    drop(pool);
    released.send(()).expect("job is waiting");
    wait_done
        .recv_timeout(Duration::from_secs(30))
        .expect("the worker dropped its own pool and carried on");
}
