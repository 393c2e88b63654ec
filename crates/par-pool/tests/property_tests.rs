//! Property tests: the pool computes the same results as sequential
//! execution for arbitrary workloads, fan-outs, and thread counts.

use std::sync::atomic::{AtomicU64, Ordering};

use par_pool::Pool;
use testkit::check;

const CASES: u32 = 16;

#[test]
fn parallel_for_equals_sequential_fold() {
    check(CASES, |rng| {
        let data = rng.vec(0..500, |r| r.u64() as u32);
        let pool = Pool::new(rng.range(1usize..5));
        let parallel_sum = AtomicU64::new(0);
        pool.scope(|s| {
            for &x in &data {
                let parallel_sum = &parallel_sum;
                s.spawn(move |_| {
                    parallel_sum.fetch_add(x as u64, Ordering::Relaxed);
                });
            }
        });
        let sequential: u64 = data.iter().map(|&x| x as u64).sum();
        assert_eq!(parallel_sum.load(Ordering::Relaxed), sequential);
    });
}

#[test]
fn chunked_writes_cover_every_slot() {
    check(CASES, |rng| {
        let len = rng.range(0usize..400);
        let chunk = rng.range(1usize..64);
        let pool = Pool::new(rng.range(1usize..4));
        let mut data = vec![u32::MAX; len];
        pool.scope(|s| {
            for (k, slice) in data.chunks_mut(chunk).enumerate() {
                s.spawn(move |_| {
                    for (i, x) in slice.iter_mut().enumerate() {
                        *x = (k * chunk + i) as u32;
                    }
                });
            }
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, i as u32);
        }
    });
}

#[test]
fn nested_joins_compute_correct_reductions() {
    fn tree_sum(pool: &Pool, data: &[u64]) -> u64 {
        if data.len() <= 8 {
            return data.iter().sum();
        }
        let mid = data.len() / 2;
        let (a, b) = pool.join(
            || tree_sum(pool, &data[..mid]),
            || tree_sum(pool, &data[mid..]),
        );
        a + b
    }
    check(CASES, |rng| {
        let data = rng.vec(1..200, |r| r.range(0u64..1000));
        let pool = Pool::new(rng.range(1usize..4));
        assert_eq!(tree_sum(&pool, &data), data.iter().sum::<u64>());
    });
}
