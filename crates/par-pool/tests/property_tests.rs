//! Property tests: the pool computes the same results as sequential
//! execution for arbitrary workloads, fan-outs, and thread counts.

use std::sync::atomic::{AtomicU64, Ordering};

use par_pool::{split_ranges, Pool};
use testkit::check;

const CASES: u32 = 16;

#[test]
fn parallel_for_equals_sequential_fold() {
    check(CASES, |rng| {
        let data = rng.vec(0..500, |r| r.u64() as u32);
        let pool = Pool::new(rng.range(1usize..5));
        let parallel_sum = AtomicU64::new(0);
        pool.parallel_for(0, data.len(), |i| {
            parallel_sum.fetch_add(data[i] as u64, Ordering::Relaxed);
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
        pool.parallel_for_chunks(&mut data, chunk, |slice, base| {
            for (i, x) in slice.iter_mut().enumerate() {
                *x = (base + i) as u32;
            }
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, i as u32);
        }
    });
}

#[test]
fn split_ranges_partitions_any_input() {
    check(CASES, |rng| {
        let n = rng.range(0usize..10_000);
        let parts = rng.range(0usize..64);
        let ranges: Vec<_> = split_ranges(n, parts).collect();
        let mut expect = 0;
        for (s, e) in &ranges {
            assert_eq!(*s, expect);
            assert!(e > s);
            expect = *e;
        }
        assert_eq!(expect, n);
        // Balance: lengths differ by at most 1.
        if let (Some(min), Some(max)) = (
            ranges.iter().map(|(s, e)| e - s).min(),
            ranges.iter().map(|(s, e)| e - s).max(),
        ) {
            assert!(max - min <= 1);
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
