//! Widest-path (maximum-bottleneck) routing over the max-min semiring
//! — the closed-semiring generality of the paper's Section V-A (Aho et
//! al.'s framework), running on the same distributed GEP machinery.
//!
//! ```text
//! cargo run --release --example widest_path
//! ```
//!
//! Models a network of links with capacities; the all-pairs closure
//! gives, for every pair, the largest bandwidth guaranteed along some
//! path (the bottleneck of its narrowest link, maximized over paths).

use dp_core::{solve, DpConfig, KernelSpec, Strategy};
use gep_kernels::gep::SemiringPaths;
use gep_kernels::semiring::{MaxMin, Semiring};
use gep_kernels::Matrix;
use sparklet::{SparkConf, SparkContext};

fn main() {
    // A 160-node network: ring of capacity-10 links + random shortcuts
    // with capacities 1..40.
    let n = 160;
    let mut state = 0xBEEFu64;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut caps = Matrix::filled(n, n, MaxMin::ZERO);
    let mut cells = caps.view_mut();
    for i in 0..n {
        cells.set(i, i, MaxMin::ONE);
        cells.set(i, (i + 1) % n, MaxMin(10.0));
        cells.set((i + 1) % n, i, MaxMin(10.0));
    }
    for _ in 0..n {
        let a = (rnd() % n as u64) as usize;
        let b = (rnd() % n as u64) as usize;
        if a != b {
            let c = MaxMin((rnd() % 40 + 1) as f64);
            cells.set(a, b, c);
            cells.set(b, a, c);
        }
    }

    let sc = SparkContext::new(
        SparkConf::default()
            .with_executors(4)
            .with_executor_cores(2)
            .with_partitions(16),
    );
    let cfg = DpConfig::new(n, 40)
        .with_strategy(Strategy::InMemory)
        .with_kernel(KernelSpec::recursive(2, 10, 2));

    println!("computing all-pairs widest paths for a {n}-node network …");
    let widest = solve::<SemiringPaths<MaxMin>>(&sc, &cfg, &caps).expect("distributed closure");

    // Validate against the sequential reference.
    let mut reference = caps.clone();
    gep_kernels::gep::gep_reference::<SemiringPaths<MaxMin>>(&mut reference);
    assert_eq!(widest.first_difference(&reference), None);
    println!("validated against the sequential reference (bitwise)");

    // Every pair is at least ring-connected → bottleneck ≥ 10.
    let min_pairwise = (0..n)
        .flat_map(|i| (0..n).map(move |j| (i, j)))
        .filter(|(i, j)| i != j)
        .map(|(i, j)| widest.get(i, j).0)
        .fold(f64::INFINITY, f64::min);
    println!("minimum guaranteed bandwidth between any pair: {min_pairwise}");
    assert!(min_pairwise >= 10.0);

    // The best-served pair.
    let best = (0..n)
        .flat_map(|i| (0..n).map(move |j| (i, j)))
        .filter(|(i, j)| i != j)
        .map(|(i, j)| (widest.get(i, j).0, i, j))
        .fold((0.0f64, 0, 0), |a, b| if b.0 > a.0 { b } else { a });
    println!(
        "widest pair: {} ↔ {} at bandwidth {}",
        best.1, best.2, best.0
    );
}
