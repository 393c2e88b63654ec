//! Transitive closure of a dependency graph — the third GEP instance
//! (Warshall's algorithm over the boolean semiring).
//!
//! ```text
//! cargo run --release --example reachability
//! ```
//!
//! Models a package-dependency graph and answers "what does X
//! transitively depend on" / "what would break if X is removed" from
//! the distributed closure.

use dp_core::{solve, DpConfig, Strategy};
use gep_kernels::gep::gep_reference;
use gep_kernels::{Matrix, TransitiveClosure};
use sparklet::{SparkConf, SparkContext};

fn main() {
    // Synthetic layered dependency graph: 192 packages in 6 layers;
    // packages depend on a few packages from lower layers.
    let n = 192;
    let layers = 6;
    let per_layer = n / layers;
    let mut state = 0xDEC0DEu64;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut deps = Matrix::from_fn(n, n, |i, j| i == j);
    let mut cells = deps.view_mut();
    for layer in 1..layers {
        for p in 0..per_layer {
            let pkg = layer * per_layer + p;
            for _ in 0..3 {
                let dep = (rnd() as usize) % (layer * per_layer);
                cells.set(pkg, dep, true);
            }
        }
    }

    let sc = SparkContext::new(
        SparkConf::default()
            .with_executors(3)
            .with_executor_cores(2)
            .with_partitions(12),
    );
    let cfg = DpConfig::new(n, 48).with_strategy(Strategy::InMemory);
    println!(
        "computing transitive closure of {n} packages as {} …",
        cfg.label()
    );
    let closure = solve::<TransitiveClosure>(&sc, &cfg, &deps).expect("distributed closure");

    // Validate against the sequential reference.
    let mut reference = deps.clone();
    gep_reference::<TransitiveClosure>(&mut reference);
    assert_eq!(closure.first_difference(&reference), None, "validated");

    // Query: the package with the largest transitive dependency set.
    let (widest, count) = (0..n)
        .map(|p| ((0..n).filter(|&d| closure.get(p, d) && d != p).count(), p))
        .max()
        .map(|(c, p)| (p, c))
        .unwrap();
    println!("package {widest} has the largest dependency cone: {count} packages");

    // Query: blast radius — how many packages transitively depend on
    // each layer-0 package, on average.
    let blast: f64 = (0..per_layer)
        .map(|d| (0..n).filter(|&p| closure.get(p, d) && p != d).count() as f64)
        .sum::<f64>()
        / per_layer as f64;
    println!("average blast radius of a layer-0 package: {blast:.1} dependents");
}
