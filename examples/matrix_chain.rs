//! Matrix-chain multiplication — a DP *beyond GEP* (the paper's future
//! work #1) solved distributed via the wavefront parenthesis solver.
//!
//! ```text
//! cargo run --release --example matrix_chain
//! ```

use dp_core::solve_parenthesis;
use gep_kernels::parenthesis::{solve_reference, ParenWeight};
use gep_kernels::Matrix;
use sparklet::{SparkConf, SparkContext};

/// Reconstruct the optimal parenthesization from the cost table.
fn parenthesize(c: &Matrix<f64>, w: &ParenWeight, i: usize, j: usize) -> String {
    if j == i + 1 {
        return format!("A{i}");
    }
    for k in (i + 1)..j {
        if (c.get(i, k) + c.get(k, j) + w.w(i, k, j) - c.get(i, j)).abs() < 1e-9 {
            return format!(
                "({} {})",
                parenthesize(c, w, i, k),
                parenthesize(c, w, k, j)
            );
        }
    }
    unreachable!("no split reproduces the optimal cost");
}

fn main() {
    // The classic CLRS chain plus a longer random one.
    let clrs = ParenWeight::MatrixChain(vec![30, 35, 15, 5, 10, 20, 25]);

    let sc = SparkContext::new(
        SparkConf::default()
            .with_executors(3)
            .with_executor_cores(2)
            .with_partitions(9),
    );

    println!("CLRS chain ⟨30,35,15,5,10,20,25⟩:");
    let c = solve_parenthesis(&sc, &clrs, 3).expect("distributed solve");
    println!("  optimal scalar multiplications: {}", c.get(0, 6));
    println!("  parenthesization: {}", parenthesize(&c, &clrs, 0, 6));
    assert_eq!(c.get(0, 6), 15125.0);

    // A 96-matrix chain, distributed in 16-blocks across the wavefront.
    let mut state = 0xFEEDu64;
    let dims: Vec<u64> = (0..=96)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 90 + 10
        })
        .collect();
    let big = ParenWeight::MatrixChain(dims);
    let n = big.n();
    println!("\nrandom chain of {n} matrices (block side 16):");
    let t0 = std::time::Instant::now();
    let c = solve_parenthesis(&sc, &big, 16).expect("distributed solve");
    println!("  optimal cost: {:.0}  ({:.2?})", c.get(0, n), t0.elapsed());
    let reference = solve_reference(&big);
    assert_eq!(
        c.first_difference(&reference),
        None,
        "distributed must equal the sequential reference"
    );
    println!("  validated against the sequential reference (bitwise)");
    let did = sc.summary();
    println!(
        "  engine: {} stages, {:.1} MB broadcast over {} wavefront diagonals",
        did.stages,
        did.broadcast_bytes as f64 / 1e6,
        n.div_ceil(16),
    );
}
