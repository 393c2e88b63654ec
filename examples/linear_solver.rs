//! Distributed Gaussian elimination: solve a dense linear system.
//!
//! ```text
//! cargo run --release --example linear_solver
//! ```
//!
//! Builds a diagonally dominant system `A·x = rhs` (GE without pivoting
//! is stable for it, as the paper notes), solves it with
//! [`dp_core::solve_linear_system`] — distributed Collect-Broadcast
//! forward elimination (the winning strategy for GE in the paper) plus
//! driver-side back-substitution — checks the residual, and also
//! extracts the LU factors.

use dp_core::{solve_linear_system, DpConfig, KernelSpec, Strategy};
use gep_kernels::gep::gep_reference;
use gep_kernels::linalg::{lu_factors, matmul};
use gep_kernels::{GaussianElim, Matrix};
use sparklet::{SparkConf, SparkContext};

#[allow(clippy::needless_range_loop)]
fn main() {
    let unknowns = 255;

    // Deterministic diagonally dominant A and a known solution x*.
    let mut state = 0xC0FFEEu64;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut a = Matrix::square(unknowns, 0.0f64);
    let mut cells = a.view_mut();
    for i in 0..unknowns {
        for j in 0..unknowns {
            cells.set(i, j, rnd() * 2.0 - 1.0);
        }
        cells.set(i, i, unknowns as f64 + 1.0 + rnd());
    }
    let x_true: Vec<f64> = (0..unknowns)
        .map(|i| ((i % 17) as f64 - 8.0) / 4.0)
        .collect();
    let rhs: Vec<f64> = (0..unknowns)
        .map(|i| (0..unknowns).map(|j| a.get(i, j) * x_true[j]).sum())
        .collect();

    let sc = SparkContext::new(
        SparkConf::default()
            .with_executors(4)
            .with_executor_cores(2)
            .with_partitions(16),
    );
    let template = DpConfig::new(1, 64)
        .with_strategy(Strategy::CollectBroadcast)
        .with_kernel(KernelSpec::recursive(4, 16, 2));

    println!(
        "solving a {unknowns}-unknown system as {} …",
        template.label()
    );
    let x = solve_linear_system(&sc, &template, &a, &rhs).expect("distributed solve");

    // Residual against the original system.
    let mut max_residual = 0.0f64;
    for i in 0..unknowns {
        let ax: f64 = (0..unknowns).map(|j| a.get(i, j) * x[j]).sum();
        max_residual = max_residual.max((ax - rhs[i]).abs());
    }
    let max_err = x
        .iter()
        .zip(&x_true)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max |A·x − rhs| = {max_residual:.3e}");
    println!("max |x − x*|    = {max_err:.3e}");
    assert!(max_residual < 1e-8, "residual too large");
    assert!(max_err < 1e-8, "solution error too large");
    println!("solved: x[0..4] = {:?}", &x[..4]);

    // Bonus: the LU factors of A (from a sequential GE-reduction of A
    // itself) reconstruct it.
    let mut reduced = a.clone();
    gep_reference::<GaussianElim>(&mut reduced);
    let (l, u) = lu_factors(&reduced);
    let lu = matmul(&l, &u);
    let mut lu_err = 0.0f64;
    for i in 0..unknowns {
        for j in 0..unknowns {
            lu_err = lu_err.max((lu.get(i, j) - a.get(i, j)).abs());
        }
    }
    println!("max |L·U − A|   = {lu_err:.3e}");
    assert!(lu_err < 1e-8);
}
