//! Adaptive-execution benches: static plans vs the AQE loop on the
//! workload it is built for — Gaussian elimination, whose active set
//! shrinks phase by phase so any static partition count is wrong at
//! one end of the run.
//!
//! Two angles:
//! * `aqe_virtual_ge` — the full dataflow with virtual blocks (the
//!   engine's scheduling, shuffles and planning, no numeric kernels):
//!   measures what the adaptive loop itself costs and saves at the
//!   stage level.
//! * `aqe_real_ge` — a small real solve, adaptive vs static: the
//!   planner must never cost more than its coalesces save.

use dp_bench::{bench_iters, time_sample};
use dp_core::{solve, solve_virtual, DpConfig};
use gep_kernels::{GaussianElim, Matrix};
use sparklet::{SparkConf, SparkContext};

fn conf(partitions: usize, adaptive: bool) -> SparkConf {
    let c = SparkConf::default()
        .with_executors(4)
        .with_executor_cores(2)
        .with_partitions(partitions)
        .with_sim_seed(42);
    if adaptive {
        c.with_adaptive_execution()
    } else {
        c
    }
}

fn dd_matrix(n: usize) -> Matrix<f64> {
    let mut m = Matrix::from_fn(n, n, |i, j| (((i * 5 + j * 3) % 11) as f64 - 5.0) / 7.0);
    let mut cells = m.view_mut();
    for i in 0..n {
        cells.set(i, i, n as f64 + 1.0);
    }
    m
}

fn main() {
    let iters = bench_iters(10);
    for (name, partitions, adaptive) in [
        ("static64", 64usize, false),
        ("static16", 16, false),
        ("adaptive", 64, true),
    ] {
        time_sample(&format!("aqe_virtual_ge/{name}"), 0, iters, || {
            let sc = SparkContext::new(conf(partitions, adaptive));
            let cfg = DpConfig::new(4096, 512).with_partitions(partitions);
            solve_virtual::<GaussianElim>(&sc, &cfg).unwrap();
        });
    }
    let input = dd_matrix(64);
    for (name, adaptive) in [("static", false), ("adaptive", true)] {
        time_sample(&format!("aqe_real_ge_64/{name}"), 0, iters, || {
            let sc = SparkContext::new(conf(32, adaptive));
            let cfg = DpConfig::new(64, 8).with_partitions(32);
            solve::<GaussianElim>(&sc, &cfg, &input).unwrap();
        });
    }
}
