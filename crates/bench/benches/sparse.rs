//! The representation crossover study: dense Floyd–Warshall (work n³,
//! density-blind) versus multi-source sparse CSR relaxation sweeps
//! (work ≈ rounds · sources · nnz, so it scales with edge density) on
//! the same seeded random graphs, sweeping density at fixed n. The suite
//! prints each mean and writes `BENCH_sparse.json` (bench name, mean
//! ns, graph bytes) so CI can assert the sidecar's shape and
//! EXPERIMENTS.md can cite the crossover point.

use std::hint::black_box;

use dp_bench::{bench_iters, time_sample, write_bench_json};
use gep_kernels::gep::gep_reference;
use gep_kernels::graph::sparse_erdos_renyi;
use gep_kernels::sparse::{sweep_gep, Csr};
use gep_kernels::{Matrix, Tropical};

const N: usize = 128;
const DENSITIES: [f64; 4] = [0.01, 0.05, 0.2, 0.5];

/// The dense view of the graph with the FW convention (0 diagonal).
fn dense_input(g: &Csr<f64>) -> Matrix<f64> {
    let mut m = g.to_dense();
    let mut cells = m.view_mut();
    for i in 0..cells.rows() {
        cells.set(i, i, 0.0);
    }
    m
}

fn run_fw(input: &Matrix<f64>) -> Matrix<f64> {
    let mut table = input.clone();
    gep_reference::<Tropical>(&mut table);
    table
}

/// All-pairs via repeated multi-source sweeps (every vertex a source),
/// the local analogue of the distributed sssp path: sweep, merge with
/// min, stop when a round changes nothing.
fn run_sweeps(g: &Csr<f64>) -> Matrix<f64> {
    let n = g.rows();
    let inf = f64::INFINITY;
    let mut dist = Matrix::from_fn(n, n, |i, j| if i == j { 0.0 } else { inf });
    for _round in 0..=n {
        let mut cand = Matrix::filled(n, n, inf);
        sweep_gep::<Tropical>(g, &dist, inf, &mut cand);
        let mut changed = false;
        let d = dist.as_mut_slice();
        for (cell, &c) in d.iter_mut().zip(cand.as_slice()) {
            if c < *cell {
                *cell = c;
                changed = true;
            }
        }
        if !changed {
            return dist;
        }
    }
    panic!("generator emits non-negative weights; sweeps must converge");
}

fn main() {
    let iters = bench_iters(10);
    let mut samples = Vec::new();
    for density in DENSITIES {
        let g = sparse_erdos_renyi(N, density, 1.0, 10.0, 0xc0ffee);
        let dense = dense_input(&g);
        // Same answer from both representations before timing them. FW
        // associates a path sum as (prefix)+(suffix) while sweeps build
        // it left to right, so equal shortest paths can differ in the
        // last ulp — compare with a tight tolerance, not bitwise. (The
        // engine's bitwise oracle is Bellman–Ford, which shares the
        // sweeps' association order; see crates/core/tests/sparse_apsp.rs.)
        let fw = run_fw(&dense);
        let sw = run_sweeps(&g);
        for (i, (a, b)) in fw.as_slice().iter().zip(sw.as_slice()).enumerate() {
            let close = (a - b).abs() <= 1e-9 * a.abs().max(1.0) || (a == b);
            assert!(
                close,
                "representations disagree at density {density}, cell {i}: {a} vs {b}"
            );
        }
        let tag = format!("d{:03}", (density * 100.0) as u32);
        // Dense bytes are density-blind; sparse bytes are nnz-exact —
        // the same asymmetry the engine's wire frames have.
        let dense_bytes = (N * N * 8) as u64;
        let sparse_bytes = ((N + 1) * 4 + g.nnz() * 12) as u64;

        samples.push(time_sample(
            &format!("sparse/fw_{tag}"),
            dense_bytes,
            iters,
            || {
                black_box(run_fw(&dense));
            },
        ));
        samples.push(time_sample(
            &format!("sparse/sweeps_{tag}"),
            sparse_bytes,
            iters,
            || {
                black_box(run_sweeps(&g));
            },
        ));
    }
    match write_bench_json("sparse", &samples) {
        Ok(path) => eprintln!("wrote {} samples to {}", samples.len(), path.display()),
        Err(e) => eprintln!("BENCH_sparse.json not written: {e}"),
    }
}
