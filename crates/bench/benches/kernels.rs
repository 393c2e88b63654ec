//! Real wall-clock kernel microbenchmarks on the host machine: the
//! iterative-vs-recursive story of Fig. 6 measured for real (not
//! simulated) — iterative block kernels lose temporal locality as the
//! block outgrows cache while r-way R-DP kernels stay flat, and the
//! `r_shared` fan-out trades recursion overhead against base-case size.
//!
//! Each sample clones its input tile and runs one kernel on the copy
//! (the clone is O(b²) against the kernel's O(b³)). The suite also
//! times both kernels × GEP kind through dp-core's `Backend::run`;
//! every mean is printed and lands in `BENCH_kernels.json` (bench
//! name, mean ns, bytes touched) so CI can track per-kernel throughput.

use dp_bench::{bench_iters, time_sample, write_bench_json, BenchSample};
use dp_core::{KernelParams, KernelSpec};
use gep_kernels::gep::Kind;
use gep_kernels::iterative::block_kernel;
use gep_kernels::recursive::{rec_kernel, RecConfig};
use gep_kernels::{GaussianElim, Matrix, Tropical};
use par_pool::Pool;

fn tile_bytes(b: usize) -> u64 {
    (b * b * 8) as u64
}

fn dist_matrix(n: usize, seed: u64) -> Matrix<f64> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            0.0
        } else if next() < 0.5 {
            1.0 + (next() * 9.0).floor()
        } else {
            f64::INFINITY
        }
    })
}

fn dd_matrix(n: usize, seed: u64) -> Matrix<f64> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut m = Matrix::from_fn(n, n, |_, _| next() - 0.5);
    let mut cells = m.view_mut();
    for i in 0..n {
        cells.set(i, i, n as f64 + 1.0);
    }
    m
}

/// The Fig. 6 mechanism, measured: FW A-kernel per block size, both
/// kernel types. Watch updates/s stay flat for recursive and sag for
/// iterative once 3·b²·8 bytes outgrow the cache.
fn bench_block_size_crossover(samples: &mut Vec<BenchSample>, iters: u32) {
    let pool = Pool::new(2);
    for b in [128usize, 256, 512] {
        let m = dist_matrix(b, 7);
        let name = format!("fw_a_kernel_block_size/iterative/{b}");
        samples.push(time_sample(&name, tile_bytes(b), iters, || {
            block_kernel::<Tropical>(Kind::A, &mut m.clone().view_mut(), None, None, None)
        }));
        let cfg = RecConfig::new(4, 32);
        let name = format!("fw_a_kernel_block_size/recursive_4way/{b}");
        samples.push(time_sample(&name, tile_bytes(b), iters, || {
            rec_kernel::<Tropical>(&pool, &cfg, Kind::A, m.clone().view_mut(), None, None, None)
        }));
    }
}

/// r_shared sweep at a fixed block size (the paper's kernel-level knob).
fn bench_r_shared(samples: &mut Vec<BenchSample>, iters: u32) {
    let pool = Pool::new(2);
    let b = 256;
    let m = dd_matrix(b, 3);
    for r in [2usize, 4, 8, 16] {
        let cfg = RecConfig::new(r, 16);
        let name = format!("ge_a_kernel_r_shared/{r}");
        samples.push(time_sample(&name, tile_bytes(b), iters, || {
            rec_kernel::<GaussianElim>(&pool, &cfg, Kind::A, m.clone().view_mut(), None, None, None)
        }));
    }
}

/// Base-case size: tiny bases drown in recursion overhead, huge bases
/// lose the cache-adaptivity. The useful range is the flat middle.
fn bench_base_case(samples: &mut Vec<BenchSample>, iters: u32) {
    let pool = Pool::new(2);
    let b = 256;
    let m = dist_matrix(b, 11);
    for base in [8usize, 32, 128] {
        let cfg = RecConfig::new(2, base);
        let name = format!("fw_a_kernel_base_case/{base}");
        samples.push(time_sample(&name, tile_bytes(b), iters, || {
            rec_kernel::<Tropical>(&pool, &cfg, Kind::A, m.clone().view_mut(), None, None, None)
        }));
    }
}

/// D-kernel (the GEMM-like workhorse): iterative vs recursive with
/// disjoint operands, per kernel family.
fn bench_d_kernel(samples: &mut Vec<BenchSample>, iters: u32) {
    let pool = Pool::new(2);
    let b = 256;
    let u = dd_matrix(b, 1);
    let v = dd_matrix(b, 2);
    let w = dd_matrix(b, 3);
    let x = dd_matrix(b, 4);
    samples.push(time_sample(
        "ge_d_kernel/iterative",
        4 * tile_bytes(b),
        iters,
        || {
            block_kernel::<GaussianElim>(
                Kind::D,
                &mut x.clone().view_mut_at(b, b),
                Some(u.view_at(b, 0)),
                Some(v.view_at(0, b)),
                Some(w.view_at(0, 0)),
            )
        },
    ));
    let cfg = RecConfig::new(4, 32);
    samples.push(time_sample(
        "ge_d_kernel/recursive_4way",
        4 * tile_bytes(b),
        iters,
        || {
            rec_kernel::<GaussianElim>(
                &pool,
                &cfg,
                Kind::D,
                x.clone().view_mut_at(b, b),
                Some(u.view_at(b, 0)),
                Some(v.view_at(0, b)),
                Some(w.view_at(0, 0)),
            )
        },
    ));
}

/// Both kernels through dp-core's `Backend::run`, per GEP kind, on
/// min-plus tiles. Operands follow the solver's raw convention: A
/// updates the diagonal in place, B/C see the diagonal as `w`, D gets
/// the column/row panels (`w` elided — min-plus is `!USES_W`).
/// Samples land in `BENCH_kernels.json` as
/// `backend_kernel/<backend>/<kind>` rows, plus one GE kind-D row per
/// kernel, `backend_kernel_ge/<backend>/D`: a trailing tile wholly
/// inside Σ_G, with the diagonal as `w`.
fn bench_backend_matrix(samples: &mut Vec<BenchSample>) {
    let b = 128;
    let params = KernelParams {
        r_shared: 4,
        base: 32,
        threads: 2,
    };
    let diag = dist_matrix(b, 21);
    let panel_u = dist_matrix(b, 22);
    let panel_v = dist_matrix(b, 23);
    let ge = [25, 26, 27].map(|seed| dd_matrix(b, seed));
    let names = ["iterative", "recursive"];
    for (name, spec) in names.into_iter().zip(KernelSpec::both(params)) {
        let run = |kind, x: &mut Matrix<f64>, u, v, w| {
            spec.backend
                .run::<Tropical>(kind, &params, &mut x.view_mut(), u, v, w)
        };
        for kind in [Kind::A, Kind::B, Kind::C, Kind::D] {
            let label = format!("backend_kernel/{name}/{kind:?}");
            let mut x = match kind {
                Kind::A => diag.clone(),
                Kind::B => panel_v.clone(),
                Kind::C => panel_u.clone(),
                Kind::D => dist_matrix(b, 24),
            };
            samples.push(time_sample(&label, tile_bytes(b), 5, || match kind {
                Kind::A => run(kind, &mut x, None, None, None),
                Kind::B | Kind::C => run(kind, &mut x, None, None, Some(diag.view())),
                Kind::D => run(
                    kind,
                    &mut x,
                    Some(panel_u.view()),
                    Some(panel_v.view()),
                    None,
                ),
            }));
        }
        let [ge_diag, ge_u, ge_v] = &ge;
        let mut x = dd_matrix(b, 28);
        let label = format!("backend_kernel_ge/{name}/D");
        samples.push(time_sample(&label, tile_bytes(b), 5, || {
            spec.backend.run::<GaussianElim>(
                Kind::D,
                &params,
                &mut x.view_mut_at(b, b),
                Some(ge_u.view_at(b, 0)),
                Some(ge_v.view_at(0, b)),
                Some(ge_diag.view_at(0, 0)),
            )
        }));
    }
}

fn main() {
    let iters = bench_iters(10);
    let mut samples = Vec::new();
    bench_block_size_crossover(&mut samples, iters);
    bench_r_shared(&mut samples, iters);
    bench_base_case(&mut samples, iters);
    bench_d_kernel(&mut samples, iters);
    bench_backend_matrix(&mut samples);
    match write_bench_json("kernels", &samples) {
        Ok(path) => eprintln!("wrote {} samples to {}", samples.len(), path.display()),
        Err(e) => eprintln!("BENCH_kernels.json not written: {e}"),
    }
}
