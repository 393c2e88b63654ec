//! Real wall-clock kernel microbenchmarks on the host machine: the
//! iterative-vs-recursive story of Fig. 6 measured for real (not
//! simulated) — iterative block kernels lose temporal locality as the
//! block outgrows cache while r-way R-DP kernels stay flat, and the
//! `r_shared` fan-out trades recursion overhead against base-case size.
//!
//! Besides the Criterion groups, the suite times every registered
//! backend × GEP kind through the registry's `run` entry point and
//! writes `BENCH_kernels.json` (bench name, mean ns, bytes touched) so
//! CI can track per-backend kernel throughput without parsing
//! Criterion's output directory.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use dp_bench::{time_sample, write_bench_json, BenchSample};
use dp_core::{registry, KernelParams};
use gep_kernels::gep::Kind;
use gep_kernels::iterative::block_kernel;
use gep_kernels::recursive::{rec_kernel, RecConfig};
use gep_kernels::{GaussianElim, Matrix, Tropical};
use par_pool::Pool;

static SAMPLES: std::sync::Mutex<Vec<BenchSample>> = std::sync::Mutex::new(Vec::new());

fn record(sample: BenchSample) {
    SAMPLES.lock().expect("samples").push(sample);
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
    for i in 0..n {
        m.set(i, i, n as f64 + 1.0);
    }
    m
}

/// The Fig. 6 mechanism, measured: FW A-kernel per block size, both
/// kernel types. Watch updates/s stay flat for recursive and sag for
/// iterative once 3·b²·8 bytes outgrow the cache.
fn bench_block_size_crossover(c: &mut Criterion) {
    let pool = Pool::new(2);
    let mut group = c.benchmark_group("fw_a_kernel_block_size");
    group.sample_size(10);
    for &b in &[128usize, 256, 512] {
        group.throughput(Throughput::Elements((b * b * b) as u64));
        group.bench_with_input(BenchmarkId::new("iterative", b), &b, |bench, &b| {
            let m = dist_matrix(b, 7);
            bench.iter_batched(
                || m.clone(),
                |mut m| block_kernel::<Tropical>(Kind::A, &mut m.view_mut(), None, None, None),
                criterion::BatchSize::LargeInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("recursive_4way", b), &b, |bench, &b| {
            let m = dist_matrix(b, 7);
            let cfg = RecConfig::new(4, 32);
            bench.iter_batched(
                || m.clone(),
                |mut m| {
                    rec_kernel::<Tropical>(&pool, &cfg, Kind::A, m.view_mut(), None, None, None)
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// r_shared sweep at a fixed block size (the paper's kernel-level knob).
fn bench_r_shared(c: &mut Criterion) {
    let pool = Pool::new(2);
    let b = 256;
    let mut group = c.benchmark_group("ge_a_kernel_r_shared");
    group.sample_size(10);
    group.throughput(Throughput::Elements((b * b * b / 3) as u64));
    for &r in &[2usize, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(r), &r, |bench, &r| {
            let m = dd_matrix(b, 3);
            let cfg = RecConfig::new(r, 16);
            bench.iter_batched(
                || m.clone(),
                |mut m| {
                    rec_kernel::<GaussianElim>(&pool, &cfg, Kind::A, m.view_mut(), None, None, None)
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// Base-case size: tiny bases drown in recursion overhead, huge bases
/// lose the cache-adaptivity. The useful range is the flat middle.
fn bench_base_case(c: &mut Criterion) {
    let pool = Pool::new(2);
    let b = 256;
    let mut group = c.benchmark_group("fw_a_kernel_base_case");
    group.sample_size(10);
    for &base in &[8usize, 32, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(base), &base, |bench, &base| {
            let m = dist_matrix(b, 11);
            let cfg = RecConfig::new(2, base);
            bench.iter_batched(
                || m.clone(),
                |mut m| {
                    rec_kernel::<Tropical>(&pool, &cfg, Kind::A, m.view_mut(), None, None, None)
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// D-kernel (the GEMM-like workhorse): iterative vs recursive with
/// disjoint operands, per kernel family.
fn bench_d_kernel(c: &mut Criterion) {
    let pool = Pool::new(2);
    let b = 256;
    let mut group = c.benchmark_group("ge_d_kernel");
    group.sample_size(10);
    group.throughput(Throughput::Elements((b * b * b) as u64));
    let u = dd_matrix(b, 1);
    let v = dd_matrix(b, 2);
    let w = dd_matrix(b, 3);
    let x = dd_matrix(b, 4);
    group.bench_function("iterative", |bench| {
        bench.iter_batched(
            || x.clone(),
            |mut x| {
                block_kernel::<GaussianElim>(
                    Kind::D,
                    &mut x.view_mut_at(b, b),
                    Some(u.view_at(b, 0)),
                    Some(v.view_at(0, b)),
                    Some(w.view_at(0, 0)),
                )
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.bench_function("recursive_4way", |bench| {
        let cfg = RecConfig::new(4, 32);
        bench.iter_batched(
            || x.clone(),
            |mut x| {
                rec_kernel::<GaussianElim>(
                    &pool,
                    &cfg,
                    Kind::D,
                    x.view_mut_at(b, b),
                    Some(u.view_at(b, 0)),
                    Some(v.view_at(0, b)),
                    Some(w.view_at(0, 0)),
                )
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

/// Every registered backend through the registry's own `run`
/// entry point, per GEP kind, on min-plus tiles. Operands follow the
/// solver's raw convention: A updates the diagonal in place, B/C see
/// the diagonal as `w`, D gets the column/row panels (`w` elided —
/// min-plus is `!USES_W`). Samples land in `BENCH_kernels.json` as
/// `backend_kernel/<backend>/<kind>` rows.
fn bench_backend_matrix(_c: &mut Criterion) {
    let b = 128;
    let params = KernelParams {
        r_shared: 4,
        base: 32,
        threads: 2,
    };
    let diag = dist_matrix(b, 21);
    let panel_u = dist_matrix(b, 22);
    let panel_v = dist_matrix(b, 23);
    let bytes = (b * b * 8) as u64;
    let reg = registry::<Tropical>();
    for spec in reg.dense_candidates(params) {
        let backend = reg.resolve(&spec).expect("a candidate resolves");
        let name = backend.name();
        for kind in [Kind::A, Kind::B, Kind::C, Kind::D] {
            let label = format!("backend_kernel/{name}/{kind:?}");
            let mut x = match kind {
                Kind::A => diag.clone(),
                Kind::B => panel_v.clone(),
                Kind::C => panel_u.clone(),
                Kind::D => dist_matrix(b, 24),
            };
            record(time_sample(&label, bytes, 5, || match kind {
                Kind::A => backend.run(kind, &params, &mut x.view_mut(), None, None, None),
                Kind::B | Kind::C => backend.run(
                    kind,
                    &params,
                    &mut x.view_mut(),
                    None,
                    None,
                    Some(diag.view()),
                ),
                Kind::D => backend.run(
                    kind,
                    &params,
                    &mut x.view_mut(),
                    Some(panel_u.view()),
                    Some(panel_v.view()),
                    None,
                ),
            }));
        }
    }
}

criterion_group!(
    benches,
    bench_block_size_crossover,
    bench_r_shared,
    bench_base_case,
    bench_d_kernel,
    bench_backend_matrix
);

fn main() {
    benches();
    let samples = SAMPLES.lock().expect("samples").clone();
    match write_bench_json("kernels", &samples) {
        Ok(path) => eprintln!("wrote {} samples to {}", samples.len(), path.display()),
        Err(e) => eprintln!("BENCH_kernels.json not written: {e}"),
    }
}
