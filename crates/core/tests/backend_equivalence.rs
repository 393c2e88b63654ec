//! Cross-backend equivalence: every backend in the registry must
//! produce results **bit-identical** to the sequential `gep_reference`
//! oracle, across all four blocked-kernel kinds and both floating semirings
//! (min-plus FW-APSP and max-min widest-path closure). This is the
//! registry's correctness contract: registering a backend means
//! passing this suite.
//!
//! Also pinned here: fallback-chain resolution is deterministic — a
//! spec whose primary backend is unregistered falls through the chain
//! to the same backend on every run, and an end-to-end solve through
//! such a chain matches the reference — and a solve resolves its spec
//! once: re-registering a backend mid-solve does not reach the plan in
//! flight.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cluster_model::KernelType;
use dp_core::{
    register_backend, registry, solve, DpConfig, DpProblem, KernelBackend, KernelParams,
    KernelSpec, Strategy,
};
use gep_kernels::gep::{gep_reference, SemiringPaths};
use gep_kernels::semiring::MaxMin;
use gep_kernels::{GaussianElim, Kind, Matrix, TileMut, TileRef, TransitiveClosure, Tropical};
use sparklet::{SparkConf, SparkContext};
use testkit::Rng;

fn ctx() -> SparkContext {
    SparkContext::new(
        SparkConf::default()
            .with_executors(3)
            .with_executor_cores(2)
            .with_partitions(6),
    )
}

fn dist_matrix(n: usize, seed: u64) -> Matrix<f64> {
    let mut rng = Rng::new(seed);
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            0.0
        } else if rng.range(0.0..1.0) < 0.4 {
            rng.range(1u32..=9) as f64
        } else {
            f64::INFINITY
        }
    })
}

fn dd_matrix(n: usize, seed: u64) -> Matrix<f64> {
    let mut rng = Rng::new(seed);
    let mut m = Matrix::from_fn(n, n, |_, _| rng.range(-1.0..1.0));
    for i in 0..n {
        m.set(i, i, n as f64 + 1.0 + rng.range(0.0..1.0));
    }
    m
}

fn maxmin_matrix(n: usize, seed: u64) -> Matrix<MaxMin> {
    let mut rng = Rng::new(seed);
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            MaxMin(f64::INFINITY)
        } else if rng.range(0.0..1.0) < 0.35 {
            MaxMin(rng.range(0u32..50) as f64)
        } else {
            MaxMin(f64::NEG_INFINITY)
        }
    })
}

/// A spec for every registered backend that computes real data, with
/// params every backend accepts (r=2 fits any block ≥ 2; base/threads
/// small so recursion actually recurses).
fn real_backends<S: DpProblem>() -> Vec<KernelSpec> {
    registry::<S>().dense_candidates(KernelParams {
        r_shared: 2,
        base: 2,
        threads: 2,
    })
}

/// Full distributed solves exercise all four kinds (A on the diagonal,
/// B/C panels, D trailing) across multiple phases — block 6 on n=24
/// gives a 4×4 grid with non-trivial panels.
#[test]
fn every_real_backend_matches_reference_bitwise_minplus() {
    let input = dist_matrix(24, 2024);
    let mut reference = input.clone();
    gep_reference::<Tropical>(&mut reference);
    let backends = real_backends::<Tropical>();
    assert!(backends.len() >= 2, "iterative, recursive");
    for spec in backends {
        let name = &spec.backend;
        for strategy in [Strategy::InMemory, Strategy::CollectBroadcast] {
            let sc = ctx();
            let cfg = DpConfig::new(24, 6)
                .with_strategy(strategy)
                .with_kernel(spec.clone());
            let out = solve::<Tropical>(&sc, &cfg, &input).expect("solve");
            assert_eq!(
                out.first_difference(&reference),
                None,
                "backend {name} / {strategy:?} diverged from gep_reference"
            );
        }
    }
}

#[test]
fn every_real_backend_matches_reference_bitwise_ge() {
    // GE reads `w` (USES_W), so kind D runs with the full u/v/w operand
    // set — the operand path min-plus alone would not cover.
    let input = dd_matrix(24, 77);
    let mut reference = input.clone();
    gep_reference::<GaussianElim>(&mut reference);
    for spec in real_backends::<GaussianElim>() {
        let name = &spec.backend;
        let sc = ctx();
        let cfg = DpConfig::new(24, 8).with_kernel(spec.clone());
        let out = solve::<GaussianElim>(&sc, &cfg, &input).expect("solve");
        assert_eq!(
            out.first_difference(&reference),
            None,
            "backend {name} diverged from gep_reference on GE"
        );
    }
}

#[test]
fn every_real_backend_matches_reference_bitwise_maxmin() {
    let input = maxmin_matrix(20, 5);
    let mut reference = input.clone();
    gep_reference::<SemiringPaths<MaxMin>>(&mut reference);
    for spec in real_backends::<SemiringPaths<MaxMin>>() {
        let name = &spec.backend;
        let sc = ctx();
        let cfg = DpConfig::new(20, 5).with_kernel(spec.clone());
        let out = solve::<SemiringPaths<MaxMin>>(&sc, &cfg, &input).expect("solve");
        assert_eq!(
            out.first_difference(&reference),
            None,
            "backend {name} diverged from gep_reference on max-min"
        );
    }
}

/// The built-in iterative loops registered under another name — what a
/// user crate's third backend looks like to the registry. `before_phase_1`
/// runs ahead of the second kind-A kernel, i.e. after everything of
/// phase 0 and before anything of phase 1.
struct Renamed<S: DpProblem> {
    name: &'static str,
    inner: Arc<dyn KernelBackend<S>>,
    a_kernels: AtomicUsize,
    before_phase_1: Box<dyn Fn() + Send + Sync>,
}

impl<S: DpProblem> Renamed<S> {
    fn new(name: &'static str, before_phase_1: impl Fn() + Send + Sync + 'static) -> Arc<Self> {
        Arc::new(Renamed {
            name,
            inner: registry::<S>().get("iterative").expect("built in"),
            a_kernels: AtomicUsize::new(0),
            before_phase_1: Box::new(before_phase_1),
        })
    }
}

impl<S: DpProblem> KernelBackend<S> for Renamed<S> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn kernel_type(&self, params: &KernelParams) -> KernelType {
        self.inner.kernel_type(params)
    }

    fn run(
        &self,
        kind: Kind,
        params: &KernelParams,
        x: &mut TileMut<'_, S::Elem>,
        u: Option<TileRef<'_, S::Elem>>,
        v: Option<TileRef<'_, S::Elem>>,
        w: Option<TileRef<'_, S::Elem>>,
    ) {
        if kind == Kind::A && self.a_kernels.fetch_add(1, Ordering::SeqCst) == 1 {
            (self.before_phase_1)();
        }
        self.inner.run(kind, params, x, u, v, w);
    }
}

#[test]
fn unregistered_primary_falls_through_chain_deterministically() {
    register_backend::<Tropical>(Renamed::new("renamed-for-test", || ()));
    let spec = KernelSpec::named("down-for-test")
        .with_fallback("not-registered-anywhere")
        .with_fallback("renamed-for-test")
        .with_fallback("iterative");
    // Resolution is a pure function of the registry + spec.
    for _ in 0..5 {
        let resolved = registry::<Tropical>().resolve(&spec).expect("chain ends");
        assert_eq!(resolved.name(), "renamed-for-test");
    }
    // And an end-to-end solve through the chain is still exact.
    let input = dist_matrix(16, 9);
    let mut reference = input.clone();
    gep_reference::<Tropical>(&mut reference);
    let sc = ctx();
    let cfg = DpConfig::new(16, 4).with_kernel(spec);
    let out = solve::<Tropical>(&sc, &cfg, &input).expect("solve via fallback");
    assert_eq!(out.first_difference(&reference), None);
}

/// What `swap-for-test` is replaced with mid-solve: priced differently
/// and unable to compute, so reaching it shows in the event log or
/// fails the solve.
struct Poisoned;

impl<S: DpProblem> KernelBackend<S> for Poisoned {
    fn name(&self) -> &'static str {
        "swap-for-test"
    }

    fn kernel_type(&self, _params: &KernelParams) -> KernelType {
        KernelType::Recursive {
            r_shared: 9,
            threads: 9,
        }
    }

    fn run(
        &self,
        _kind: Kind,
        _params: &KernelParams,
        _x: &mut TileMut<'_, S::Elem>,
        _u: Option<TileRef<'_, S::Elem>>,
        _v: Option<TileRef<'_, S::Elem>>,
        _w: Option<TileRef<'_, S::Elem>>,
    ) {
        panic!("a backend registered mid-solve reached the plan in flight");
    }
}

/// A solve resolves its spec once, when its plan is built. Swapping
/// the registry entry between phase 0 and phase 1 must leave the
/// running plan on the backend — and the pricing — it started with.
/// Runs over `TransitiveClosure`, a registry no other test here
/// enumerates, so the poisoned entry stays this test's own.
#[test]
fn reregistering_mid_solve_does_not_reach_the_plan_in_flight() {
    if std::env::var("DP_KERNEL_BACKEND").is_ok_and(|name| !name.is_empty()) {
        // The CI matrix rebinds every spec's primary backend, so the
        // backend under test would never be resolved.
        return;
    }
    type S = TransitiveClosure;
    let n = 16;
    let input = Matrix::from_fn(n, n, |i, j| i == j || (i * 5 + j * 3) % 7 == 0);
    let mut reference = input.clone();
    gep_reference::<S>(&mut reference);
    for strategy in [Strategy::InMemory, Strategy::CollectBroadcast] {
        // A fresh kernel counter per run, over whatever the previous
        // run left registered.
        register_backend::<S>(Renamed::new("swap-for-test", || {
            register_backend::<S>(Arc::new(Poisoned));
        }));
        let sc = ctx();
        let cfg = DpConfig::new(n, 4)
            .with_strategy(strategy)
            .with_kernel(KernelSpec::named("swap-for-test"));
        let out = solve::<S>(&sc, &cfg, &input).expect("the in-flight plan keeps its backend");
        assert_eq!(out.first_difference(&reference), None, "{strategy:?}");
        let swapped = registry::<S>().get("swap-for-test").expect("registered");
        assert_ne!(
            swapped.kernel_type(&KernelParams::default()),
            KernelType::Iterative,
            "the replacement did land in the registry mid-solve"
        );
        let priced: Vec<KernelType> = sc.with_event_log(|log| {
            let tasks = log.records().into_iter().flat_map(|stage| stage.tasks);
            tasks
                .flat_map(|task| task.kernels)
                .map(|k| k.kernel)
                .collect()
        });
        assert!(!priced.is_empty());
        assert!(
            priced.iter().all(|kt| *kt == KernelType::Iterative),
            "{strategy:?}: a kernel was priced as the replacement"
        );
    }
}
