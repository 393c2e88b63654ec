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

mod harness;

use cluster_model::KernelType;
use dp_core::{
    register_backend, registry, DpConfig, DpProblem, KernelBackend, KernelParams, KernelSpec,
};
use gep_kernels::{Kind, TileMut, TileRef, TransitiveClosure, Tropical};
use harness::{cluster, Case, Problem, STRATEGIES};

/// Every registered backend that computes real data, each against the
/// oracle, on a 3-node context of 6 partitions. Params every backend
/// accepts: r=2 fits any block ≥ 2, base and threads small so the
/// recursion actually recurses.
fn every_backend(base: Case, strategies: &[dp_core::Strategy]) {
    let params = KernelParams {
        r_shared: 2,
        base: 2,
        threads: 2,
    };
    let backends = base.problem.kernels(params);
    assert!(backends.len() >= 2, "iterative, recursive");
    for spec in backends {
        for &strategy in strategies {
            let kernel = spec.clone();
            let row = base.clone().on(cluster(3, 2, 6));
            row.cfg(|c| c.with_strategy(strategy).with_kernel(kernel))
                .check();
        }
    }
}

/// Full distributed solves exercise all four kinds (A on the diagonal,
/// B/C panels, D trailing) across multiple phases — block 6 on n=24
/// gives a 4×4 grid with non-trivial panels.
#[test]
fn every_real_backend_matches_reference_bitwise_minplus() {
    every_backend(Case::new(Problem::Fw, 24, 6).seed(2024), &STRATEGIES);
}

#[test]
fn every_real_backend_matches_reference_bitwise_ge() {
    // GE reads `w` (USES_W), so kind D runs with the full u/v/w operand
    // set — the operand path min-plus alone would not cover.
    every_backend(Case::new(Problem::Ge, 24, 8).seed(77), &STRATEGIES[..1]);
}

#[test]
fn every_real_backend_matches_reference_bitwise_maxmin() {
    every_backend(Case::new(Problem::MaxMin, 20, 5).seed(5), &STRATEGIES[..1]);
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
    let row = Case::new(Problem::Fw, 16, 4).seed(9).on(cluster(3, 2, 6));
    row.cfg(|c| c.with_kernel(spec)).check();
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
    for strategy in STRATEGIES {
        // A fresh kernel counter per run, over whatever the previous
        // run left registered.
        register_backend::<S>(Renamed::new("swap-for-test", || {
            register_backend::<S>(Arc::new(Poisoned));
        }));
        let swap = |c: DpConfig| {
            c.with_strategy(strategy)
                .with_kernel(KernelSpec::named("swap-for-test"))
        };
        // The in-flight plan keeps its backend: the solve is exact.
        let sc = Case::new(Problem::Tc, 16, 4)
            .on(cluster(3, 2, 6))
            .cfg(swap)
            .check()
            .sc;
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
