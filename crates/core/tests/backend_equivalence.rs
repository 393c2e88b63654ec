//! Cross-backend equivalence: every dense backend in the registry must
//! produce results **bit-identical** to the sequential `gep_reference`
//! oracle, across all four blocked-kernel kinds and both floating semirings
//! (min-plus FW-APSP and max-min widest-path closure). This is the
//! registry's correctness contract: registering a backend means
//! passing this suite.
//!
//! Also pinned here: fallback-chain resolution is deterministic — a
//! spec whose primary backend is unregistered/unavailable falls
//! through the chain to the same backend on every run, and an
//! end-to-end solve through such a chain matches the reference.

use std::sync::Arc;

use dp_core::{registry, solve, DpConfig, KernelBackend, KernelSpec, Strategy};
use gep_kernels::gep::{gep_reference, SemiringPaths};
use gep_kernels::semiring::MaxMin;
use gep_kernels::{GaussianElim, Matrix, Tropical};
use sparklet::{SparkConf, SparkContext};

fn ctx() -> SparkContext {
    SparkContext::new(
        SparkConf::default()
            .with_executors(3)
            .with_executor_cores(2)
            .with_partitions(6),
    )
}

fn xorshift(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

fn dist_matrix(n: usize, seed: u64) -> Matrix<f64> {
    let mut state = seed | 1;
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            0.0
        } else if xorshift(&mut state) < 0.4 {
            1.0 + (xorshift(&mut state) * 9.0).floor()
        } else {
            f64::INFINITY
        }
    })
}

fn dd_matrix(n: usize, seed: u64) -> Matrix<f64> {
    let mut state = seed | 1;
    let mut m = Matrix::from_fn(n, n, |_, _| xorshift(&mut state) * 2.0 - 1.0);
    for i in 0..n {
        m.set(i, i, n as f64 + 1.0 + xorshift(&mut state));
    }
    m
}

fn maxmin_matrix(n: usize, seed: u64) -> Matrix<MaxMin> {
    let mut state = seed | 1;
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            MaxMin(f64::INFINITY)
        } else if xorshift(&mut state) < 0.35 {
            MaxMin((xorshift(&mut state) * 50.0).floor())
        } else {
            MaxMin(f64::NEG_INFINITY)
        }
    })
}

/// A spec for every registered backend that computes real data, with
/// params every backend accepts (r=2 fits any block ≥ 2; base/threads
/// small so recursion actually recurses).
fn real_backends<S: dp_core::DpProblem>() -> Vec<KernelSpec> {
    registry::<S>().dense_candidates(dp_core::KernelParams {
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
    assert!(backends.len() >= 3, "iterative, recursive, blocked");
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

/// A backend that reports itself unavailable — resolution must skip it.
struct DownBackend;

impl<S: dp_core::DpProblem> KernelBackend<S> for DownBackend {
    fn name(&self) -> &'static str {
        "down-for-test"
    }

    fn available(&self) -> bool {
        false
    }

    fn kernel_type(&self, _params: &dp_core::KernelParams) -> cluster_model::KernelType {
        cluster_model::KernelType::Iterative
    }

    fn run(
        &self,
        _kind: gep_kernels::Kind,
        _params: &dp_core::KernelParams,
        _x: &mut gep_kernels::TileMut<'_, S::Elem>,
        _u: Option<gep_kernels::TileRef<'_, S::Elem>>,
        _v: Option<gep_kernels::TileRef<'_, S::Elem>>,
        _w: Option<gep_kernels::TileRef<'_, S::Elem>>,
    ) {
        unreachable!("unavailable backends are never resolved");
    }
}

#[test]
fn unavailable_backend_falls_through_chain_deterministically() {
    dp_core::register_backend::<Tropical>(Arc::new(DownBackend));
    let spec = KernelSpec::named("down-for-test")
        .with_fallback("not-registered-anywhere")
        .with_fallback("blocked");
    // Resolution is a pure function of the registry + spec.
    for _ in 0..5 {
        let resolved = registry::<Tropical>().resolve(&spec).expect("chain ends");
        assert_eq!(resolved.name(), "blocked");
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
