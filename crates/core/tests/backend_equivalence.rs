//! Cross-kernel equivalence: both kernels must produce results
//! **bit-identical** to the sequential `gep_reference` oracle, across
//! all four blocked-kernel kinds and both floating semirings (min-plus
//! FW-APSP and max-min widest-path closure).

mod harness;

use dp_core::{KernelParams, KernelSpec};
use harness::{cluster, Case, Problem, STRATEGIES};

/// Both kernels, each against the oracle, on a 3-node context of 6
/// partitions. Params both accept: r=2 fits any block ≥ 2, base and
/// threads small so the recursion actually recurses.
fn every_backend(base: Case, strategies: &[dp_core::Strategy]) {
    let params = KernelParams {
        r_shared: 2,
        base: 2,
        threads: 2,
    };
    for kernel in KernelSpec::both(params) {
        for &strategy in strategies {
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
