//! Property-based rows of the distributed solver, one problem each:
//! for drawn sizes, blocks, kernels, strategies, partitionings, cluster
//! shapes, codecs, modes and fault schedules, the distributed result
//! equals the problem's sequential oracle (`harness::Case::draw`).

mod harness;

use harness::{any_score, check, cluster, drawn_rows, Case, Chaos, Problem};

#[test]
fn distributed_ge_equals_reference() {
    drawn_rows(12, |_| Problem::Ge);
}

#[test]
fn distributed_fw_equals_reference() {
    drawn_rows(12, |_| Problem::Fw);
}

#[test]
fn distributed_tc_equals_reference() {
    drawn_rows(12, |_| Problem::Tc);
}

#[test]
fn semiring_paths_closure_equals_reference_distributed() {
    drawn_rows(8, |_| Problem::MaxMin);
}

#[test]
fn distributed_parenthesis_equals_reference() {
    drawn_rows(8, |_| Problem::Paren);
}

#[test]
fn distributed_alignment_equals_reference() {
    drawn_rows(8, |rng| {
        Problem::Align(any_score(rng), rng.range(0usize..40))
    });
}

#[test]
fn solve_with_random_fault_injection_still_exact() {
    check(12, |rng| {
        let (stage, part) = (rng.range(0u64..20), rng.range(0usize..8));
        let chaos = Chaos::Panics(vec![(stage, part, 1), (stage, part, 2)]);
        let row = Case::new(Problem::Fw, 16, 4)
            .seed(rng.u64())
            .on(cluster(3, 4, 8));
        row.chaos(chaos).check();
    });
}
