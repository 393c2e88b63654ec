//! Property-based tests of the distributed solver: for arbitrary
//! problem sizes, block sizes, strategies, kernels, partition counts,
//! and cluster shapes, the distributed result equals the sequential
//! reference exactly.

use dp_core::{solve, DpConfig, KernelSpec, Strategy};
use gep_kernels::gep::gep_reference;
use gep_kernels::{GaussianElim, Matrix, TransitiveClosure, Tropical};
use sparklet::{ChaosEvent, ChaosPolicy, SparkConf, SparkContext};
use testkit::{check, Rng};

fn dd_matrix(n: usize, rng: &mut Rng) -> Matrix<f64> {
    let mut m = Matrix::from_fn(n, n, |_, _| rng.range(-1.0..1.0));
    for i in 0..n {
        m.set(i, i, n as f64 + 1.0 + rng.range(0.0..1.0));
    }
    m
}

fn dist_matrix(n: usize, rng: &mut Rng) -> Matrix<f64> {
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            0.0
        } else if rng.range(0.0..1.0) < 0.45 {
            rng.range(1u32..=9) as f64
        } else {
            f64::INFINITY
        }
    })
}

fn any_kernel(rng: &mut Rng) -> KernelSpec {
    if rng.bool() {
        KernelSpec::iterative()
    } else {
        KernelSpec::recursive(
            rng.range(2usize..=4),
            rng.range(1usize..=4),
            rng.range(1usize..=3),
        )
    }
}

/// Smallest block a spec is valid at: the recursive backend requires
/// `r_shared <= block`.
fn legal_block(block: usize, kernel: &KernelSpec) -> usize {
    if kernel.backend == "recursive" {
        block.max(kernel.params.r_shared)
    } else {
        block
    }
}

fn any_strategy(rng: &mut Rng) -> Strategy {
    *rng.pick(&[Strategy::InMemory, Strategy::CollectBroadcast])
}

fn dna(rng: &mut Rng, alphabet: &[u8], len: std::ops::Range<usize>) -> Vec<u8> {
    rng.vec(len, |r| *r.pick(alphabet))
}

#[test]
fn distributed_ge_equals_reference() {
    check(12, |rng| {
        let n = rng.range(8usize..28);
        let block = (*rng.pick(&[4, 5, 8])).min(n);
        let kernel = any_kernel(rng);
        let strategy = any_strategy(rng);
        let executors = rng.range(1usize..5);
        let partitions = rng.range(1usize..20);
        let grid_part = rng.bool();
        let input = dd_matrix(n, rng);
        let mut reference = input.clone();
        gep_reference::<GaussianElim>(&mut reference);
        let sc = SparkContext::new(
            SparkConf::default()
                .with_executors(executors)
                .with_partitions(partitions),
        );
        let cfg = DpConfig::new(n, legal_block(block, &kernel))
            .with_kernel(kernel)
            .with_strategy(strategy)
            .with_partitions(partitions)
            .with_grid_partitioner(grid_part);
        let out = solve::<GaussianElim>(&sc, &cfg, &input).expect("solve");
        assert_eq!(out.first_difference(&reference), None);
    });
}

#[test]
fn distributed_fw_equals_reference() {
    check(12, |rng| {
        let n = rng.range(8usize..24);
        let block = rng.range(3usize..9);
        let kernel = any_kernel(rng);
        let strategy = any_strategy(rng);
        let input = dist_matrix(n, rng);
        let mut reference = input.clone();
        gep_reference::<Tropical>(&mut reference);
        let sc = SparkContext::new(SparkConf::default().with_executors(3).with_partitions(7));
        let cfg = DpConfig::new(n, legal_block(block.min(n), &kernel))
            .with_kernel(kernel)
            .with_strategy(strategy);
        let out = solve::<Tropical>(&sc, &cfg, &input).expect("solve");
        assert_eq!(out.first_difference(&reference), None);
    });
}

#[test]
fn distributed_tc_equals_reference() {
    check(12, |rng| {
        let n = rng.range(6usize..20);
        let block = rng.range(2usize..7);
        let strategy = any_strategy(rng);
        let input = Matrix::from_fn(n, n, |i, j| i == j || rng.range(0u32..5) == 0);
        let mut reference = input.clone();
        gep_reference::<TransitiveClosure>(&mut reference);
        let sc = SparkContext::new(SparkConf::default().with_executors(2).with_partitions(5));
        let cfg = DpConfig::new(n, block.min(n)).with_strategy(strategy);
        let out = solve::<TransitiveClosure>(&sc, &cfg, &input).expect("solve");
        assert_eq!(out.first_difference(&reference), None);
    });
}

#[test]
fn solve_with_random_fault_injection_still_exact() {
    check(12, |rng| {
        let fail_stage = rng.range(0u64..20);
        let fail_partition = rng.range(0usize..8);
        let input = dist_matrix(16, rng);
        let mut reference = input.clone();
        gep_reference::<Tropical>(&mut reference);
        let sc = SparkContext::new(SparkConf::default().with_executors(3).with_partitions(8));
        let _chaos = sc.install_chaos(
            ChaosPolicy::seeded(0)
                .script(fail_stage, fail_partition, 1, ChaosEvent::TaskPanic)
                .script(fail_stage, fail_partition, 2, ChaosEvent::TaskPanic),
        );
        let cfg = DpConfig::new(16, 4);
        let out = solve::<Tropical>(&sc, &cfg, &input).expect("solve heals failures");
        assert_eq!(out.first_difference(&reference), None);
    });
}

#[test]
fn distributed_parenthesis_equals_reference() {
    use dp_core::solve_parenthesis;
    use gep_kernels::parenthesis::{solve_reference, ParenWeight};
    check(8, |rng| {
        let dims = rng.vec(4..26, |r| r.range(1u64..40));
        let block = rng.range(2usize..9);
        let w = ParenWeight::MatrixChain(dims);
        let sc = SparkContext::new(SparkConf::default().with_executors(3).with_partitions(6));
        let dist = solve_parenthesis(&sc, &w, block).expect("solve");
        let reference = solve_reference(&w);
        assert_eq!(dist.first_difference(&reference), None);
    });
}

#[test]
fn distributed_alignment_equals_reference() {
    use dp_core::solve_alignment;
    use gep_kernels::alignment::{align_reference, AlignScore};
    check(8, |rng| {
        let a = dna(rng, b"ACGT", 1..40);
        let b = dna(rng, b"ACGT", 1..40);
        let block = rng.range(2usize..12);
        let score = if rng.bool() {
            AlignScore::Lcs
        } else {
            AlignScore::NeedlemanWunsch {
                matched: 2,
                mismatch: -1,
                gap: -2,
            }
        };
        let sc = SparkContext::new(SparkConf::default().with_executors(2).with_partitions(4));
        let dist = solve_alignment(&sc, &a, &b, &score, block).expect("solve");
        let reference = align_reference(&a, &b, &score);
        assert_eq!(dist.first_difference(&reference), None);
    });
}

#[test]
fn lcs_is_symmetric_and_bounded() {
    use gep_kernels::alignment::{align_reference, AlignScore};
    check(8, |rng| {
        let a = dna(rng, b"ACG", 0..30);
        let b = dna(rng, b"ACG", 0..30);
        let ab = align_reference(&a, &b, &AlignScore::Lcs);
        let ba = align_reference(&b, &a, &AlignScore::Lcs);
        let len_ab = ab.get(a.len(), b.len());
        let len_ba = ba.get(b.len(), a.len());
        assert_eq!(len_ab, len_ba);
        assert!(len_ab as usize <= a.len().min(b.len()));
        // Monotone in prefixes.
        if !a.is_empty() {
            let shorter = align_reference(&a[..a.len() - 1], &b, &AlignScore::Lcs);
            assert!(shorter.get(a.len() - 1, b.len()) <= len_ab);
        }
    });
}

#[test]
fn semiring_paths_closure_equals_reference_distributed() {
    use gep_kernels::gep::SemiringPaths;
    use gep_kernels::semiring::MaxMin;
    check(8, |rng| {
        let n = rng.range(6usize..20);
        let block = rng.range(2usize..7);
        let input = gep_kernels::Matrix::from_fn(n, n, |i, j| {
            if i == j {
                MaxMin(f64::INFINITY)
            } else if rng.range(0u32..3) == 0 {
                MaxMin(rng.range(0u32..50) as f64)
            } else {
                MaxMin(f64::NEG_INFINITY)
            }
        });
        let mut reference = input.clone();
        gep_reference::<SemiringPaths<MaxMin>>(&mut reference);
        let sc = SparkContext::new(SparkConf::default().with_executors(2).with_partitions(5));
        let cfg = DpConfig::new(n, block.min(n));
        let out = solve::<SemiringPaths<MaxMin>>(&sc, &cfg, &input).expect("solve");
        assert_eq!(out.first_difference(&reference), None);
    });
}
