//! Property-based tests of the distributed solver: for arbitrary
//! problem sizes, block sizes, strategies, kernels, partition counts,
//! and cluster shapes, the distributed result equals the sequential
//! reference exactly.

use dp_core::{solve, DpConfig, KernelSpec, Strategy as DpStrategy};
use gep_kernels::gep::gep_reference;
use gep_kernels::{GaussianElim, Matrix, TransitiveClosure, Tropical};
use proptest::prelude::*;
use sparklet::{ChaosEvent, ChaosPolicy, SparkConf, SparkContext};

fn dd_matrix(n: usize, seed: u64) -> Matrix<f64> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut m = Matrix::from_fn(n, n, |_, _| next() * 2.0 - 1.0);
    for i in 0..n {
        m.set(i, i, n as f64 + 1.0 + next());
    }
    m
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
        } else if next() < 0.45 {
            1.0 + (next() * 9.0).floor()
        } else {
            f64::INFINITY
        }
    })
}

fn any_kernel() -> impl proptest::strategy::Strategy<Value = KernelSpec> {
    prop_oneof![
        Just(KernelSpec::iterative()),
        (2usize..=4, 1usize..=4, 1usize..=3)
            .prop_map(|(r, base, threads)| KernelSpec::recursive(r, base, threads)),
    ]
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

fn any_strategy() -> impl proptest::strategy::Strategy<Value = DpStrategy> {
    prop_oneof![
        Just(DpStrategy::InMemory),
        Just(DpStrategy::CollectBroadcast)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn distributed_ge_equals_reference(
        seed in any::<u64>(),
        n in 8usize..28,
        block_sel in 0usize..3,
        kernel in any_kernel(),
        strategy in any_strategy(),
        executors in 1usize..5,
        partitions in 1usize..20,
        grid_part in any::<bool>(),
    ) {
        let block = [4, 5, 8][block_sel].min(n);
        let input = dd_matrix(n, seed);
        let mut reference = input.clone();
        gep_reference::<GaussianElim>(&mut reference);
        let sc = SparkContext::new(
            SparkConf::default()
                .with_executors(executors)
                .with_partitions(partitions.max(1)),
        );
        let cfg = DpConfig::new(n, legal_block(block, &kernel))
            .with_kernel(kernel)
            .with_strategy(strategy)
            .with_partitions(partitions.max(1))
            .with_grid_partitioner(grid_part);
        let out = solve::<GaussianElim>(&sc, &cfg, &input).expect("solve");
        prop_assert_eq!(out.first_difference(&reference), None);
    }

    #[test]
    fn distributed_fw_equals_reference(
        seed in any::<u64>(),
        n in 8usize..24,
        block in 3usize..9,
        kernel in any_kernel(),
        strategy in any_strategy(),
    ) {
        let input = dist_matrix(n, seed);
        let mut reference = input.clone();
        gep_reference::<Tropical>(&mut reference);
        let sc = SparkContext::new(
            SparkConf::default().with_executors(3).with_partitions(7),
        );
        let cfg = DpConfig::new(n, legal_block(block.min(n), &kernel))
            .with_kernel(kernel)
            .with_strategy(strategy);
        let out = solve::<Tropical>(&sc, &cfg, &input).expect("solve");
        prop_assert_eq!(out.first_difference(&reference), None);
    }

    #[test]
    fn distributed_tc_equals_reference(
        seed in any::<u64>(),
        n in 6usize..20,
        block in 2usize..7,
        strategy in any_strategy(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let input = Matrix::from_fn(n, n, |i, j| i == j || next() % 5 == 0);
        let mut reference = input.clone();
        gep_reference::<TransitiveClosure>(&mut reference);
        let sc = SparkContext::new(
            SparkConf::default().with_executors(2).with_partitions(5),
        );
        let cfg = DpConfig::new(n, block.min(n)).with_strategy(strategy);
        let out = solve::<TransitiveClosure>(&sc, &cfg, &input).expect("solve");
        prop_assert_eq!(out.first_difference(&reference), None);
    }

    #[test]
    fn solve_with_random_fault_injection_still_exact(
        seed in any::<u64>(),
        fail_stage in 0u64..20,
        fail_partition in 0usize..8,
    ) {
        let input = dist_matrix(16, seed);
        let mut reference = input.clone();
        gep_reference::<Tropical>(&mut reference);
        let sc = SparkContext::new(
            SparkConf::default().with_executors(3).with_partitions(8),
        );
        let _chaos = sc.install_chaos(
            ChaosPolicy::seeded(0)
                .script(fail_stage, fail_partition, 1, ChaosEvent::TaskPanic)
                .script(fail_stage, fail_partition, 2, ChaosEvent::TaskPanic),
        );
        let cfg = DpConfig::new(16, 4);
        let out = solve::<Tropical>(&sc, &cfg, &input).expect("solve heals failures");
        prop_assert_eq!(out.first_difference(&reference), None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn distributed_parenthesis_equals_reference(
        dims in proptest::collection::vec(1u64..40, 4..26),
        block in 2usize..9,
    ) {
        use dp_core::solve_parenthesis;
        use gep_kernels::parenthesis::{solve_reference, ParenWeight};
        let w = ParenWeight::MatrixChain(dims);
        let sc = SparkContext::new(
            SparkConf::default().with_executors(3).with_partitions(6),
        );
        let dist = solve_parenthesis(&sc, &w, block).expect("solve");
        let reference = solve_reference(&w);
        prop_assert_eq!(dist.first_difference(&reference), None);
    }

    #[test]
    fn distributed_alignment_equals_reference(
        a in proptest::collection::vec(prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')], 1..40),
        b in proptest::collection::vec(prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')], 1..40),
        block in 2usize..12,
        lcs in any::<bool>(),
    ) {
        use dp_core::solve_alignment;
        use gep_kernels::alignment::{align_reference, AlignScore};
        let score = if lcs {
            AlignScore::Lcs
        } else {
            AlignScore::NeedlemanWunsch { matched: 2, mismatch: -1, gap: -2 }
        };
        let sc = SparkContext::new(
            SparkConf::default().with_executors(2).with_partitions(4),
        );
        let dist = solve_alignment(&sc, &a, &b, &score, block).expect("solve");
        let reference = align_reference(&a, &b, &score);
        prop_assert_eq!(dist.first_difference(&reference), None);
    }

    #[test]
    fn lcs_is_symmetric_and_bounded(
        a in proptest::collection::vec(prop_oneof![Just(b'A'), Just(b'C'), Just(b'G')], 0..30),
        b in proptest::collection::vec(prop_oneof![Just(b'A'), Just(b'C'), Just(b'G')], 0..30),
    ) {
        use gep_kernels::alignment::{align_reference, AlignScore};
        let ab = align_reference(&a, &b, &AlignScore::Lcs);
        let ba = align_reference(&b, &a, &AlignScore::Lcs);
        let len_ab = ab.get(a.len(), b.len());
        let len_ba = ba.get(b.len(), a.len());
        prop_assert_eq!(len_ab, len_ba);
        prop_assert!(len_ab as usize <= a.len().min(b.len()));
        // Monotone in prefixes.
        if !a.is_empty() {
            let shorter = align_reference(&a[..a.len() - 1], &b, &AlignScore::Lcs);
            prop_assert!(shorter.get(a.len() - 1, b.len()) <= len_ab);
        }
    }

    #[test]
    fn semiring_paths_closure_equals_reference_distributed(
        seed in any::<u64>(),
        n in 6usize..20,
        block in 2usize..7,
    ) {
        use gep_kernels::gep::SemiringPaths;
        use gep_kernels::semiring::MaxMin;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let input = gep_kernels::Matrix::from_fn(n, n, |i, j| {
            if i == j {
                MaxMin(f64::INFINITY)
            } else if next() % 3 == 0 {
                MaxMin((next() % 50) as f64)
            } else {
                MaxMin(f64::NEG_INFINITY)
            }
        });
        let mut reference = input.clone();
        gep_reference::<SemiringPaths<MaxMin>>(&mut reference);
        let sc = SparkContext::new(
            SparkConf::default().with_executors(2).with_partitions(5),
        );
        let cfg = DpConfig::new(n, block.min(n));
        let out = solve::<SemiringPaths<MaxMin>>(&sc, &cfg, &input).expect("solve");
        prop_assert_eq!(out.first_difference(&reference), None);
    }
}
