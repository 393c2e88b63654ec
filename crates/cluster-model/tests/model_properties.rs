//! Property tests: the cost model's qualitative guarantees — the
//! monotonicities the reproduction's conclusions lean on.

use cluster_model::{
    ClusterSpec, CostModel, KernelInvocation, KernelType, StageRecord, TaskRecord,
};
use testkit::{check, Rng};

fn task(node: usize, updates: f64, block: usize, kernel: KernelType) -> TaskRecord {
    TaskRecord {
        node,
        kernels: vec![KernelInvocation {
            updates,
            block_side: block,
            elem_bytes: 8,
            kernel,
        }],
        ..Default::default()
    }
}

fn any_kernel(rng: &mut Rng) -> KernelType {
    if rng.bool() {
        KernelType::Iterative
    } else {
        KernelType::Recursive {
            r_shared: rng.range(2usize..=16),
            threads: rng.range(1usize..=32),
        }
    }
}

const CASES: u32 = 48;

#[test]
fn stage_time_is_finite_and_positive() {
    check(CASES, |rng| {
        let ntasks = rng.range(1usize..64);
        let updates = rng.range(1.0..1e12);
        let block = rng.range(64usize..4096);
        let kernel = any_kernel(rng);
        let model = CostModel::new(ClusterSpec::skylake(), rng.range(1usize..64));
        let stage = StageRecord {
            tasks: (0..ntasks)
                .map(|i| task(i % 16, updates, block, kernel))
                .collect(),
            ..Default::default()
        };
        let secs = model.stage_seconds(&stage);
        assert!(secs.is_finite() && secs > 0.0);
    });
}

#[test]
fn more_work_never_runs_faster() {
    check(CASES, |rng| {
        let updates = rng.range(1.0..1e11);
        let factor = rng.range(1.0..10.0);
        let kernel = any_kernel(rng);
        let model = CostModel::new(ClusterSpec::skylake(), 32);
        let small = StageRecord {
            tasks: vec![task(0, updates, 1024, kernel)],
            ..Default::default()
        };
        let big = StageRecord {
            tasks: vec![task(0, updates * factor, 1024, kernel)],
            ..Default::default()
        };
        assert!(model.stage_seconds(&big) >= model.stage_seconds(&small));
    });
}

#[test]
fn more_bytes_never_run_faster() {
    check(CASES, |rng| {
        let bytes = rng.range(0u64..(1 << 34));
        let extra = rng.range(0u64..(1 << 33));
        let model = CostModel::new(ClusterSpec::skylake(), 32);
        let mk = |b: u64| StageRecord {
            tasks: vec![TaskRecord {
                node: 0,
                remote_read_bytes: b,
                shuffle_write_bytes: b / 2,
                ..Default::default()
            }],
            ..Default::default()
        };
        assert!(model.stage_seconds(&mk(bytes + extra)) >= model.stage_seconds(&mk(bytes)));
    });
}

#[test]
fn spreading_tasks_across_nodes_never_hurts() {
    check(CASES, |rng| {
        let ntasks = rng.range(2usize..64);
        let updates = rng.range(1e6..1e10);
        let kernel = any_kernel(rng);
        let model = CostModel::new(ClusterSpec::skylake(), 32);
        let clumped = StageRecord {
            tasks: (0..ntasks).map(|_| task(0, updates, 512, kernel)).collect(),
            ..Default::default()
        };
        let spread = StageRecord {
            tasks: (0..ntasks)
                .map(|i| task(i % 16, updates, 512, kernel))
                .collect(),
            ..Default::default()
        };
        assert!(model.stage_seconds(&spread) <= model.stage_seconds(&clumped) * 1.0001);
    });
}

#[test]
fn weaker_cluster_is_never_faster() {
    check(CASES, |rng| {
        let updates = rng.range(1e6..1e11);
        let bytes = rng.range(0u64..(1 << 32));
        let mut t = task(0, updates, 1024, any_kernel(rng));
        t.remote_read_bytes = bytes;
        t.shuffle_write_bytes = bytes;
        let stage = StageRecord {
            tasks: vec![t],
            ..Default::default()
        };
        let strong = CostModel::new(ClusterSpec::skylake(), 32).stage_seconds(&stage);
        let weak = CostModel::new(ClusterSpec::haswell(), 20).stage_seconds(&stage);
        assert!(weak >= strong * 0.999, "weak={weak} strong={strong}");
    });
}

#[test]
fn iterative_never_beats_its_own_l2_resident_rate() {
    check(CASES, |rng| {
        let block = rng.range(600usize..4096);
        let updates = rng.range(1e6..1e10);
        // Per-update time at big blocks ≥ per-update time at 256.
        let model = CostModel::new(ClusterSpec::skylake(), 32);
        let small = KernelInvocation {
            updates,
            block_side: 256,
            elem_bytes: 8,
            kernel: KernelType::Iterative,
        };
        let big = KernelInvocation {
            updates,
            block_side: block,
            elem_bytes: 8,
            kernel: KernelType::Iterative,
        };
        assert!(model.core_seconds(&big) >= model.core_seconds(&small));
    });
}
