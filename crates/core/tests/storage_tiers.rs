//! Acceptance tests for the tiered block storage subsystem: an
//! in-memory Floyd–Warshall solve whose per-iteration materializations
//! do not fit in executor memory must still complete bit-identically to
//! the sequential oracle — by spilling serialized blocks to the disk
//! tier (`MemoryAndDisk`), or by dropping and lineage-recomputing them
//! (`MemoryOnly` + `recompute_on_evict`) — and stay byte-reconciled
//! under the fault-injection matrix from the attempt-fencing work.

use dp_core::{solve, DpConfig, RunSummary};
use gep_kernels::gep::gep_reference;
use gep_kernels::{Matrix, Tropical};
use sparklet::{ChaosPolicy, SparkConf, SparkContext, StorageLevel};

const NODES: usize = 4;

fn ctx(executor_memory: Option<u64>) -> SparkContext {
    let mut conf = SparkConf::default()
        .with_executors(NODES)
        .with_executor_cores(2)
        .with_partitions(16);
    if let Some(mem) = executor_memory {
        conf = conf.with_executor_memory(mem);
    }
    SparkContext::new(conf)
}

/// Integer edge weights: exact arithmetic ⇒ bitwise-stable distances.
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
        } else if next() < 0.4 {
            1.0 + (next() * 9.0).floor()
        } else {
            f64::INFINITY
        }
    })
}

struct Run {
    out: Matrix<f64>,
    report: RunSummary,
    /// Per-node (memory, disk) bytes still cached after the solve.
    final_cached: Vec<(u64, u64)>,
    /// Highest per-node memory-tier high-water mark.
    peak_mem: u64,
    fenced_puts: u64,
}

fn run_fw(
    input: &Matrix<f64>,
    executor_memory: Option<u64>,
    cfg: &DpConfig,
    fault_every_wave: bool,
) -> Run {
    let sc = ctx(executor_memory);
    let _chaos = fault_every_wave
        .then(|| sc.install_chaos(ChaosPolicy::seeded(0).with_standing_panics(0, 1)));
    let out = solve::<Tropical>(&sc, cfg, input).expect("solve");
    Run {
        out,
        report: sc.summary(),
        final_cached: (0..NODES)
            .map(|n| (sc.cached_bytes(n), sc.cached_disk_bytes(n)))
            .collect(),
        peak_mem: (0..NODES).map(|n| sc.peak_cached_bytes(n)).max().unwrap(),
        fenced_puts: sc.fenced_cache_puts(),
    }
}

#[test]
fn fw_under_memory_pressure_spills_and_stays_bit_identical() {
    // n = 32, block = 8 ⇒ a 4×4 block grid, MemoryAndDisk by default.
    let cfg = DpConfig::new(32, 8);
    let input = dist_matrix(32, 77);
    let mut reference = input.clone();
    gep_reference::<Tropical>(&mut reference);

    // Calibrate: the uncapped run measures the MemoryOnly working set.
    let free = run_fw(&input, None, &cfg, false);
    assert_eq!(free.out.first_difference(&reference), None);
    assert_eq!(free.report.spilled_bytes, 0, "uncapped run never spills");
    assert!(free.peak_mem > 0);

    // Cap executor memory below the working set: the default
    // MemoryAndDisk level must spill instead of failing.
    let cap = free.peak_mem / 2;
    let spilled = run_fw(&input, Some(cap), &cfg, false);
    assert_eq!(
        spilled.out.first_difference(&reference),
        None,
        "spilled run must stay bit-identical to the oracle"
    );
    assert_eq!(spilled.out.first_difference(&free.out), None);
    assert!(
        spilled.report.spilled_bytes > 0,
        "undersized memory must produce spill traffic"
    );
    assert!(
        spilled.report.cache_hits >= free.report.cache_hits,
        "disk-tier reads still count as cache hits"
    );
    for (n, &(mem, _)) in spilled.final_cached.iter().enumerate() {
        assert!(
            mem <= cap,
            "node {n} memory tier over budget: {mem} > {cap}"
        );
    }
}

#[test]
fn fw_with_memory_only_recomputes_evicted_blocks() {
    let cfg = DpConfig::new(32, 8)
        .with_storage_level(StorageLevel::MemoryOnly)
        .with_recompute_on_evict(true);
    let input = dist_matrix(32, 99);
    let mut reference = input.clone();
    gep_reference::<Tropical>(&mut reference);

    let free = run_fw(&input, None, &cfg, false);
    assert_eq!(free.out.first_difference(&reference), None);
    assert_eq!(free.report.recomputes, 0, "uncapped run keeps every block");

    // `persist` keeps every generation's cache alive (retained lineage),
    // so the uncapped peak spans several table generations and LRU can
    // satisfy a peak/2 cap by shedding stale generations nobody reads.
    // To force recomputation of *live* blocks, cap below one table's
    // per-node footprint. An uncapped checkpoint probe bounds it: its
    // peak covers at most the old + new generation (old drops each
    // iteration), so peak/2 ≥ one table and peak/4 is genuinely tight.
    let probe = run_fw(&input, None, &DpConfig::new(32, 8), false);
    assert!(probe.peak_mem > 0);
    let cap = probe.peak_mem / 4;
    let squeezed = run_fw(&input, Some(cap), &cfg, false);
    assert_eq!(
        squeezed.out.first_difference(&reference),
        None,
        "recompute-on-evict run must stay bit-identical to the oracle"
    );
    assert!(
        squeezed.report.recomputes > 0,
        "undersized memory must trigger lineage recomputation"
    );
    assert!(
        squeezed.report.spilled_bytes == 0,
        "MemoryOnly never touches the disk tier"
    );
    for &(_, disk) in &squeezed.final_cached {
        assert_eq!(disk, 0);
    }
}

#[test]
fn fw_faults_with_spill_enabled_never_double_charge() {
    // The full PR-1 fault matrix (a fault in every stage's partition 0)
    // on top of an undersized memory tier: results stay byte-identical
    // and retried/speculative tasks must not double-charge either tier.
    let cfg = DpConfig::new(32, 8);
    let input = dist_matrix(32, 1234);
    let mut reference = input.clone();
    gep_reference::<Tropical>(&mut reference);

    let free = run_fw(&input, None, &cfg, false);
    let cap = free.peak_mem / 2;

    let calm = run_fw(&input, Some(cap), &cfg, false);
    let faulted = run_fw(&input, Some(cap), &cfg, true);

    assert_eq!(faulted.out.first_difference(&reference), None);
    assert_eq!(faulted.out.first_difference(&calm.out), None);
    assert!(faulted.report.retries > 0, "faults were actually injected");

    // Dropping the solved table must return every byte in both tiers on
    // every node — including any orphan copies failed attempts cached
    // before their retry committed elsewhere. (The live-RDD half of the
    // no-double-charge invariant is pinned down in sparklet's
    // `retried_checkpoint_does_not_double_cache`.)
    assert_eq!(
        faulted.final_cached,
        vec![(0, 0); NODES],
        "cache GC must reclaim both tiers after faulted runs"
    );
    assert_eq!(calm.final_cached, vec![(0, 0); NODES]);
    for (n, &(mem, _)) in faulted.final_cached.iter().enumerate() {
        assert!(mem <= cap, "node {n} memory tier over budget under faults");
    }
    // Speculation is off in this config, so any fenced put would mean a
    // zombie attempt raced a commit — there are none here; the counter
    // exists for the speculative path.
    assert_eq!(faulted.fenced_puts, 0);
}
