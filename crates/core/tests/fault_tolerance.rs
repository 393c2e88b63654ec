//! Stress test of the attempt-fenced shuffle lifecycle: an in-memory
//! Floyd–Warshall run with a fault injected into *every* map wave,
//! under a staging capacity just above the fault-free high-water mark.
//! Before staged-byte reconciliation, each retry re-staged its buckets
//! on top of the failed attempt's, inflating `staged_bytes` into a
//! spurious `StagingOverflow` — which `retryable()` rightly treats as
//! deterministic, failing the whole job.

use dp_core::{solve, DpConfig};
use gep_kernels::gep::gep_reference;
use gep_kernels::{Matrix, Tropical};
use sparklet::{ChaosPolicy, SparkConf, SparkContext};

const NODES: usize = 4;

fn ctx(staging_capacity: Option<u64>, sim_seed: Option<u64>) -> SparkContext {
    // 16 partitions keep a single task's shuffle write small next to
    // the per-node staging peak, so the calibrated budget below is
    // tight.
    let mut conf = SparkConf::default()
        .with_executors(NODES)
        .with_executor_cores(2)
        .with_partitions(16);
    if let Some(cap) = staging_capacity {
        conf = conf.with_staging_capacity(cap);
    }
    if let Some(seed) = sim_seed {
        // Deterministic mode: real retry backoff is free — it advances
        // the virtual clock instead of sleeping the test.
        conf = conf.with_retry_backoff(200, 400).with_sim_seed(seed);
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

struct RunStats {
    out: Matrix<f64>,
    stages: usize,
    tasks: usize,
    /// Σ committed tasks' shuffle-write bytes (event log).
    staged_written: u64,
    /// Largest single task's shuffle-write volume.
    max_task_write: u64,
    /// Highest per-node staging high-water mark.
    peak: u64,
    /// Live staged bytes per node after the solve (GC residue).
    final_staged: Vec<u64>,
    retries: u64,
    zombies: u64,
    /// Clock reading after the solve (virtual ms under a sim seed).
    elapsed_ms: u64,
}

fn run_fw(
    input: &Matrix<f64>,
    capacity: Option<u64>,
    fault_every_wave: bool,
) -> Result<RunStats, sparklet::JobError> {
    run_fw_seeded(input, capacity, fault_every_wave, None)
}

fn run_fw_seeded(
    input: &Matrix<f64>,
    capacity: Option<u64>,
    fault_every_wave: bool,
    sim_seed: Option<u64>,
) -> Result<RunStats, sparklet::JobError> {
    let sc = ctx(capacity, sim_seed);
    // Partition 0 of every stage — every map wave of every
    // iteration (and the reduce/collect stages too) — fails once
    // after its side effects landed, then retries on another node.
    let _chaos = fault_every_wave
        .then(|| sc.install_chaos(ChaosPolicy::seeded(0).with_standing_panics(0, 1)));
    // n = 32, block = 8 ⇒ a 4×4 block grid (g = 4 map waves).
    let cfg = DpConfig::new(32, 8);
    let out = solve::<Tropical>(&sc, &cfg, input)?;
    let (stages, tasks, staged_written, retries, max_task_write) = sc.with_event_log(|log| {
        let did = log.summary();
        let max_w = log
            .records()
            .iter()
            .flat_map(|r| r.tasks.iter())
            .map(|t| t.shuffle_write_bytes)
            .max()
            .unwrap_or(0);
        (did.stages, did.tasks, did.staged_bytes, did.retries, max_w)
    });
    Ok(RunStats {
        out,
        stages,
        tasks,
        staged_written,
        max_task_write,
        peak: (0..NODES).map(|n| sc.peak_staged_bytes(n)).max().unwrap(),
        final_staged: (0..NODES).map(|n| sc.staged_bytes(n)).collect(),
        retries,
        zombies: sc.zombie_writes_fenced(),
        elapsed_ms: sc.now_ms(),
    })
}

#[test]
fn fw_survives_a_fault_in_every_wave_within_the_fault_free_budget() {
    let input = dist_matrix(32, 1234);
    let mut reference = input.clone();
    gep_reference::<Tropical>(&mut reference);

    // Calibrate: the fault-free run fixes the staging budget.
    let free = run_fw(&input, None, false).expect("fault-free solve");
    assert_eq!(free.out.first_difference(&reference), None);
    assert_eq!(free.retries, 0);
    assert!(free.peak > 0 && free.max_task_write > 0);

    // "Just above" the fault-free high-water mark: a retry may leave
    // the failed attempt's bucket unreconciled on one node while the
    // relaunch stages on the next (placement rotation), so allow one
    // task's worth of transient slack — far below the extra wave a
    // single unreconciled retry would pile up. (Measured: the faulted
    // peak actually lands *below* the fault-free one, because rotation
    // moves the retried task's output off the hottest node.)
    let cap = free.peak + free.max_task_write;
    assert!(
        2 * (cap - free.peak) < free.peak,
        "slack ({} over {}) must stay well under the no-reconciliation \
         inflation this test exists to catch",
        cap - free.peak,
        free.peak
    );

    let faulted = run_fw(&input, Some(cap), true).expect("every map wave faulted");

    // Byte-identical results, identical stage structure and committed
    // shuffle volume, nonzero retries, no fencing or accounting leaks.
    assert_eq!(faulted.out.first_difference(&reference), None);
    assert_eq!(faulted.out.first_difference(&free.out), None);
    assert_eq!((faulted.stages, faulted.tasks), (free.stages, free.tasks));
    assert_eq!(faulted.staged_written, free.staged_written);
    assert!(
        faulted.retries >= 4,
        "one retry per map wave at minimum, got {}",
        faulted.retries
    );
    assert_eq!(faulted.zombies, 0, "plain retries must not be fenced");
    assert!(faulted.peak <= cap);
    assert_eq!(
        faulted.final_staged, free.final_staged,
        "per-shuffle GC must return every staged byte"
    );
    assert_eq!(faulted.final_staged, vec![0; NODES]);
}

#[test]
fn fw_every_wave_faulted_with_real_backoff_on_the_virtual_clock() {
    // The same every-wave-fault scenario, but deterministically
    // scheduled and with a real 200 ms retry backoff — which the wall
    // clock never sees: each deferral is a virtual-clock jump. Under a
    // real clock this test would sleep for seconds per retried wave.
    let input = dist_matrix(32, 1234);
    let mut reference = input.clone();
    gep_reference::<Tropical>(&mut reference);

    let seed = 77;
    let faulted =
        run_fw_seeded(&input, None, true, Some(seed)).expect("every map wave faulted (sim)");
    assert_eq!(faulted.out.first_difference(&reference), None);
    assert!(
        faulted.retries >= 4,
        "one retry per map wave at minimum, got {}",
        faulted.retries
    );
    assert_eq!(faulted.final_staged, vec![0; NODES]);
    // Every retry parks for its full backoff in virtual time.
    assert!(
        faulted.elapsed_ms >= 200 * faulted.retries,
        "each of the {} retries must serve >= 200 virtual ms of backoff \
         (virtual clock only reached {} ms)",
        faulted.retries,
        faulted.elapsed_ms
    );

    // Replay: the identical seed reproduces the identical run.
    let replay = run_fw_seeded(&input, None, true, Some(seed)).expect("replayed sim solve");
    assert_eq!(replay.out.first_difference(&faulted.out), None);
    assert_eq!(
        (
            replay.stages,
            replay.tasks,
            replay.retries,
            replay.elapsed_ms
        ),
        (
            faulted.stages,
            faulted.tasks,
            faulted.retries,
            faulted.elapsed_ms
        ),
        "same seed must reproduce the identical schedule"
    );
}
