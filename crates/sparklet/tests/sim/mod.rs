//! Shared harness for the deterministic simulation scenarios.
//!
//! Every scenario sweeps a set of seeds (`SIM_SEEDS` widens the sweep,
//! `CHAOS_SEED` pins a single seed for replay), runs a branched-shuffle
//! workload under an injected fault policy, and asserts the engine's
//! invariants afterwards. On failure the harness prints the replaying
//! seed so `CHAOS_SEED=<seed> cargo test <name>` reproduces the exact
//! schedule.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use sparklet::{ChaosPolicy, HashPartitioner, SparkConf, SparkContext, StorageLevel};

pub const NODES: usize = 4;

/// Base configuration every scenario runs under: four simulated nodes,
/// a seeded deterministic scheduler, and real retry backoff (free in
/// virtual time).
pub fn sim_conf(seed: u64) -> SparkConf {
    SparkConf::default()
        .with_executors(NODES)
        .with_executor_cores(2)
        .with_worker_threads(1)
        .with_partitions(8)
        .with_retry_backoff(4, 64)
        .with_sim_seed(seed)
}

/// The seeds a scenario sweeps. `CHAOS_SEED` pins one seed (replay);
/// otherwise `SIM_SEEDS` (default `default_n`) seeds are derived from
/// the scenario name so different scenarios don't all start at zero.
pub fn seeds(scenario: &str, default_n: u64) -> Vec<u64> {
    if let Ok(pin) = std::env::var("CHAOS_SEED") {
        let seed: u64 = pin
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("CHAOS_SEED must be a u64, got {pin:?}"));
        return vec![seed];
    }
    let n = std::env::var("SIM_SEEDS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default_n);
    // A stable per-scenario seed base.
    let base = fnv1a(FNV_OFFSET, scenario.as_bytes());
    (0..n).map(|i| base.wrapping_add(i)).collect()
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into a 64-bit FNV-1a state.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Is this the default fixed-seed sweep (no `CHAOS_SEED` pin, no
/// `SIM_SEEDS` widening)? Aggregate "the faults actually fired"
/// assertions only make sense over the known default seed set.
pub fn default_sweep() -> bool {
    std::env::var("CHAOS_SEED").is_err() && std::env::var("SIM_SEEDS").is_err()
}

/// Look up one counter from a run's fingerprint.
pub fn counter(run: &SimRun, name: &str) -> u64 {
    run.counters
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("unknown counter {name}"))
}

/// Run `body` for every swept seed, printing the replay line before
/// re-raising any failure.
pub fn sweep(scenario: &str, default_n: u64, body: impl Fn(u64)) {
    for seed in seeds(scenario, default_n) {
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| body(seed))) {
            eprintln!(
                "\nscenario '{scenario}' failed at seed {seed}; replay with:\n    \
                 CHAOS_SEED={seed} cargo test -p sparklet --test sim_scenarios\n"
            );
            std::panic::resume_unwind(panic);
        }
    }
}

pub fn pairs(n: usize) -> Vec<(usize, u64)> {
    (0..n).map(|i| (i, (i * 13) as u64)).collect()
}

fn sorted(mut v: Vec<(usize, u64)>) -> Vec<(usize, u64)> {
    v.sort_unstable();
    v
}

/// The scenario workload: two reduce branches over the same input,
/// unioned and repartitioned — a diamond of three shuffles plus the
/// result stage. The right branch's placement is dropped, so the union
/// concatenates and the repartition shuffles ([`zipped_workload`] is
/// the co-partitioned twin). `persist_level` persists the left branch
/// (retained lineage, recompute-backed) so storage-pressure scenarios
/// exercise the block-store paths too.
pub fn workload(
    sc: &SparkContext,
    persist_level: Option<StorageLevel>,
) -> Result<Vec<(usize, u64)>, sparklet::JobError> {
    let data = pairs(96);
    let left = sc
        .parallelize(data.clone(), Some(6))
        .map(|(k, v)| (k % 7, v))
        .reduce_by_key(|a, b| a.wrapping_add(b), 4, Arc::new(HashPartitioner));
    let left = match persist_level {
        Some(level) => left.persist(level)?,
        None => left,
    };
    let right = sc
        .parallelize(data, Some(6))
        .map(|(k, v)| (k % 5, v ^ 3))
        .reduce_by_key(|a, b| a.wrapping_add(b), 4, Arc::new(HashPartitioner));
    let out = left
        .union(&right.map(|kv| kv))
        .partition_by(4, Arc::new(HashPartitioner))
        .collect()?;
    Ok(sorted(out))
}

/// The co-partitioned diamond: the same two reduce branches, both
/// placed by the 4-way hash partitioner, so their union zips and its
/// repartition elides; a cogroup then takes the union as its narrow
/// side and shuffles only an unplaced third branch. Three shuffles
/// plus the result stage, none of them after the union.
pub fn zipped_workload(sc: &SparkContext) -> Result<Vec<(usize, u64)>, sparklet::JobError> {
    let data = pairs(96);
    let branch = |modulus: usize, mix: u64| {
        sc.parallelize(data.clone(), Some(6))
            .map(move |(k, v)| (k % modulus, v ^ mix))
            .reduce_by_key(|a, b| a.wrapping_add(b), 4, Arc::new(HashPartitioner))
    };
    let unplaced = sc
        .parallelize(data.clone(), Some(6))
        .map(|(k, v)| (k % 3, v));
    let out = branch(7, 0)
        .union(&branch(5, 3))
        .partition_by(4, Arc::new(HashPartitioner))
        .cogroup(&unplaced, 4, Arc::new(HashPartitioner))
        .map_values(|(ls, rs)| {
            ls.into_iter()
                .chain(rs)
                .fold(0u64, |a, b| a.wrapping_mul(31).wrapping_add(b))
        })
        .collect()?;
    Ok(sorted(out))
}

/// Everything one scenario run produces, for determinism comparison.
#[derive(Debug, PartialEq)]
pub struct SimRun {
    pub result: Result<Vec<(usize, u64)>, String>,
    pub schedule: Vec<(u64, String)>,
    /// Per stage, the node of each committed task in commit order: the
    /// seeded task picks made visible (placement is `p % NODES` plus
    /// the attempt number, so the sequence moves with every draw).
    pub placements: Vec<Vec<usize>>,
    pub counters: Vec<(&'static str, u64)>,
    pub virtual_ms: u64,
}

impl SimRun {
    /// 64-bit FNV-1a over everything the run fingerprints besides its
    /// data: the stage schedule, the task commit order, every counter,
    /// and the virtual clock.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for (stage, label) in &self.schedule {
            h = fnv1a(h, &stage.to_le_bytes());
            h = fnv1a(h, label.as_bytes());
            h = fnv1a(h, &[0]);
        }
        for nodes in &self.placements {
            for &node in nodes {
                h = fnv1a(h, &[node as u8]);
            }
            h = fnv1a(h, &[0xff]);
        }
        for (name, value) in &self.counters {
            h = fnv1a(h, name.as_bytes());
            h = fnv1a(h, &value.to_le_bytes());
        }
        fnv1a(h, &self.virtual_ms.to_le_bytes())
    }
}

/// Counter fingerprint: every engine total that must be bit-identical
/// between two equal-seed runs.
pub fn counters(sc: &SparkContext) -> Vec<(&'static str, u64)> {
    // Names and order feed the golden fingerprints: append, never
    // reorder.
    let s = sc.summary();
    vec![
        ("stages", s.stages as u64),
        ("tasks", s.tasks as u64),
        ("retries", s.retries),
        ("staged", s.staged_bytes),
        ("released", s.staged_released_bytes),
        ("remote", s.remote_bytes),
        ("local", s.local_bytes),
        ("cache_hits", s.cache_hits),
        ("cache_misses", s.cache_misses),
        ("spilled", s.spilled_bytes),
        ("evicted", s.evicted_bytes),
        ("recomputes", s.recomputes),
        // The sim never fenced a write; the goldens hash this entry.
        ("zombies", 0),
        ("staged_lost", s.staged_lost_bytes),
        ("resubmissions", s.stage_resubmissions),
    ]
}

/// Commit-order task placement per recorded stage (see
/// [`SimRun::placements`]).
pub fn placements(sc: &SparkContext) -> Vec<Vec<usize>> {
    sc.with_event_log(|log| {
        log.stages()
            .iter()
            .map(|s| s.record.tasks.iter().map(|t| t.node).collect())
            .collect()
    })
}

/// Engine invariants that must hold after every scenario run, chaotic
/// or clean, successful or failed.
pub fn assert_invariants(sc: &SparkContext, seed: u64) {
    // 1. Staged-byte reconciliation: all lineage dropped => every
    //    node's staging ledger is back to zero.
    for node in 0..sc.num_executors() {
        assert_eq!(
            sc.staged_bytes(node),
            0,
            "CHAOS_SEED={seed}: node {node} still holds staged bytes"
        );
    }
    // 2. Manager self-audit: cached counters == recounted state.
    if let Err(e) = sc.audit() {
        panic!("CHAOS_SEED={seed}: engine audit failed: {e}");
    }
    let did = sc.summary();
    // 3. Every committed staged byte was either released (GC /
    //    reconciliation) or written off with a dead executor.
    assert!(
        did.staged_released_bytes + did.staged_lost_bytes >= did.staged_bytes,
        "CHAOS_SEED={seed}: released {} + lost {} < staged {}",
        did.staged_released_bytes,
        did.staged_lost_bytes,
        did.staged_bytes
    );
    sc.with_event_log(|log| {
        // 4. Exactly-once materialization: a committed map stage only
        //    re-runs under a fetch-failure resubmission.
        let mut label_counts: HashMap<&str, u64> = HashMap::new();
        for s in log.stages() {
            if s.label.ends_with("map") {
                *label_counts.entry(s.label.as_str()).or_insert(0) += 1;
            }
        }
        let duplicates: u64 = label_counts.values().map(|&n| n - 1).sum();
        assert!(
            duplicates <= did.stage_resubmissions,
            "CHAOS_SEED={seed}: {duplicates} duplicate map stages but only {} resubmissions",
            did.stage_resubmissions
        );
    });
}

/// Execute the workload once under `chaos` on a fresh seeded context
/// and check invariants.
pub fn run_scenario(
    seed: u64,
    chaos: Option<ChaosPolicy>,
    persist_level: Option<StorageLevel>,
    conf: SparkConf,
) -> SimRun {
    run_workload(seed, chaos, conf, |sc| workload(sc, persist_level))
}

/// [`run_scenario`] over any workload.
pub fn run_workload(
    seed: u64,
    chaos: Option<ChaosPolicy>,
    conf: SparkConf,
    job: impl FnOnce(&SparkContext) -> Result<Vec<(usize, u64)>, sparklet::JobError>,
) -> SimRun {
    let sc = SparkContext::new(conf);
    assert!(sc.is_deterministic(), "scenario contexts must be seeded");
    let result = {
        let _chaos = chaos.map(|policy| sc.install_chaos(policy));
        job(&sc).map_err(|e| e.to_string())
    };
    // A trailing one-partition stage. `sc.summary()` needs no stage to
    // read the counts no record has taken yet, but this one is part of
    // every pinned schedule: the golden fingerprints hash its stage,
    // its placement and the virtual time it takes.
    let _ = sc.parallelize(vec![(0usize, 0u64)], Some(1)).count();
    assert_invariants(&sc, seed);
    SimRun {
        result,
        schedule: sc.with_event_log(|log| log.stage_order()),
        placements: placements(&sc),
        counters: counters(&sc),
        virtual_ms: sc.now_ms(),
    }
}

/// Run the scenario twice with the same seed and assert the schedule,
/// the counter fingerprint, and the result are bit-identical — the
/// "same seed => same run" guarantee. Returns the run.
pub fn run_replay_stable(scenario: &str, seed: u64, mk: impl Fn(u64) -> SimRun) -> SimRun {
    let first = mk(seed);
    let second = mk(seed);
    assert_eq!(
        first.schedule, second.schedule,
        "CHAOS_SEED={seed}: {scenario}: stage schedule not reproducible"
    );
    assert_eq!(
        first, second,
        "CHAOS_SEED={seed}: {scenario}: run not bit-identical on replay"
    );
    first
}

/// Compare a chaotic run against the fault-free run of the same seed:
/// a successful chaotic run must produce the identical result; a
/// failed one must fail with a chaos-attributable error — never
/// silently wrong data.
pub fn assert_against_fault_free(scenario: &str, seed: u64, chaotic: &SimRun, clean: &SimRun) {
    let want = clean
        .result
        .as_ref()
        .unwrap_or_else(|e| panic!("CHAOS_SEED={seed}: {scenario}: fault-free run failed: {e}"));
    match &chaotic.result {
        Ok(got) => assert_eq!(
            got, want,
            "CHAOS_SEED={seed}: {scenario}: chaotic run survived but returned different data"
        ),
        Err(msg) => {
            let attributable = ["chaos", "injected", "fetch failed", "lost", "disk", "block"]
                .iter()
                .any(|needle| msg.contains(needle));
            assert!(
                attributable,
                "CHAOS_SEED={seed}: {scenario}: failure not chaos-attributable: {msg}"
            );
        }
    }
}
