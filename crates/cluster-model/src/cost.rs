//! The analytical cost model.
//!
//! Inputs are *records* of what a real `sparklet` execution did — which
//! kernels each task ran (with block geometry and kernel type), and how
//! many bytes moved where. The model converts records into simulated
//! seconds on a [`ClusterSpec`]. Constants live in [`ModelParams`] with
//! defaults calibrated so the paper-scale configurations land in the
//! right few-hundred-seconds regime; the *shape* conclusions (who wins,
//! where crossovers fall) come from the mechanisms, not the constants.

use crate::spec::{ClusterSpec, SpecError};

/// How a task executed its block kernels — the paper's two kernel types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelType {
    /// Loop-based kernel, single-threaded per task (the Numba baseline).
    Iterative,
    /// r-way R-DP kernel on an OpenMP-style pool with `threads` workers
    /// (the paper's `OMP_NUM_THREADS`).
    Recursive {
        /// Recursive fan-out inside the executor kernel.
        r_shared: usize,
        /// OpenMP-style thread-team size (`OMP_NUM_THREADS`).
        threads: usize,
    },
    /// Relaxation sweep over a CSR tile (the partitioned multi-source
    /// SSSP path for sparse APSP). Work is one update per stored edge
    /// per source row, so `updates ≈ sources · nnz` — priced by nnz,
    /// not block-side². Single-threaded per task.
    SparseSweep,
}

/// One block-kernel execution inside a task.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelInvocation {
    /// Number of GEP element updates performed (≈ Σ_G ∩ block volume).
    pub updates: f64,
    /// Side length of the updated block.
    pub block_side: usize,
    /// Bytes per table element.
    pub elem_bytes: usize,
    /// Which kernel family executed the block.
    pub kernel: KernelType,
}

/// One task's recorded footprint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskRecord {
    /// Executor (node) index the task ran on.
    pub node: usize,
    /// Block kernels this task executed.
    pub kernels: Vec<KernelInvocation>,
    /// Shuffle bytes fetched from other nodes.
    pub remote_read_bytes: u64,
    /// Shuffle bytes fetched from this node's own map outputs.
    pub local_read_bytes: u64,
    /// Map-output bytes staged to local storage for later shuffles.
    pub shuffle_write_bytes: u64,
    /// Cached bytes this task serialized to the disk tier (spills it
    /// triggered plus `DISK_ONLY` puts).
    pub spill_write_bytes: u64,
    /// Cached bytes this task deserialized back from the disk tier.
    pub spill_read_bytes: u64,
    /// Compressed frame bytes actually fetched from other nodes, when
    /// the engine's data-plane codec was on (0 = frames moved at their
    /// declared size; the model falls back to its assumed
    /// [`ModelParams::compression`] ratio).
    pub remote_read_wire_bytes: u64,
    /// Compressed frame bytes actually read from this node's storage
    /// (0 = uncompressed).
    pub local_read_wire_bytes: u64,
    /// Compressed frame bytes actually staged for later shuffles
    /// (0 = uncompressed).
    pub shuffle_write_wire_bytes: u64,
    /// Compressed frame bytes actually written to the disk tier
    /// (0 = uncompressed).
    pub spill_write_wire_bytes: u64,
    /// Compressed frame bytes actually read back from the disk tier
    /// (0 = uncompressed).
    pub spill_read_wire_bytes: u64,
}

/// One stage's recorded footprint (plus driver-side traffic for CB).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageRecord {
    /// Engine-assigned global stage ordinal (driver-only pseudo-stages
    /// keep the default 0).
    pub stage_id: u64,
    /// Stage ids of the direct parent stages in the job DAG — the map
    /// stages whose shuffles this stage read.
    pub parent_stage_ids: Vec<u64>,
    /// Stages in flight on the context when this one launched
    /// (including this one). A job runs its stages one at a time, so a
    /// job alone records 1; above 1 means concurrent jobs on one
    /// context.
    pub concurrent_stages: u64,
    /// Every task of the stage (with placement).
    pub tasks: Vec<TaskRecord>,
    /// Bytes collected to the driver at the end of the stage (CB).
    pub collect_bytes: u64,
    /// Bytes each node reads back from shared storage (CB broadcast).
    pub broadcast_bytes: u64,
    /// Failed attempts that were re-launched via lineage retry.
    pub retries: u64,
    /// Staged shuffle bytes released back during the stage window
    /// (per-shuffle GC plus retry re-staging reconciliation).
    pub staged_released_bytes: u64,
    /// Staged shuffle bytes written off with a dead executor during the
    /// stage window (destroyed, not released).
    pub staged_lost_bytes: u64,
    /// Whole-job resubmissions taken after fetch failures during the
    /// stage window.
    pub stage_resubmissions: u64,
    /// Cached-partition reads served from either storage tier during
    /// the stage window.
    pub cache_hits: u64,
    /// Cached-partition reads that found neither tier populated.
    pub cache_misses: u64,
    /// Cached bytes serialized into the disk tier during the stage
    /// window (LRU spills plus `DISK_ONLY` puts).
    pub spilled_bytes: u64,
    /// Cached bytes dropped under memory pressure (recompute-backed
    /// evictions; unpersists are not counted).
    pub evicted_bytes: u64,
    /// Lineage recomputations of dropped cached blocks.
    pub recomputes: u64,
}

/// Converts one task's recorded footprint into logical milliseconds
/// for the deterministic simulation harness's virtual clock.
///
/// Deliberately much cruder than [`CostModel`]: the sim needs task
/// durations that are *ordered sensibly* (bigger tasks take longer, so
/// stragglers and backoff deadlines interleave realistically), not
/// calibrated cluster seconds. Pure integer arithmetic on the record —
/// identical on every platform, so virtual timelines replay exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickCharger {
    /// Modeled bytes/s for every byte the task moved (shuffle reads,
    /// writes, spills).
    pub io_bw: f64,
    /// Modeled GEP updates/s for the task's kernels.
    pub update_rate: f64,
    /// Fixed per-task overhead in logical milliseconds (keeps even
    /// zero-byte tasks from completing in zero time).
    pub task_overhead_ms: u64,
}

impl Default for TickCharger {
    fn default() -> Self {
        TickCharger {
            io_bw: 8.0e8,
            update_rate: 1.2e8,
            task_overhead_ms: 1,
        }
    }
}

impl TickCharger {
    /// Check the rates every tick divides by; `Err` names the bad one.
    pub fn validate(&self) -> Result<(), SpecError> {
        crate::spec::check_rate("tick.io_bw", self.io_bw)?;
        crate::spec::check_rate("tick.update_rate", self.update_rate)
    }

    /// Logical milliseconds one task occupies on the virtual clock.
    ///
    /// Panics on a zero/non-finite rate: an unchecked division here
    /// would turn the u64 cast's saturation into a silently absurd
    /// virtual timeline instead of an error.
    pub fn task_ticks(&self, task: &TaskRecord) -> u64 {
        if let Err(e) = self.validate() {
            panic!("TickCharger: {e}");
        }
        let bytes = task.remote_read_bytes
            + task.local_read_bytes
            + task.shuffle_write_bytes
            + task.spill_write_bytes
            + task.spill_read_bytes;
        let updates: f64 = task.kernels.iter().map(|k| k.updates).sum();
        let io_ms = (bytes as f64 / self.io_bw * 1000.0).ceil() as u64;
        let compute_ms = (updates / self.update_rate * 1000.0).ceil() as u64;
        self.task_overhead_ms + io_ms + compute_ms
    }
}

/// A stage's simulated time decomposed into components (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCost {
    /// End-to-end stage seconds.
    pub total: f64,
    /// Kernel compute on the critical node.
    pub compute: f64,
    /// Shuffle fetch + staging + serde on the critical node.
    pub io: f64,
    /// Serial driver phase (collect + broadcast writes).
    pub driver: f64,
    /// Fixed stage overhead.
    pub overhead: f64,
}

/// Tunable constants. Defaults are calibrated against the paper's
/// reported runtimes for cluster 1 (see `dp-bench` calibration notes).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    /// GEP updates/s per core for an L2-resident iterative kernel.
    pub base_update_rate: f64,
    /// Working-set slack: a block "fits L2" when
    /// `side² · elem_bytes ≤ l2_slack · l2_bytes`.
    pub l2_slack: f64,
    /// Rate multiplier when the working set spills to LLC.
    pub llc_factor: f64,
    /// Rate multiplier when the working set spills to DRAM.
    pub dram_factor: f64,
    /// Recursive kernels' rate relative to L2-resident iterative
    /// (greater than 1: the paper's recursive kernels are native C +
    /// OpenMP where the iterative baseline pays the Numba/PySpark
    /// runtime; they are also cache-oblivious, so no L2 cliff).
    pub recursive_factor: f64,
    /// Efficiency loss for tiny recursion base cases: multiplier
    /// `min(1, (base_side / ref_base)^base_exponent)`.
    pub ref_base_side: f64,
    /// Exponent of the base-case efficiency factor.
    pub base_exponent: f64,
    /// Parallel speedup of a t-thread recursive kernel: `t^parallel_exponent`.
    pub parallel_exponent: f64,
    /// Oversubscription soft knee: thread demand up to
    /// `oversub_knee × cores` is near-free (the paper's best configs
    /// oversubscribe 4-16×); beyond it the penalty ramps as
    /// `1/(1 + (demand/cores/knee)^sharpness)`.
    pub oversub_knee: f64,
    /// Ramp sharpness of the oversubscription penalty.
    pub oversub_sharpness: f64,
    /// Fixed scheduling cost per task, seconds.
    pub task_overhead: f64,
    /// Fixed cost per stage (DAG bookkeeping, barrier), seconds.
    pub stage_overhead: f64,
    /// Serialization/deserialization rate for shuffle data, bytes/s/core.
    pub serde_bw: f64,

    /// Effective compression ratio of shuffle/collect traffic (Spark
    /// enables LZ4 shuffle compression by default; DP tables of small
    /// integer-ish distances compress well).
    pub compression: f64,

    /// Sparse-sweep kernels' per-update rate relative to L2-resident
    /// iterative (below 1: CSR relaxation chases row indices and
    /// scatters into the candidate matrix instead of streaming a dense
    /// tile).
    pub sweep_factor: f64,
}

fn default_sweep_factor() -> f64 {
    0.45
}

impl Default for ModelParams {
    fn default() -> Self {
        ModelParams {
            base_update_rate: 1.2e8,
            l2_slack: 2.0,
            llc_factor: 0.55,
            dram_factor: 0.30,
            recursive_factor: 2.6,
            ref_base_side: 64.0,
            base_exponent: 0.35,
            parallel_exponent: 0.88,
            oversub_knee: 20.0,
            oversub_sharpness: 1.5,
            task_overhead: 0.030,
            stage_overhead: 0.20,
            serde_bw: 8.0e8,
            compression: 2.5,
            sweep_factor: default_sweep_factor(),
        }
    }
}

impl ModelParams {
    /// Check every constant the cost terms divide by.
    pub fn validate(&self) -> Result<(), SpecError> {
        crate::spec::check_rate("params.base_update_rate", self.base_update_rate)?;
        crate::spec::check_rate("params.llc_factor", self.llc_factor)?;
        crate::spec::check_rate("params.dram_factor", self.dram_factor)?;
        crate::spec::check_rate("params.recursive_factor", self.recursive_factor)?;
        crate::spec::check_rate("params.serde_bw", self.serde_bw)?;
        crate::spec::check_rate("params.compression", self.compression)?;
        crate::spec::check_rate("params.sweep_factor", self.sweep_factor)?;
        if !self.task_overhead.is_finite() || self.task_overhead < 0.0 {
            return Err(SpecError {
                field: "params.task_overhead",
                value: self.task_overhead,
            });
        }
        if !self.stage_overhead.is_finite() || self.stage_overhead < 0.0 {
            return Err(SpecError {
                field: "params.stage_overhead",
                value: self.stage_overhead,
            });
        }
        Ok(())
    }
}

/// Side length of the recursion base case actually reached by an r-way
/// R-DP kernel on a block of side `b` (recursion stops when the side is
/// ≤ `base` or no longer divisible by `r`).
pub fn base_case_side(b: usize, r: usize, base: usize) -> usize {
    let mut side = b;
    while side > base && side >= r && side.is_multiple_of(r) {
        side /= r;
    }
    side
}

/// The cost model: a cluster, the Spark-level concurrency knob
/// (`executor-cores`), and the constants.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// The cluster being modelled.
    pub spec: ClusterSpec,
    /// Concurrent task slots per executor.
    pub executor_cores: usize,
    /// Model constants.
    pub params: ModelParams,
}

impl CostModel {
    /// Model for `spec` with `executor_cores` task slots per node.
    ///
    /// Panics if the spec fails [`ClusterSpec::validate`]; use
    /// [`CostModel::try_new`] for the typed error.
    pub fn new(spec: ClusterSpec, executor_cores: usize) -> Self {
        match CostModel::try_new(spec, executor_cores) {
            Ok(model) => model,
            Err(e) => panic!("CostModel: {e}"),
        }
    }

    /// Model for `spec`, rejecting any spec whose rates would divide
    /// to inf/NaN (zero or unset bandwidths included).
    pub fn try_new(spec: ClusterSpec, executor_cores: usize) -> Result<Self, SpecError> {
        if executor_cores == 0 {
            return Err(SpecError {
                field: "executor_cores",
                value: 0.0,
            });
        }
        spec.validate()?;
        Ok(CostModel {
            spec,
            executor_cores,
            params: ModelParams::default(),
        })
    }

    /// Replace the model constants. Panics on invalid constants; use
    /// [`CostModel::try_with_params`] for the typed error.
    pub fn with_params(self, params: ModelParams) -> Self {
        match self.try_with_params(params) {
            Ok(model) => model,
            Err(e) => panic!("CostModel: {e}"),
        }
    }

    /// Replace the model constants, rejecting non-finite or
    /// non-positive rates.
    pub fn try_with_params(mut self, params: ModelParams) -> Result<Self, SpecError> {
        params.validate()?;
        self.params = params;
        Ok(self)
    }

    /// Pure single-core seconds of one invocation: updates divided by
    /// the kernel's single-thread rate (cache/base-case factors
    /// included, no concurrency effects).
    pub fn core_seconds(&self, inv: &KernelInvocation) -> f64 {
        let p = &self.params;
        let node = &self.spec.node;
        let rate = match inv.kernel {
            KernelType::Iterative => {
                // Loop kernel: spatial locality is fine either way;
                // temporal locality dies outside L2.
                let ws = (inv.block_side * inv.block_side * inv.elem_bytes) as f64;
                let cache_factor = if ws <= p.l2_slack * node.l2_bytes as f64 {
                    1.0
                } else if ws <= node.llc_bytes as f64 {
                    p.llc_factor
                } else {
                    p.dram_factor
                };
                p.base_update_rate * cache_factor
            }
            KernelType::Recursive { r_shared, .. } => {
                // Cache-oblivious: flat across block sizes; tiny base
                // cases lose some vectorization efficiency.
                let base_side =
                    base_case_side(inv.block_side, r_shared.max(2), p.ref_base_side as usize);
                let base_factor = (base_side as f64 / p.ref_base_side)
                    .powf(p.base_exponent)
                    .min(1.0);
                p.base_update_rate * p.recursive_factor * base_factor
            }
            KernelType::SparseSweep => {
                // Index-chasing over CSR rows: there is no dense-tile
                // temporal reuse to lose to cache cliffs, but also no
                // contiguous streaming to vectorize — a flat,
                // discounted per-update rate independent of block
                // geometry. `updates` already carries the nnz term.
                p.base_update_rate * p.sweep_factor
            }
        };
        inv.updates / rate
    }

    /// Coarse whole-job pricing for service admission control: modeled
    /// wall seconds assuming the job's update volume spreads perfectly
    /// over every task slot in the cluster, plus one pass of its input
    /// bytes through a node NIC. Deliberately much cheaper (and
    /// coarser) than [`CostModel::stage_seconds`] — admission prices
    /// jobs *before* any stage graph exists, and only relative order
    /// matters to the budget check. Pure: same inputs, same price.
    pub fn admission_seconds(&self, inv: &KernelInvocation, input_bytes: u64) -> f64 {
        let slots = (self.spec.nodes * self.executor_cores).max(1) as f64;
        let compute = self.core_seconds(inv) / slots;
        let transfer = input_bytes as f64 / self.spec.network_bw + self.spec.network_latency;
        compute + transfer
    }

    /// Maximum speedup one task can reach when it has the node to
    /// itself (the straggler bound): its thread team, nothing more.
    fn task_max_speedup(&self, kernel: &KernelType) -> f64 {
        match kernel {
            KernelType::Iterative | KernelType::SparseSweep => 1.0,
            KernelType::Recursive { threads, .. } => {
                let t = (*threads).max(1).min(self.spec.node.cores) as f64;
                t.powf(self.params.parallel_exponent).max(1.0)
            }
        }
    }

    /// Decompose a stage's simulated time into its cost components
    /// (driver time is serial; the rest is the critical node's split).
    pub fn stage_breakdown(&self, stage: &StageRecord) -> StageCost {
        let total = self.stage_seconds(stage);
        // Re-price with I/O made free to isolate compute, and with
        // kernels removed to isolate I/O.
        let mut no_io = self.params.clone();
        no_io.compression = 1e18;
        no_io.serde_bw = 1e18;
        no_io.task_overhead = 0.0;
        no_io.stage_overhead = 0.0;
        let compute_model = CostModel {
            spec: self.spec.clone(),
            executor_cores: self.executor_cores,
            params: no_io,
        };
        let mut bare = stage.clone();
        bare.collect_bytes = 0;
        bare.broadcast_bytes = 0;
        for t in &mut bare.tasks {
            // Measured wire sizes bypass the compression knob, so they
            // must be dropped too for the no-I/O repricing to actually
            // zero the transfer terms.
            t.remote_read_wire_bytes = 0;
            t.local_read_wire_bytes = 0;
            t.shuffle_write_wire_bytes = 0;
            t.spill_write_wire_bytes = 0;
            t.spill_read_wire_bytes = 0;
        }
        let compute = compute_model.stage_seconds(&bare) - compute_model.params.stage_overhead;
        let comp = self.params.compression.max(1.0);
        let driver = stage.collect_bytes as f64 / comp / self.spec.network_bw
            + stage.collect_bytes as f64 / comp / self.spec.storage.write_bw
            + stage.broadcast_bytes as f64 / comp / self.spec.storage.write_bw;
        let io = (total - compute - driver - self.params.stage_overhead).max(0.0);
        StageCost {
            total,
            compute: compute.max(0.0),
            io,
            driver,
            overhead: self.params.stage_overhead,
        }
    }

    /// Simulated seconds of one stage.
    ///
    /// Per node, compute time is the larger of two bounds, modelling a
    /// dynamic task scheduler plus adaptive thread teams:
    ///
    /// * **throughput bound** — total single-core work divided by the
    ///   node's effective cores: `min(cores, slots × team-width)`,
    ///   discounted for oversubscription. Single-threaded (iterative)
    ///   tasks can never use more cores than there are runnable tasks —
    ///   the paper's "too large a block size may serialize the Spark
    ///   execution";
    /// * **straggler bound** — the longest single task at its own best
    ///   speedup (1 for iterative; its thread team for recursive).
    ///
    /// I/O (shuffle fetch, staging, serde) flows through the task slots
    /// the same way, and the CB driver phase is serial.
    pub fn stage_seconds(&self, stage: &StageRecord) -> f64 {
        let p = &self.params;
        let comp = p.compression.max(1.0);
        let nodes = self.spec.nodes;
        let cores = self.spec.node.cores as f64;
        // Per node accumulators.
        struct NodeAcc {
            tasks: usize,
            busy: usize,
            work: f64,
            longest: f64,
            io: f64,
            longest_io: f64,
            width_sum: f64,
            max_team: f64,
        }
        let mut acc: Vec<NodeAcc> = (0..nodes)
            .map(|_| NodeAcc {
                tasks: 0,
                busy: 0,
                work: 0.0,
                longest: 0.0,
                io: 0.0,
                longest_io: 0.0,
                width_sum: 0.0,
                max_team: 1.0,
            })
            .collect();
        for t in &stage.tasks {
            let a = &mut acc[t.node % nodes];
            a.tasks += 1;
            let mut task_work = 0.0;
            let mut task_straggler = 0.0;
            let mut task_width = 0.0f64;
            for inv in &t.kernels {
                let w = self.core_seconds(inv);
                task_work += w;
                task_straggler += w / self.task_max_speedup(&inv.kernel);
                let width = match inv.kernel {
                    KernelType::Iterative | KernelType::SparseSweep => 1.0,
                    KernelType::Recursive { threads, .. } => threads.max(1) as f64,
                };
                // A task runs its kernels sequentially: its thread
                // footprint is one team, not one per kernel.
                task_width = task_width.max(width);
            }
            if !t.kernels.is_empty() {
                a.busy += 1;
                a.width_sum += task_width;
                a.max_team = a.max_team.max(task_width);
            }
            a.work += task_work;
            a.longest = a.longest.max(task_straggler);
            // Bytes a transfer actually moves: the measured wire size
            // when the engine's codec compressed the frame, else the
            // declared volume discounted by the assumed ratio. Serde
            // terms always run on declared (logical) bytes — codecs
            // change what crosses the wire, not what gets serialized.
            let xfer = |logical: u64, wire: u64| {
                if wire > 0 {
                    wire as f64
                } else {
                    logical as f64 / comp
                }
            };
            let bytes = t.remote_read_bytes + t.local_read_bytes;
            let mut io = xfer(t.remote_read_bytes, t.remote_read_wire_bytes)
                / self.spec.network_bw
                + xfer(t.local_read_bytes, t.local_read_wire_bytes) / self.spec.storage.read_bw
                + bytes as f64 / p.serde_bw
                + xfer(t.shuffle_write_bytes, t.shuffle_write_wire_bytes)
                    / self.spec.storage.write_bw
                + t.shuffle_write_bytes as f64 / p.serde_bw
                // Cache spill traffic is priced like shuffle staging:
                // serialized (serde) and compressed through the node's
                // local storage bandwidth.
                + xfer(t.spill_write_bytes, t.spill_write_wire_bytes)
                    / self.spec.storage.write_bw
                + t.spill_write_bytes as f64 / p.serde_bw
                + xfer(t.spill_read_bytes, t.spill_read_wire_bytes) / self.spec.storage.read_bw
                + t.spill_read_bytes as f64 / p.serde_bw;
            io += p.task_overhead;
            a.io += io;
            a.longest_io = a.longest_io.max(io);
        }
        let mut makespan = 0.0f64;
        for a in &acc {
            if a.tasks == 0 {
                continue;
            }
            let slots = (self.executor_cores.min(a.tasks)).max(1) as f64;
            let node_compute = if a.busy > 0 {
                // Concurrent kernel width: slots limited by runnable
                // busy tasks, each contributing its average team width.
                let busy_slots = (self.executor_cores.min(a.busy)).max(1) as f64;
                let avg_width = (a.width_sum / a.busy as f64).max(1.0);
                let demand = busy_slots * avg_width;
                let oversub = if demand > cores {
                    1.0 / (1.0 + (demand / cores / p.oversub_knee).powf(p.oversub_sharpness))
                } else {
                    1.0
                };
                let eff_cores = demand.min(cores) * oversub;
                (a.work / eff_cores).max(a.longest)
            } else {
                0.0
            };
            let node_io = (a.io / slots).max(a.longest_io);
            makespan = makespan.max(node_compute + node_io);
        }
        // Driver phase (CB): collect over the network to one node, write
        // to shared storage, then write the broadcast files out. The
        // executor-side broadcast *reads* are recorded per task (as
        // local storage traffic) and priced in the makespan above.
        let driver = stage.collect_bytes as f64 / comp / self.spec.network_bw
            + stage.collect_bytes as f64 / comp / self.spec.storage.write_bw
            + stage.broadcast_bytes as f64 / comp / self.spec.storage.write_bw;
        makespan + driver + p.stage_overhead
    }

    /// Simulated seconds of a whole job (stages are barriers).
    pub fn job_seconds(&self, stages: &[StageRecord]) -> f64 {
        stages.iter().map(|s| self.stage_seconds(s)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv(b: usize, kernel: KernelType) -> KernelInvocation {
        KernelInvocation {
            updates: (b as f64).powi(3),
            block_side: b,
            elem_bytes: 8,
            kernel,
        }
    }

    fn model() -> CostModel {
        CostModel::new(ClusterSpec::skylake(), 32)
    }

    fn stage_with(tasks: Vec<TaskRecord>) -> StageRecord {
        StageRecord {
            tasks,
            ..Default::default()
        }
    }

    fn kernel_task(node: usize, invs: Vec<KernelInvocation>) -> TaskRecord {
        TaskRecord {
            node,
            kernels: invs,
            ..Default::default()
        }
    }

    #[test]
    fn base_case_side_arithmetic() {
        assert_eq!(base_case_side(1024, 4, 64), 64);
        assert_eq!(base_case_side(1024, 2, 64), 64);
        assert_eq!(base_case_side(2048, 16, 64), 8);
        assert_eq!(base_case_side(1024, 16, 64), 64);
        assert_eq!(base_case_side(96, 4, 16), 6); // 96→24→6 (24%4==0, 24>16)
        assert_eq!(base_case_side(50, 4, 16), 50); // not divisible
    }

    #[test]
    fn iterative_kernel_has_l2_cliff() {
        let m = model();
        // 512²·8 = 2 MB ≤ 2·1 MB slack → fits; 1024²·8 = 8 MB → LLC.
        let t512 = m.core_seconds(&inv(512, KernelType::Iterative));
        let t1024 = m.core_seconds(&inv(1024, KernelType::Iterative));
        // 8× the work at a lower rate → much more than 8× the time.
        assert!(t1024 > 8.0 * t512 * 1.5, "t512={t512} t1024={t1024}");
    }

    #[test]
    fn recursive_kernel_is_cache_oblivious() {
        let m = model();
        let k = KernelType::Recursive {
            r_shared: 4,
            threads: 1,
        };
        let t512 = m.core_seconds(&inv(512, k));
        let t1024 = m.core_seconds(&inv(1024, k));
        // 8× the work → between 5× and 9× the time (no L2 cliff; the
        // small residual comes from the base-case-size factor).
        let ratio = t1024 / t512;
        assert!((5.0..9.0).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn sparse_sweep_prices_by_nnz_not_geometry() {
        let m = model();
        let sweep = |updates: f64, side: usize| {
            m.core_seconds(&KernelInvocation {
                updates,
                block_side: side,
                elem_bytes: 8,
                kernel: KernelType::SparseSweep,
            })
        };
        // Linear in updates, flat across tile geometry (no cache cliff
        // keyed on block_side² — the working set is nnz-sized).
        assert_eq!(sweep(2.0e6, 4096), 2.0 * sweep(1.0e6, 4096));
        assert_eq!(sweep(1.0e6, 64), sweep(1.0e6, 8192));
        // A sparse sweep on a low-density graph beats the dense DRAM-
        // resident FW on the same logical n: n=4096, density 1% →
        // updates n·nnz·≈ vs n³.
        let n = 4096f64;
        let sparse_updates = n * (n * n * 0.01);
        let dense = m.core_seconds(&inv(4096, KernelType::Iterative));
        assert!(sweep(sparse_updates, 4096) < dense / 10.0);
    }

    #[test]
    fn sweep_factor_default_is_valid_and_discounted() {
        // The default must validate and price sweeps below the
        // L2-resident iterative rate.
        let p = ModelParams::default();
        assert_eq!(p.sweep_factor, default_sweep_factor());
        assert!(p.sweep_factor > 0.0 && p.sweep_factor < 1.0);
        assert!(p.validate().is_ok());
        let mut bad = p;
        bad.sweep_factor = 0.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn recursive_beats_iterative_beyond_l2() {
        let m = model();
        let it = m.core_seconds(&inv(2048, KernelType::Iterative));
        let rec = m.core_seconds(&inv(
            2048,
            KernelType::Recursive {
                r_shared: 4,
                threads: 1,
            },
        ));
        assert!(rec < it * 0.5, "rec={rec} it={it}");
    }

    #[test]
    fn threads_fill_idle_cores_when_tasks_are_scarce() {
        // 2 busy tasks on a 32-core node: single-threaded kernels leave
        // 30 cores idle; 16-thread teams fill them.
        let m = model();
        let narrow = stage_with(vec![
            kernel_task(
                0,
                vec![inv(
                    1024,
                    KernelType::Recursive {
                        r_shared: 4,
                        threads: 1,
                    },
                )],
            ),
            kernel_task(
                0,
                vec![inv(
                    1024,
                    KernelType::Recursive {
                        r_shared: 4,
                        threads: 1,
                    },
                )],
            ),
        ]);
        let wide = stage_with(vec![
            kernel_task(
                0,
                vec![inv(
                    1024,
                    KernelType::Recursive {
                        r_shared: 4,
                        threads: 16,
                    },
                )],
            ),
            kernel_task(
                0,
                vec![inv(
                    1024,
                    KernelType::Recursive {
                        r_shared: 4,
                        threads: 16,
                    },
                )],
            ),
        ]);
        let t_narrow = m.stage_seconds(&narrow);
        let t_wide = m.stage_seconds(&wide);
        assert!(t_wide < t_narrow / 4.0, "narrow={t_narrow} wide={t_wide}");
    }

    #[test]
    fn oversubscription_is_penalized() {
        // 32 busy tasks already saturate the node; 32-thread teams
        // (1024 threads on 32 cores) must not be faster than 2-thread
        // teams (64 threads).
        let m = model();
        let mk = |threads| {
            stage_with(
                (0..64)
                    .map(|_| {
                        kernel_task(
                            0,
                            vec![inv(
                                1024,
                                KernelType::Recursive {
                                    r_shared: 4,
                                    threads,
                                },
                            )],
                        )
                    })
                    .collect(),
            )
        };
        let t2 = m.stage_seconds(&mk(2));
        let t32 = m.stage_seconds(&mk(32));
        assert!(t32 > t2, "t2={t2} t32={t32}");
    }

    #[test]
    fn single_huge_block_serializes_iterative_execution() {
        // One giant iterative task cannot use more than one core — the
        // paper's "too large a block size may serialize" effect.
        let m = model();
        let iter = stage_with(vec![kernel_task(0, vec![inv(4096, KernelType::Iterative)])]);
        let rec = stage_with(vec![kernel_task(
            0,
            vec![inv(
                4096,
                KernelType::Recursive {
                    r_shared: 4,
                    threads: 16,
                },
            )],
        )]);
        let t_iter = m.stage_seconds(&iter);
        let t_rec = m.stage_seconds(&rec);
        assert!(t_rec < t_iter / 8.0, "iter={t_iter} rec={t_rec}");
    }

    #[test]
    fn tiny_base_cases_are_penalized() {
        let m = model();
        let good = m.core_seconds(&inv(
            1024,
            KernelType::Recursive {
                r_shared: 4,
                threads: 1,
            },
        ));
        // Normalize 2048³ work down to 1024³.
        let tiny = m.core_seconds(&inv(
            2048,
            KernelType::Recursive {
                r_shared: 16,
                threads: 1,
            },
        )) / 8.0;
        assert!(tiny > good, "tiny-base should be slower per update");
    }

    #[test]
    fn stage_seconds_accounts_network_and_staging() {
        let m = model();
        let bare = stage_with(vec![kernel_task(0, vec![inv(256, KernelType::Iterative)])]);
        let mut heavy_task = kernel_task(0, vec![inv(256, KernelType::Iterative)]);
        heavy_task.remote_read_bytes = 1 << 30;
        heavy_task.shuffle_write_bytes = 1 << 30;
        let heavy = stage_with(vec![heavy_task]);
        let t_bare = m.stage_seconds(&bare);
        let t_heavy = m.stage_seconds(&heavy);
        // 1 GiB over GbE is ~8.6 s pre-compression, ~3.4 s after the
        // default 2.5× ratio; plus staging and serde.
        assert!(t_heavy > t_bare + 4.0, "bare={t_bare} heavy={t_heavy}");
    }

    #[test]
    fn stage_makespan_is_max_over_nodes() {
        let m = model();
        let one_node = stage_with(
            (0..64)
                .map(|_| kernel_task(0, vec![inv(512, KernelType::Iterative)]))
                .collect(),
        );
        let spread = stage_with(
            (0..64)
                .map(|i| kernel_task(i % 16, vec![inv(512, KernelType::Iterative)]))
                .collect(),
        );
        assert!(m.stage_seconds(&one_node) > 1.5 * m.stage_seconds(&spread));
    }

    #[test]
    fn collect_broadcast_adds_driver_serial_time() {
        let m = model();
        let stage = StageRecord {
            tasks: vec![],
            collect_bytes: 1 << 30,
            broadcast_bytes: 1 << 30,
            ..Default::default()
        };
        // ≥ 1 GiB compressed over GbE + storage writes: several seconds.
        assert!(m.stage_seconds(&stage) > 4.0);
    }

    #[test]
    fn spill_traffic_is_priced_like_staging() {
        let m = model();
        let bare = stage_with(vec![kernel_task(0, vec![inv(256, KernelType::Iterative)])]);
        let mut spilled_task = kernel_task(0, vec![inv(256, KernelType::Iterative)]);
        spilled_task.spill_write_bytes = 4 << 30;
        spilled_task.spill_read_bytes = 4 << 30;
        let spilled = stage_with(vec![spilled_task]);
        let t_bare = m.stage_seconds(&bare);
        let t_spill = m.stage_seconds(&spilled);
        assert!(t_spill > t_bare + 1.0, "bare={t_bare} spill={t_spill}");
        // An HDD cluster pays more for the same spill volume.
        let hdd = CostModel::new(ClusterSpec::haswell(), 20);
        assert!(hdd.stage_seconds(&spilled) > t_spill);
    }

    #[test]
    fn hdd_cluster_pays_more_for_staging() {
        let ssd = CostModel::new(ClusterSpec::skylake(), 32);
        let hdd = CostModel::new(ClusterSpec::haswell(), 20);
        let mut task = TaskRecord {
            node: 0,
            ..Default::default()
        };
        task.shuffle_write_bytes = 4 << 30;
        let stage = stage_with(vec![task]);
        assert!(hdd.stage_seconds(&stage) > 2.0 * ssd.stage_seconds(&stage));
    }

    #[test]
    fn breakdown_components_are_consistent() {
        let m = model();
        let mut t = kernel_task(0, vec![inv(1024, KernelType::Iterative)]);
        t.remote_read_bytes = 1 << 28;
        t.shuffle_write_bytes = 1 << 28;
        let stage = StageRecord {
            tasks: vec![t],
            collect_bytes: 1 << 27,
            broadcast_bytes: 0,
            ..Default::default()
        };
        let cost = m.stage_breakdown(&stage);
        assert!(cost.compute > 0.0 && cost.io > 0.0 && cost.driver > 0.0);
        let sum = cost.compute + cost.io + cost.driver + cost.overhead;
        assert!(
            (sum - cost.total).abs() < 0.05 * cost.total + 1e-6,
            "components {sum} vs total {}",
            cost.total
        );
    }

    #[test]
    fn breakdown_of_pure_compute_is_compute() {
        let m = model();
        let stage = stage_with(vec![kernel_task(0, vec![inv(2048, KernelType::Iterative)])]);
        let cost = m.stage_breakdown(&stage);
        assert!(cost.compute > 10.0 * (cost.io + cost.driver));
    }

    #[test]
    fn measured_wire_bytes_replace_the_assumed_ratio() {
        let m = model();
        let mut assumed = kernel_task(0, vec![inv(256, KernelType::Iterative)]);
        assumed.remote_read_bytes = 1 << 30;
        assumed.shuffle_write_bytes = 1 << 30;
        // Same logical traffic, but the engine measured an 8× smaller
        // wire footprint — tighter than the default 2.5× assumption.
        let mut measured = assumed.clone();
        measured.remote_read_wire_bytes = (1 << 30) / 8;
        measured.shuffle_write_wire_bytes = (1 << 30) / 8;
        let t_assumed = m.stage_seconds(&stage_with(vec![assumed]));
        let t_measured = m.stage_seconds(&stage_with(vec![measured]));
        assert!(
            t_measured < t_assumed,
            "assumed={t_assumed} measured={t_measured}"
        );
        // And a measured wire size *larger* than logical/2.5 costs more.
        let mut bloated = kernel_task(0, vec![inv(256, KernelType::Iterative)]);
        bloated.remote_read_bytes = 1 << 30;
        bloated.shuffle_write_bytes = 1 << 30;
        bloated.remote_read_wire_bytes = 1 << 30;
        bloated.shuffle_write_wire_bytes = 1 << 30;
        let t_bloated = m.stage_seconds(&stage_with(vec![bloated]));
        assert!(
            t_bloated > t_assumed,
            "ratio-priced={t_assumed} raw={t_bloated}"
        );
    }

    #[test]
    fn breakdown_isolates_compute_with_wire_bytes_present() {
        let m = model();
        let mut t = kernel_task(0, vec![inv(1024, KernelType::Iterative)]);
        t.remote_read_bytes = 1 << 28;
        t.remote_read_wire_bytes = 1 << 26;
        t.spill_write_bytes = 1 << 28;
        t.spill_write_wire_bytes = 1 << 26;
        let plain = stage_with(vec![kernel_task(0, vec![inv(1024, KernelType::Iterative)])]);
        let stage = stage_with(vec![t]);
        let cost = m.stage_breakdown(&stage);
        let ref_cost = m.stage_breakdown(&plain);
        // Wire bytes change the io component, never the compute one.
        assert!((cost.compute - ref_cost.compute).abs() < 1e-9);
        assert!(cost.io > 0.0);
    }

    #[test]
    fn job_is_sum_of_stages() {
        let m = model();
        let s = stage_with(vec![kernel_task(0, vec![inv(256, KernelType::Iterative)])]);
        let one = m.stage_seconds(&s);
        let job = m.job_seconds(&[s.clone(), s]);
        assert!((job - 2.0 * one).abs() < 1e-9);
    }

    // Regression: a zero or unset bandwidth used to flow straight into
    // the division terms and produce inf/NaN estimates that silently
    // corrupted every downstream ranking. Construction now rejects it
    // with a typed error naming the field.
    #[test]
    fn zero_bandwidth_is_a_typed_error_not_nan() {
        let mut spec = ClusterSpec::skylake();
        spec.network_bw = 0.0;
        let err = CostModel::try_new(spec, 32).unwrap_err();
        assert_eq!(err.field, "network_bw");

        let mut spec = ClusterSpec::skylake();
        spec.storage.read_bw = f64::NAN;
        let err = CostModel::try_new(spec, 32).unwrap_err();
        assert_eq!(err.field, "storage.read_bw");

        let mut spec = ClusterSpec::skylake();
        spec.storage.write_bw = -1.0;
        assert_eq!(spec.validate().unwrap_err().field, "storage.write_bw");

        // Valid paper specs still construct.
        assert!(CostModel::try_new(ClusterSpec::skylake(), 32).is_ok());
        assert!(CostModel::try_new(ClusterSpec::haswell(), 20).is_ok());
        assert_eq!(
            CostModel::try_new(ClusterSpec::skylake(), 0)
                .unwrap_err()
                .field,
            "executor_cores"
        );
    }

    #[test]
    fn bad_model_params_are_rejected() {
        let m = model();
        let p = ModelParams {
            serde_bw: 0.0,
            ..ModelParams::default()
        };
        let err = m.clone().try_with_params(p).unwrap_err();
        assert_eq!(err.field, "params.serde_bw");
        let p = ModelParams {
            compression: f64::INFINITY,
            ..ModelParams::default()
        };
        assert_eq!(
            m.try_with_params(p).unwrap_err().field,
            "params.compression"
        );
    }

    #[test]
    fn admission_pricing_is_pure_and_monotone() {
        let m = CostModel::new(ClusterSpec::skylake(), 4);
        let inv = |updates: f64| KernelInvocation {
            updates,
            block_side: 256,
            elem_bytes: 8,
            kernel: KernelType::Iterative,
        };
        let a = m.admission_seconds(&inv(1e9), 1 << 20);
        let b = m.admission_seconds(&inv(1e9), 1 << 20);
        assert_eq!(a.to_bits(), b.to_bits(), "pricing must be pure");
        assert!(a.is_finite() && a > 0.0);
        // More updates or more bytes never price cheaper.
        assert!(m.admission_seconds(&inv(2e9), 1 << 20) > a);
        assert!(m.admission_seconds(&inv(1e9), 1 << 24) > a);
        // Whole-cluster parallelism: far below one core's seconds.
        assert!(a < m.core_seconds(&inv(1e9)));
    }

    #[test]
    fn tick_charger_rejects_unset_rates() {
        let good = TickCharger::default();
        assert!(good.validate().is_ok());
        let bad = TickCharger {
            io_bw: 0.0,
            ..TickCharger::default()
        };
        assert_eq!(bad.validate().unwrap_err().field, "tick.io_bw");
        let t = TaskRecord {
            remote_read_bytes: 1 << 20,
            ..Default::default()
        };
        let res = std::panic::catch_unwind(|| bad.task_ticks(&t));
        assert!(res.is_err(), "invalid charger must fail loudly");
        // A valid charger still prices the same record.
        assert!(good.task_ticks(&t) > 0);
    }
}
