//! Engine configuration — the knobs the paper's experimental setup
//! fixes per cluster (`--num-executors`, `--executor-cores`, RDD
//! partition count, executor memory).

use crate::payload::Compression;
use crate::transport::TransportMode;

/// Configuration of a [`crate::SparkContext`].
#[derive(Debug, Clone)]
pub struct SparkConf {
    /// Number of simulated cluster nodes = executors (the paper runs
    /// one executor per node).
    pub executors: usize,
    /// Modeled task slots per executor (`executor-cores`). Recorded to
    /// the event log and used by the cost model; also the upper bound
    /// on real concurrency inside an executor pool.
    pub executor_cores: usize,
    /// Real OS worker threads per executor pool. The cluster is larger
    /// than the host, so this defaults to 1; correctness never depends
    /// on it.
    pub worker_threads: usize,
    /// Default number of RDD partitions (the paper: 2 × total cores).
    pub default_partitions: usize,
    /// Local-storage capacity per node available for shuffle staging,
    /// if limited. Exceeding it fails the job
    /// ([`crate::JobError::StagingOverflow`]).
    pub staging_capacity: Option<u64>,
    /// Cached-partition memory per executor, if limited.
    pub executor_memory: Option<u64>,
    /// Disk-tier capacity per executor for spilled/`DiskOnly` cached
    /// blocks, if limited. Exceeding it fails the put
    /// ([`crate::JobError::DiskOverflow`]) unless the block is
    /// recomputable from lineage.
    pub disk_capacity: Option<u64>,
    /// Base delay before re-launching a failed task, doubling per
    /// attempt (`spark.task.retry.backoff`-style). 0 disables backoff.
    pub retry_backoff_ms: u64,
    /// Upper bound on the exponential retry backoff.
    pub retry_backoff_max_ms: u64,
    /// Deterministic simulation seed. `Some(seed)` switches the
    /// context to sim mode: a virtual clock replaces wall time, tasks
    /// run sequentially in a seeded order, and the whole schedule is a
    /// pure function of the seed (see DESIGN.md, "Deterministic
    /// simulation").
    pub sim_seed: Option<u64>,
    /// Allow mid-job re-planning: a driver-side loop may consult the
    /// event log between stages and change partition counts, strategy,
    /// kernel shape, or storage tier for the remaining work
    /// (`spark.sql.adaptive.enabled`-style). The engine itself only
    /// carries the flag and records the decisions
    /// ([`crate::SparkContext::log_adaptive_decision`]); the decision
    /// logic lives with the workload driver.
    pub adaptive_execution: bool,
    /// Codec applied at the data plane's single seal point — shuffle
    /// map outputs, disk-tier spills, and broadcast payloads
    /// (`spark.io.compression.codec`-style). Accounting always uses
    /// declared (uncompressed) bytes, so turning this on changes wire
    /// volumes and modeled transfer cost, never the staging ledgers or
    /// the schedule.
    pub compression: Compression,
    /// Executor backend: in-process thread pools (the default, and the
    /// only backend sim mode supports) or real executor subprocesses
    /// over loopback TCP / Unix sockets
    /// ([`crate::transport`]). With a wire transport, shuffle buckets
    /// and broadcasts live in per-node processes, remote fetches move
    /// measured socket bytes, and chaos executor loss is a real
    /// `SIGKILL`.
    pub transport: TransportMode,
}

impl Default for SparkConf {
    fn default() -> Self {
        SparkConf {
            executors: 4,
            executor_cores: 4,
            worker_threads: 1,
            default_partitions: 32,
            staging_capacity: None,
            executor_memory: None,
            disk_capacity: None,
            retry_backoff_ms: 0,
            retry_backoff_max_ms: 1000,
            sim_seed: None,
            adaptive_execution: false,
            compression: Compression::None,
            transport: TransportMode::InProcess,
        }
    }
}

impl SparkConf {
    /// Set the executor (node) count.
    pub fn with_executors(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.executors = n;
        self
    }

    /// Set task slots per executor.
    pub fn with_executor_cores(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.executor_cores = n;
        self
    }

    /// Set the default RDD partition count.
    pub fn with_partitions(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.default_partitions = n;
        self
    }

    /// Set real OS worker threads per executor pool.
    pub fn with_worker_threads(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.worker_threads = n;
        self
    }

    /// Cap per-node shuffle staging (the paper's SSD constraint).
    pub fn with_staging_capacity(mut self, bytes: u64) -> Self {
        self.staging_capacity = Some(bytes);
        self
    }

    /// Cap cached-partition memory per executor.
    pub fn with_executor_memory(mut self, bytes: u64) -> Self {
        self.executor_memory = Some(bytes);
        self
    }

    /// Cap the per-executor disk tier for spilled cached blocks.
    pub fn with_disk_capacity(mut self, bytes: u64) -> Self {
        self.disk_capacity = Some(bytes);
        self
    }

    /// Set the exponential retry backoff: `base` ms doubling per
    /// attempt, capped at `max` ms.
    pub fn with_retry_backoff(mut self, base_ms: u64, max_ms: u64) -> Self {
        self.retry_backoff_ms = base_ms;
        self.retry_backoff_max_ms = max_ms.max(base_ms);
        self
    }

    /// Switch to deterministic simulation mode under `seed`.
    pub fn with_sim_seed(mut self, seed: u64) -> Self {
        self.sim_seed = Some(seed);
        self
    }

    /// Allow adaptive query execution: drivers may re-plan remaining
    /// stages from live event-log metrics, logging each decision.
    pub fn with_adaptive_execution(mut self) -> Self {
        self.adaptive_execution = true;
        self
    }

    /// Set the data-plane compression codec (shuffle, spill,
    /// broadcast frames).
    pub fn with_compression(mut self, compression: Compression) -> Self {
        self.compression = compression;
        self
    }

    /// Select the executor backend explicitly.
    pub fn with_transport(mut self, mode: TransportMode) -> Self {
        self.transport = mode;
        self
    }

    /// Run executors as subprocesses connected over loopback TCP.
    pub fn with_tcp_transport(self) -> Self {
        self.with_transport(TransportMode::Tcp)
    }

    /// Run executors as subprocesses connected over a Unix socket.
    pub fn with_unix_transport(self) -> Self {
        self.with_transport(TransportMode::Unix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let c = SparkConf::default()
            .with_executors(8)
            .with_executor_cores(2)
            .with_partitions(64)
            .with_staging_capacity(1024);
        assert_eq!(
            (c.executors, c.executor_cores, c.default_partitions),
            (8, 2, 64)
        );
        assert_eq!(c.staging_capacity, Some(1024));
    }

    #[test]
    fn storage_knobs_compose() {
        let c = SparkConf::default()
            .with_executor_memory(1 << 20)
            .with_disk_capacity(1 << 30);
        assert_eq!(c.executor_memory, Some(1 << 20));
        assert_eq!(c.disk_capacity, Some(1 << 30));
        let d = SparkConf::default();
        assert_eq!(d.executor_memory, None, "memory tier unbounded by default");
        assert_eq!(d.disk_capacity, None, "disk tier unbounded by default");
    }

    #[test]
    fn retry_knobs_compose() {
        let c = SparkConf::default().with_retry_backoff(5, 80);
        assert_eq!((c.retry_backoff_ms, c.retry_backoff_max_ms), (5, 80));
        let d = SparkConf::default();
        assert_eq!(d.retry_backoff_ms, 0, "backoff off by default");
    }

    #[test]
    fn sim_knobs_compose() {
        let c = SparkConf::default().with_sim_seed(1234);
        assert_eq!(c.sim_seed, Some(1234));
        let d = SparkConf::default();
        assert_eq!(d.sim_seed, None, "real execution by default");
    }

    #[test]
    fn compression_knob_composes() {
        let c = SparkConf::default().with_compression(Compression::Lz4);
        assert_eq!(c.compression, Compression::Lz4);
        let d = SparkConf::default();
        assert_eq!(
            d.compression,
            Compression::None,
            "compression is opt-in: default runs keep byte-identical wire frames"
        );
    }

    #[test]
    fn transport_knob_composes() {
        let c = SparkConf::default().with_tcp_transport();
        assert_eq!(c.transport, TransportMode::Tcp);
        let u = SparkConf::default().with_unix_transport();
        assert_eq!(u.transport, TransportMode::Unix);
        let d = SparkConf::default();
        assert_eq!(
            d.transport,
            TransportMode::InProcess,
            "in-process executors by default: sim and tests stay untouched"
        );
    }

    #[test]
    fn adaptive_knob_composes() {
        let c = SparkConf::default().with_adaptive_execution();
        assert!(c.adaptive_execution);
        let d = SparkConf::default();
        assert!(
            !d.adaptive_execution,
            "adaptive execution is opt-in: static plans stay static"
        );
    }
}
