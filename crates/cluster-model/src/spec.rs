//! Hardware descriptions of the paper's experimental platforms.

/// A spec or model rate that would poison cost estimates: a divisor
/// that is zero, negative, NaN, or infinite turns every downstream
/// `stage_seconds` into inf/NaN, which silently corrupts tuner and
/// adaptive-execution rankings instead of failing. Validation surfaces
/// the offending field by name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError {
    /// Dotted path of the offending field (e.g. `storage.read_bw`).
    pub field: &'static str,
    /// The rejected value.
    pub value: f64,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid rate `{}` = {}: must be finite and positive",
            self.field, self.value
        )
    }
}

impl std::error::Error for SpecError {}

/// A divisor must be finite and strictly positive to be usable in a
/// cost term.
pub(crate) fn check_rate(field: &'static str, value: f64) -> Result<(), SpecError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(SpecError { field, value })
    }
}

/// Per-node compute resources.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Physical cores per node (the paper sets `executor-cores` to this).
    pub cores: usize,
    /// Nominal clock in GHz.
    pub clock_ghz: f64,
    /// L2 cache per core, bytes.
    pub l2_bytes: usize,
    /// Shared last-level cache per socket, bytes.
    pub llc_bytes: usize,
    /// DRAM per node, bytes.
    pub dram_bytes: usize,
    /// Aggregate DRAM bandwidth, bytes/s.
    pub mem_bw: f64,
}

/// Local storage technology — the paper's clusters differ exactly here
/// (SSD vs 7500 rpm spinning disks), which drives the Fig. 8 gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// Solid-state local storage (cluster 1).
    Ssd,
    /// 7500-rpm spinning disks (cluster 2).
    Hdd,
}

/// Local storage used for shuffle staging and CB shared files.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageSpec {
    /// Storage technology.
    pub kind: StorageKind,
    /// Sequential read bandwidth, bytes/s.
    pub read_bw: f64,
    /// Sequential write bandwidth, bytes/s.
    pub write_bw: f64,
    /// Capacity available for shuffle staging, bytes.
    pub capacity: u64,
}

/// A whole cluster: homogeneous nodes plus interconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Human-readable cluster name.
    pub name: String,
    /// Number of (homogeneous) nodes.
    pub nodes: usize,
    /// Per-node compute resources.
    pub node: NodeSpec,
    /// Per-node local storage.
    pub storage: StorageSpec,
    /// Per-node network bandwidth, bytes/s (GbE in both clusters).
    pub network_bw: f64,
    /// One-way network latency per transfer, seconds.
    pub network_latency: f64,
}

impl ClusterSpec {
    /// Cluster 1 of the paper: 16 nodes, dual 16-core Intel Skylake
    /// (Xeon Gold 6130, 2.10 GHz), 32 KB L1 / 1 MB L2 per core, 192 GB
    /// RAM, 1 TB SSD, GbE.
    pub fn skylake() -> Self {
        ClusterSpec {
            name: "cluster1-skylake".into(),
            nodes: 16,
            node: NodeSpec {
                cores: 32,
                clock_ghz: 2.1,
                l2_bytes: 1 << 20,
                llc_bytes: 22 << 20,
                dram_bytes: 192 << 30,
                mem_bw: 100.0e9,
            },
            storage: StorageSpec {
                kind: StorageKind::Ssd,
                read_bw: 500.0e6,
                write_bw: 450.0e6,
                capacity: 1 << 40,
            },
            network_bw: 125.0e6, // 1 GbE ≈ 125 MB/s
            network_latency: 100.0e-6,
        }
    }

    /// Cluster 2 of the paper: 16 nodes, dual 10-core Intel Haswell
    /// (Xeon E5-2650 v3, 2.30 GHz), 256 KB L2 per core, 64 GB RAM,
    /// 7500 rpm SATA spinning disks, GbE.
    pub fn haswell() -> Self {
        ClusterSpec {
            name: "cluster2-haswell".into(),
            nodes: 16,
            node: NodeSpec {
                cores: 20,
                clock_ghz: 2.3,
                l2_bytes: 256 << 10,
                llc_bytes: 25 << 20,
                dram_bytes: 64 << 30,
                mem_bw: 68.0e9,
            },
            storage: StorageSpec {
                kind: StorageKind::Hdd,
                read_bw: 120.0e6,
                write_bw: 110.0e6,
                capacity: 1 << 40,
            },
            network_bw: 125.0e6,
            network_latency: 100.0e-6,
        }
    }

    /// Same nodes, different node count (for the weak-scaling runs on
    /// 1, 8, and 64 nodes).
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        assert!(nodes >= 1);
        self.nodes = nodes;
        self
    }

    /// Check every rate the cost terms divide by. `Err` names the
    /// first offending field; an unset (zero) or non-finite bandwidth
    /// would otherwise propagate inf/NaN through every estimate.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.nodes == 0 {
            return Err(SpecError {
                field: "nodes",
                value: 0.0,
            });
        }
        if self.node.cores == 0 {
            return Err(SpecError {
                field: "node.cores",
                value: 0.0,
            });
        }
        check_rate("node.clock_ghz", self.node.clock_ghz)?;
        check_rate("node.mem_bw", self.node.mem_bw)?;
        check_rate("storage.read_bw", self.storage.read_bw)?;
        check_rate("storage.write_bw", self.storage.write_bw)?;
        check_rate("network_bw", self.network_bw)?;
        if !self.network_latency.is_finite() || self.network_latency < 0.0 {
            return Err(SpecError {
                field: "network_latency",
                value: self.network_latency,
            });
        }
        Ok(())
    }

    /// Total physical cores in the cluster.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.node.cores
    }

    /// The paper's RDD-partition guideline: 2× the total core count.
    pub fn default_partitions(&self) -> usize {
        2 * self.total_cores()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_configurations() {
        let c1 = ClusterSpec::skylake();
        assert_eq!(c1.total_cores(), 512);
        assert_eq!(c1.default_partitions(), 1024); // the paper's 1024
        let c2 = ClusterSpec::haswell();
        assert_eq!(c2.total_cores(), 320);
        assert_eq!(c2.default_partitions(), 640); // the paper's 640
        assert_eq!(c2.storage.kind, StorageKind::Hdd);
        assert!(c2.node.l2_bytes < c1.node.l2_bytes);
    }

    #[test]
    fn with_nodes_scales() {
        let c = ClusterSpec::skylake().with_nodes(64);
        assert_eq!(c.nodes, 64);
        assert_eq!(c.total_cores(), 2048);
    }

    #[test]
    fn clone_and_eq_work() {
        let c = ClusterSpec::haswell();
        assert_eq!(c.clone(), c);
    }
}
