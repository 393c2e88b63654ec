//! The tunable parameter surface of a distributed GEP execution —
//! exactly the knobs Section V of the paper sweeps.

use sparklet::StorageLevel;

use crate::backend::{Backend, ConfigError, KernelParams, KernelSpec};

/// Distribution strategy (Section IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Listing 1: wide shuffles (`cogroup`) move block copies.
    InMemory,
    /// Listing 2: collect to the driver, redistribute via shared
    /// storage broadcast.
    CollectBroadcast,
}

impl Strategy {
    /// The paper's short name: `IM` or `CB`.
    pub fn tag(self) -> &'static str {
        match self {
            Strategy::InMemory => "IM",
            Strategy::CollectBroadcast => "CB",
        }
    }
}

/// Storage level of a per-iteration materialization when the config
/// does not pin one — for both strategies and the sparse sweep. IM *is*
/// the memory-pressure strategy (it must hold the whole cached table
/// in executor memory), so it degrades to spilling serialized blocks
/// rather than dying with `MemoryOverflow` when `executor_memory` is
/// undersized; CB already leans on shared storage for its broadcasts,
/// so a cached table that spills to the disk tier matches its
/// character and keeps undersized-memory runs alive the same way.
pub(crate) const DEFAULT_LEVEL: StorageLevel = StorageLevel::MemoryAndDisk;

/// One experiment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DpConfig {
    /// Problem size: the DP table is `n×n` (padded up to a multiple of
    /// `block` if needed).
    pub n: usize,
    /// Block side `b`; the Spark-level decomposition parameter is then
    /// `r = ⌈n/b⌉` (the paper's top-level `r`).
    pub block: usize,
    /// Kernel and its parameters for executor tasks.
    pub kernel: KernelSpec,
    /// Distribution strategy (IM or CB).
    pub strategy: Strategy,
    /// RDD partition count (`None` → the context default, which the
    /// paper sets to 2× total cores).
    pub partitions: Option<usize>,
    /// Use the locality-aware grid partitioner instead of Spark's
    /// default hash partitioner (the paper's future-work extension).
    pub grid_partitioner: bool,
    /// Storage level for the per-iteration materialization (`None` →
    /// `MemoryAndDisk`, whatever the strategy).
    pub storage_level: Option<StorageLevel>,
    /// Materialize iterations with `persist` (lineage retained, blocks
    /// droppable and recomputable under memory pressure) instead of
    /// `checkpoint` (lineage cut, blocks pinned or spilled).
    pub recompute_on_evict: bool,
}

impl DpConfig {
    /// Config for an `n×n` table in `block×block` blocks (iterative
    /// IM defaults; use the builders to change).
    pub fn new(n: usize, block: usize) -> Self {
        assert!(n >= 1 && block >= 1);
        DpConfig {
            n,
            block,
            kernel: KernelSpec::iterative(),
            strategy: Strategy::InMemory,
            partitions: None,
            grid_partitioner: false,
            storage_level: None,
            recompute_on_evict: false,
        }
    }

    /// Grid side `g = ⌈n/block⌉` (after virtual padding).
    pub fn grid(&self) -> usize {
        self.n.div_ceil(self.block)
    }

    /// Padded table side.
    pub fn padded_n(&self) -> usize {
        self.grid() * self.block
    }

    /// Set the executor kernel. Panics on invalid parameters — use
    /// [`DpConfig::try_with_kernel`] for the typed error.
    pub fn with_kernel(self, k: KernelSpec) -> Self {
        self.try_with_kernel(k).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Set the executor kernel, reporting invalid parameters as a
    /// typed [`ConfigError`] instead of panicking.
    pub fn try_with_kernel(mut self, k: KernelSpec) -> Result<Self, ConfigError> {
        self.kernel = k;
        self.validate()?;
        Ok(self)
    }

    /// Validate the kernel parameterization against this config.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let KernelParams {
            r_shared,
            base,
            threads,
        } = self.kernel.params;
        if r_shared < 2 {
            return Err(ConfigError::DegenerateFanout { r_shared });
        }
        if base < 1 {
            return Err(ConfigError::ZeroParam("base"));
        }
        if threads < 1 {
            return Err(ConfigError::ZeroParam("threads"));
        }
        // A fan-out wider than the block could never split even once;
        // only meaningful for the recursive kernel.
        if self.kernel.backend == Backend::Recursive && r_shared > self.block {
            return Err(ConfigError::FanoutExceedsBlock {
                r_shared,
                block: self.block,
            });
        }
        Ok(())
    }

    /// Set the distribution strategy.
    pub fn with_strategy(mut self, s: Strategy) -> Self {
        self.strategy = s;
        self
    }

    /// Set the RDD partition count.
    pub fn with_partitions(mut self, p: usize) -> Self {
        assert!(p >= 1);
        self.partitions = Some(p);
        self
    }

    /// Toggle the locality-aware grid partitioner.
    pub fn with_grid_partitioner(mut self, on: bool) -> Self {
        self.grid_partitioner = on;
        self
    }

    /// Pin the storage level for per-iteration materializations.
    pub fn with_storage_level(mut self, level: StorageLevel) -> Self {
        self.storage_level = Some(level);
        self
    }

    /// Toggle lineage-retaining materialization (`persist` instead of
    /// `checkpoint`), allowing eviction + recomputation under pressure.
    pub fn with_recompute_on_evict(mut self, on: bool) -> Self {
        self.recompute_on_evict = on;
        self
    }

    /// Short human-readable label, e.g. `IM/rec4x8t/b1024`.
    pub fn label(&self) -> String {
        let strat = self.strategy.tag();
        format!("{strat}/{}/b{}", self.kernel.label(), self.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_and_padding() {
        let c = DpConfig::new(32, 8);
        assert_eq!(c.grid(), 4);
        assert_eq!(c.padded_n(), 32);
        let c = DpConfig::new(33, 8);
        assert_eq!(c.grid(), 5);
        assert_eq!(c.padded_n(), 40);
    }

    #[test]
    fn labels_are_stable() {
        let c = DpConfig::new(1024, 256)
            .with_strategy(Strategy::CollectBroadcast)
            .with_kernel(KernelSpec::recursive(4, 64, 8));
        assert_eq!(c.label(), "CB/rec4x8t/b256");
        assert_eq!(DpConfig::new(8, 4).label(), "IM/iter/b4");
    }

    #[test]
    #[should_panic(expected = "r_shared must be")]
    fn rejects_degenerate_recursion() {
        let _ = DpConfig::new(8, 4).with_kernel(KernelSpec::recursive(1, 4, 1));
    }

    #[test]
    fn typed_errors_for_invalid_kernel_params() {
        assert_eq!(
            DpConfig::new(8, 4)
                .try_with_kernel(KernelSpec::recursive(1, 4, 1))
                .unwrap_err(),
            ConfigError::DegenerateFanout { r_shared: 1 }
        );
        assert_eq!(
            DpConfig::new(32, 4)
                .try_with_kernel(KernelSpec::recursive(8, 2, 1))
                .unwrap_err(),
            ConfigError::FanoutExceedsBlock {
                r_shared: 8,
                block: 4
            }
        );
        assert_eq!(
            DpConfig::new(8, 4)
                .try_with_kernel(KernelSpec::recursive(2, 0, 1))
                .unwrap_err(),
            ConfigError::ZeroParam("base")
        );
        assert_eq!(
            DpConfig::new(8, 4)
                .try_with_kernel(KernelSpec::recursive(2, 2, 0))
                .unwrap_err(),
            ConfigError::ZeroParam("threads")
        );
        // The fan-out cap applies to the recursive kernel only: the
        // same params under `iterative` are inert.
        let iterative = KernelSpec {
            backend: Backend::Iterative,
            ..KernelSpec::recursive(8, 2, 1)
        };
        assert!(DpConfig::new(32, 4).try_with_kernel(iterative).is_ok());
    }

    #[test]
    fn storage_knobs_compose() {
        let c = DpConfig::new(32, 8)
            .with_storage_level(StorageLevel::DiskOnly)
            .with_recompute_on_evict(true);
        assert_eq!(c.storage_level, Some(StorageLevel::DiskOnly));
        assert!(c.recompute_on_evict);
        let d = DpConfig::new(32, 8);
        assert_eq!(d.storage_level, None);
        assert!(!d.recompute_on_evict);
    }
}
