//! Analytical auto-tuner for the paper's tunable parameters.
//!
//! Section V argues that `r` (block decomposition), `r_shared`, and
//! `OMP_NUM_THREADS` must be chosen per cluster ("if \[they\] are chosen
//! independent of the system configuration, the resulting
//! implementation can be very inefficient"). This tuner searches the
//! candidate grid by recording the *virtual* dataflow once per (block,
//! strategy) and pricing that recording with the cost model for each
//! kernel — the "estimates from hardware/software parameters using
//! analytical models" knob the paper mentions.

use cluster_model::{ClusterSpec, CostModel};
use sparklet::JobError;

use crate::backend::KernelSpec;
use crate::config::{DpConfig, Strategy};
use crate::problem::DpProblem;
use crate::solver::{price, record_virtual};

/// One evaluated candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResult {
    /// The evaluated configuration.
    pub config: DpConfig,
    /// Its `OMP_NUM_THREADS` value.
    pub omp_threads: usize,
    /// Simulated job seconds on the target cluster.
    pub seconds: f64,
}

/// Search space for the tuner.
#[derive(Debug, Clone)]
pub struct TuneSpace {
    /// Candidate block sizes.
    pub blocks: Vec<usize>,
    /// Candidate recursive fan-outs.
    pub r_shared: Vec<usize>,
    /// Candidate thread-team sizes.
    pub threads: Vec<usize>,
    /// Candidate distribution strategies.
    pub strategies: Vec<Strategy>,
}

impl Default for TuneSpace {
    fn default() -> Self {
        TuneSpace {
            blocks: vec![256, 512, 1024, 2048],
            r_shared: vec![2, 4, 8, 16],
            threads: vec![1, 4, 8, 16],
            strategies: vec![Strategy::InMemory, Strategy::CollectBroadcast],
        }
    }
}

/// Exhaustively evaluate the space on `cluster` for problem size `n`,
/// returning candidates sorted fastest-first. Virtual runs only — no
/// numeric data is touched.
///
/// Each (block, strategy) is recorded once; the kernel axis prices that
/// recording as the iterative baseline and as the recursive kernel over
/// the `r_shared × threads` grid (fan-outs below the block side, base
/// case 64).
pub fn tune<S: DpProblem>(
    cluster: &ClusterSpec,
    n: usize,
    space: &TuneSpace,
) -> Result<Vec<TuneResult>, JobError> {
    let model = CostModel::new(cluster.clone(), cluster.node.cores);
    let mut results = Vec::new();
    for &block in &space.blocks {
        if block >= n {
            continue;
        }
        let mut kernels = vec![KernelSpec::iterative()];
        for &r in space.r_shared.iter().filter(|&&r| r < block) {
            kernels.extend(
                space
                    .threads
                    .iter()
                    .map(|&t| KernelSpec::recursive(r, 64, t)),
            );
        }
        for &strategy in &space.strategies {
            let cfg = DpConfig::new(n, block).with_strategy(strategy);
            let records = record_virtual::<S>(cluster, &cfg)?;
            for &kernel in &kernels {
                results.push(TuneResult {
                    config: cfg.clone().with_kernel(kernel),
                    omp_threads: kernel.params.threads,
                    seconds: price(&records, &kernel, &model),
                });
            }
        }
    }
    results.sort_by(|a, b| a.seconds.partial_cmp(&b.seconds).expect("finite times"));
    Ok(results)
}
