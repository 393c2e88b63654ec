//! Analytical auto-tuner for the paper's tunable parameters.
//!
//! Section V argues that `r` (block decomposition), `r_shared`, and
//! `OMP_NUM_THREADS` must be chosen per cluster ("if \[they\] are chosen
//! independent of the system configuration, the resulting
//! implementation can be very inefficient"). This tuner searches the
//! candidate grid by running the *virtual* dataflow for each
//! configuration and pricing it with the cost model — the "estimates
//! from hardware/software parameters using analytical models" knob the
//! paper mentions.

use cluster_model::ClusterSpec;
use sparklet::JobError;

use crate::backend::{registry, KernelParams, ITERATIVE};
use crate::config::{DpConfig, Strategy};
use crate::problem::DpProblem;
use crate::solver::simulate_seconds;

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
    /// Also evaluate the iterative baseline.
    pub include_iterative: bool,
}

impl Default for TuneSpace {
    fn default() -> Self {
        TuneSpace {
            blocks: vec![256, 512, 1024, 2048],
            r_shared: vec![2, 4, 8, 16],
            threads: vec![1, 4, 8, 16],
            strategies: vec![Strategy::InMemory, Strategy::CollectBroadcast],
            include_iterative: true,
        }
    }
}

/// Exhaustively evaluate the space on `cluster` for problem size `n`,
/// returning candidates sorted fastest-first. Virtual runs only — no
/// numeric data is touched.
///
/// The kernel axis of the grid is the backend registry itself, walked
/// in registration order (deterministic): every registered backend is
/// evaluated, with the `iterative` baseline gated by
/// [`TuneSpace::include_iterative`].
/// Fan-out-parametric backends (the recursive family) expand into the
/// `r_shared × threads` grid; fixed-shape backends are priced once at
/// default params. Registering a new backend adds it to every tuning
/// sweep with no tuner changes.
pub fn tune<S: DpProblem>(
    cluster: &ClusterSpec,
    n: usize,
    space: &TuneSpace,
) -> Result<Vec<TuneResult>, JobError> {
    let reg = registry::<S>();
    let mut results = Vec::new();
    for &block in &space.blocks {
        if block >= n {
            continue;
        }
        for &strategy in &space.strategies {
            for spec in reg.dense_candidates(KernelParams::default()) {
                if spec.backend == ITERATIVE && !space.include_iterative {
                    continue;
                }
                let backend = reg.get(&spec.backend).expect("candidates are registered");
                let shapes: Vec<KernelParams> = if backend.fanout_parametric() {
                    let fanouts = space.r_shared.iter().filter(|&&r| r < block);
                    fanouts
                        .flat_map(|&r_shared| {
                            space.threads.iter().map(move |&threads| KernelParams {
                                r_shared,
                                base: 64,
                                threads,
                            })
                        })
                        .collect()
                } else {
                    vec![spec.params]
                };
                for params in shapes {
                    let cfg = DpConfig::new(n, block)
                        .with_strategy(strategy)
                        .with_kernel(spec.clone().with_params(params));
                    let seconds = simulate_seconds::<S>(cluster, cluster.node.cores, &cfg, None)?;
                    results.push(TuneResult {
                        config: cfg,
                        omp_threads: params.threads,
                        seconds,
                    });
                }
            }
        }
    }
    results.sort_by(|a, b| a.seconds.partial_cmp(&b.seconds).expect("finite times"));
    Ok(results)
}
