//! Adaptive runtime configuration selection — the paper's other tuning
//! mode ("either on-the-fly by using adaptive runtime configuration
//! selection or using estimates from … analytical models").
//!
//! [`adaptive_solve`] probes each candidate kernel on the first
//! iteration of the real workload (wall-clock, on a throwaway copy of
//! the table RDD), commits to the fastest, and runs the full solve with
//! it. The probe measures the *actual* machine and engine — no model —
//! under the caller's own config: only the table size (and a block
//! clamped to it) and the kernel differ from the solve that follows.
//! The candidate list is the caller's;
//! [`KernelSpec::both`] supplies both kernels at one shape.
//!
//! Probes run **one at a time**: probes that share the executor slots
//! time each other's interference, so the ranking would depend on how
//! many candidates were probed and in what order. A timing probe is
//! only comparable when each candidate sees the machine the way the
//! final solve will: alone.

use std::time::Instant;

use gep_kernels::Matrix;
use sparklet::{JobError, SparkContext};

use crate::backend::KernelSpec;
use crate::config::DpConfig;
use crate::problem::DpProblem;
use crate::solver::{check_table, solve};

/// Result of an adaptive run.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome<E> {
    /// The solved table.
    pub result: Matrix<E>,
    /// The kernel the probe committed to.
    pub chosen: KernelSpec,
    /// Probe wall-times (seconds) per candidate, same order as input.
    pub probe_seconds: Vec<f64>,
}

/// Probe `candidates` on a truncated copy of the problem (the first
/// `probe_phases` block phases at full block size), then solve the real
/// problem with the fastest. Returns the solution plus the decision.
///
/// To probe both kernels pass `&KernelSpec::both(cfg.kernel.params)`.
/// Probes run in list order, and a tie goes to the earlier candidate.
pub fn adaptive_solve<S: DpProblem>(
    sc: &SparkContext,
    cfg: &DpConfig,
    input: &Matrix<S::Elem>,
    candidates: &[KernelSpec],
    probe_phases: usize,
) -> Result<AdaptiveOutcome<S::Elem>, JobError> {
    if candidates.is_empty() {
        return Err(JobError::Driver(
            "adaptive solve needs at least one candidate kernel".into(),
        ));
    }
    check_table(cfg, input)?;
    let probe_phases = probe_phases.max(1);
    // Probe problem: the first `probe_phases` block rows/columns — a
    // (probe_phases × block)-sized leading principal sub-table, which
    // exercises the same per-phase structure at reduced iteration count.
    let probe_n = (probe_phases * cfg.block).min(cfg.n);
    let probe_input = input.copy_block(0, 0, probe_n, probe_n);
    // Probe candidates sequentially so each timing sees an idle
    // engine: concurrent probes would contend for executor slots and
    // measure interference, not kernel speed.
    let mut probe_seconds = Vec::with_capacity(candidates.len());
    let mut best = (0usize, f64::INFINITY);
    for (i, candidate) in candidates.iter().enumerate() {
        // Everything but the size and the kernel is the caller's:
        // partition count, partitioner, storage level and
        // materialization mode all move a timing, and the ranking must
        // hold for the solve that follows.
        let probe_cfg = DpConfig {
            n: probe_n,
            block: cfg.block.min(probe_n),
            ..cfg.clone()
        }
        .with_kernel(*candidate);
        let t0 = Instant::now();
        let _ = solve::<S>(sc, &probe_cfg, &probe_input)?;
        let secs = t0.elapsed().as_secs_f64();
        probe_seconds.push(secs);
        if secs < best.1 {
            best = (i, secs);
        }
    }
    let chosen = candidates[best.0];
    let final_cfg = cfg.clone().with_kernel(chosen);
    let result = solve::<S>(sc, &final_cfg, input)?;
    Ok(AdaptiveOutcome {
        result,
        chosen,
        probe_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Strategy;
    use gep_kernels::gep::gep_reference;
    use gep_kernels::Tropical;
    use sparklet::SparkConf;

    #[test]
    fn adaptive_solve_is_correct_whatever_it_picks() {
        let n = 24;
        let input = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0.0
            } else if (i * 7 + j) % 3 == 0 {
                ((i + j) % 9 + 1) as f64
            } else {
                f64::INFINITY
            }
        });
        let mut reference = input.clone();
        gep_reference::<Tropical>(&mut reference);
        let sc = SparkContext::new(SparkConf::default().with_executors(2).with_partitions(6));
        let candidates = [KernelSpec::iterative(), KernelSpec::recursive(2, 2, 2)];
        let out = adaptive_solve::<Tropical>(
            &sc,
            &DpConfig::new(n, 6).with_strategy(Strategy::InMemory),
            &input,
            &candidates,
            2,
        )
        .expect("adaptive solve");
        assert_eq!(out.result.first_difference(&reference), None);
        assert!(candidates.contains(&out.chosen));
        assert_eq!(out.probe_seconds.len(), 2);
        assert!(out.probe_seconds.iter().all(|s| *s > 0.0));
    }

    #[test]
    fn probes_run_serially_so_timings_do_not_interfere() {
        // Regression: probes used to be submitted as concurrent jobs
        // with the timer inside each closure, so candidates timed each
        // other's interference and the ranking depended on list size.
        // A job runs its stages one at a time, so any overlap between
        // probe jobs is visible in the context's in-flight gauge:
        // serialized probes keep it at exactly 1 for the whole run.
        let n = 12;
        let input = Matrix::from_fn(n, n, |i, j| if i == j { 0.0 } else { (i + j) as f64 });
        let sc = SparkContext::new(SparkConf::default().with_executors(2).with_partitions(4));
        let candidates = [
            KernelSpec::iterative(),
            KernelSpec::recursive(2, 2, 2),
            KernelSpec::iterative(),
        ];
        let out = adaptive_solve::<Tropical>(
            &sc,
            &DpConfig::new(n, 4).with_strategy(Strategy::InMemory),
            &input,
            &candidates,
            1,
        )
        .expect("adaptive solve");
        assert_eq!(out.probe_seconds.len(), 3, "one timing per candidate");
        let peak = sc.summary().max_concurrent_stages;
        assert_eq!(
            peak, 1,
            "probe jobs overlapped: in-flight gauge read {peak}"
        );
    }

    #[test]
    fn probes_run_under_the_callers_partition_count() {
        // Regression: each probe config used to be rebuilt from
        // `DpConfig::new`, dropping `partitions` (and the partitioner,
        // storage level and materialization mode), so on a context
        // whose default is 16 partitions the candidates were ranked 16
        // wide for a solve that then ran 3 wide.
        let n = 24;
        let input = Matrix::from_fn(n, n, |i, j| if i == j { 0.0 } else { (i + j) as f64 });
        let cfg = DpConfig::new(n, 6).with_partitions(3);
        let ctx = || SparkContext::new(SparkConf::default().with_executors(2).with_partitions(16));
        let widest_stage = |sc: &SparkContext| {
            sc.with_event_log(|log| {
                let widths = log.stages().iter().map(|s| s.record.tasks.len());
                widths.max().expect("the run logged stages")
            })
        };
        let plain = ctx();
        solve::<Tropical>(&plain, &cfg, &input).expect("plain solve");
        let sc = ctx();
        let candidates = [KernelSpec::iterative(), KernelSpec::recursive(2, 2, 2)];
        adaptive_solve::<Tropical>(&sc, &cfg, &input, &candidates, 2).expect("adaptive solve");
        assert_eq!(
            widest_stage(&sc),
            widest_stage(&plain),
            "a probe stage ran wider than any stage of the solve it was probing for"
        );
    }

    #[test]
    fn both_kernels_are_probed() {
        let n = 12;
        let input = Matrix::from_fn(n, n, |i, j| if i == j { 0.0 } else { (i + j) as f64 });
        let mut reference = input.clone();
        gep_reference::<Tropical>(&mut reference);
        let sc = SparkContext::new(SparkConf::default().with_executors(2).with_partitions(4));
        let cfg = DpConfig::new(n, 4).with_strategy(Strategy::InMemory);
        let both = KernelSpec::both(cfg.kernel.params);
        let out = adaptive_solve::<Tropical>(&sc, &cfg, &input, &both, 1).expect("adaptive solve");
        assert_eq!(out.result.first_difference(&reference), None);
        assert_eq!(out.probe_seconds.len(), 2, "one probe per kernel");
        assert!(both.contains(&out.chosen));
    }

    #[test]
    fn rejects_empty_candidate_list() {
        let sc = SparkContext::new(SparkConf::default());
        let input = Matrix::square(4, 0.0f64);
        let err =
            adaptive_solve::<Tropical>(&sc, &DpConfig::new(4, 2), &input, &[], 1).unwrap_err();
        assert!(matches!(err, JobError::Driver(_)), "{err}");
        assert_eq!(sc.summary().stages, 0);
    }
}
