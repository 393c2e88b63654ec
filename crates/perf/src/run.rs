//! What every workload run produces, and the pieces the workloads share.

use crate::spec::{Sizes, END_TO_END, PER_LAYER};
use crate::stats::{median, ratio};
use crate::trace::Span;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs<'a> {
    /// Input seed.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Traced (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// Input sizes.
    pub sizes: &'a Sizes,
}

/// The result of one run of one workload.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (cold and timed).
    pub attempted: u64,
    /// Operations that errored, were refused, or returned a result whose
    /// digest differs from the oracle's.
    pub failed: u64,
    /// Failures that are not an operation's: an audit that does not
    /// balance, an executor that exits non-zero, a replay that drifts.
    pub errors: Vec<String>,
    /// Every declared metric of the mode run, in declaration order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Spans of a traced run (empty otherwise).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Did every operation and every check pass?
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.errors.is_empty()
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// Counts operations and compares each result's digest to the oracle's.
#[derive(Debug, Default)]
pub struct Checker {
    /// Operations seen.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Checker {
    /// Count one operation: `got` is its digest, or why it has none.
    pub fn check(&mut self, what: &str, got: Result<u128, String>, want: u128) -> bool {
        self.attempted += 1;
        let note = match got {
            Ok(d) if d == want => return true,
            Ok(d) => format!("{what}: digest {d:032x}, oracle {want:032x}"),
            Err(e) => format!("{what}: {e}"),
        };
        self.failed += 1;
        if self.notes.len() < 5 {
            self.notes.push(note);
        }
        false
    }
}

/// What one stretch of the timed part of an untraced run measured: a
/// few consecutive solves, or one service's whole timed script. An
/// untraced run is made of cycles: one lifetime of the program under
/// test each, set up afresh and then timed for an equal share of the
/// measurement window, in one or more stretches.
#[derive(Debug, Clone, Copy)]
pub struct Stretch {
    /// Correct timed operations.
    pub ops: usize,
    /// Median seconds of one of them.
    pub latency_p50_s: f64,
    /// Correct operations per second of the timed part.
    pub ops_per_s: f64,
    /// CPU seconds of the timed part per correct operation.
    pub cpu_s_per_op: f64,
}

impl Stretch {
    /// A stretch that took `wall` seconds and `cpu` CPU seconds;
    /// `latency` has the seconds of each correct operation.
    pub fn new(latency: &[f64], wall: f64, cpu: f64) -> Stretch {
        let ops = latency.len();
        Stretch {
            ops,
            latency_p50_s: median(latency),
            ops_per_s: ratio(ops as f64, wall),
            cpu_s_per_op: ratio(cpu, ops as f64),
        }
    }
}

/// The end-to-end metrics of an untraced run. The three timing metrics
/// are read from the *quietest* stretch, each by itself: this host slows
/// down by up to 1.8x for 5 to 100 seconds at a time, which only ever
/// adds time, so the best stretch of a run is the one least disturbed
/// and repeats better than a median over the whole window. `setup` has every set-up of the run, across all
/// cycles, and the median is reported. `rss` is the peak resident memory
/// at the end of the first cycle: later cycles add what the allocator
/// did not hand back, which varies from run to run.
pub fn end_to_end_metrics(
    setup: &[f64],
    stretches: &[Stretch],
    rss: f64,
) -> Vec<(&'static str, f64)> {
    let measured = || stretches.iter().filter(|c| c.ops > 0);
    let least = |pick: fn(&Stretch) -> f64| measured().map(pick).reduce(f64::min).unwrap_or(0.0);
    let mut m = Metrics::default();
    m.set("setup_s", median(setup));
    m.set("op_latency_p50_s", least(|c| c.latency_p50_s));
    m.set(
        "ops_per_s",
        measured()
            .map(|c| c.ops_per_s)
            .reduce(f64::max)
            .unwrap_or(0.0),
    );
    m.set("cpu_s_per_op", least(|c| c.cpu_s_per_op));
    m.set("peak_rss_mb", rss);
    m.end_to_end()
}

/// Collects named values, then lays them out in declaration order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Set (or overwrite) one value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// Set several values.
    pub fn extend(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        for (n, v) in values {
            self.set(n, v);
        }
    }

    /// A value set earlier (0.0 if not).
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    fn laid_out(&self, names: impl Iterator<Item = &'static str>) -> Vec<(&'static str, f64)> {
        let out: Vec<_> = names.map(|n| (n, self.get(n))).collect();
        for (n, _) in &self.0 {
            assert!(
                out.iter().any(|(d, _)| d == n),
                "metric {n} is not declared in spec.rs"
            );
        }
        out
    }

    /// Every end-to-end metric, in declaration order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        self.laid_out(END_TO_END.iter().map(|m| m.name))
    }

    /// Every per-layer metric, in declaration order; 0 where the layer
    /// is not on the workload's path.
    pub fn per_layer(&self) -> Vec<(&'static str, f64)> {
        self.laid_out(PER_LAYER.iter().map(|m| m.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_oracle_digest_fails_the_operation() {
        let mut c = Checker::default();
        assert!(c.check("solve 0", Ok(7), 7));
        assert!(!c.check("solve 1", Ok(7), 7 ^ 1), "one flipped oracle bit");
        assert!(!c.check("solve 2", Err("refused".into()), 7));
        assert_eq!((c.attempted, c.failed), (3, 2));
        let out = Outcome {
            attempted: c.attempted,
            failed: c.failed,
            ..Outcome::default()
        };
        assert!(!out.correct());
        assert!(
            !Outcome::default().correct(),
            "nothing attempted is not correct"
        );
    }

    #[test]
    fn timing_metrics_come_from_the_quietest_stretch_and_setup_is_a_median() {
        let disturbed = Stretch::new(&[0.9, 1.0, 1.1], 3.2, 6.0);
        let quiet = Stretch::new(&[0.5, 0.6, 0.7], 2.0, 3.0);
        let all_failed = Stretch::new(&[], 1.0, 1.0);
        let m = end_to_end_metrics(&[0.3, 0.1, 0.2], &[disturbed, all_failed, quiet], 64.0);
        assert_eq!(
            m,
            [
                ("setup_s", 0.2),
                ("op_latency_p50_s", 0.6),
                ("ops_per_s", 1.5),
                ("cpu_s_per_op", 1.0),
                ("peak_rss_mb", 64.0),
            ]
        );
        assert_eq!(end_to_end_metrics(&[], &[all_failed], 0.0)[1].1, 0.0);
    }

    #[test]
    fn metrics_lay_out_in_declaration_order_with_zero_fill() {
        let mut m = Metrics::default();
        m.set("ops_per_s", 2.0);
        m.set("setup_s", 1.0);
        m.set("ops_per_s", 3.0);
        let out = m.end_to_end();
        assert_eq!(out.len(), END_TO_END.len());
        assert_eq!(out[0], ("setup_s", 1.0));
        assert_eq!(out[2], ("ops_per_s", 3.0));
        assert_eq!(out[1].1, 0.0);
        assert_eq!(Metrics::default().per_layer().len(), PER_LAYER.len());
    }
}
