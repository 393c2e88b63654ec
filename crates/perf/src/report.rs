//! Output: the one-line result the driver reads, the human-readable
//! listing, result files, and `compare`.

use std::fmt::Write as _;

use crate::json::Json;
use crate::run::Outcome;
use crate::spec::{counts_repeat, Better, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The result object of one run: exactly `correct`, `attempted`,
/// `failed` and `metrics` (each `{value, unit}`).
pub fn result_object(out: &Outcome) -> Json {
    let metrics = out.metrics.iter().map(|&(name, value)| {
        (
            name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit_of(name).into())),
            ]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// Every metric by name with its unit, one per line, then the verdict.
pub fn listing(workload: &str, out: &Outcome) -> String {
    let mut text = String::new();
    for &(name, value) in &out.metrics {
        writeln!(
            text,
            "{workload:<15} {name:<34} {value:>22.9} {}",
            unit_of(name)
        )
        .expect("write to String");
    }
    let share = out.failed as f64 / out.attempted.max(1) as f64;
    writeln!(
        text,
        "{workload:<15} operations {} failed {} (failed_share {share}) correct {}",
        out.attempted,
        out.failed,
        out.correct()
    )
    .expect("write to String");
    for e in &out.errors {
        writeln!(text, "{workload:<15} error: {e}").expect("write to String");
    }
    text
}

/// One run as a row of a result file: its result object plus which
/// workload, seed and mode produced it.
pub fn run_row(workload: &str, seed: u64, trace: bool, result: &Json) -> Json {
    let mut pairs = vec![
        ("workload".to_string(), Json::Str(workload.into())),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("trace".to_string(), Json::Num(f64::from(u8::from(trace)))),
    ];
    pairs.extend(result.members().iter().cloned());
    Json::Obj(pairs)
}

/// Values of every `(workload, metric)` in a result file's rows, in
/// first-seen order, with the seeds that produced them.
struct Series {
    workload: String,
    metric: String,
    values: Vec<f64>,
    seeds: Vec<f64>,
}

fn series(doc: &Json) -> Vec<Series> {
    let mut out: Vec<Series> = Vec::new();
    for row in doc.get("runs").map(Json::items).unwrap_or_default() {
        let workload = row.get("workload").and_then(Json::str).unwrap_or_default();
        let seed = row.get("seed").and_then(Json::num).unwrap_or(-1.0);
        for (metric, cell) in row.get("metrics").map(Json::members).unwrap_or_default() {
            let Some(value) = cell.get("value").and_then(Json::num) else {
                continue;
            };
            match out
                .iter_mut()
                .find(|s| s.workload == workload && s.metric == *metric)
            {
                Some(s) => {
                    s.values.push(value);
                    s.seeds.push(seed);
                }
                None => out.push(Series {
                    workload: workload.into(),
                    metric: metric.clone(),
                    values: vec![value],
                    seeds: vec![seed],
                }),
            }
        }
    }
    out
}

/// What the second file of a comparison is to the first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Against {
    /// `a` is the baseline and `b` a change: only a worse `b` fails.
    Baseline,
    /// Both are runs of one commit: a gap in either direction fails.
    SameCode,
}

/// The verdict on one end-to-end metric. `change` is `(b - a) / a` of
/// the medians, `worse` the same with the sign of the metric's
/// direction, and `spread` the wider of the two sides' own spreads.
/// Against a baseline a metric `regressed` when worse by more than the
/// bound; for two sets of runs of the same code it must agree both
/// ways, the gap taken as a share of the smaller median, or the sets
/// `disagree`. Where a side's own runs spread by more than the bound,
/// the metric is `unresolved` rather than `unchanged` or in agreement.
/// Returns the verdict and whether it fails the comparison.
fn verdict(
    against: Against,
    bound: f64,
    change: f64,
    worse: f64,
    spread: f64,
) -> (&'static str, bool) {
    match against {
        Against::Baseline if worse > bound => ("regressed", true),
        // |a - b| / min(a, b), from change = (b - a) / a.
        Against::SameCode if change.abs() / (1.0 + change.min(0.0)) > bound => ("disagree", true),
        _ if spread > bound => ("unresolved", false),
        Against::Baseline if worse < -bound => ("improved", false),
        Against::Baseline => ("unchanged", false),
        Against::SameCode => ("agree", false),
    }
}

/// Compare result file `b` with `a` (see [`Against`]): one row per
/// workload × metric, end-to-end metrics judged by [`verdict`]. A count
/// column that must repeat is `exact` or `DIFFERS`. Returns the table
/// and whether nothing regressed, disagreed or differed.
pub fn compare(a: &Json, b: &Json, against: Against) -> (String, bool) {
    let (sa, sb) = (series(a), series(b));
    let mut text = format!(
        "{:<15} {:<34} {:>14} {:>14} {:>9}  verdict\n",
        "workload", "metric", "a", "b", "change"
    );
    let (mut ok, mut unresolved) = (true, 0);
    for x in &sa {
        let Some(y) = sb
            .iter()
            .find(|y| y.workload == x.workload && y.metric == x.metric)
        else {
            continue;
        };
        let (ma, mb) = (median(&x.values), median(&y.values));
        let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma };
        let verdict = if let Some(m) = END_TO_END.iter().find(|m| m.name == x.metric) {
            let worse = if m.better == Better::Lower {
                change
            } else {
                -change
            };
            let spread = spread(&x.values).max(spread(&y.values));
            let (verdict, fails) = verdict(against, m.bound, change, worse, spread);
            ok &= !fails;
            unresolved += usize::from(verdict == "unresolved");
            verdict
        } else if PER_LAYER.iter().any(|m| m.name == x.metric && m.exact)
            && counts_repeat(&x.workload)
            && x.seeds == y.seeds
        {
            if x.values == y.values {
                "exact"
            } else {
                ok = false;
                "DIFFERS"
            }
        } else {
            "-"
        };
        writeln!(
            text,
            "{:<15} {:<34} {ma:>14.6} {mb:>14.6} {:>+8.2}%  {verdict}",
            x.workload,
            x.metric,
            change * 100.0
        )
        .expect("write to String");
    }
    if unresolved > 0 {
        writeln!(
            text,
            "{unresolved} end-to-end rows are unresolved: a side's own runs spread by more than the bound"
        )
        .expect("write to String");
    }
    (text, ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// One run: workload, seed, metric values.
    type Row<'a> = (&'a str, u64, &'a [(&'static str, f64)]);

    fn file(rows: &[Row]) -> Json {
        let runs = rows.iter().map(|&(w, seed, metrics)| {
            let out = Outcome {
                attempted: 1,
                metrics: metrics.to_vec(),
                ..Outcome::default()
            };
            run_row(w, seed, false, &result_object(&out))
        });
        Json::obj([("runs", Json::Arr(runs.collect()))])
    }

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let out = Outcome {
            attempted: 9,
            failed: 0,
            metrics: vec![("setup_s", 0.25), ("ops_per_s", 4.0)],
            ..Outcome::default()
        };
        let line = result_object(&out).encode();
        let back = parse(&line).unwrap();
        let keys: Vec<&str> = back.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
        let m = back.get("metrics").unwrap();
        assert_eq!(
            m.get("ops_per_s").unwrap().get("unit").and_then(Json::str),
            Some("1/s")
        );
        assert_eq!(
            m.get("setup_s").unwrap().get("value").and_then(Json::num),
            Some(0.25)
        );
        assert!(listing("w", &out).contains("setup_s"));
    }

    #[test]
    fn compare_applies_bound_direction_spread_and_exactness() {
        let a = file(&[(
            "fw_im_kernel",
            1,
            &[
                ("op_latency_p50_s", 1.0),
                ("ops_per_s", 10.0),
                ("engine.stages", 25.0),
                ("peak_rss_mb", 100.0),
            ],
        )]);
        // Latency 50 % worse and throughput 50 % better (bounds 25 %),
        // a count that must repeat changed, memory within its bound.
        let b = file(&[(
            "fw_im_kernel",
            1,
            &[
                ("op_latency_p50_s", 1.5),
                ("ops_per_s", 15.0),
                ("engine.stages", 26.0),
                ("peak_rss_mb", 104.0),
            ],
        )]);
        let (text, ok) = compare(&a, &b, Against::Baseline);
        assert!(!ok);
        let verdict = |metric: &str| {
            text.lines()
                .find(|l| l.contains(metric))
                .unwrap()
                .split_whitespace()
                .last()
                .unwrap()
                .to_string()
        };
        assert_eq!(verdict("op_latency_p50_s"), "regressed");
        assert_eq!(verdict("ops_per_s"), "improved");
        assert_eq!(verdict("engine.stages"), "DIFFERS");
        assert_eq!(verdict("peak_rss_mb"), "unchanged");
        let (_, same) = compare(&a, &a, Against::Baseline);
        assert!(same);

        // A side whose own runs disagree by more than the bound cannot
        // be called unchanged.
        let noisy = file(&[
            ("svc_mixed", 1, &[("op_latency_p50_s", 1.0)]),
            ("svc_mixed", 2, &[("op_latency_p50_s", 1.6)]),
            ("svc_mixed", 3, &[("op_latency_p50_s", 0.7)]),
            ("svc_mixed", 4, &[("op_latency_p50_s", 1.1)]),
        ]);
        for against in [Against::Baseline, Against::SameCode] {
            let (text, ok) = compare(&noisy, &noisy, against);
            assert!(ok);
            assert!(text
                .lines()
                .any(|l| l.contains("op_latency_p50_s") && l.ends_with("unresolved")));
        }
    }

    #[test]
    fn same_code_must_agree_in_both_directions() {
        let run = |setup: f64, rate: f64| {
            file(&[(
                "fw_im_unix",
                1,
                &[("setup_s", setup), ("ops_per_s", rate)][..],
            )])
        };
        // Bounds are 25 %: a set-up 27 % faster and a rate 30 % higher
        // are improvements against a baseline, and a disagreement
        // between two sets of runs of one commit, whichever comes first.
        let (slow, fast) = (run(1.86, 0.62), run(1.35, 0.81));
        assert!(compare(&slow, &fast, Against::Baseline).1);
        assert!(!compare(&fast, &slow, Against::Baseline).1);
        for (a, b) in [(&slow, &fast), (&fast, &slow)] {
            let (text, ok) = compare(a, b, Against::SameCode);
            assert!(!ok);
            assert_eq!(text.matches("disagree").count(), 2, "{text}");
        }
        let (text, ok) = compare(&slow, &run(1.60, 0.70), Against::SameCode);
        assert!(ok, "{text}");
        assert_eq!(text.matches("agree").count(), 2);
        // The gap is a share of the smaller side: 1.0 against 1.26 is
        // out both ways, though 1.0 is only 20.6 % below 1.26.
        assert_eq!(
            verdict(Against::SameCode, 0.25, 0.26, 0.26, 0.0).0,
            "disagree"
        );
        assert_eq!(
            verdict(Against::SameCode, 0.25, -0.21, -0.21, 0.0).0,
            "disagree"
        );
        assert_eq!(
            verdict(Against::SameCode, 0.25, -0.19, -0.19, 0.0).0,
            "agree"
        );
    }
}
