//! In-memory spans recorded by the benchmark *around* its calls into
//! the program (no span lives inside the program), written out as JSON
//! lines when a traced run ends. The per-layer service numbers are a
//! fold over these spans, so a later in-program producer can replace
//! this one without touching the consumer.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran: `setup`, `solve`, `probe:<name>`, or per service job
    /// `job`, `submit`, `queued`, `run`, `reply`.
    pub name: String,
    /// Solve ordinal or job script index the span belongs to.
    pub op: u64,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index (line number in the written file) of the causing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Which `JobRunner` hook a [`Stamp`] timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hook {
    /// Admission pricing on the submit path.
    Estimate,
    /// Execution on a service worker.
    Run,
}

/// Entry and exit of one `JobRunner` hook, as stamped by the wrapping
/// runner the traced service uses. The runner sees only body bytes, so
/// a stamp is keyed by the body's digest and joined to its job later.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    /// The hook timed.
    pub hook: Hook,
    /// Low 64 bits of the body digest.
    pub body_key: u64,
    /// Entry, nanoseconds since the tracer's epoch.
    pub enter_ns: u64,
    /// Exit, nanoseconds since the tracer's epoch.
    pub exit_ns: u64,
}

/// Collector shared by the client threads and the wrapping runner.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    stamps: Mutex<Vec<Stamp>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::default(),
            stamps: Mutex::default(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn record(
        &self,
        name: &str,
        op: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        let mut spans = self.spans.lock().expect("tracer lock");
        spans.push(Span {
            name: name.to_string(),
            op,
            start_ns,
            end_ns,
            parent,
        });
        spans.len() - 1
    }

    /// Time `f` as a span and pass its result through.
    pub fn span<T>(&self, name: &str, op: u64, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = f();
        self.record(name, op, start, self.now_ns(), parent);
        out
    }

    /// Record a runner-hook stamp.
    pub fn stamp(&self, stamp: Stamp) {
        self.stamps.lock().expect("tracer lock").push(stamp);
    }

    /// All stamps so far.
    pub fn stamps(&self) -> Vec<Stamp> {
        self.stamps.lock().expect("tracer lock").clone()
    }

    /// All spans so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock").clone()
    }
}

/// Write `spans` as JSON lines: `name`, `workload`, `op`, `start_ns`,
/// `end_ns`, `parent` (null for a root).
pub fn write_jsonl(out: &mut impl Write, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    for s in spans {
        let line = Json::obj([
            ("name", Json::Str(s.name.clone())),
            ("workload", Json::Str(workload.to_string())),
            ("op", Json::Num(s.op as f64)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
        ]);
        writeln!(out, "{}", line.encode())?;
    }
    Ok(())
}

/// Read spans back from JSON lines (the inverse of [`write_jsonl`]).
pub fn read_jsonl(text: &str) -> Result<Vec<Span>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let v = crate::json::parse(line)?;
            let num = |k: &str| {
                v.get(k)
                    .and_then(Json::num)
                    .ok_or(format!("span without {k}"))
            };
            Ok(Span {
                name: v
                    .get("name")
                    .and_then(Json::str)
                    .ok_or("span without name")?
                    .to_string(),
                op: num("op")? as u64,
                start_ns: num("start_ns")? as u64,
                end_ns: num("end_ns")? as u64,
                parent: v.get("parent").and_then(Json::num).map(|p| p as usize),
            })
        })
        .collect()
}

/// Durations in seconds of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_survive_the_file_format() {
        let t = Tracer::default();
        let root = t.record("job", 3, 10, 900, None);
        t.record("run", 3, 100, 700, Some(root));
        let got = t.span("probe:x", 0, None, || 42);
        assert_eq!(got, 42);
        let spans = t.spans();
        let mut file = Vec::new();
        write_jsonl(&mut file, "svc_mixed", &spans).unwrap();
        let text = String::from_utf8(file).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text
            .lines()
            .all(|l| l.contains("\"workload\": \"svc_mixed\"")));
        assert_eq!(read_jsonl(&text).unwrap(), spans);
        assert_eq!(durations(&spans, "run"), vec![6e-7]);
        assert_eq!(spans[1].parent, Some(0));
    }
}
