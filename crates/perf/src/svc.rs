//! `svc_mixed`: two tenants replay a seeded script of mixed DP jobs
//! against the socket job service in a closed loop.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::gen::{self, Rng};
use crate::host;
use crate::oracle::{self, digest_bytes, digest_f64, digest_table, SparseGraph};
use crate::run::{end_to_end_metrics, Checker, Metrics, Outcome, RunArgs, Stretch};
use crate::spec::SvcSizes;
use crate::stats::{highest_supported_percentile, median, percentile, ratio};
use crate::sut::{self, Body, Prober, Service};
use crate::trace::{durations, Hook, Span, Stamp, Tracer};

const KINDS: [&str; 3] = ["apsp", "align", "sparse"];
const NW_SCORE: sut::NwScore = (2, -1, -2);
const TENANTS: usize = 2;
/// Stretches the timed script of each cycle of an untraced run is
/// measured in: the quietest one of the run is reported.
const STRETCHES: u64 = 3;
/// Alternating plain and traced segments of a traced run.
const SEGMENTS: u64 = 8;

/// One scripted submission, small enough to keep for every job of a
/// run: its input, body and expected result are made from it on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Ticket {
    /// Index into [`KINDS`].
    kind: usize,
    /// Which of the script's inputs: the random stream it is drawn from.
    input: u64,
}

/// The input of one job, as plain vectors.
enum Input {
    Apsp(Vec<f64>),
    Align(Vec<u8>, Vec<u8>),
    Sparse(SparseGraph, Vec<u32>),
}

impl Input {
    fn generate(kind: usize, rng: &mut Rng, s: &SvcSizes) -> Input {
        match kind {
            0 => Input::Apsp(gen::dense_graph(s.apsp.0, rng)),
            1 => Input::Align(gen::sequence(s.align.0, rng), gen::sequence(s.align.0, rng)),
            _ => {
                let g = gen::sparse_graph(s.sparse_n, s.sparse_density, rng);
                let sources = gen::distinct_vertices(s.sparse_sources, s.sparse_n, rng);
                Input::Sparse(g, sources)
            }
        }
    }

    /// The encoded job a tenant submits.
    fn body(&self, s: &SvcSizes) -> Body {
        match self {
            Input::Apsp(dist) => sut::apsp_body(s.apsp.0, dist, s.apsp.1),
            Input::Align(a, b) => sut::alignment_body(a, b, NW_SCORE, s.align.1),
            Input::Sparse(g, sources) => sut::sparse_apsp_body(g, sources, s.sparse_parts),
        }
    }

    /// Digest of the result bytes the oracle expects.
    fn want(self, s: &SvcSizes) -> u128 {
        match self {
            Input::Apsp(mut dist) => {
                let n = s.apsp.0;
                oracle::floyd_warshall(n, &mut dist);
                digest_f64(n, n, &dist)
            }
            Input::Align(a, b) => {
                let (matched, mismatch, gap) = NW_SCORE;
                let scores = oracle::needleman_wunsch(&a, &b, matched, mismatch, gap);
                digest_table(a.len() + 1, b.len() + 1, scores.iter().map(|&v| v as u64))
            }
            Input::Sparse(g, sources) => {
                digest_f64(sources.len(), g.n, &oracle::bellman_ford(&g, &sources))
            }
        }
    }
}

/// Where a script's inputs come from: a ticket's input is drawn from a
/// random stream of its own, so it can be made again at any time.
#[derive(Clone, Copy)]
struct Inputs<'a> {
    seed: u64,
    stream: u64,
    sizes: &'a SvcSizes,
}

impl Inputs<'_> {
    fn of(&self, ticket: Ticket) -> Input {
        let mut rng = Rng::new(self.seed, (self.stream << 32) | ticket.input);
        Input::generate(ticket.kind, &mut rng, self.sizes)
    }
}

/// A seeded script, produced position by position as the tenants ask
/// for it: fresh jobs cycle through the three kinds; a `repeat_share`
/// of positions instead resubmit the ticket `repeat_distance` positions
/// earlier (so the service's lineage cache is hit, and, across a long
/// script, evicted). Tenant `t` owns the positions congruent to `t`, so
/// the script does not depend on which tenant runs ahead. Only tickets
/// are kept: the last few for repeats, and those made for one tenant
/// while the other was served.
struct Script<'a> {
    inputs: Inputs<'a>,
    /// Positions the script has; a timed script has no end.
    len: usize,
    /// Its own stream, so the repeat pattern does not depend on how many
    /// draws the inputs take.
    pattern: Rng,
    made: usize,
    fresh: u64,
    recent: VecDeque<Ticket>,
    ahead: [VecDeque<(usize, Ticket)>; TENANTS],
}

impl<'a> Script<'a> {
    fn new(seed: u64, stream: u64, len: usize, sizes: &'a SvcSizes) -> Mutex<Script<'a>> {
        Mutex::new(Script {
            inputs: Inputs {
                seed,
                stream,
                sizes,
            },
            len,
            pattern: Rng::new(seed, stream << 32),
            made: 0,
            fresh: 0,
            recent: VecDeque::new(),
            ahead: Default::default(),
        })
    }

    fn make(&mut self) -> Ticket {
        let sizes = self.inputs.sizes;
        let (near, far) = sizes.repeat_distance;
        let ticket = if self.made >= near && self.pattern.unit() < sizes.repeat_share {
            let back = near + self.pattern.below((far - near + 1) as u64) as usize;
            self.recent[self.recent.len() - back.min(self.recent.len())]
        } else {
            self.fresh += 1;
            Ticket {
                kind: (self.fresh - 1) as usize % KINDS.len(),
                input: self.fresh,
            }
        };
        if self.recent.len() == far {
            self.recent.pop_front();
        }
        self.recent.push_back(ticket);
        self.made += 1;
        ticket
    }

    /// The next position `tenant` owns and its ticket; `None` at the
    /// script's end.
    fn take(&mut self, tenant: usize) -> Option<(usize, Ticket)> {
        loop {
            if let Some(next) = self.ahead[tenant].pop_front() {
                return Some(next);
            }
            if self.made == self.len {
                return None;
            }
            let idx = self.made;
            let ticket = self.make();
            self.ahead[idx % TENANTS].push_back((idx, ticket));
        }
    }
}

/// What a tenant saw of one job.
#[derive(Debug, Clone)]
struct Seen {
    /// Script position.
    idx: usize,
    tenant: u64,
    ticket: Ticket,
    /// Encoded body: its length and the key a [`Stamp`] of it carries.
    body_len: usize,
    body_key: u64,
    /// `submit` about to be sent.
    submit_ns: u64,
    /// `submit` answered with a job id.
    admitted_ns: u64,
    /// `wait` answered.
    done_ns: u64,
    cache_hit: bool,
    result_bytes: usize,
    /// Digest of the result bytes, or why there are none.
    digest: Result<u128, String>,
    /// Whether the digest is the oracle's (set by [`verify`]).
    ok: bool,
}

impl Seen {
    fn latency(&self) -> f64 {
        (self.done_ns - self.submit_ns) as f64 / 1e9
    }
}

/// A job submitted and not yet awaited.
struct Pending {
    seen: Seen,
    job: Result<u64, String>,
}

/// One tenant's closed loop: its positions of `script` in order over
/// its own connection, each body made just before it is sent, keeping
/// `window` jobs submitted but unawaited and awaiting the oldest first.
/// No job is submitted after `deadline_ns`; a ticket taken too late
/// goes back for the next call.
fn tenant_loop(
    service: &Service,
    t: usize,
    script: &Mutex<Script>,
    window: usize,
    deadline_ns: u64,
    clock: &Tracer,
) -> Result<Vec<Seen>, String> {
    let mut client = service.client()?;
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut settled = Vec::new();
    let mut settle = |client: &mut sut::Client, mut p: Pending| {
        let reply = p.job.and_then(|job| client.wait(job));
        p.seen.done_ns = clock.now_ns();
        if let Ok(r) = &reply {
            p.seen.cache_hit = r.cache_hit;
            p.seen.result_bytes = r.bytes().len();
        }
        p.seen.digest = reply.map(|r| digest_bytes(r.bytes()));
        settled.push(p.seen);
    };
    let locked = || script.lock().expect("script lock");
    let inputs = locked().inputs;
    // The lock is held only inside `take`, not across the loop body.
    let take = || locked().take(t);
    while let Some((idx, ticket)) = take() {
        if pending.len() == window {
            settle(&mut client, pending.pop_front().expect("window is full"));
        }
        let body = inputs.of(ticket).body(inputs.sizes);
        let submit_ns = clock.now_ns();
        if submit_ns >= deadline_ns {
            locked().ahead[t].push_front((idx, ticket));
            break;
        }
        let job = client.submit(t as u64 + 1, &body);
        let seen = Seen {
            idx,
            tenant: t as u64 + 1,
            ticket,
            body_len: body.len(),
            body_key: body.key(),
            submit_ns,
            admitted_ns: clock.now_ns(),
            done_ns: 0,
            cache_hit: false,
            result_bytes: 0,
            digest: Err("not awaited".into()),
            ok: false,
        };
        pending.push_back(Pending { seen, job });
    }
    while let Some(oldest) = pending.pop_front() {
        settle(&mut client, oldest);
    }
    Ok(settled)
}

/// Replay `script` against `service` as [`TENANTS`] concurrent tenants
/// (see [`tenant_loop`]) until it ends or the deadline passes; a later
/// call goes on where this one stopped. The jobs come back in submit
/// order, not yet checked.
fn drive(
    service: &Service,
    script: &Mutex<Script>,
    window: usize,
    deadline_ns: u64,
    clock: &Tracer,
) -> Result<Vec<Seen>, String> {
    let per_tenant: Vec<Result<Vec<Seen>, String>> = std::thread::scope(|scope| {
        let tenants: Vec<_> = (0..TENANTS)
            .map(|t| {
                scope.spawn(move || tenant_loop(service, t, script, window, deadline_ns, clock))
            })
            .collect();
        tenants
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("tenant thread panicked".into()))
            })
            .collect()
    });
    let mut all = Vec::new();
    for tenant in per_tenant {
        all.extend(tenant?);
    }
    all.sort_by_key(|s| s.submit_ns);
    Ok(all)
}

/// Check every job's result against the oracle, which runs here, once
/// per distinct input of `script` and outside every timed part.
fn verify(seen: &mut [Seen], script: &Mutex<Script>, check: &mut Checker) {
    let inputs = script.lock().expect("script lock").inputs;
    let mut wants: HashMap<Ticket, u128> = HashMap::new();
    for job in seen {
        let want = *wants
            .entry(job.ticket)
            .or_insert_with(|| inputs.of(job.ticket).want(inputs.sizes));
        let what = format!("job {} ({})", job.idx, KINDS[job.ticket.kind]);
        job.ok = check.check(&what, job.digest.clone(), want);
    }
}

fn socket() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dp-perf-{}-{seq}.sock", std::process::id()))
}

/// Start a service and run the cold script `warm` through it. The jobs
/// come back unchecked, so that the caller can stop its clock first.
fn set_up(
    tracer: Option<Arc<Tracer>>,
    warm: &Mutex<Script>,
    window: usize,
    clock: &Tracer,
) -> Result<(Service, Vec<Seen>), String> {
    let service = Service::start(&socket(), tracer)?;
    let seen = drive(&service, warm, window, u64::MAX, clock)?;
    service.drain_log();
    Ok((service, seen))
}

fn latencies(seen: &[Seen]) -> Vec<f64> {
    seen.iter().filter(|s| s.ok).map(Seen::latency).collect()
}

/// Run the workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    sut::preflight(false)?;
    if args.trace {
        traced(args)
    } else {
        end_to_end(args)
    }
}

fn end_to_end(args: &RunArgs) -> Result<Outcome, String> {
    let s = &args.sizes.svc;
    let clock = Tracer::default();
    let mut check = Checker::default();
    let mut errors = Vec::new();
    let cycles = args.sizes.cycles.max(1);
    let budget_ns = (args.seconds * 1e9) as u64 / cycles as u64;
    let (mut setup, mut measured) = (Vec::new(), Vec::new());
    let mut rss = 0.0;
    for cycle in 0..cycles as u64 {
        let began_ns = clock.now_ns();
        // Set up (several times: a set-up is short); the last service
        // serves this cycle's timed script. Each set-up runs its own
        // cold script.
        let mut service = None;
        for i in 0..args.sizes.setups[3].max(1) as u64 {
            if let Some(Err(e)) = service.take().map(Service::finish) {
                errors.push(e);
            }
            let warm = Script::new(args.seed, 100 + cycle * 16 + i, s.warm_jobs, s);
            let t = Instant::now();
            let (fresh, mut seen) = set_up(None, &warm, s.window, &clock)?;
            setup.push(t.elapsed().as_secs_f64());
            verify(&mut seen, &warm, &mut check);
            service = Some(fresh);
        }
        let service = service.expect("at least one set-up");

        // The timed script, in STRETCHES equal stretches of what is left
        // of the cycle's share of the window (half of it at least, however
        // long set-up took). The tenants' windows drain at the end of each.
        let script = Script::new(args.seed, 10 + cycle, usize::MAX, s);
        let from_ns = clock.now_ns();
        let left_ns = (began_ns + budget_ns)
            .saturating_sub(from_ns)
            .max(budget_ns / 2);
        let mut parts = Vec::new();
        for part in 1..=STRETCHES {
            let cpu_from = host::cpu_seconds_all(&[]);
            let start_ns = clock.now_ns();
            let deadline_ns = from_ns + left_ns * part / STRETCHES;
            let seen = drive(&service, &script, s.window, deadline_ns, &clock)?;
            let wall = (clock.now_ns() - start_ns) as f64 / 1e9;
            parts.push((seen, wall, host::cpu_seconds_all(&[]) - cpu_from));
        }
        if cycle == 0 {
            rss = host::peak_rss_mb_all(&[]);
        }
        let counters = service.counters();
        if counters.rejected + counters.failed > 0 {
            errors.push(format!(
                "service counted {} refused and {} failed jobs",
                counters.rejected, counters.failed
            ));
        }
        errors.extend(service.finish().err());
        for (mut seen, wall, cpu) in parts {
            verify(&mut seen, &script, &mut check);
            measured.push(Stretch::new(&latencies(&seen), wall, cpu));
        }
    }
    errors.extend(check.notes);
    Ok(Outcome {
        attempted: check.attempted,
        failed: check.failed,
        errors,
        metrics: end_to_end_metrics(&setup, &measured, rss),
        spans: Vec::new(),
    })
}

/// Turn what the tenants saw and what the wrapping runner stamped into
/// spans: per job a root `job` with children `submit`, then `queued`,
/// `run`, `reply` when the job ran, or only `reply` when it was served
/// from the cache; plus one root `estimate` per admission pricing. Only
/// stamps from `since_ns` on (the timed part) are used.
fn job_spans(tracer: &Tracer, seen: &[Seen], since_ns: u64) {
    let mut runs: Vec<Stamp> = Vec::new();
    for stamp in tracer
        .stamps()
        .into_iter()
        .filter(|st| st.enter_ns >= since_ns)
    {
        match stamp.hook {
            Hook::Run => runs.push(stamp),
            Hook::Estimate => {
                // The runner cannot know a job's script position; 32 bits
                // of its body's key tell the bodies apart and survive the
                // file format's doubles.
                tracer.record(
                    "estimate",
                    stamp.body_key & 0xFFFF_FFFF,
                    stamp.enter_ns,
                    stamp.exit_ns,
                    None,
                );
            }
        }
    }
    for s in seen {
        let op = s.idx as u64;
        let root = tracer.record("job", op, s.submit_ns, s.done_ns, None);
        tracer.record("submit", op, s.submit_ns, s.admitted_ns, Some(root));
        let key = s.body_key;
        let ran = runs
            .iter()
            .position(|r| r.body_key == key && r.enter_ns >= s.submit_ns && r.exit_ns <= s.done_ns);
        match ran.map(|at| runs.swap_remove(at)) {
            Some(run) => {
                // A worker may pick the job up before the submit reply
                // reaches the tenant: then it never waited as "queued".
                tracer.record(
                    "queued",
                    op,
                    s.admitted_ns.min(run.enter_ns),
                    run.enter_ns,
                    Some(root),
                );
                tracer.record("run", op, run.enter_ns, run.exit_ns, Some(root));
                tracer.record("reply", op, run.exit_ns, s.done_ns, Some(root));
            }
            None => {
                tracer.record("reply", op, s.admitted_ns, s.done_ns, Some(root));
            }
        }
    }
}

/// Seconds from a job's submit to the entry of its `run`, per job that
/// ran: the fold the queue-wait metrics are read from.
fn queue_waits(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == "run")
        .filter_map(|run| Some((run.start_ns - spans[run.parent?].start_ns) as f64 / 1e9))
        .collect()
}

fn traced(args: &RunArgs) -> Result<Outcome, String> {
    let s = &args.sizes.svc;
    let tracer = Arc::new(Tracer::default());
    let mut check = Checker::default();
    let mut errors = Vec::new();
    let mut m = Metrics::default();

    // Two services, both up for the whole run: one with the bare runner,
    // one with the stamping runner. They are driven in alternating
    // segments, so a slow stretch of the host falls on both.
    let plain_warm = Script::new(args.seed, 20, s.warm_jobs, s);
    let (plain, mut plain_seen) = set_up(None, &plain_warm, s.window, &tracer)?;
    verify(&mut plain_seen, &plain_warm, &mut check);
    let warm = Script::new(args.seed, 21, s.warm_jobs, s);
    let setup_start = tracer.now_ns();
    let (service, mut warm_seen) = set_up(Some(Arc::clone(&tracer)), &warm, s.window, &tracer)?;
    tracer.record("setup", 0, setup_start, tracer.now_ns(), None);
    verify(&mut warm_seen, &warm, &mut check);
    let warm_counters = service.counters();
    let timed_from = tracer.now_ns();

    let plain_script = Script::new(args.seed, 11, usize::MAX, s);
    let script = Script::new(args.seed, 12, usize::MAX, s);
    let segment_ns = (args.seconds * 1e9) as u64 / SEGMENTS;
    let (mut plain_parts, mut parts) = (Vec::new(), Vec::new());
    for segment in 0..SEGMENTS {
        let deadline_ns = tracer.now_ns() + segment_ns;
        if segment % 2 == 0 {
            plain_parts.push(drive(
                &plain,
                &plain_script,
                s.window,
                deadline_ns,
                &tracer,
            )?);
        } else {
            parts.push(drive(&service, &script, s.window, deadline_ns, &tracer)?);
        }
    }
    errors.extend(plain.finish().err());
    let counters = service.counters();
    let log = service.drain_log();
    errors.extend(service.finish().err());

    let mut p50s = |parts: &mut Vec<Vec<Seen>>, script: &Mutex<Script>| -> Vec<f64> {
        let checked = parts.iter_mut().map(|part| {
            verify(part, script, &mut check);
            median(&latencies(part))
        });
        checked.collect()
    };
    let plain_p50 = p50s(&mut plain_parts, &plain_script);
    let traced_p50 = p50s(&mut parts, &script);
    let seen: Vec<Seen> = parts.into_iter().flatten().filter(|j| j.ok).collect();
    job_spans(&tracer, &seen, timed_from);
    let spans = tracer.spans();

    let lat = latencies(&seen);
    let ops = lat.len().max(1) as f64;
    if highest_supported_percentile(lat.len()).is_none_or(|p| p < 95) {
        eprintln!(
            "dp-perf: note: {} traced jobs do not support a p95 (200 needed)",
            lat.len()
        );
    }
    let waits = queue_waits(&spans);
    let runs = durations(&spans, "run");
    let of = |pick: &dyn Fn(&Seen) -> bool| -> Vec<f64> {
        seen.iter().filter(|j| pick(j)).map(Seen::latency).collect()
    };
    let completed = (counters.completed - warm_counters.completed).max(1) as f64;
    m.extend([
        (
            "trace.overhead_share",
            ratio(median(&traced_p50), median(&plain_p50)) - 1.0,
        ),
        ("service.estimate_s", median(&durations(&spans, "estimate"))),
        ("service.queue_wait_p50_s", median(&waits)),
        ("service.queue_wait_p95_s", percentile(&waits, 95)),
        ("service.run_p50_s", median(&runs)),
        (
            "service.cache_hit_ratio",
            (counters.cache_hits - warm_counters.cache_hits) as f64 / completed,
        ),
        (
            "service.cache_hit_latency_p50_s",
            median(&of(&|j| j.cache_hit)),
        ),
        (
            "service.latency_p50_s.apsp",
            median(&of(&|j| !j.cache_hit && j.ticket.kind == 0)),
        ),
        (
            "service.latency_p50_s.align",
            median(&of(&|j| !j.cache_hit && j.ticket.kind == 1)),
        ),
        (
            "service.latency_p50_s.sparse",
            median(&of(&|j| !j.cache_hit && j.ticket.kind == 2)),
        ),
        ("service.latency_p95_s", percentile(&lat, 95)),
        (
            "service.tenant_p50_ratio",
            ratio(
                median(&of(&|j| j.tenant == 2)),
                median(&of(&|j| j.tenant == 1)),
            ),
        ),
        ("service.rejected", counters.rejected as f64),
        (
            "service.body_bytes",
            seen.iter().map(|j| j.body_len as f64).sum::<f64>() / ops,
        ),
        (
            "service.result_bytes",
            seen.iter().map(|j| j.result_bytes as f64).sum::<f64>() / ops,
        ),
    ]);

    // Engine counters of the timed part, per job.
    let (sim, price_s) = tracer.span("probe:model.price_s", 0, None, || log.price());
    m.extend(log.metrics(ops));
    m.extend([
        ("model.sim_seconds", sim / ops),
        ("model.price_s", price_s),
        ("model.sim_over_wall", ratio(sim, runs.iter().sum())),
    ]);

    // The layers by themselves, on this workload's bodies: the first
    // fresh job of each kind.
    let inputs = script.lock().expect("script lock").inputs;
    let one_of_each: Vec<Body> = (0..KINDS.len())
        .map(|kind| {
            let input = kind as u64 + 1;
            inputs.of(Ticket { kind, input }).body(s)
        })
        .collect();
    let prober = Prober {
        tracer: &tracer,
        calls: args.sizes.probe_calls,
    };
    m.extend(sut::probe_job_codec(&one_of_each, &prober));
    m.extend(sut::probe_service(&socket(), &one_of_each[0], &prober)?);
    let mut rng = Rng::new(args.seed, 30);
    let graph = gen::sparse_graph(s.sparse_n, s.sparse_density, &mut rng);
    m.extend(sut::probe_sweep(&graph, s.sparse_sources, &prober));
    let (len, block) = s.align;
    let (a, b) = (gen::sequence(len, &mut rng), gen::sequence(len, &mut rng));
    m.extend(sut::probe_align(&a, &b, NW_SCORE, block, &prober));

    errors.extend(check.notes);
    Ok(Outcome {
        attempted: check.attempted,
        failed: check.failed,
        errors,
        metrics: m.per_layer(),
        spans: tracer.spans(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Sizes;

    /// Positions `0..count` of a script, the tenants asking in `order`.
    fn positions(sizes: &SvcSizes, order: &[usize]) -> Vec<(usize, Ticket)> {
        let script = Script::new(7, 10, usize::MAX, sizes);
        let mut script = script.lock().unwrap();
        let mut got: Vec<_> = order.iter().map(|&t| script.take(t).unwrap()).collect();
        got.sort_by_key(|(idx, _)| *idx);
        got
    }

    #[test]
    fn the_script_does_not_depend_on_which_tenant_runs_ahead() {
        let sizes = Sizes::toy().svc;
        let in_turn: Vec<usize> = (0..400).map(|i| i % TENANTS).collect();
        let mut one_ahead = vec![0; 200];
        one_ahead.extend(vec![1; 200]);
        let script = positions(&sizes, &in_turn);
        assert_eq!(script, positions(&sizes, &one_ahead));
        assert!(script.iter().enumerate().all(|(i, (idx, _))| i == *idx));

        // About a quarter of the positions repeat a ticket from
        // `repeat_distance` back; the others are fresh, kinds in turn.
        let (near, far) = sizes.repeat_distance;
        let mut fresh = 0;
        for (i, (_, ticket)) in script.iter().enumerate() {
            if script[..i].iter().any(|(_, t)| t == ticket) {
                // A reach past the script's start lands on position 0.
                let reached = (near..=far).any(|back| script[i.saturating_sub(back)].1 == *ticket);
                assert!(reached, "position {i}");
            } else {
                fresh += 1;
                assert_eq!(ticket.kind, (fresh - 1) % KINDS.len());
            }
        }
        let repeats = script.len() - fresh;
        assert!((60..=140).contains(&repeats), "{repeats} repeats of 400");
    }

    #[test]
    fn a_ticket_gives_the_same_job_every_time_and_a_cold_script_ends() {
        let sizes = Sizes::toy().svc;
        let warm = Script::new(7, 100, 5, &sizes);
        let mut script = warm.lock().unwrap();
        let mine: Vec<_> = std::iter::from_fn(|| script.take(0)).collect();
        let theirs: Vec<_> = std::iter::from_fn(|| script.take(1)).collect();
        assert_eq!((mine.len(), theirs.len()), (3, 2));
        let inputs = script.inputs;
        for (_, ticket) in mine.into_iter().chain(theirs) {
            let (a, b) = (inputs.of(ticket), inputs.of(ticket));
            assert_eq!(a.body(&sizes).key(), b.body(&sizes).key());
            assert_eq!(a.want(&sizes), b.want(&sizes));
        }
        let other = Inputs { seed: 8, ..inputs };
        let first = Ticket { kind: 0, input: 1 };
        assert_ne!(
            inputs.of(first).body(&sizes).key(),
            other.of(first).body(&sizes).key()
        );
    }
}
