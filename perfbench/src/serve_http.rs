//! serve_http: `cati_serve::Server` over loopback with the default
//! `ServeConfig` (no artifact cache), serving a small interprocedural
//! model. Requests are drawn, seeded, from a fixed pool of stripped
//! binaries. An open-loop phase at a fixed rate is followed by a
//! closed-loop phase with one connection per core.

use crate::ledger::ms_between;
use crate::report::Report;
use crate::setup::{
    dir_bytes, err, save_load, secs, serve_config, serve_inputs, train, Inputs, Res, WorkDir,
};
use crate::stats::{due_latencies_ms, median, tail_or_max};
use crate::trace::{inference_trace, traced_setup};
use crate::{record_accuracy, record_segmented_latency, Args, SETUP_REPEATS};
use cati::asm::Binary;
use cati::obs::metrics::MetricsSnapshot;
use cati::{Cati, InferredVar};
use cati_serve::{roundtrip_with_timeout, Request, ServeConfig, Server, ServerHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Open-loop arrival rate: about half the closed-loop capacity (~72
/// requests/s on two cores when the benchmark was defined). Fixed, so
/// a slower server shows as latency rather than as a lower offered
/// load.
const RATE_RPS: f64 = 35.0;

/// Share of `--seconds` spent in the open loop; the closed loop gets
/// the rest.
const OPEN_SHARE: f64 = 0.6;

/// Consecutive segments each phase is cut into; latency and throughput
/// are the median over segments.
const SEGMENTS: usize = 3;

/// Client-side limit on one exchange; a request past it is a miss.
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(30);

/// The daemon phases (`serve.phase.*` histograms) reported as shares
/// of request latency, by the name they are reported under.
const PHASES: [(&str, &str); 5] = [
    ("queue_wait", "serve.phase.queue_wait_ms"),
    ("embed", "serve.phase.embed_ms"),
    ("batch_wait", "serve.phase.batch_wait_ms"),
    ("leaf", "serve.phase.leaf_ms"),
    ("vote", "serve.phase.vote_ms"),
];

/// One client exchange.
struct Exchange {
    /// Pool index of the binary sent.
    binary: usize,
    /// When the request was due (open loop) or sent (closed loop), ms
    /// after the phase start.
    due_ms: f64,
    /// When it was sent, ms after the phase start.
    sent_ms: f64,
    /// Completion, ms after the phase start; `None` for a failure or
    /// refusal.
    done_ms: Option<f64>,
    /// Whether a 200 body differed from in-process inference.
    mismatch: bool,
}

/// A started daemon with its request pool.
struct Daemon {
    handle: ServerHandle,
    requests: Vec<Request>,
}

fn start(inputs: &Inputs, cati: &Cati) -> Res<Daemon> {
    let handle =
        Server::start(cati.clone(), ServeConfig::default()).map_err(err("start daemon"))?;
    let requests = inputs
        .stripped
        .iter()
        .map(|b| {
            serde_json::to_vec(b)
                .map(|body| Request::new("POST", "/infer").with_body(body))
                .map_err(err("request body"))
        })
        .collect::<Res<Vec<_>>>()?;
    let daemon = Daemon { handle, requests };
    // Warm-up: every pool binary once, so lazily filled state (the
    // embedder's column cache) is ready before timing.
    for request in &daemon.requests {
        let response =
            roundtrip_with_timeout(daemon.handle.addr(), request, Some(EXCHANGE_TIMEOUT))
                .map_err(err("warm-up request"))?;
        if response.status != 200 {
            return Err(format!("warm-up request answered {}", response.status));
        }
    }
    Ok(daemon)
}

/// Per pool binary: the body `cati serve` must return (the sorted,
/// pretty-printed in-process inference) and the inference itself.
type Expected = (Vec<Vec<u8>>, Vec<Vec<InferredVar>>);

fn expected_bodies(cati: &Cati, bins: &[Binary]) -> Res<Expected> {
    let mut bodies = Vec::with_capacity(bins.len());
    let mut outputs = Vec::with_capacity(bins.len());
    for b in bins {
        let vars = cati.infer(b).map_err(err("in-process inference"))?;
        let mut sorted = vars.clone();
        sorted.sort_by_key(|v| (v.key.func, v.key.offset));
        let body = serde_json::to_string_pretty(&sorted).map_err(err("serialize"))?;
        bodies.push(body.into_bytes());
        outputs.push(vars);
    }
    Ok((bodies, outputs))
}

fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn exchange(
    daemon: &Daemon,
    expected: &[Vec<u8>],
    binary: usize,
    t0: Instant,
) -> (f64, Option<f64>, bool) {
    let sent = ms_between(t0, Instant::now());
    let response = roundtrip_with_timeout(
        daemon.handle.addr(),
        &daemon.requests[binary],
        Some(EXCHANGE_TIMEOUT),
    );
    let done = ms_between(t0, Instant::now());
    match response {
        Ok(r) if r.status == 200 => (sent, Some(done), r.body != expected[binary]),
        _ => (sent, None, false),
    }
}

/// Open loop: request `i` is due `i / RATE_RPS` seconds after the
/// start, whoever of the client threads is free sends it.
fn open_loop(daemon: &Daemon, expected: &[Vec<u8>], draws: &[usize]) -> Vec<Exchange> {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients())
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&binary) = draws.get(i) else { break };
                        let due = Duration::from_secs_f64(i as f64 / RATE_RPS);
                        if let Some(wait) = due.checked_sub(t0.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let (sent_ms, done_ms, mismatch) = exchange(daemon, expected, binary, t0);
                        mine.push((
                            i,
                            Exchange {
                                binary,
                                due_ms: due.as_secs_f64() * 1e3,
                                sent_ms,
                                done_ms,
                                mismatch,
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        let mut all: Vec<(usize, Exchange)> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("open-loop client panicked"))
            .collect();
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, e)| e).collect()
    })
}

/// Closed loop: each client sends its next request when the previous
/// one completes, until `seconds` have passed. Returns the exchanges
/// and the phase's wall ms.
fn closed_loop(
    daemon: &Daemon,
    expected: &[Vec<u8>],
    draws: &[usize],
    seconds: f64,
) -> (Vec<Exchange>, f64) {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let out: Vec<Exchange> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients())
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    while secs(t0) < seconds {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let binary = draws[i % draws.len()];
                        let (sent_ms, done_ms, mismatch) = exchange(daemon, expected, binary, t0);
                        mine.push(Exchange {
                            binary,
                            due_ms: sent_ms,
                            sent_ms,
                            done_ms,
                            mismatch,
                        });
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("closed-loop client panicked"))
            .collect()
    });
    (out, secs(t0) * 1e3)
}

/// Seeded request draws: shuffled rounds in which every pool binary
/// appears once, so every run sends the same mix and only the order
/// varies with the seed.
fn draws(seed: u64, pool: usize, n: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E4E_D4A7);
    let mut out = Vec::with_capacity(n + pool);
    while out.len() < n {
        let mut round: Vec<usize> = (0..pool).collect();
        for i in (1..pool).rev() {
            round.swap(i, rng.gen_range(0..=i));
        }
        out.extend(round);
    }
    out.truncate(n);
    out
}

/// Both phases against a running daemon; fills attempted / failed and
/// the body gate, returns `(open, closed, closed wall ms)`.
fn phases(
    rep: &mut Report,
    args: &Args,
    daemon: &Daemon,
    expected: &[Vec<u8>],
) -> (Vec<Exchange>, Vec<Exchange>, f64) {
    let n_open = (args.seconds * OPEN_SHARE * RATE_RPS).round().max(1.0) as usize;
    let draws = draws(args.seed, expected.len(), n_open.max(1024));
    let open = open_loop(daemon, expected, &draws[..n_open]);
    let (closed, closed_ms) =
        closed_loop(daemon, expected, &draws, args.seconds * (1.0 - OPEN_SHARE));
    let all = open.iter().chain(&closed);
    let (mut sent, mut failed, mut mismatched) = (0u64, 0u64, 0u64);
    for e in all {
        sent += 1;
        failed += u64::from(e.done_ms.is_none());
        mismatched += u64::from(e.mismatch);
    }
    rep.attempted += sent;
    rep.failed += failed;
    rep.gate(
        "served body == in-process Cati::infer",
        mismatched == 0,
        format!("{mismatched} of {} answered bodies differ", sent - failed),
    );
    (open, closed, closed_ms)
}

/// Runs the workload.
pub fn run(args: &Args, work: &WorkDir) -> Res<Report> {
    let mut rep = Report::default();
    if args.trace {
        return traced(args, work, rep);
    }
    let config = serve_config(args.seed);
    let ckpt = work.join("ckpt");
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // The previous daemon shuts down before the next set-up starts.
        drop(last.take());
        let t = Instant::now();
        let inputs = serve_inputs(args.seed);
        let trained = train(&inputs.train, &config, &ckpt)?;
        let (cati, ..) = save_load(&trained, &work.join("model.cati"))?;
        let daemon = start(&inputs, &cati)?;
        setup_s.push(secs(t));
        last = Some((inputs, cati, daemon));
    }
    let (inputs, cati, daemon) = last.expect("at least one set-up");
    crate::record_setup(&mut rep, &setup_s);
    rep.set("disk_mb", dir_bytes(&ckpt) as f64 / 1e6);
    let (expected, _) = expected_bodies(&cati, &inputs.stripped)?;

    let (open, closed, _) = phases(&mut rep, args, &daemon, &expected);
    let segments: Vec<Vec<f64>> = open
        .chunks(open.len().div_ceil(SEGMENTS))
        .map(|seg| {
            let due: Vec<f64> = seg.iter().map(|e| e.due_ms).collect();
            let done: Vec<Option<f64>> = seg.iter().map(|e| e.done_ms).collect();
            due_latencies_ms(&due, &done)
        })
        .collect();
    record_segmented_latency(&mut rep, &segments);
    // Completions per second in each third of the closed loop's
    // nominal length (requests still in flight at its end drain after).
    let third = args.seconds * (1.0 - OPEN_SHARE) * 1e3 / SEGMENTS as f64;
    let rates: Vec<f64> = (0..SEGMENTS)
        .map(|k| {
            let (lo, hi) = (k as f64 * third, (k + 1) as f64 * third);
            let n = closed
                .iter()
                .filter_map(|e| e.done_ms)
                .filter(|&t| t >= lo && t < hi)
                .count();
            n as f64 / (third / 1e3)
        })
        .collect();
    rep.set("throughput_per_s", median(&rates).unwrap_or(0.0));
    rep.note("closed_segment_rps", rates);
    rep.note("open_requests", open.len() as u64);
    rep.note("open_rate_rps", RATE_RPS);
    rep.note("closed_requests", closed.len() as u64);
    rep.note("clients", clients() as u64);
    record_generator(&mut rep, &open);
    drop(daemon);
    record_accuracy(&mut rep, &cati, &inputs.eval)?;
    Ok(rep)
}

/// How late the open-loop generator sent requests: the validity of
/// the open loop.
fn record_generator(rep: &mut Report, open: &[Exchange]) {
    let late: Vec<f64> = open.iter().map(|e| e.sent_ms - e.due_ms).collect();
    rep.note("serve.gen_late_p50_ms", median(&late).unwrap_or(0.0));
    if let Some(t) = tail_or_max(&late) {
        rep.note("serve.gen_late_tail_ms", t.value);
        rep.note("serve.gen_late_tail_pct", t.percentile * 100.0);
    }
}

/// Sum and count of a histogram between two snapshots.
fn hist_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> (f64, u64) {
    let get = |s: &MetricsSnapshot| s.histogram(name).map_or((0.0, 0), |h| (h.sum, h.count));
    let (s0, c0) = get(before);
    let (s1, c1) = get(after);
    (s1 - s0, c1 - c0)
}

fn traced(args: &Args, work: &WorkDir, mut rep: Report) -> Res<Report> {
    let config = serve_config(args.seed);
    let setup = traced_setup(&mut rep, || serve_inputs(args.seed), &config, work)?;
    let (cati, inputs) = (&setup.cati, &setup.inputs);
    let daemon = start(inputs, cati)?;
    let (expected, reference) = expected_bodies(cati, &inputs.stripped)?;
    let t = Instant::now();
    let before = daemon.handle.recorder().snapshot();
    let mut snapshot_ms = secs(t) * 1e3;
    let (open, closed, closed_ms) = phases(&mut rep, args, &daemon, &expected);
    let t = Instant::now();
    let after = daemon.handle.recorder().snapshot();
    snapshot_ms += secs(t) * 1e3;

    // Client-seen latency of every answered request, from send.
    let answered: Vec<&Exchange> = open
        .iter()
        .chain(&closed)
        .filter(|e| e.done_ms.is_some())
        .collect();
    let n = answered.len().max(1) as f64;
    let latency_sum: f64 = answered
        .iter()
        .map(|e| e.done_ms.unwrap_or(e.sent_ms) - e.sent_ms)
        .sum();
    let mean_latency = latency_sum / n;
    // Request parsing, timed from outside on the bodies that were sent.
    let mut parse_ms = 0.0;
    for e in &answered {
        let body = &daemon.requests[e.binary].body;
        let t = Instant::now();
        let parsed = serde_json::from_slice::<Binary>(body);
        parse_ms += secs(t) * 1e3;
        parsed.map_err(err("parse request body"))?;
    }
    drop(daemon);
    let parse_mean = parse_ms / n;
    rep.note("serve.parse_ms", parse_mean);
    rep.set("serve.parse_share", parse_mean / mean_latency);
    let mut covered = parse_mean;
    for (name, hist) in PHASES {
        let (sum, count) = hist_delta(&before, &after, hist);
        let mean = sum / count.max(1) as f64;
        covered += mean;
        rep.note(&format!("serve.{name}_ms"), mean);
        rep.note(&format!("serve.{name}_n"), count);
        rep.set(format!("serve.{name}_share"), mean / mean_latency);
    }
    let (batch_sum, batches) = hist_delta(&before, &after, "serve.batch_size");
    rep.set("serve.batch_size_mean", batch_sum / batches.max(1) as f64);
    rep.note("serve.batches", batches);
    rep.note("serve.latency_mean_ms", mean_latency);
    rep.note("serve.answered", answered.len() as u64);
    let counter = |s: &MetricsSnapshot, name: &str| s.counter(name).unwrap_or(0);
    let spliced =
        counter(&after, "extract.windows_spliced") - counter(&before, "extract.windows_spliced");
    let padded =
        counter(&after, "extract.windows_padded") - counter(&before, "extract.windows_padded");
    rep.note(
        "serve.windows_spliced_frac",
        spliced as f64 / (spliced + padded).max(1) as f64,
    );
    record_generator(&mut rep, &open);

    // The daemon is traced by its own histograms; the only tracing the
    // benchmark adds on the serving path is reading them.
    let open_ms = open.iter().filter_map(|e| e.done_ms).fold(0.0, f64::max);
    let phase_ms = open_ms + closed_ms;
    rep.set("trace.overhead_frac", snapshot_ms / phase_ms.max(1e-9));
    let coverage = covered / mean_latency;
    rep.set("trace.coverage_frac", coverage);
    if coverage < crate::ledger::COVERAGE_FLOOR {
        crate::name_gap(
            &mut rep,
            "serve",
            "connection set-up, HTTP framing and the connection thread (outside every daemon phase)",
            (1.0 - coverage) * mean_latency,
        );
    }
    let _ = inference_trace(&mut rep, cati, &inputs.stripped, &reference, work)?;
    Ok(rep)
}
