//! The repository benchmark. One workload per run:
//!
//! ```sh
//! perfbench --workload infer_batch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics, with `--trace 1`
//! the per-layer ledger of a separate traced run (see `defs.rs`). The
//! next-to-last line of standard output is the full run record
//! (provenance, correctness gates, sample counts, every ledger entry);
//! the last line is the result object. `run.py` builds and runs it.

mod defs;
mod infer_batch;
mod ledger;
mod report;
mod serve_http;
mod setup;
mod stats;
mod trace;
mod train_stream;

use report::Report;
use serde_json::{json, Value};
use setup::{accuracy, Res, WorkDir};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Accuracy below this means the model or the pipeline is broken.
const ACCURACY_FLOOR: f64 = 0.2;

/// Command-line arguments.
pub struct Args {
    workload: String,
    /// Seed all inputs are generated from.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Traced run (per-layer ledger) instead of the end-to-end one.
    pub trace: bool,
    rev: String,
    dirty: Option<bool>,
    source: Option<String>,
}

fn parse_args() -> Res<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = need("--workload")?.to_string();
    if !defs::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {:?})",
            defs::WORKLOADS
        ));
    }
    let seed = need("--seed")?.parse().map_err(setup::err("--seed"))?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(setup::err("--seconds"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let dirty = match get("--dirty") {
        Some("0") => Some(false),
        Some("1") => Some(true),
        _ => None,
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        rev: get("--rev").unwrap_or("unknown").to_string(),
        dirty,
        source: get("--source").map(str::to_string),
    })
}

/// Records the set-up times and their median.
pub fn record_setup(rep: &mut Report, setup_s: &[f64]) {
    rep.set("setup_s", stats::median(setup_s).unwrap_or(0.0));
    rep.note("setup_s.samples", setup_s.to_vec());
}

/// Records latency sampled in consecutive segments of a run (passes,
/// or thirds of a phase): the median over segments of each segment's
/// median and tail, so a stall of the shared machine that hits one
/// segment does not move the result. The whole run's figures go into
/// the record beside them.
pub fn record_segmented_latency(rep: &mut Report, segments: &[Vec<f64>]) {
    let medians: Vec<f64> = segments.iter().filter_map(|s| stats::median(s)).collect();
    let tails: Vec<stats::Tail> = segments
        .iter()
        .filter_map(|s| stats::tail_or_max(s))
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let all: Vec<f64> = segments.concat();
    record_latency(rep, &all);
    rep.set("latency_p50_ms", stats::median(&medians).unwrap_or(0.0));
    rep.set("latency_tail_ms", stats::median(&values).unwrap_or(0.0));
    rep.note("latency.segments", segments.len() as u64);
    rep.note(
        "latency.segment_n",
        segments.iter().map(|s| s.len() as u64).collect::<Vec<_>>(),
    );
    let pct = tails.iter().map(|t| t.percentile).fold(1.0, f64::min);
    rep.note("latency.segment_tail_percentile", pct * 100.0);
}

/// Records a latency sample as its median and tail (and the whole
/// sample's figures as notes).
pub fn record_latency(rep: &mut Report, latencies_ms: &[f64]) {
    let p50 = stats::median(latencies_ms).unwrap_or(0.0);
    rep.set("latency_p50_ms", p50);
    rep.note("latency.p50_ms", p50);
    rep.note("latency.n", latencies_ms.len() as u64);
    if let Some(t) = stats::tail_or_max(latencies_ms) {
        rep.set("latency_tail_ms", t.value);
        rep.note("latency.tail_ms", t.value);
        rep.note("latency.tail_percentile", t.percentile * 100.0);
        rep.note("latency.tail_beyond", t.beyond as u64);
    }
    if let Some([q1, _, q3]) = stats::quartiles(latencies_ms) {
        rep.note("latency.q1_ms", q1);
        rep.note("latency.q3_ms", q3);
    }
}

/// Records held-out accuracy (with its sample counts) and gates it.
pub fn record_accuracy(
    rep: &mut Report,
    cati: &cati::Cati,
    labeled: &[cati::synbin::BuiltBinary],
) -> Res<()> {
    let (var, var_n, vuc, vuc_n) = accuracy(cati, labeled)?;
    rep.set("var_accuracy", var);
    rep.set("vuc_accuracy", vuc);
    rep.note("var_accuracy.n", var_n);
    rep.note("vuc_accuracy.n", vuc_n);
    rep.gate(
        "accuracy above the broken-model floor",
        var > ACCURACY_FLOOR && vuc > ACCURACY_FLOOR,
        format!("var {var:.4} of {var_n}, vuc {vuc:.4} of {vuc_n}"),
    );
    Ok(())
}

/// Records a traced pass's coverage, naming its largest untimed gap
/// when the layer calls miss more than a few percent of the wall time.
pub fn record_coverage(rep: &mut Report, ledger: &ledger::Ledger, what: &str) {
    let coverage = ledger.coverage();
    rep.set("trace.coverage_frac", coverage);
    rep.note(&format!("{what}.traced_wall_ms"), ledger.wall_ms());
    if coverage < ledger::COVERAGE_FLOOR {
        let (gap, ms) = ledger.largest_gap().unwrap_or_default();
        name_gap(rep, what, &format!("untimed work before {gap}"), ms);
    }
}

/// Names the unaccounted part of a traced pass in the run record and
/// on standard error.
pub fn name_gap(rep: &mut Report, what: &str, gap: &str, ms: f64) {
    eprintln!("perfbench: {what} ledger misses {ms:.3} ms: {gap}");
    rep.note("trace.gap", format!("{what}: {gap}"));
    rep.note("trace.gap_ms", ms);
}

/// The daemon-phase shares of a workload that runs no daemon: none of
/// its latency is spent there.
pub fn serve_layers_absent(rep: &mut Report) {
    for name in [
        "serve.parse_share",
        "serve.queue_wait_share",
        "serve.embed_share",
        "serve.batch_wait_share",
        "serve.leaf_share",
        "serve.vote_share",
        "serve.batch_size_mean",
    ] {
        rep.set(name, 0.0);
    }
}

/// Checks that the report holds exactly the metrics of its mode.
fn check_complete(rep: &Report, trace: bool) -> Res<()> {
    let want: BTreeSet<&str> = if trace {
        defs::PER_LAYER
    } else {
        defs::END_TO_END
    }
    .iter()
    .map(|d| d.name)
    .collect();
    let have: BTreeSet<&str> = rep.values.keys().map(String::as_str).collect();
    if want != have {
        let missing: Vec<_> = want.difference(&have).collect();
        let extra: Vec<_> = have.difference(&want).collect();
        return Err(format!("metrics missing {missing:?}, unexpected {extra:?}"));
    }
    match rep.values.iter().find(|(_, v)| !v.is_finite()) {
        Some((k, v)) => Err(format!("metric {k} is {v}")),
        None => Ok(()),
    }
}

fn run(args: &Args) -> Res<Report> {
    let work = WorkDir::create(&args.workload)?;
    let mut rep = match args.workload.as_str() {
        "infer_batch" => infer_batch::run(args, &work)?,
        "serve_http" => serve_http::run(args, &work)?,
        _ => train_stream::run(args, &work)?,
    };
    if !args.trace {
        let rss = cati::obs::manifest::peak_rss_bytes().ok_or("VmHWM unavailable")?;
        rep.set("peak_rss_mb", rss as f64 / 1e6);
    }
    check_complete(&rep, args.trace)?;
    Ok(rep)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let rep = match run(&args) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let mut metrics = BTreeMap::new();
    let mut ledger = BTreeMap::new();
    for (name, &value) in &rep.values {
        let def = defs::find(name).expect("checked by check_complete");
        metrics.insert(name.clone(), json!({ "value": value, "unit": def.unit }));
        let moves = (!def.moves.is_empty()).then_some(def.moves);
        ledger.insert(
            name.clone(),
            json!({ "value": value, "unit": def.unit, "should_move": moves }),
        );
    }
    let gates: Vec<Value> = rep
        .gates
        .iter()
        .map(|g| json!({ "gate": g.name, "ok": g.ok, "detail": g.detail }))
        .collect();
    let run = json!({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rev": args.rev,
        "dirty": args.dirty,
        "source_sha256": args.source,
        "nproc": std::thread::available_parallelism().map_or(1, usize::from),
        "attempted": rep.attempted,
        "failed": rep.failed,
        "fail_frac": rep.failed as f64 / rep.attempted.max(1) as f64,
        "gates": gates,
        "metrics": ledger,
        "notes": rep.notes
    });
    let record = json!({ "perfbench": run });
    let result = json!({
        "correct": rep.correct(),
        "attempted": rep.attempted,
        "failed": rep.failed,
        "metrics": metrics
    });
    println!(
        "{}",
        serde_json::to_string(&record).expect("record serializes")
    );
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
}
