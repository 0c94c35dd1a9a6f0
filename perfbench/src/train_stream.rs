//! train_stream: `Cati::train_streamed` over a few hundred generated
//! training binaries held in memory, small layer widths with the sample
//! cap raised. The only workload that writes: Word2Vec, shard write,
//! digest verify, backward passes and checkpoints.

use crate::report::Report;
use crate::setup::{dir_bytes, infer_all, secs, train, train_config, train_inputs, Res, WorkDir};
use crate::trace::{inference_trace, traced_setup};
use crate::{record_accuracy, record_latency, Args, SETUP_REPEATS};
use std::time::Instant;

/// Runs the workload.
pub fn run(args: &Args, work: &WorkDir) -> Res<Report> {
    let mut rep = Report::default();
    let config = train_config(args.seed);
    if args.trace {
        return traced(args, work, rep);
    }
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        inputs = Some(train_inputs());
        setup_s.push(secs(t));
    }
    let inputs = inputs.expect("at least one set-up");
    crate::record_setup(&mut rep, &setup_s);

    // Whole jobs until the time is up: every job trains from scratch
    // into a fresh checkpoint directory.
    let (mut walls_ms, mut first, mut same) = (Vec::new(), None, true);
    let start = Instant::now();
    while walls_ms.is_empty() || secs(start) < args.seconds {
        let dir = work.join(&format!("job{}", walls_ms.len()));
        let t = Instant::now();
        rep.attempted += 1;
        let cati = train(&inputs.train, &config, &dir)?;
        walls_ms.push(secs(t) * 1e3);
        let bytes = cati::encode_cati1(&cati);
        match &first {
            None => {
                rep.set("disk_mb", dir_bytes(&dir) as f64 / 1e6);
                first = Some((bytes, cati));
            }
            Some((b, _)) => same &= *b == bytes,
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    rep.gate(
        "repeated training encodes byte-identical",
        same,
        format!("{} jobs", walls_ms.len()),
    );
    let busy_s: f64 = walls_ms.iter().sum::<f64>() / 1e3;
    let binaries = (inputs.train.len() * walls_ms.len()) as f64;
    rep.set("throughput_per_s", binaries / busy_s);
    rep.note("train_binaries", inputs.train.len() as u64);
    rep.note("jobs", walls_ms.len() as u64);
    record_latency(&mut rep, &walls_ms);
    let (_, cati) = first.expect("at least one job");
    record_accuracy(&mut rep, &cati, &inputs.eval)?;
    Ok(rep)
}

fn traced(args: &Args, work: &WorkDir, mut rep: Report) -> Res<Report> {
    let config = train_config(args.seed);
    let setup = traced_setup(&mut rep, train_inputs, &config, work)?;
    // A second untraced job after the traced one: the traced job is
    // compared with the mean of its two neighbours, so the first job's
    // cold start is not charged to tracing.
    let t = Instant::now();
    let again = train(&setup.inputs.train, &config, &work.join("ckpt-untraced"))?;
    let untraced_ms = (setup.train_untraced_ms + secs(t) * 1e3) / 2.0;
    rep.gate(
        "repeated training encodes byte-identical",
        cati::encode_cati1(&again) == cati::encode_cati1(&setup.cati),
        "2 untraced jobs",
    );
    rep.attempted = 3;
    rep.set(
        "trace.overhead_frac",
        setup.train_ledger.wall_ms() / untraced_ms - 1.0,
    );
    crate::record_coverage(&mut rep, &setup.train_ledger, "train");
    // The held-out evaluation exercises the inference layers.
    let (cati, bins) = (&setup.cati, &setup.inputs.stripped);
    let reference = infer_all(cati, bins)?;
    inference_trace(&mut rep, cati, bins, &reference, work)?;
    crate::serve_layers_absent(&mut rep);
    Ok(rep)
}
