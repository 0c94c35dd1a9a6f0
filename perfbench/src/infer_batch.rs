//! infer_batch: the stripped test binaries of medium-shaped corpora, at
//! O0–O3 under GCC and Clang, through in-process `Cati::infer`. Closed
//! loop, one caller, no artifact cache.

use crate::report::Report;
use crate::setup::{
    dir_bytes, infer_all, infer_config, infer_inputs, same_bits, save_load, secs, train, Res,
    WorkDir,
};
use crate::trace::{inference_trace, traced_setup};
use crate::{record_accuracy, record_segmented_latency, Args, SETUP_REPEATS};
use std::time::Instant;

/// Runs the workload.
pub fn run(args: &Args, work: &WorkDir) -> Res<Report> {
    let mut rep = Report::default();
    let config = infer_config(args.seed);
    if args.trace {
        return traced(args, work, rep);
    }
    let ckpt = work.join("ckpt");
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        let inputs = infer_inputs(args.seed);
        let trained = train(&inputs.train, &config, &ckpt)?;
        let (cati, ..) = save_load(&trained, &work.join("model.cati"))?;
        setup_s.push(secs(t));
        last = Some((inputs, trained, cati));
    }
    let (inputs, trained, cati) = last.expect("at least one set-up");
    crate::record_setup(&mut rep, &setup_s);
    rep.gate(
        "model round trip",
        cati::encode_cati1(&trained) == cati::encode_cati1(&cati),
        "CATI1 save/load",
    );
    rep.set("disk_mb", dir_bytes(&ckpt) as f64 / 1e6);
    drop(trained);

    // One untimed pass fills the embedder's instruction-column cache and
    // fixes the reference outputs every timed call must reproduce.
    let reference = infer_all(&cati, &inputs.stripped)?;
    // Whole passes until the time is up (at least three, the segments
    // the medians are taken over), so every run samples each binary
    // equally often.
    let (mut passes, mut rates, mut mismatches) = (Vec::new(), Vec::new(), 0u64);
    let start = Instant::now();
    while rates.len() < 3 || secs(start) < args.seconds {
        let (mut vucs, mut busy_ms, mut latencies) = (0u64, 0.0, Vec::new());
        for (bin, want) in inputs.stripped.iter().zip(&reference) {
            let t = Instant::now();
            let out = cati.infer(bin);
            let ms = secs(t) * 1e3;
            rep.attempted += 1;
            match out {
                Ok(vars) => {
                    latencies.push(ms);
                    busy_ms += ms;
                    vucs += vars.iter().map(|v| u64::from(v.vuc_count)).sum::<u64>();
                    mismatches += u64::from(!same_bits(&vars, want));
                }
                Err(_) => rep.failed += 1,
            }
        }
        rates.push(vucs as f64 / (busy_ms / 1e3).max(1e-9));
        passes.push(latencies);
    }
    rep.gate(
        "repeated inference is bitwise stable",
        mismatches == 0,
        format!("{mismatches} of {} calls differ", rep.attempted),
    );
    // The median pass, so a passing stall on the shared machine moves
    // one pass, not the run.
    rep.set(
        "throughput_per_s",
        crate::stats::median(&rates).unwrap_or(0.0),
    );
    rep.note("pass_vucs_per_s", rates);
    rep.note("binaries", inputs.stripped.len() as u64);
    record_segmented_latency(&mut rep, &passes);
    record_accuracy(&mut rep, &cati, &inputs.eval)?;
    Ok(rep)
}

fn traced(args: &Args, work: &WorkDir, mut rep: Report) -> Res<Report> {
    let config = infer_config(args.seed);
    let setup = traced_setup(&mut rep, || infer_inputs(args.seed), &config, work)?;
    let (cati, bins) = (&setup.cati, &setup.inputs.stripped);
    // Warm pass, then untraced / traced / untraced: the traced pass is
    // compared with the mean of its two neighbours.
    let reference = infer_all(cati, bins)?;
    let mut untraced_ms = 0.0;
    let mut stable = true;
    let mut ledger = None;
    for pass in 0..3 {
        if pass == 1 {
            ledger = Some(inference_trace(&mut rep, cati, bins, &reference, work)?);
            continue;
        }
        let t = Instant::now();
        let out = infer_all(cati, bins)?;
        untraced_ms += secs(t) * 1e3 / 2.0;
        stable &= out.iter().zip(&reference).all(|(a, b)| same_bits(a, b));
    }
    rep.gate(
        "repeated inference is bitwise stable",
        stable,
        format!("{} binaries, 3 passes", bins.len()),
    );
    rep.attempted = 3 * bins.len() as u64;
    let ledger = ledger.expect("traced pass ran");
    rep.set("trace.overhead_frac", ledger.wall_ms() / untraced_ms - 1.0);
    crate::record_coverage(&mut rep, &ledger, "infer");
    crate::serve_layers_absent(&mut rep);
    Ok(rep)
}
