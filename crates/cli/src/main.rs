//! `cati` — the command-line interface to the CATI reproduction.
//!
//! Subcommands mirror the deployment workflow:
//!
//! ```text
//! cati build-corpus --out DIR [--scale S] [--compiler C] [--seed N]
//! cati disasm BINARY.json [--strip]
//! cati vars BINARY.json
//! cati train --corpus DIR --out MODEL.cati [--scale S] [--threads N]
//! cati infer --model MODEL.cati BINARY.json [--threads N]
//! cati strip BINARY.json --out STRIPPED.json
//! ```
//!
//! Binaries are stored as JSON serializations of
//! [`cati_asm::Binary`]; `build-corpus` writes one file per binary
//! plus a manifest.

use cati::obs::{git_rev, Level, LogFormat, Manifest, Recorder, RecorderConfig};
use cati::{ArtifactCache, Cati, Config};
use cati_analysis::{extract_lenient_mode, extract_mode, ContextMode, FeatureView};
use cati_asm::binary::Binary;
use cati_asm::fmt::format_insn;
use cati_serve::{HangLimit, ServeConfig, Server};
use cati_synbin::{build_corpus, mutate, Compiler, CorpusConfig, MutationKind};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Formats a signed frame offset as `-0x18` / `0x40`.
fn hex_off(off: i32) -> String {
    if off < 0 {
        format!("-{:#x}", -(off as i64))
    } else {
        format!("{off:#x}")
    }
}

struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
    switches: std::collections::HashSet<String>,
}

fn parse_args(argv: &[String]) -> Args {
    let mut positional = Vec::new();
    let mut flags = std::collections::HashMap::new();
    let mut switches = std::collections::HashSet::new();
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    flags.insert(name.to_string(), it.next().unwrap().clone());
                }
                _ => {
                    switches.insert(name.to_string());
                }
            }
        } else {
            positional.push(arg.clone());
        }
    }
    Args {
        positional,
        flags,
        switches,
    }
}

fn load_binary(path: &str) -> Result<Binary, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_slice(&bytes).map_err(|e| format!("parse {path}: {e}"))
}

/// Fails exactly where extraction would — undecodable text or an
/// unparsable debug section — so `train` refuses a corrupt corpus
/// file by name instead of panicking once training has started.
fn check_extractable(binary: &Binary) -> Result<(), String> {
    binary.disassemble().map_err(|e| e.to_string())?;
    if let Some(debug) = &binary.debug {
        cati_dwarf::DebugInfo::parse(debug).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn save_json<T: serde::Serialize>(value: &T, path: &Path) -> Result<(), String> {
    let json = serde_json::to_vec(value).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))
}

fn scale_of(args: &Args) -> (Config, fn(u64) -> CorpusConfig) {
    let (mut config, corpus): (Config, fn(u64) -> CorpusConfig) =
        match args.flags.get("scale").map(String::as_str) {
            Some("paper") => (Config::paper(), CorpusConfig::paper),
            Some("medium") => (Config::medium(), CorpusConfig::medium),
            _ => (Config::small(), CorpusConfig::small),
        };
    if let Some(t) = args.flags.get("threads") {
        config.threads = t.parse().unwrap_or(0);
    }
    (config, corpus)
}

/// Builds the telemetry recorder from the shared observability flags:
/// `--log-format text|json` (default text), `--log-level
/// error|warn|info|debug` (default info), `--batch-stats`.
fn recorder_of(args: &Args) -> Recorder {
    Recorder::new(recorder_config_of(args))
}

/// The [`RecorderConfig`] behind [`recorder_of`], also handed to the
/// serve daemon (whose recorder lives inside the server).
fn recorder_config_of(args: &Args) -> RecorderConfig {
    RecorderConfig {
        log: Some(
            args.flags
                .get("log-format")
                .map(|s| LogFormat::parse(s))
                .unwrap_or(LogFormat::Text),
        ),
        level: args
            .flags
            .get("log-level")
            .map(|s| Level::parse(s))
            .unwrap_or(Level::Info),
        batch_stats: args.switches.contains("batch-stats"),
    }
}

/// The standard run-meta object: `name` / `git_rev` plus `extra` keys.
fn run_meta(name: &str, extra: &serde_json::Value) -> serde_json::Value {
    let mut meta = serde_json::Map::new();
    meta.insert("name".to_string(), serde_json::json!(name));
    if let Some(rev) = git_rev(Path::new(".")) {
        meta.insert("git_rev".to_string(), serde_json::json!(rev));
    }
    if let serde_json::Value::Object(extra) = extra {
        for (k, v) in extra.iter() {
            meta.insert(k.clone(), v.clone());
        }
    }
    serde_json::Value::Object(meta)
}

/// Writes the run manifest when `--manifest PATH` was given and a
/// Chrome trace when `--trace OUT.json` was given. `extra` keys join
/// the standard `name` / `git_rev` meta fields.
fn write_manifest_if_requested(
    args: &Args,
    recorder: &Recorder,
    name: &str,
    extra: &serde_json::Value,
) -> Result<(), String> {
    let meta = run_meta(name, extra);
    if let Some(path) = args.flags.get("manifest") {
        recorder
            .write_manifest(path, &meta)
            .map_err(|e| e.to_string())?;
        // stderr, so `infer --json > out.json` stays machine-readable.
        eprintln!("manifest written to {path}");
    }
    if let Some(path) = args.flags.get("trace") {
        let jsonl = recorder.manifest_jsonl(&meta);
        let manifest = Manifest::parse(&jsonl).map_err(|e| format!("trace: {e}"))?;
        write_chrome_trace(&manifest, path)?;
    }
    Ok(())
}

/// Renders `manifest` as Chrome `trace_event` JSON (load it in
/// Perfetto / `chrome://tracing`) at `path`.
fn write_chrome_trace(manifest: &Manifest, path: &str) -> Result<(), String> {
    let trace = cati::obs::chrome_trace::render(manifest);
    std::fs::write(path, &trace).map_err(|e| format!("write trace {path}: {e}"))?;
    eprintln!(
        "chrome trace written to {path} ({} spans)",
        manifest.spans.len()
    );
    Ok(())
}

fn cmd_build_corpus(args: &Args) -> Result<(), String> {
    let out = PathBuf::from(
        args.flags
            .get("out")
            .ok_or("build-corpus requires --out DIR")?,
    );
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let seed: u64 = args
        .flags
        .get("seed")
        .map(|s| s.parse().map_err(|_| "bad --seed"))
        .transpose()?
        .unwrap_or(2020);
    let compiler = match args.flags.get("compiler").map(String::as_str) {
        Some("clang") => Compiler::Clang,
        _ => Compiler::Gcc,
    };
    let (_, corpus_cfg) = scale_of(args);
    let corpus = build_corpus(&corpus_cfg(seed).with_compiler(compiler));
    let mut manifest = Vec::new();
    for (split, binaries) in [("train", &corpus.train), ("test", &corpus.test)] {
        for (i, built) in binaries.iter().enumerate() {
            let name = format!("{split}_{:04}_{}.json", i, built.binary.name);
            save_json(&built.binary, &out.join(&name))?;
            manifest.push(serde_json::json!({
                "file": name,
                "split": split,
                "app": built.app,
                "compiler": built.opts.compiler.name(),
                "opt": built.opts.opt.0,
            }));
        }
    }
    save_json(&manifest, &out.join("manifest.json"))?;
    println!(
        "wrote {} train + {} test binaries to {}",
        corpus.train.len(),
        corpus.test.len(),
        out.display()
    );
    Ok(())
}

fn cmd_disasm(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("disasm requires a binary path")?;
    let mut binary = load_binary(path)?;
    if args.switches.contains("strip") {
        binary = binary.strip();
    }
    let insns = binary.disassemble().map_err(|e| e.to_string())?;
    for located in insns {
        let sym = binary
            .symbol_at(located.addr)
            .filter(|s| s.addr == located.addr)
            .map(|s| format!("\n{:016x} <{}>:", s.addr, s.name));
        if let Some(header) = sym {
            println!("{header}");
        }
        println!(
            "  {:6x}:\t{}",
            located.addr,
            format_insn(&located.insn, &binary)
        );
    }
    Ok(())
}

/// Resolves the shared `--strict` / `--lenient` pair: strict is the
/// default, the switches are mutually exclusive.
fn lenient_of(args: &Args) -> Result<bool, String> {
    match (
        args.switches.contains("strict"),
        args.switches.contains("lenient"),
    ) {
        (true, true) => Err("--strict and --lenient are mutually exclusive".into()),
        (_, lenient) => Ok(lenient),
    }
}

/// Parses `--context function|interproc` into a [`ContextMode`].
/// `None` when the flag is absent — callers pick the default (the
/// paper's function-local mode for extraction and training, the
/// model's own training mode for inference).
fn context_of(args: &Args) -> Result<Option<ContextMode>, String> {
    args.flags
        .get("context")
        .map(|v| ContextMode::parse(v).ok_or_else(|| format!("--context: unknown mode `{v}`")))
        .transpose()
}

fn cmd_vars(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("vars requires a binary path")?;
    let binary = load_binary(path)?;
    let view = if binary.debug.is_some() {
        FeatureView::WithSymbols
    } else {
        FeatureView::Stripped
    };
    let mode = context_of(args)?.unwrap_or_default();
    let ex = if lenient_of(args)? {
        let lenient = extract_lenient_mode(&binary, view, mode);
        for diag in &lenient.diagnostics.entries {
            eprintln!("warning: {diag}");
        }
        if !lenient.coverage.is_complete() {
            eprintln!(
                "warning: partial result — {}/{} functions, {}/{} bytes skipped",
                lenient.coverage.functions_skipped,
                lenient.coverage.functions_total,
                lenient.coverage.bytes_skipped,
                lenient.coverage.bytes_total,
            );
        }
        lenient.extraction
    } else {
        extract_mode(&binary, view, mode).map_err(|e| e.to_string())?
    };
    println!(
        "{:<6} {:>8}  {:<24} {:>5}",
        "func", "offset", "type (ground truth)", "vucs"
    );
    for var in &ex.vars {
        println!(
            "{:<6} {:>8}  {:<24} {:>5}",
            var.key.func,
            hex_off(var.key.offset),
            var.class
                .map(|c| c.to_string())
                .unwrap_or_else(|| "?".into()),
            var.vucs.len()
        );
    }
    println!("{} variables, {} VUCs", ex.vars.len(), ex.vucs.len());
    Ok(())
}

/// How many test-split binaries `cati train` scores as its holdout.
const HOLDOUT: usize = 4;

fn cmd_train(args: &Args) -> Result<(), String> {
    let corpus_dir = PathBuf::from(
        args.flags
            .get("corpus")
            .ok_or("train requires --corpus DIR")?,
    );
    let out = args.flags.get("out").ok_or("train requires --out MODEL")?;
    let (mut config, _) = scale_of(args);
    if let Some(mode) = context_of(args)? {
        config = config.with_context_mode(mode);
    }
    let manifest: Vec<serde_json::Value> = serde_json::from_slice(
        &std::fs::read(corpus_dir.join("manifest.json")).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    let mut train = Vec::new();
    let mut holdout = Vec::new();
    for entry in &manifest {
        let split = entry["split"].as_str().unwrap_or("");
        // Only the first HOLDOUT test files are scored; later ones are
        // not even read.
        if split != "train" && (split != "test" || holdout.len() >= HOLDOUT) {
            continue;
        }
        let file = entry["file"].as_str().ok_or("bad manifest")?;
        let path = corpus_dir.join(file);
        let binary = load_binary(path.to_str().unwrap())?;
        check_extractable(&binary)
            .map_err(|e| format!("corrupt corpus file {}: {e}", path.display()))?;
        let opt = entry["opt"].as_u64().unwrap_or(0) as u8;
        let compiler = if entry["compiler"] == "clang" {
            Compiler::Clang
        } else {
            Compiler::Gcc
        };
        let built = cati_synbin::BuiltBinary {
            binary,
            app: entry["app"].as_str().unwrap_or("unknown").to_string(),
            opts: cati_synbin::CodegenOptions {
                compiler,
                opt: cati_synbin::OptLevel(opt),
            },
        };
        if split == "train" {
            train.push(built);
        } else {
            holdout.push(built);
        }
    }
    if train.is_empty() {
        return Err("no training binaries in manifest".into());
    }
    println!("training on {} binaries...", train.len());
    let recorder = recorder_of(args);
    let cati = match args.flags.get("checkpoint-dir") {
        // Out-of-core path: shards on disk, one atomic checkpoint per
        // stage per epoch, byte-identical to the in-memory path. The
        // env knobs cut or slow the run at epoch boundaries — the CI
        // kill-and-resume smoke test drives them.
        Some(dir) => {
            let opts = cati::StreamOptions {
                resume: args.switches.contains("resume"),
                stop_after_epoch: std::env::var("CATI_STREAM_STOP_AFTER_EPOCH")
                    .ok()
                    .and_then(|s| s.parse().ok()),
                epoch_sleep_ms: std::env::var("CATI_STREAM_EPOCH_SLEEP_MS")
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0),
            };
            match Cati::train_streamed(&train, &config, Path::new(dir), opts, &recorder)
                .map_err(|e| e.to_string())?
            {
                Some(cati) => cati,
                None => {
                    println!("training paused at the requested epoch; resume with --resume");
                    return Ok(());
                }
            }
        }
        None => Cati::train(&train, &config, &recorder),
    };
    cati.save(out).map_err(|e| e.to_string())?;
    println!("model saved to {out}");
    // Score a small held-out sample so the run manifest also captures
    // voting telemetry (clip counters, confidence histogram) — not
    // just the training curves.
    if !holdout.is_empty() {
        let _span = cati::obs::SpanGuard::enter(&recorder, "holdout");
        let mut typed = 0usize;
        for built in &holdout {
            typed += cati
                .infer_observed(&built.binary.strip(), &recorder)
                .map_err(|e| e.to_string())?
                .len();
        }
        cati::obs::info!(
            &recorder,
            "holdout: typed {typed} variables over {} stripped binaries",
            holdout.len()
        );
    }
    write_manifest_if_requested(
        args,
        &recorder,
        "train",
        &serde_json::json!({
            "seed": config.seed,
            "binaries": train.len(),
            "config": serde_json::to_value(&config).map_err(|e| e.to_string())?,
            "model": out.as_str(),
        }),
    )
}

fn cmd_infer(args: &Args) -> Result<(), String> {
    let model = args
        .flags
        .get("model")
        .ok_or("infer requires --model MODEL.cati")?;
    let path = args
        .positional
        .first()
        .ok_or("infer requires a binary path")?;
    let cati = Cati::load(model).map_err(|e| e.to_string())?;
    let binary = load_binary(path)?;
    let mut cati = cati;
    if let Some(t) = args.flags.get("threads") {
        cati.config.threads = t.parse().unwrap_or(0);
    }
    // Default to the context mode the model was trained with; an
    // explicit --context overrides (e.g. to probe mode mismatch).
    if let Some(mode) = context_of(args)? {
        cati.config.context_mode = mode;
    }
    let recorder = recorder_of(args);
    let lenient = lenient_of(args)?;
    let artifacts = args
        .flags
        .get("cache-dir")
        .map(|dir| ArtifactCache::open(dir).map_err(|e| format!("open cache {dir}: {e}")))
        .transpose()?;
    let report = if lenient {
        Some(cati.infer_lenient_observed(&binary, &recorder))
    } else {
        None
    };
    let mut inferred = match &report {
        Some(report) => report.vars.clone(),
        None => cati
            .infer_cached(&binary, artifacts.as_ref(), &recorder)
            .map_err(|e| e.to_string())?,
    };
    inferred.sort_by_key(|v| (v.key.func, v.key.offset));
    let meta = match &report {
        Some(report) => serde_json::json!({
            "model": model.as_str(),
            "binary": path.as_str(),
            "mode": "lenient",
            "context": cati.config.context_mode.name(),
            "variables": inferred.len(),
            "cache_hits": recorder.metrics().counter_value("cache.hit"),
            "cache_misses": recorder.metrics().counter_value("cache.miss"),
            "coverage": serde_json::to_value(&report.coverage).map_err(|e| e.to_string())?,
            "diagnostics": report.diagnostics.total(),
        }),
        None => serde_json::json!({
            "model": model.as_str(),
            "binary": path.as_str(),
            "mode": "strict",
            "context": cati.config.context_mode.name(),
            "variables": inferred.len(),
            "cache_hits": recorder.metrics().counter_value("cache.hit"),
            "cache_misses": recorder.metrics().counter_value("cache.miss"),
        }),
    };
    write_manifest_if_requested(args, &recorder, "infer", &meta)?;
    if let Some(report) = &report {
        for diag in &report.diagnostics.entries {
            eprintln!("warning: {diag}");
        }
    }
    if args.switches.contains("json") {
        let payload = match &report {
            Some(report) => {
                let mut sorted = report.clone();
                sorted.vars = inferred.clone();
                serde_json::to_string_pretty(&sorted)
            }
            None => serde_json::to_string_pretty(&inferred),
        };
        println!("{}", payload.map_err(|e| e.to_string())?);
        return Ok(());
    }
    println!(
        "{:<6} {:>8}  {:<22} {:>5} {:>6}",
        "func", "offset", "inferred type", "vucs", "conf"
    );
    for var in &inferred {
        println!(
            "{:<6} {:>8}  {:<22} {:>5} {:>5.0}%",
            var.key.func,
            hex_off(var.key.offset),
            var.class.to_string(),
            var.vuc_count,
            var.confidence * 100.0
        );
    }
    if let Some(report) = &report {
        let cov = &report.coverage;
        println!(
            "coverage: {}/{} functions, {}/{} bytes skipped, debug {}, {} diagnostic(s)",
            cov.functions_total - cov.functions_skipped,
            cov.functions_total,
            cov.bytes_skipped,
            cov.bytes_total,
            if !cov.debug_present {
                "absent"
            } else if cov.debug_ok {
                "ok"
            } else {
                "rejected"
            },
            report.diagnostics.total(),
        );
    }
    Ok(())
}

/// Everything needed to regenerate one fuzz mutant exactly: the
/// corpus is deterministic in its seed, the mutator in kind + seed.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct FuzzCase {
    /// Seed the corpus was built from.
    corpus_seed: u64,
    /// Index into the corpus test split.
    binary_index: usize,
    /// Name of the source binary.
    binary_name: String,
    /// Mutation family (see [`MutationKind::name`]).
    kind: String,
    /// Seed the mutator ran with.
    mutation_seed: u64,
    /// Human-readable damage description.
    detail: String,
}

/// Parses `--budget` values like `60s`, `90`, `500ms` via the shared
/// hang-limit machinery ([`cati_serve::timeout`]) that `cati serve`
/// uses for request deadlines.
fn parse_budget(s: &str) -> Result<Duration, String> {
    cati_serve::parse_duration(s).map_err(|e| format!("--budget: {e}"))
}

/// Regenerates the mutant a [`FuzzCase`] describes.
fn rebuild_case(case: &FuzzCase) -> Result<(Binary, cati_synbin::Mutation), String> {
    let corpus = build_corpus(&CorpusConfig::small(case.corpus_seed));
    let built = corpus
        .test
        .get(case.binary_index)
        .ok_or_else(|| format!("corpus has no test binary #{}", case.binary_index))?;
    let kind = MutationKind::from_name(&case.kind)
        .ok_or_else(|| format!("unknown mutation kind `{}`", case.kind))?;
    Ok(mutate(&built.binary, kind, case.mutation_seed))
}

/// Runs one mutant through the pipeline both ways and returns
/// `(strict_ok, lenient_vars, coverage_violation)`. Strict must yield
/// a typed result (the process aborting here *is* the fuzz finding);
/// lenient must always return, with internally consistent coverage.
fn run_case(cati: &Cati, mutant: &Binary) -> (bool, usize, Option<String>) {
    let strict_ok = cati.infer(&mutant.strip()).is_ok();
    let report = cati.infer_lenient(mutant);
    let cov = &report.coverage;
    let violation = if cov.bytes_total != mutant.text.len() as u64 {
        Some(format!(
            "coverage bytes_total {} != text len {}",
            cov.bytes_total,
            mutant.text.len()
        ))
    } else if cov.bytes_skipped > cov.bytes_total {
        Some(format!(
            "coverage bytes_skipped {} > bytes_total {}",
            cov.bytes_skipped, cov.bytes_total
        ))
    } else if cov.functions_skipped > cov.functions_total {
        Some(format!(
            "coverage functions_skipped {} > functions_total {}",
            cov.functions_skipped, cov.functions_total
        ))
    } else if cov.functions_skipped > 0 && report.diagnostics.is_empty() {
        Some("functions skipped without a diagnostic".into())
    } else {
        None
    };
    (strict_ok, report.vars.len(), violation)
}

fn cmd_fuzz(args: &Args) -> Result<(), String> {
    let out = PathBuf::from(
        args.flags
            .get("out")
            .map(String::as_str)
            .unwrap_or("results/fuzz"),
    );
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;

    if let Some(replay) = args.flags.get("replay") {
        return cmd_fuzz_replay(replay, &out);
    }

    let seed: u64 = args
        .flags
        .get("seed")
        .map(|s| s.parse().map_err(|_| "bad --seed"))
        .transpose()?
        .unwrap_or(2020);
    let mutants: u64 = args
        .flags
        .get("mutants")
        .map(|s| s.parse().map_err(|_| "bad --mutants"))
        .transpose()?
        .unwrap_or(500);
    let budget = args
        .flags
        .get("budget")
        .map(|s| parse_budget(s))
        .transpose()?
        .unwrap_or(Duration::from_secs(60));
    let hang_limit = HangLimit::from_ms(
        args.flags
            .get("hang-limit-ms")
            .map(|s| s.parse().map_err(|_| "bad --hang-limit-ms"))
            .transpose()?
            .unwrap_or(5000u64),
    );

    let started = Instant::now();
    eprintln!("fuzz: building corpus (seed {seed}) and training a small model...");
    let corpus = build_corpus(&CorpusConfig::small(seed));
    let train_n = corpus.train.len().min(4);
    let cati = Cati::train(&corpus.train[..train_n], &Config::small(), &cati::obs::NOOP);

    let pending = out.join("pending.json");
    let mut ran = 0u64;
    let mut strict_ok = 0u64;
    let mut strict_err = 0u64;
    let mut hangs: Vec<serde_json::Value> = Vec::new();
    let mut violations: Vec<serde_json::Value> = Vec::new();
    let mut slowest_ms = 0u128;
    let mut budget_exhausted = false;

    for i in 0..mutants {
        if started.elapsed() > budget {
            budget_exhausted = true;
            break;
        }
        let kind = MutationKind::ALL[i as usize % MutationKind::ALL.len()];
        let binary_index = i as usize % corpus.test.len();
        let mutation_seed = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1);
        let source = &corpus.test[binary_index].binary;
        let (mutant, mutation) = mutate(source, kind, mutation_seed);
        let case = FuzzCase {
            corpus_seed: seed,
            binary_index,
            binary_name: source.name.clone(),
            kind: kind.name().to_string(),
            mutation_seed,
            detail: mutation.detail.clone(),
        };
        // The spec goes to disk *before* the pipeline runs: if the
        // process dies here, pending.json IS the minimized reproducer.
        save_json(&case, &pending)?;

        let t0 = Instant::now();
        let (ok, _vars, violation) = run_case(&cati, &mutant);
        let dt = t0.elapsed();
        slowest_ms = slowest_ms.max(dt.as_millis());
        ran += 1;
        if ok {
            strict_ok += 1;
        } else {
            strict_err += 1;
        }
        if hang_limit.exceeded(dt) {
            let kept = out.join(format!("hang-{i}.json"));
            std::fs::rename(&pending, &kept).map_err(|e| e.to_string())?;
            hangs.push(serde_json::json!({
                "case": kept.display().to_string(),
                "elapsed_ms": dt.as_millis() as u64,
            }));
        } else if let Some(v) = violation {
            let kept = out.join(format!("violation-{i}.json"));
            std::fs::rename(&pending, &kept).map_err(|e| e.to_string())?;
            violations.push(serde_json::json!({
                "case": kept.display().to_string(),
                "violation": v,
            }));
        } else {
            std::fs::remove_file(&pending).ok();
        }
    }

    let summary = serde_json::json!({
        "seed": seed,
        "requested": mutants,
        "ran": ran,
        "strict_typed_ok": strict_ok,
        "strict_typed_err": strict_err,
        "hangs": hangs,
        "coverage_violations": violations,
        "slowest_mutant_ms": slowest_ms as u64,
        "budget_exhausted": budget_exhausted,
        "elapsed_ms": started.elapsed().as_millis() as u64,
    });
    save_json(&summary, &out.join("summary.json"))?;
    println!(
        "{}",
        serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
    );
    if !hangs.is_empty() || !violations.is_empty() {
        return Err(format!(
            "fuzz found {} hang(s), {} coverage violation(s); reproducers in {}",
            hangs.len(),
            violations.len(),
            out.display()
        ));
    }
    Ok(())
}

/// Replays one recorded [`FuzzCase`]: regenerates the mutant, writes
/// it next to the reproducer for offline inspection, and runs it.
fn cmd_fuzz_replay(path: &str, out: &Path) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let case: FuzzCase =
        serde_json::from_slice(&bytes).map_err(|e| format!("parse {path}: {e}"))?;
    eprintln!(
        "replaying {} seed {} on {} (corpus seed {})...",
        case.kind, case.mutation_seed, case.binary_name, case.corpus_seed
    );
    let (mutant, mutation) = rebuild_case(&case)?;
    let repro = out.join("repro_binary.json");
    save_json(&mutant, &repro)?;
    eprintln!(
        "mutant written to {} ({})",
        repro.display(),
        mutation.detail
    );
    let corpus = build_corpus(&CorpusConfig::small(case.corpus_seed));
    let train_n = corpus.train.len().min(4);
    let cati = Cati::train(&corpus.train[..train_n], &Config::small(), &cati::obs::NOOP);
    let t0 = Instant::now();
    let (ok, vars, violation) = run_case(&cati, &mutant);
    println!(
        "{}",
        serde_json::to_string_pretty(&serde_json::json!({
            "case": case,
            "strict_typed_ok": ok,
            "lenient_vars": vars,
            "coverage_violation": violation,
            "elapsed_ms": t0.elapsed().as_millis() as u64,
        }))
        .map_err(|e| e.to_string())?
    );
    Ok(())
}

/// Reads and parses one run manifest.
fn load_manifest(path: &str) -> Result<Manifest, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Manifest::parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn cmd_report(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("report requires a manifest path")?;
    let manifest = load_manifest(path)?;
    if let Some(out) = args.flags.get("trace") {
        return write_chrome_trace(&manifest, out);
    }
    if args.switches.contains("validate") {
        manifest
            .validate()
            .map_err(|e| format!("{path}: INVALID: {e}"))?;
        println!(
            "{path}: OK ({} spans, {} loss records)",
            manifest.spans.len(),
            manifest.losses.len()
        );
        return Ok(());
    }
    match args.positional.get(1) {
        Some(other) => {
            let b = load_manifest(other)?;
            print!("{}", Manifest::diff(&manifest, &b));
        }
        None => print!("{}", manifest.render()),
    }
    Ok(())
}

fn cmd_strip(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("strip requires a binary path")?;
    let out = args.flags.get("out").ok_or("strip requires --out FILE")?;
    let binary = load_binary(path)?;
    save_json(&binary.strip(), Path::new(out))?;
    println!("stripped binary written to {out}");
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let model = args
        .flags
        .get("model")
        .ok_or("serve requires --model MODEL.cati")?;
    let mut cfg = ServeConfig {
        addr: args
            .flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:8472".to_string()),
        recorder: recorder_config_of(args),
        ..ServeConfig::default()
    };
    if let Some(v) = args.flags.get("queue-capacity") {
        cfg.queue_capacity = v.parse().map_err(|_| "bad --queue-capacity")?;
    }
    if let Some(v) = args.flags.get("max-batch") {
        cfg.max_batch = v.parse().map_err(|_| "bad --max-batch")?;
    }
    if let Some(v) = args.flags.get("workers") {
        cfg.workers = v.parse().map_err(|_| "bad --workers")?;
    }
    if let Some(v) = args.flags.get("hang-limit-ms") {
        cfg.hang_limit = HangLimit::from_ms(v.parse().map_err(|_| "bad --hang-limit-ms")?);
    }
    if let Some(dir) = args.flags.get("cache-dir") {
        cfg.cache_dir = Some(PathBuf::from(dir));
    }
    if let Some(t) = args.flags.get("threads") {
        cfg.threads = t.parse().unwrap_or(0);
    }
    let mut handle =
        Server::start_from_path(model, cfg).map_err(|e| format!("serve {model}: {e}"))?;
    eprintln!(
        "serving on http://{} (model version {})",
        handle.addr(),
        handle.model_version()
    );
    eprintln!(
        "routes: POST /infer  GET /health  GET /metrics  POST /admin/reload  POST /admin/shutdown"
    );
    handle.wait();
    let metrics = handle.recorder().metrics();
    let meta = serde_json::json!({
        "model": model.as_str(),
        "addr": handle.addr().to_string(),
        "model_version": handle.model_version(),
        "requests": metrics.counter_value("serve.requests"),
        "served": metrics.counter_value("serve.served"),
        "rejected": metrics.counter_value("serve.rejected"),
        "deadline_expired": metrics.counter_value("serve.deadline_expired"),
        "reloads": metrics.counter_value("serve.reloads"),
        "cache_hits": metrics.counter_value("cache.hit"),
        "cache_misses": metrics.counter_value("cache.miss"),
    });
    write_manifest_if_requested(args, handle.recorder(), "serve", &meta)?;
    eprintln!("server stopped");
    Ok(())
}

const USAGE: &str = "\
cati — context-assisted type inference from stripped binaries

USAGE:
  cati build-corpus --out DIR [--scale small|medium|paper] [--compiler gcc|clang] [--seed N]
  cati disasm BINARY.json [--strip]
  cati vars BINARY.json [--strict|--lenient] [--context function|interproc]
  cati train --corpus DIR --out MODEL.cati [--scale small|medium|paper] [--threads N]
             [--checkpoint-dir DIR] [--resume] [--context function|interproc]
  cati infer --model MODEL.cati BINARY.json [--strict|--lenient] [--json] [--threads N] [--cache-dir DIR]
             [--context function|interproc]
  cati fuzz [--seed N] [--mutants N] [--budget 60s] [--hang-limit-ms N] [--out DIR] [--replay CASE.json]
  cati serve --model MODEL.cati [--addr HOST:PORT] [--queue-capacity N] [--max-batch N] [--workers N]
             [--hang-limit-ms N] [--cache-dir DIR] [--threads N] [--manifest PATH]
  cati report MANIFEST.jsonl [OTHER.jsonl] [--validate] [--trace OUT.json]
  cati strip BINARY.json --out STRIPPED.json

Context assembly (vars, train and infer):
  --context function   (default) the paper's function-local VUC
                       windows — out-of-range slots pad with BLANK.
  --context interproc  splice callee prologues and caller
                       continuations into the padding at call/ret
                       boundaries when the variable flows through an
                       argument or return register (DESIGN.md §17).
                       `infer` defaults to the mode the model was
                       trained with; the flag overrides it.

Degradation modes (vars and infer):
  --strict (default)  refuse hostile input with a typed error — a
                      corrupt text or debug section fails the command.
  --lenient           degrade instead: skip undecodable functions,
                      drop a corrupt debug section, and report partial
                      results plus a coverage line and per-finding
                      warnings on stderr. With --json the output is a
                      full report object {vars, coverage, diagnostics}.

`cati fuzz` drives the seeded corruption engine (cati_synbin::hostile)
against the full pipeline: each mutant must produce a typed error
(strict) and a partial result with honest coverage (lenient) — never a
panic or hang. The next case spec is written to OUT/pending.json
before it runs, so a crash leaves the reproducer behind; hangs and
coverage violations are kept as OUT/hang-*.json / OUT/violation-*.json
and summarized in OUT/summary.json. --replay CASE.json regenerates a
recorded mutant (writing OUT/repro_binary.json) and reruns it.

`cati serve` keeps one model resident behind an HTTP/1.1 daemon
(default 127.0.0.1:8472). POST a Binary JSON to /infer and the
response body is byte-identical to `cati infer --json` on the same
file (add ?mode=lenient or the x-cati-mode: lenient header for the
lenient report). Concurrent requests are coalesced into one batched
classification pass (--max-batch, default 8) behind a bounded queue
(--queue-capacity, default 64; overflow answers 503). Per-request
deadlines reuse the fuzz hang-limit machinery: --hang-limit-ms (or the
x-cati-hang-limit-ms request header; 0 = unlimited) turns a slow
request into a 504 while the server keeps serving. POST
{\"model\": PATH} to /admin/reload to hot-swap the model without
dropping traffic — every response carries x-cati-model-version. GET
/metrics dumps the live counter/histogram registry as JSON; --manifest
writes the full request timeline on shutdown (POST /admin/shutdown).
--cache-dir mounts the artifact cache server-side, shared across
clients and keyed by binary digest.

Training and batched inference use --threads worker threads
(0 or omitted = all cores); results are bit-identical for any value.

Training at scale:
  `cati train --checkpoint-dir DIR` streams the embedded training
  samples into digest-checked on-disk shards under DIR/shards and
  trains out-of-core, so peak memory is bounded by the model plus one
  shard buffer — never by corpus size. Every stage writes one atomic
  checkpoint (weights + optimizer moments + RNG state) per epoch, and
  the trained model is byte-identical to an in-memory run on the same
  inputs. After any interruption — including a hard kill mid-epoch —
  rerun with --resume: completed phases load instead of recomputing
  and the finished model is byte-identical to an uninterrupted run. A
  checkpoint directory from a different configuration or corpus is
  refused with a typed error.

`cati infer --cache-dir DIR` keeps a content-addressed artifact cache
(extraction + window embeddings, keyed by binary digest and model
fingerprint) so repeated runs skip recomputation; output is
bit-identical with or without the cache. Cache traffic is reported as
cache_hits / cache_misses in the run manifest.

Model format:
  Models are CATI1 v2 files — a versioned, checksummed binary
  container (magic header, section table, flat little-endian f32
  weight tensors, each 64-byte aligned). Loading reads the whole file,
  verifies its checksums and copies the weights, so rewriting the file
  later does not touch a loaded model. It is the only format `cati`
  reads or writes;
  any other file, or any other container version, is refused with
  what was found.

Telemetry (train, infer, serve):
  --log-format text|json        live event mirror on stderr (default text)
  --log-level error|warn|info|debug
  --manifest PATH               write a run manifest (JSONL) for `cati report`
  --trace OUT.json              export the run as Chrome trace_event JSON
                                (open in Perfetto or chrome://tracing)
  --batch-stats                 also record per-minibatch gradient norms

`cati report` pretty-prints one manifest (span tree, histograms with
p50/p95/p99), diffs two, exports an existing manifest as a Chrome
trace (--trace OUT.json), or with --validate checks structure (meta
line, spans/losses, monotonic timestamps) and exits non-zero on
failure.

Speed is measured by perfbench (perfbench/README.md): repeated runs
of the workloads declared in BENCHMARK.json, with spreads, bounds and
a per-layer ledger.

Per-span allocation columns (alloc bytes / count in --trace output,
`cati report`, and /debug/profile) need the counting allocator:
build with `--features alloc-profile`.
";

/// With `--features alloc-profile`, route all allocations through the
/// counting allocator so spans carry allocation columns.
#[cfg(feature = "alloc-profile")]
#[global_allocator]
static COUNTING_ALLOCATOR: cati::obs::alloc::CountingAllocator =
    cati::obs::alloc::CountingAllocator;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = parse_args(&argv[1..]);
    let result = match cmd.as_str() {
        "build-corpus" => cmd_build_corpus(&args),
        "disasm" => cmd_disasm(&args),
        "vars" => cmd_vars(&args),
        "train" => cmd_train(&args),
        "infer" => cmd_infer(&args),
        "fuzz" => cmd_fuzz(&args),
        "serve" => cmd_serve(&args),
        "report" => cmd_report(&args),
        "strip" => cmd_strip(&args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
