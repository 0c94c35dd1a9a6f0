//! `cati-bench` — experiment regenerators.
//!
//! One binary per table/figure of the paper's evaluation (see
//! DESIGN.md §4 for the index). All experiment binaries accept
//! `--scale small|medium|paper`, and each trains the model it scores:
//! no model is cached across runs, so a paper-scale suite retrains
//! once per experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cati::obs::{git_rev, Level, LogFormat, Observer, Recorder, RecorderConfig};
use cati::{ArtifactCache, Cati, Config, Confusion, Dataset};
use cati_analysis::FeatureView;
use cati_synbin::{build_corpus, Compiler, Corpus, CorpusConfig};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};

/// Experiment scale, selected with `--scale`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds of CPU; sanity-check quality.
    Small,
    /// Minutes of CPU; default for experiments.
    Medium,
    /// Paper-shaped sizes; expect long runtimes.
    Paper,
}

impl Scale {
    /// Parses `--scale <s>` from `std::env::args`, defaulting to
    /// [`Scale::Small`] (CI-friendly; pass `--scale medium` to get
    /// report-quality numbers).
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        for w in args.windows(2) {
            if w[0] == "--scale" {
                return match w[1].as_str() {
                    "medium" => Scale::Medium,
                    "paper" => Scale::Paper,
                    _ => Scale::Small,
                };
            }
        }
        Scale::Small
    }

    /// The pipeline configuration for this scale.
    pub fn config(self) -> Config {
        match self {
            Scale::Small => Config::small(),
            Scale::Medium => Config::medium(),
            Scale::Paper => Config::paper(),
        }
    }

    /// The corpus configuration for this scale.
    pub fn corpus(self, seed: u64) -> CorpusConfig {
        match self {
            Scale::Small => CorpusConfig::small(seed),
            Scale::Medium => CorpusConfig::medium(seed),
            Scale::Paper => CorpusConfig::paper(seed),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Paper => "paper",
        }
    }
}

/// Default seed shared by experiments so they describe one corpus.
pub const SEED: u64 = 2020;

/// Shared telemetry harness for the `exp_*` binaries: one [`Recorder`]
/// configured from the common CLI flags, plus the run-manifest
/// plumbing, so every experiment gets spans, metrics, and a
/// `results/runs/<name>.jsonl` manifest for `cati report`.
///
/// Flags parsed from `std::env::args`:
///
/// - `--log-format text|json` — mirror events to stderr (default: text)
/// - `--log-level error|warn|info|debug` — mirror threshold
/// - `--batch-stats` — also record per-minibatch gradient norms
/// - `--manifest PATH` — manifest destination (default
///   `results/runs/<name>.jsonl` under the workspace root)
/// - `--no-manifest` — skip manifest writing
///
/// Experiments additionally honor `--cache-dir DIR` (see
/// [`artifact_cache_from_args`]) for on-disk extraction/embedding
/// reuse across runs.
pub struct RunObs {
    recorder: Recorder,
    name: String,
    manifest_path: Option<PathBuf>,
    finished: std::cell::Cell<bool>,
}

impl RunObs {
    /// Builds the harness for the experiment named `name`.
    pub fn from_args(name: &str) -> RunObs {
        let args: Vec<String> = std::env::args().collect();
        let arg = |flag: &str| args.windows(2).find(|w| w[0] == flag).map(|w| w[1].clone());
        let cfg = RecorderConfig {
            log: Some(
                arg("--log-format")
                    .map(|s| LogFormat::parse(&s))
                    .unwrap_or(LogFormat::Text),
            ),
            level: arg("--log-level")
                .map(|s| Level::parse(&s))
                .unwrap_or(Level::Info),
            batch_stats: args.iter().any(|a| a == "--batch-stats"),
        };
        let manifest_path = if args.iter().any(|a| a == "--no-manifest") {
            None
        } else {
            Some(
                arg("--manifest")
                    .map(PathBuf::from)
                    .unwrap_or_else(|| runs_dir().join(format!("{name}.jsonl"))),
            )
        };
        RunObs {
            recorder: Recorder::new(cfg),
            name: name.to_string(),
            manifest_path,
            finished: std::cell::Cell::new(false),
        }
    }

    /// The live observer to pass into instrumented pipeline APIs.
    pub fn obs(&self) -> &dyn Observer {
        &self.recorder
    }

    /// The recorder, for direct access to metrics and the timeline.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Writes the run manifest (unless `--no-manifest`), merging the
    /// experiment's own result fields from `extra` into the meta line
    /// alongside the standard `name` / `seed` / `git_rev` /
    /// `kernel_isa` keys.
    /// Returns the manifest path when one was written.
    pub fn finish(&self, extra: &Value) -> Option<PathBuf> {
        self.finished.set(true);
        let path = self.manifest_path.as_ref()?;
        let mut meta = serde_json::Map::new();
        meta.insert("name".to_string(), json!(self.name.as_str()));
        meta.insert("seed".to_string(), json!(SEED));
        if let Some(rev) = git_rev(Path::new(env!("CARGO_MANIFEST_DIR"))) {
            meta.insert("git_rev".to_string(), json!(rev));
        }
        meta.insert("kernel_isa".to_string(), json!(cati_nn::kernel_isa()));
        if let Value::Object(extra) = extra {
            for (k, v) in extra.iter() {
                meta.insert(k.clone(), v.clone());
            }
        }
        match self.recorder.write_manifest(path, &Value::Object(meta)) {
            Ok(()) => {
                eprintln!("[obs] wrote manifest {}", path.display());
                Some(path.clone())
            }
            Err(e) => {
                eprintln!("[obs] manifest write failed: {e}");
                None
            }
        }
    }
}

impl Drop for RunObs {
    /// Experiments that never call [`RunObs::finish`] still get their
    /// manifest written (with the standard meta only) on scope exit.
    fn drop(&mut self) {
        if !self.finished.get() {
            self.finish(&Value::Null);
        }
    }
}

fn runs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/runs")
}

/// A fully prepared experiment context.
pub struct Ctx {
    /// The corpus (train + test).
    pub corpus: Corpus,
    /// The trained system.
    pub cati: Cati,
    /// Labeled test-set extractions with the *stripped* feature view —
    /// the deployment posture (features from stripped code, labels
    /// from the unstripped twin for scoring).
    pub test: Dataset,
    /// Labeled training-set extractions (symbolized view).
    pub train: Dataset,
}

/// Parses `--cache-dir DIR` from `std::env::args`: the on-disk
/// content-addressed artifact cache shared by the experiments'
/// extraction (and inference embedding) phases. Absent flag means no
/// artifact cache; results are bit-identical either way.
pub fn artifact_cache_from_args() -> Option<ArtifactCache> {
    let args: Vec<String> = std::env::args().collect();
    let dir = args
        .windows(2)
        .find(|w| w[0] == "--cache-dir")
        .map(|w| w[1].clone())?;
    match ArtifactCache::open(&dir) {
        Ok(cache) => Some(cache),
        Err(e) => {
            eprintln!("[obs] cannot open artifact cache {dir}: {e}");
            None
        }
    }
}

/// Builds the corpus and trains the model for `scale` and `compiler`.
/// `obs` receives the context-preparation telemetry: `ctx.*` spans,
/// extraction counters and training events.
pub fn load_ctx_observed(scale: Scale, compiler: Compiler, obs: &dyn Observer) -> Ctx {
    let config = scale.config();
    let corpus_cfg = scale.corpus(SEED).with_compiler(compiler);
    cati::obs::info!(
        obs,
        "building corpus ({}, {})...",
        scale.name(),
        compiler.name()
    );
    let corpus = {
        let _span = cati::obs::SpanGuard::enter(obs, "ctx.corpus");
        build_corpus(&corpus_cfg)
    };
    cati::obs::info!(
        obs,
        "{} train binaries, {} test binaries",
        corpus.train.len(),
        corpus.test.len()
    );
    cati::obs::info!(obs, "training model...");
    let cati = Cati::train(&corpus.train, &config, obs);
    cati::obs::info!(obs, "extracting test set...");
    let artifacts = artifact_cache_from_args();
    let _span = cati::obs::SpanGuard::enter(obs, "ctx.extract_test");
    let test =
        Dataset::from_binaries_cached(&corpus.test, FeatureView::Stripped, artifacts.as_ref(), obs);
    let train = Dataset::from_binaries_cached(
        &corpus.train,
        FeatureView::WithSymbols,
        artifacts.as_ref(),
        obs,
    );
    Ctx {
        corpus,
        cati,
        test,
        train,
    }
}

/// One accuracy for a run manifest: the confusion's accuracy with its
/// sample count `n`.
pub fn scored(m: &Confusion) -> Value {
    json!({ "accuracy": m.accuracy(), "n": m.total() })
}

/// The 12 test application names, in the paper's column order.
pub const TEST_APPS: [&str; 12] = [
    "bash",
    "bison",
    "cflow",
    "gawk",
    "grep",
    "gzip",
    "inetutils",
    "less",
    "nano",
    "R",
    "sed",
    "wget",
];
