//! What every workload shares: seeded inputs, the model each one
//! trains, model save/load, accuracy, and disk accounting.

use cati::analysis::{extract_mode, FeatureView};
use cati::asm::Binary;
use cati::obs::{Event, Observer};
use cati::synbin::{build_corpus, BuiltBinary, Compiler, CorpusConfig, OptLevel};
use cati::{pipeline_accuracy, Cati, Config, ContextMode, InferredVar, StreamOptions};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Boxed error with a message; every failure ends the run.
pub type Res<T> = Result<T, String>;

/// Converts any displayable error into the run's error type.
pub fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// An observer that keeps counters and closed spans and drops all
/// other events: cheap enough to ride along a traced call.
#[derive(Debug, Default)]
pub struct Sink {
    counters: Mutex<BTreeMap<&'static str, u64>>,
    spans: Mutex<BTreeMap<String, f64>>,
}

impl Observer for Sink {
    fn event(&self, event: &Event<'_>) {
        match event {
            Event::Counter { name, delta } => {
                *self
                    .counters
                    .lock()
                    .expect("sink lock")
                    .entry(name)
                    .or_default() += delta;
            }
            Event::SpanClose { path, nanos, .. } => {
                *self
                    .spans
                    .lock()
                    .expect("sink lock")
                    .entry((*path).to_string())
                    .or_default() += *nanos as f64 / 1e6;
            }
            _ => {}
        }
    }
}

impl Sink {
    /// A counter's total (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("sink lock")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Total ms of the closed spans at `path`.
    pub fn span_ms(&self, path: &str) -> f64 {
        self.spans
            .lock()
            .expect("sink lock")
            .get(path)
            .copied()
            .unwrap_or(0.0)
    }
}

/// The inputs a workload generates from its seed.
pub struct Inputs {
    /// Binaries the workload's model trains on.
    pub train: Vec<BuiltBinary>,
    /// Labeled (unstripped) evaluation binaries.
    pub eval: Vec<BuiltBinary>,
    /// The stripped views of `eval`: what inference sees.
    pub stripped: Vec<Binary>,
}

impl Inputs {
    fn new(train: Vec<BuiltBinary>, eval: Vec<BuiltBinary>) -> Inputs {
        let stripped = eval.iter().map(|b| b.binary.strip()).collect();
        Inputs {
            train,
            eval,
            stripped,
        }
    }
}

/// Mixes a seed with a stream index, so sub-corpora never share
/// generator streams.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Seed of the inputs whose size sets the measured work: the test
/// binaries of infer_batch, the request pool of serve_http and the
/// training corpus of train_stream. Generating them from the run seed
/// would make the work itself differ from run to run; the run seed
/// instead varies the models (their training corpora and RNG streams)
/// and the request draws.
const FIXED_SEED: u64 = 2020;

/// A configuration whose every RNG stream derives from `seed`.
fn seeded(config: Config, seed: u64) -> Config {
    let mut config = config;
    config.seed = seed;
    config.w2v.seed = sub_seed(seed, 99);
    config
}

/// infer_batch: a model trained on part of a seeded medium corpus, and
/// fixed stripped test binaries of medium-shaped corpora at every
/// optimization level under both compilers.
pub fn infer_inputs(seed: u64) -> Inputs {
    let train = build_corpus(&CorpusConfig {
        train_projects: 3,
        ..CorpusConfig::medium(sub_seed(seed, 0))
    })
    .train;
    let mut eval = Vec::new();
    let mut stream = 1;
    for compiler in Compiler::ALL {
        for opt in OptLevel::ALL {
            let corpus = build_corpus(&CorpusConfig {
                compiler,
                train_projects: 0,
                opt_levels: vec![opt],
                seed: sub_seed(FIXED_SEED, stream),
                scale: 0.25,
            });
            eval.extend(corpus.test);
            stream += 1;
        }
    }
    Inputs::new(train, eval)
}

/// The infer_batch model: medium layer widths, trained with a capped
/// budget so set-up stays a few seconds.
pub fn infer_config(seed: u64) -> Config {
    let config = Config {
        epochs: 2,
        max_stage_samples: 6_000,
        max_sentences: 1_500,
        ..Config::medium()
    };
    seeded(config, seed)
}

/// serve_http: a small interprocedural model trained on a seeded
/// corpus, and a fixed request pool of small-corpus test binaries from
/// both compilers.
pub fn serve_inputs(seed: u64) -> Inputs {
    let train = build_corpus(&CorpusConfig {
        train_projects: 12,
        ..CorpusConfig::small(sub_seed(seed, 0))
    })
    .train;
    let mut eval = Vec::new();
    for (stream, compiler) in (1..).zip(Compiler::ALL) {
        let corpus = build_corpus(&CorpusConfig {
            train_projects: 0,
            ..CorpusConfig::small(sub_seed(FIXED_SEED, stream)).with_compiler(compiler)
        });
        eval.extend(corpus.test);
    }
    Inputs::new(train, eval)
}

/// The serve_http model: small widths, interprocedural context.
pub fn serve_config(seed: u64) -> Config {
    let config = Config {
        epochs: 3,
        max_stage_samples: 8_000,
        ..Config::small()
    };
    seeded(config.with_context_mode(ContextMode::Interprocedural), seed)
}

/// train_stream: a few hundred generated training binaries and the
/// corpus's held-out test binaries, both fixed.
pub fn train_inputs() -> Inputs {
    let corpus = build_corpus(&CorpusConfig {
        train_projects: 12,
        scale: 1.5,
        ..CorpusConfig::medium(FIXED_SEED)
    });
    Inputs::new(corpus.train, corpus.test)
}

/// The train_stream job: small widths with the sample cap raised, its
/// RNG streams seeded by the run.
pub fn train_config(seed: u64) -> Config {
    let config = Config {
        max_stage_samples: 12_000,
        max_sentences: 8_000,
        ..Config::small()
    };
    seeded(config, seed)
}

/// Trains with the streamed (out-of-core) trainer into `dir`.
pub fn train(inputs: &[BuiltBinary], config: &Config, dir: &Path) -> Res<Cati> {
    let _ = std::fs::remove_dir_all(dir);
    Cati::train_streamed(
        inputs,
        config,
        dir,
        StreamOptions::default(),
        &cati::obs::NOOP,
    )
    .map_err(err("streamed training"))?
    .ok_or_else(|| "streamed training paused before its last epoch".to_string())
}

/// Saves `cati` as a CATI1 container at `path` and loads it back:
/// `(loaded, save_ms, load_ms, bytes)`.
pub fn save_load(cati: &Cati, path: &Path) -> Res<(Cati, f64, f64, u64)> {
    let t = Instant::now();
    cati.save(path).map_err(err("save model"))?;
    let save_ms = secs(t) * 1e3;
    let t = Instant::now();
    let loaded = Cati::load(path).map_err(err("load model"))?;
    let load_ms = secs(t) * 1e3;
    let bytes = std::fs::metadata(path).map_err(err("model size"))?.len();
    Ok((loaded, save_ms, load_ms, bytes))
}

/// Bytes of all regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Held-out accuracy of `cati` on labeled binaries:
/// `(var_accuracy, var_n, vuc_accuracy, vuc_n)`.
pub fn accuracy(cati: &Cati, labeled: &[BuiltBinary]) -> Res<(f64, u64, f64, u64)> {
    let (mut var_ok, mut var_n, mut vuc_ok, mut vuc_n) = (0.0, 0u64, 0.0, 0u64);
    for b in labeled {
        let ex = extract_mode(
            &b.binary,
            FeatureView::WithSymbols,
            cati.config.context_mode,
        )
        .map_err(err("labeled extraction"))?;
        let (vuc_acc, vn, var_acc, rn) = pipeline_accuracy(cati, &ex);
        vuc_ok += vuc_acc * vn as f64;
        vuc_n += vn;
        var_ok += var_acc * rn as f64;
        var_n += rn;
    }
    if var_n == 0 || vuc_n == 0 {
        return Err("no labeled variables to score".to_string());
    }
    Ok((var_ok / var_n as f64, var_n, vuc_ok / vuc_n as f64, vuc_n))
}

/// `Cati::infer` over every binary.
pub fn infer_all(cati: &Cati, bins: &[Binary]) -> Res<Vec<Vec<InferredVar>>> {
    bins.iter()
        .map(|b| cati.infer(b).map_err(err("inference")))
        .collect()
}

/// Whether two inference outputs are bitwise identical.
pub fn same_bits(a: &[InferredVar], b: &[InferredVar]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.key == y.key
                && x.class == y.class
                && x.vuc_count == y.vuc_count
                && x.confidence.to_bits() == y.confidence.to_bits()
        })
}

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.bench_work/<name>-<pid>` under the current directory.
    pub fn create(name: &str) -> Res<WorkDir> {
        let dir = PathBuf::from(".bench_work").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(err("create work dir"))?;
        Ok(WorkDir(dir))
    }

    /// A path inside the work directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // `.bench_work` goes too once no other run still uses it.
        let _ = self.0.parent().map(std::fs::remove_dir);
    }
}
