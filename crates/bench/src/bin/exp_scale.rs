//! Out-of-core scale: the learning curve and the flat-memory claim.
//!
//! The paper trains on 2,141 binaries held entirely in memory. The
//! streaming substrate (DESIGN.md §16) removes that ceiling: corpora
//! are generated chunk by chunk, embedded straight into on-disk
//! shards, and trained from those shards with only the model, one
//! minibatch, and the sample plan resident. This experiment proves
//! both halves at once, on a ladder of corpus sizes whose top rung is
//! **10× the paper** (21,410 binaries, grown from the profile matrix
//! at O0–O3 plus duplicate-symbol hostile mutants as augmentation):
//!
//! - the learning curve — held-out accuracy per corpus size — goes in
//!   `BENCH_scale.json`, and
//! - each rung runs in its own subprocess whose `VmHWM` is recorded,
//!   so the report shows peak RSS staying ~flat while the corpus
//!   grows 10×.
//!
//! `--scale` picks the ladder, not the training config (every rung
//! trains the same small CNN so the curve isolates corpus size):
//! small = CI seconds, medium = a minute, paper = the 2,141 → 21,410
//! headline ladder (~10 minutes, ~5 GB of shards under `target/`).
//!
//! ```sh
//! cargo run --release -p cati-bench --bin exp_scale -- --scale paper
//! ```

use cati::obs::NOOP;
use cati::{
    embedding_sentences, pipeline_accuracy, Cati, CheckpointDir, Config, Dataset, MultiStage,
    ShardSet, ShardWriter, StreamOptions, TrainIdentity,
};
use cati_analysis::FeatureView;
use cati_bench::{RunObs, Scale, SEED};
use cati_embedding::{VucEmbedder, Word2Vec};
use cati_synbin::{
    build_app, build_corpus, mutate, AppProfile, BuiltBinary, CodegenOptions, CorpusConfig,
    MutationKind, OptLevel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde_json::{json, Value};
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// Binaries generated and embedded per chunk — the out-of-core unit.
/// Memory per rung is O(chunk), never O(corpus).
const CHUNK_BINS: usize = 256;

/// One hostile mutant rides along per this many generated binaries.
const MUTANT_EVERY: usize = 8;

/// Shard granularity: ~88 MB per file at the experiment's row width.
const ROWS_PER_SHARD: usize = 131_072;

/// Every rung trains this exact config, so the learning curve varies
/// only the corpus. Caps are raised over [`Config::small`] so a
/// larger corpus can actually show up as more diverse samples.
fn scale_config() -> Config {
    Config {
        max_stage_samples: 12_000,
        max_sentences: 4_000,
        ..Config::small()
    }
}

/// Corpus-size ladder per `--scale`; the top paper rung is 10× the
/// paper's 2,141 training binaries.
fn rungs(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Small => vec![60, 120, 240],
        Scale::Medium => vec![535, 1_070, 2_141],
        Scale::Paper => vec![2_141, 4_282, 10_705, 21_410],
    }
}

fn workspace_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// Deterministic chunked corpus generator: cycles the 24-project
/// profile matrix across all four optimization levels, splicing in a
/// duplicate-symbol mutant every [`MUTANT_EVERY`] binaries, until
/// `target` binaries have been yielded. Only one chunk is ever alive.
struct CorpusStream {
    rng: StdRng,
    profiles: Vec<AppProfile>,
    cursor: usize,
    produced: usize,
    mutants: usize,
    target: usize,
}

impl CorpusStream {
    fn new(target: usize, seed: u64) -> CorpusStream {
        CorpusStream {
            rng: StdRng::seed_from_u64(seed),
            profiles: AppProfile::training_projects(24),
            cursor: 0,
            produced: 0,
            mutants: 0,
            target,
        }
    }

    /// The next chunk of up to [`CHUNK_BINS`] binaries, or `None`
    /// once `target` have been produced.
    fn next_chunk(&mut self) -> Option<Vec<BuiltBinary>> {
        if self.produced >= self.target {
            return None;
        }
        let mut chunk: Vec<BuiltBinary> =
            Vec::with_capacity(CHUNK_BINS + CHUNK_BINS / MUTANT_EVERY);
        while self.produced < self.target && chunk.len() < CHUNK_BINS {
            let profile = &self.profiles[self.cursor % self.profiles.len()];
            let opt = OptLevel::ALL[(self.cursor / self.profiles.len()) % OptLevel::ALL.len()];
            self.cursor += 1;
            let opts = CodegenOptions {
                compiler: cati_synbin::Compiler::Gcc,
                opt,
            };
            for built in build_app(profile, opts, 1.0, &mut self.rng) {
                if self.produced >= self.target {
                    break;
                }
                // Hostile augmentation: a duplicate-symbol mutant of
                // every MUTANT_EVERY-th binary joins the corpus (its
                // debug info survives, so its VUCs stay labeled).
                if self.produced % MUTANT_EVERY == MUTANT_EVERY - 1 {
                    let (mutant, record) = mutate(
                        &built.binary,
                        MutationKind::DuplicateSymbols,
                        self.produced as u64,
                    );
                    chunk.push(BuiltBinary {
                        binary: mutant,
                        app: format!("{}+{}", built.app, record.kind),
                        opts: built.opts,
                    });
                    self.mutants += 1;
                    self.produced += 1;
                    if self.produced >= self.target {
                        chunk.push(built);
                        self.produced += 1;
                        break;
                    }
                }
                chunk.push(built);
                self.produced += 1;
            }
        }
        Some(chunk)
    }
}

/// One rung, run inside its own subprocess so `VmHWM` measures
/// exactly this corpus size. Prints a single JSON line to stdout.
fn child_main(target: usize) {
    let config = scale_config();
    let work = workspace_path(&format!("target/cati-cache/scale/rung_{target}"));
    std::fs::remove_dir_all(&work).ok();
    let ckpt = CheckpointDir::open(&work).expect("open checkpoint dir");
    let shards_dir = ckpt.shards_dir();

    // Pass 1 over the stream: embed every labeled VUC straight into
    // on-disk shards. The Word2Vec embedder trains on sentences from
    // the first chunk only — a bounded sample whatever the corpus
    // size, exactly like `max_sentences` bounds the in-memory path.
    let t_all = Instant::now();
    let mut stream = CorpusStream::new(target, SEED ^ 0x5ca1e);
    let mut sentence_rng = StdRng::seed_from_u64(SEED);
    let mut writer: Option<ShardWriter> = None;
    let mut embedder: Option<VucEmbedder> = None;
    let (mut skipped, mut chunks) = (0usize, 0usize);
    while let Some(chunk) = stream.next_chunk() {
        chunks += 1;
        let emb = embedder.get_or_insert_with(|| {
            let sentences = embedding_sentences(&chunk, config.max_sentences, &mut sentence_rng);
            VucEmbedder::new(Word2Vec::train(&sentences, config.w2v))
        });
        let cols = emb.embed_dim() * cati_analysis::VUC_LEN;
        let writer = match writer.as_mut() {
            Some(w) => w,
            None => writer
                .insert(ShardWriter::create(&shards_dir, cols, ROWS_PER_SHARD).expect("shards")),
        };
        // Mutant extraction may legitimately fail; base binaries are
        // our own linker's output and must not.
        let exs: Vec<cati_analysis::Extraction> = chunk
            .par_iter()
            .map(|b| cati_analysis::extract(&b.binary, FeatureView::WithSymbols).ok())
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .collect();
        skipped += chunk.len() - exs.len();
        let labeled: Vec<(&cati_analysis::Extraction, usize, u8)> = exs
            .iter()
            .flat_map(|ex| {
                ex.vucs.iter().enumerate().filter_map(move |(v, vuc)| {
                    let class = vuc.class(&ex.vars)?;
                    Some((ex, v, class.index() as u8))
                })
            })
            .collect();
        for batch in labeled.chunks(1024) {
            let rows: Vec<(u8, Vec<f32>)> = batch
                .par_iter()
                .map(|&(ex, v, class)| (class, emb.embed_window(&ex.vucs[v].insns)))
                .collect();
            for (class, row) in &rows {
                writer.push(*class, row).expect("push row");
            }
        }
        eprintln!(
            "[rung {target}] chunk {chunks}: {} binaries streamed, {} rows on disk",
            stream.produced,
            writer.rows()
        );
    }
    let embedder = embedder.expect("empty corpus");
    let fingerprint = cati::embedder_fingerprint(&embedder).to_string();
    let rows = writer
        .expect("no shards written")
        .finish(&fingerprint)
        .expect("finish shards");
    let stage_s = t_all.elapsed().as_secs_f64();

    // Open re-verifies every shard digest — the integrity gate a
    // resumed run would pass through.
    let t = Instant::now();
    let shards = ShardSet::open(&shards_dir).expect("open shards");
    let verify_s = t.elapsed().as_secs_f64();
    let shard_bytes: u64 = std::fs::read_dir(&shards_dir)
        .expect("shards dir")
        .filter_map(|e| e.ok())
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();

    let identity = TrainIdentity {
        config: cati_analysis::digest_bytes(&serde_json::to_vec(&config).expect("config json"))
            .to_string(),
        data: shards.identity().to_string(),
    };
    let t = Instant::now();
    let stages = MultiStage::train_streamed(
        &shards,
        &config,
        &ckpt,
        &identity,
        StreamOptions::default(),
        &NOOP,
    )
    .expect("streamed training")
    .expect("full run");
    let train_s = t.elapsed().as_secs_f64();

    // Held-out accuracy on the fixed 12-app test set — the same
    // binaries at every rung, so the curve is comparable.
    let t = Instant::now();
    let cati = Cati {
        config,
        embedder,
        stages,
    };
    let test = build_corpus(&CorpusConfig::small(SEED)).test;
    let test_ds = Dataset::from_binaries(&test, FeatureView::Stripped);
    let (mut vuc_ok, mut vuc_n, mut var_ok, mut var_n) = (0.0, 0u64, 0.0, 0u64);
    for (_, ex) in &test_ds.entries {
        let (va, vn, aa, an) = pipeline_accuracy(&cati, ex);
        vuc_ok += va * vn as f64;
        vuc_n += vn;
        var_ok += aa * an as f64;
        var_n += an;
    }
    let eval_s = t.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&work).ok();

    let peak_rss = cati::obs::peak_rss_bytes().unwrap_or(0);
    println!(
        "{}",
        json!({
            "binaries": stream.produced,
            "mutants": stream.mutants,
            "mutants_skipped": skipped,
            "rows": rows,
            "shard_bytes": shard_bytes,
            "stream_s": stage_s,
            "verify_s": verify_s,
            "train_s": train_s,
            "eval_s": eval_s,
            "vuc_accuracy": vuc_ok / vuc_n.max(1) as f64,
            "var_accuracy": var_ok / var_n.max(1) as f64,
            "test_vars": var_n,
            "peak_rss_bytes": peak_rss,
        })
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(w) = args.windows(2).find(|w| w[0] == "--child-rung") {
        child_main(w[1].parse().expect("rung size"));
        return;
    }

    let scale = Scale::from_args();
    let run = RunObs::from_args("exp_scale");
    let ladder = rungs(scale);
    let exe = std::env::current_exe().expect("current_exe");
    println!(
        "\nOut-of-core scale ({}; rungs {ladder:?} binaries; each in its own subprocess)\n",
        scale.name()
    );

    let mut results: Vec<Value> = Vec::new();
    for &target in &ladder {
        eprintln!("[scale] rung {target}...");
        let out = Command::new(&exe)
            .args(["--child-rung", &target.to_string()])
            .output()
            .expect("spawn rung subprocess");
        assert!(
            out.status.success(),
            "rung {target} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = String::from_utf8_lossy(&out.stdout);
        let line = line.trim().lines().last().expect("rung output");
        let record: Value = serde_json::from_str(line).expect("rung json");
        println!(
            "rung {target:>6}: {} rows, {:.1} MB shards, stream {:.1}s, train {:.1}s, \
             var-accuracy {:.3}, peak RSS {:.0} MB",
            record["rows"],
            record["shard_bytes"].as_u64().unwrap_or(0) as f64 / 1e6,
            record["stream_s"].as_f64().unwrap_or(0.0),
            record["train_s"].as_f64().unwrap_or(0.0),
            record["var_accuracy"].as_f64().unwrap_or(0.0),
            record["peak_rss_bytes"].as_u64().unwrap_or(0) as f64 / 1e6,
        );
        results.push(record);
    }

    // The headline: the corpus grew `corpus_growth`×, peak RSS only
    // `rss_growth`× — training memory is decoupled from corpus size.
    let field = |r: &Value, k: &str| r[k].as_u64().unwrap_or(0);
    let first = &results[0];
    let last = &results[results.len() - 1];
    let corpus_growth = field(last, "binaries") as f64 / field(first, "binaries").max(1) as f64;
    let rss_growth =
        field(last, "peak_rss_bytes") as f64 / field(first, "peak_rss_bytes").max(1) as f64;
    println!(
        "\ncorpus grew {corpus_growth:.1}x ({} -> {} binaries, {} -> {} rows); \
         peak RSS grew {rss_growth:.2}x ({:.0} -> {:.0} MB)",
        field(first, "binaries"),
        field(last, "binaries"),
        field(first, "rows"),
        field(last, "rows"),
        field(first, "peak_rss_bytes") as f64 / 1e6,
        field(last, "peak_rss_bytes") as f64 / 1e6,
    );
    if scale == Scale::Paper {
        assert!(
            field(last, "binaries") >= 21_410,
            "paper ladder must reach 10x the paper corpus"
        );
    }

    let rev = cati::obs::git_rev(std::path::Path::new("."));
    let stamped_ms = cati::obs::manifest::unix_ms();
    let report = json!({
        "experiment": "scale",
        "git_rev": rev.as_deref().unwrap_or("unknown"),
        "unix_ms": stamped_ms,
        "scale": scale.name(),
        "seed": SEED,
        "paper_train_binaries": 2_141,
        "config": scale_config(),
        "rungs": results,
        "corpus_growth": corpus_growth,
        "rss_growth": rss_growth,
        "note": "each rung is one subprocess: corpus generated in chunks, embedded into \
                 on-disk shards, trained out-of-core; peak_rss_bytes is the subprocess VmHWM",
    });
    let out = workspace_path("BENCH_scale.json");
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&report).expect("report json"),
    )
    .expect("write BENCH_scale.json");
    println!("wrote {}", out.display());
    run.finish(&json!({
        "experiment": "scale",
        "scale": scale.name(),
        "max_binaries": field(last, "binaries"),
        "corpus_growth": corpus_growth,
        "rss_growth": rss_growth,
    }));
}
