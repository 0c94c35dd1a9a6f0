//! Traced runs: the program's two entry points — streamed training and
//! inference — re-composed from the public call of each layer and
//! timed one call at a time, plus the kernel and cache probes. Each
//! composition is checked bitwise against the entry point it splits.

use crate::ledger::Ledger;
use crate::report::Report;
use crate::setup::{dir_bytes, err, same_bits, Res, Sink};
use cati::analysis::{digest_bytes, extract_mode, extract_mode_observed, FeatureView, VUC_LEN};
use cati::asm::{Binary, GenInsn};
use cati::dataset::embed_extraction;
use cati::dwarf::{StageId, TypeClass};
use cati::embedding::{VucEmbedder, Word2Vec};
use cati::nn::layers::{Conv1d, Dense, LANES};
use cati::nn::{ParamBuf, Tensor};
use cati::synbin::BuiltBinary;
use cati::{
    embedder_fingerprint, embedding_sentences, ArtifactCache, Cati, CheckpointDir, Config, Dataset,
    InferredVar, MultiStage, ShardSet, ShardWriter, StreamOptions, TrainIdentity,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::hint::black_box;
use std::path::Path;

/// Ledger names of the six stage passes.
fn stage_call(stage: StageId) -> String {
    format!("core.stage.{stage}")
}

/// What a traced training run leaves behind besides its ledger.
pub struct TrainTrace {
    /// The composed model.
    pub cati: Cati,
    /// Per-call wall time.
    pub ledger: Ledger,
    /// Counters and the trainer's own `train.<stage>` spans.
    pub sink: Sink,
    /// Shard rows written.
    pub rows: u64,
}

/// [`Cati::train_streamed`] from scratch, split into its layers:
/// extract → Word2Vec → embedder checkpoint → embed rows / write
/// shards → verify → train. Mirrors `write_dataset_shards` row for row,
/// so the model must encode byte-identical to the untraced one.
pub fn traced_train(train: &[BuiltBinary], config: &Config, dir: &Path) -> Res<TrainTrace> {
    let _ = std::fs::remove_dir_all(dir);
    let mut ledger = Ledger::default();
    let sink = Sink::default();
    let (cati, rows) = config.with_threads(|| -> Res<(Cati, u64)> {
        ledger.begin();
        let dataset = ledger.time("analysis.train_extract", || {
            Dataset::from_binaries_mode(
                train,
                FeatureView::WithSymbols,
                config.context_mode,
                None,
                &cati::obs::NOOP,
            )
        });
        let embedder = ledger.time("embedding.word2vec", || {
            let mut rng = StdRng::seed_from_u64(config.seed);
            let sentences = embedding_sentences(train, config.max_sentences, &mut rng);
            VucEmbedder::new(Word2Vec::train(&sentences, config.w2v))
        });
        let ckpt = ledger.time("core.checkpoint", || {
            let ckpt = CheckpointDir::open(dir)?;
            ckpt.save_embedder(&embedder)?;
            Ok::<_, cati::CheckpointError>(ckpt)
        });
        let ckpt = ckpt.map_err(err("embedder checkpoint"))?;
        let shards_dir = ckpt.shards_dir();
        let mut writer = ledger
            .time("core.shard_write", || {
                ShardWriter::create(&shards_dir, embedder.embed_dim() * VUC_LEN, 0)
            })
            .map_err(err("shard writer"))?;
        let labeled: Vec<(&cati::analysis::Extraction, usize, u8)> =
            ledger.time("core.shard_write", || {
                dataset
                    .entries
                    .iter()
                    .flat_map(|(_, ex)| {
                        ex.vucs.iter().enumerate().filter_map(move |(v, vuc)| {
                            Some((ex, v, vuc.class(&ex.vars)?.index() as u8))
                        })
                    })
                    .collect()
            });
        // The chunk size of `write_dataset_shards`.
        for chunk in labeled.chunks(1024) {
            let rows: Vec<(u8, Vec<f32>)> = ledger.time("embedding.train_embed", || {
                chunk
                    .par_iter()
                    .map(|&(ex, v, class)| (class, embedder.embed_window(&ex.vucs[v].insns)))
                    .collect()
            });
            ledger
                .time("core.shard_write", || {
                    rows.iter()
                        .try_for_each(|(class, row)| writer.push(*class, row))
                })
                .map_err(err("shard write"))?;
        }
        let rows = ledger
            .time("core.shard_write", || {
                writer.finish(&embedder_fingerprint(&embedder).to_string())
            })
            .map_err(err("shard seal"))?;
        let shards = ledger
            .time("core.shard_verify", || ShardSet::open(&shards_dir))
            .map_err(err("shard verify"))?;
        let identity = TrainIdentity {
            config: digest_bytes(&serde_json::to_vec(config).map_err(err("config"))?).to_string(),
            data: shards.identity().to_string(),
        };
        let stages = ledger
            .time("core.train", || {
                MultiStage::train_streamed(
                    &shards,
                    config,
                    &ckpt,
                    &identity,
                    StreamOptions::default(),
                    &sink,
                )
            })
            .map_err(err("streamed stage training"))?
            .ok_or("stage training paused")?;
        ledger.end();
        let cati = Cati {
            config: *config,
            embedder,
            stages,
        };
        Ok((cati, rows as u64))
    })?;
    Ok(TrainTrace {
        cati,
        ledger,
        sink,
        rows,
    })
}

/// Writes the training layers of a traced run into `rep`.
pub fn training_layers(rep: &mut Report, t: &TrainTrace, dir: &Path) {
    let l = &t.ledger;
    rep.set("analysis.train_extract_ms", l.ms("analysis.train_extract"));
    rep.set("embedding.word2vec_ms", l.ms("embedding.word2vec"));
    rep.set("embedding.train_embed_ms", l.ms("embedding.train_embed"));
    rep.set("core.shard_write_ms", l.ms("core.shard_write"));
    rep.set("core.shard_verify_ms", l.ms("core.shard_verify"));
    rep.set("core.train_ms", l.ms("core.train"));
    for stage in StageId::ALL {
        rep.set(
            format!("core.train.{stage}_ms"),
            t.sink.span_ms(&format!("train.{stage}")),
        );
    }
    let shard_bytes = dir_bytes(&dir.join("shards"));
    let all_bytes = dir_bytes(dir);
    rep.set(
        "core.shard_bytes_per_row",
        shard_bytes as f64 / t.rows.max(1) as f64,
    );
    rep.set("core.checkpoint_bytes", (all_bytes - shard_bytes) as f64);
    rep.note("train.shard_rows", t.rows);
    rep.note("train.shard_bytes", shard_bytes);
    rep.note("train.checkpoint_write_ms", l.ms("core.checkpoint"));
    rep.note("train.wall_ms", l.wall_ms());
    rep.note("train.coverage_frac", l.coverage());
}

/// Counts gathered beside an inference ledger.
#[derive(Default)]
pub struct InferCounts {
    /// Binaries inferred.
    pub binaries: u64,
    /// Instructions decoded.
    pub insns: u64,
    /// Non-blank window slots cut (each generalizes one instruction).
    pub slots: u64,
    /// Embedded rows (VUCs).
    pub rows: u64,
}

/// [`Cati::infer`] over `bins`, split into decode → extract → embed →
/// six stage passes → leaf product → vote. Decode runs as a probe:
/// extraction decodes again inside, so its self time is extract minus
/// decode.
pub fn traced_infer(
    cati: &Cati,
    bins: &[Binary],
    ledger: &mut Ledger,
    sink: &Sink,
    counts: &mut InferCounts,
) -> Res<Vec<Vec<InferredVar>>> {
    let mode = cati.config.context_mode;
    let mut outputs = Vec::with_capacity(bins.len());
    let mut kept = Vec::with_capacity(bins.len());
    ledger.begin();
    for bin in bins {
        let insns = ledger
            .probe("asm.decode", || bin.disassemble())
            .map_err(err("decode"))?;
        let ex = ledger
            .time("analysis.extract", || {
                extract_mode_observed(bin, FeatureView::Stripped, mode, sink)
            })
            .map_err(err("extract"))?;
        let (vars, rows) = cati.config.with_threads(|| {
            let xs = ledger.time("embedding.embed", || embed_extraction(&ex, &cati.embedder));
            let per_stage: Vec<(StageId, Tensor)> = StageId::ALL
                .iter()
                .map(|&s| {
                    let probs =
                        ledger.time(&stage_call(s), || cati.stages.stage_probs_batch(s, &xs));
                    (s, probs)
                })
                .collect();
            let dists = ledger.time("core.leaf_product", || leaf_product(&per_stage, xs.rows()));
            let vars = ledger.time("core.vote", || cati.infer_prepared(&ex, dists, sink));
            (vars, xs.rows())
        });
        counts.insns += insns.len() as u64;
        counts.rows += rows as u64;
        outputs.push(vars);
        kept.push(ex);
    }
    ledger.end();
    counts.binaries += bins.len() as u64;
    let blank = GenInsn::blank();
    counts.slots += kept
        .iter()
        .flat_map(|ex| &ex.vucs)
        .flat_map(|v| &v.insns)
        .filter(|g| **g != blank)
        .count() as u64;
    Ok(outputs)
}

/// The root-to-leaf products of `MultiStage::leaf_distributions_batch`,
/// from the six per-stage probability tables, in the same order.
fn leaf_product(per_stage: &[(StageId, Tensor)], n: usize) -> Tensor {
    let mut out = Tensor::zeros(n, TypeClass::ALL.len());
    for i in 0..n {
        let prob = |stage: StageId, label: usize| -> f32 {
            per_stage
                .iter()
                .find(|(s, _)| *s == stage)
                .map(|(_, p)| p.row(i)[label])
                .unwrap_or(0.0)
        };
        for (slot, &class) in out.row_mut(i).iter_mut().zip(TypeClass::ALL.iter()) {
            *slot = StageId::path_of(class)
                .into_iter()
                .map(|(stage, label)| prob(stage, label))
                .product();
        }
    }
    out
}

/// Gates a traced inference against the entry point's outputs.
pub fn gate_infer(rep: &mut Report, traced: &[Vec<InferredVar>], reference: &[Vec<InferredVar>]) {
    let mismatch = traced
        .iter()
        .zip(reference)
        .position(|(a, b)| !same_bits(a, b));
    let ok = traced.len() == reference.len() && mismatch.is_none();
    let detail = match mismatch {
        Some(i) => format!("binary {i} differs"),
        None => format!("{} binaries bitwise equal", traced.len()),
    };
    rep.gate("traced inference == Cati::infer", ok, detail);
}

/// Writes the inference layers of a traced run into `rep`.
pub fn inference_layers(rep: &mut Report, l: &Ledger, sink: &Sink, c: &InferCounts) {
    let decode = l.ms("asm.decode");
    rep.set("asm.decode_ms", decode);
    rep.set("analysis.extract_ms", l.ms("analysis.extract") - decode);
    rep.set(
        "analysis.generalize_per_insn",
        c.slots as f64 / c.insns.max(1) as f64,
    );
    let embed = l.ms("embedding.embed");
    rep.set("embedding.embed_ms", embed);
    rep.set(
        "embedding.rows_per_s",
        c.rows as f64 / (embed / 1e3).max(1e-9),
    );
    let mut classify = l.ms("core.leaf_product");
    for stage in StageId::ALL {
        let ms = l.ms(&stage_call(stage));
        classify += ms;
        rep.set(format!("{}_ms", stage_call(stage)), ms);
    }
    rep.set("core.leaf_product_ms", l.ms("core.leaf_product"));
    rep.set("core.classify_ms", classify);
    rep.set("core.vote_ms", l.ms("core.vote"));
    let considered = sink.counter("vote.considered");
    rep.note(
        "infer.vote_clipped_frac",
        sink.counter("vote.clipped") as f64 / considered.max(1) as f64,
    );
    rep.note("infer.vote_considered", considered);
    let padded = sink.counter("extract.windows_padded");
    let spliced = sink.counter("extract.windows_spliced");
    rep.note(
        "infer.windows_spliced_frac",
        spliced as f64 / (padded + spliced).max(1) as f64,
    );
    rep.note("infer.binaries", c.binaries);
    rep.note("infer.rows", c.rows);
    rep.note("infer.decoded_insns", c.insns);
}

/// Deterministic filler in [-1, 1) for kernel probes (the kernels have
/// no data-dependent branches, so values only need to be ordinary).
fn filler(len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 7919 % 2003) as f32 / 1001.5) - 1.0)
        .collect()
}

/// Runs `tiles` calls of `kernel`, spread over the available cores the
/// way `TextCnn::predict_batch` spreads its tiles.
fn tiled(tiles: usize, kernel: impl Fn(&mut Vec<f32>) + Sync) {
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    std::thread::scope(|s| {
        for w in 0..workers {
            let kernel = &kernel;
            s.spawn(move || {
                let mut out = Vec::new();
                for _ in (w..tiles).step_by(workers) {
                    kernel(&mut out);
                    black_box(&out);
                }
            });
        }
    });
}

/// Times the CNN kernels — `Conv1d::forward_lanes` and
/// `Dense::forward_batch` — with every stage model's weights and shapes
/// over as many full lane tiles as `rows` embedded VUCs make. Returns
/// the GFLOP of the classification pass those rows need.
pub fn nn_probe(cati: &Cati, rows: u64, ledger: &mut Ledger) -> f64 {
    let tiles = rows as usize / LANES;
    let mut flops = 0.0;
    for (_, cnn) in cati.stages.models() {
        let cfg = cnn.cfg;
        let p = cnn.params();
        let (len, len2, len4) = (cfg.seq_len, cfg.seq_len / 2, cfg.seq_len / 4);
        let conv = |i: usize, in_ch: usize, out_ch: usize| Conv1d {
            in_ch,
            out_ch,
            k: p[i].len() / (in_ch * out_ch).max(1),
            w: ParamBuf::from(p[i].to_vec()),
            b: ParamBuf::from(p[i + 1].to_vec()),
        };
        let dense = |i: usize, in_dim: usize, out_dim: usize| Dense {
            in_dim,
            out_dim,
            w: ParamBuf::from(p[i].to_vec()),
            b: ParamBuf::from(p[i + 1].to_vec()),
        };
        let conv1 = conv(0, cfg.embed_dim, cfg.conv1);
        let conv2 = conv(2, cfg.conv1, cfg.conv2);
        let fc1 = dense(4, cfg.conv2 * len4, cfg.fc);
        let fc2 = dense(6, cfg.fc, cfg.classes);
        let x1 = filler(cfg.embed_dim * len * LANES);
        let x2 = filler(cfg.conv1 * len2 * LANES);
        let x3 = filler(cfg.conv2 * len4 * LANES);
        let x4 = filler(cfg.fc * LANES);
        ledger.probe("nn.conv1", || {
            tiled(tiles, |out| conv1.forward_lanes(&x1, len, out));
        });
        ledger.probe("nn.conv2", || {
            tiled(tiles, |out| conv2.forward_lanes(&x2, len2, out));
        });
        ledger.probe("nn.fc", || {
            tiled(tiles, |out| {
                fc1.forward_batch(&x3, out);
                fc2.forward_batch(&x4, out);
            });
        });
        let macs = conv1.w.len() * len + conv2.w.len() * len2 + fc1.w.len() + fc2.w.len();
        flops += 2.0 * macs as f64 * rows as f64;
    }
    flops / 1e9
}

/// Artifact cache against recomputing, on `bins`: fills a fresh cache,
/// then times a warm read of every extraction and embedding against
/// extracting and embedding afresh. Returns whether both sides agreed
/// on every binary.
pub fn cache_probe(cati: &Cati, bins: &[Binary], dir: &Path, ledger: &mut Ledger) -> Res<bool> {
    let _ = std::fs::remove_dir_all(dir);
    let cache = ArtifactCache::open(dir).map_err(err("open artifact cache"))?;
    let mode = cati.config.context_mode;
    let view = FeatureView::Stripped;
    let noop = &cati::obs::NOOP;
    let cached = |b: &Binary| -> Res<(cati::analysis::Extraction, Tensor)> {
        let ex = cache
            .extraction_mode(b, view, mode, noop)
            .map_err(err("cached extraction"))?;
        let xs = cache.embeddings_mode(b, view, mode, &cati.embedder, &ex, noop);
        Ok((ex, xs))
    };
    for b in bins {
        cached(b)?;
    }
    let mut same = true;
    for b in bins {
        let warm = ledger.probe("cache.warm", || cached(b))?;
        let fresh = ledger.probe("cache.recompute", || {
            extract_mode(b, view, mode).map(|ex| {
                let xs = embed_extraction(&ex, &cati.embedder);
                (ex, xs)
            })
        });
        let fresh = fresh.map_err(err("extraction"))?;
        same &= warm == fresh;
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(same)
}

/// Writes the kernel and cache probes into `rep`.
pub fn probe_layers(rep: &mut Report, l: &Ledger, gflop: f64, cache_n: usize) {
    rep.set("nn.conv1_ms", l.ms("nn.conv1"));
    rep.set("nn.conv2_ms", l.ms("nn.conv2"));
    rep.set("nn.fc_ms", l.ms("nn.fc"));
    rep.set("nn.gflop", gflop);
    let (warm, fresh) = (l.ms("cache.warm"), l.ms("cache.recompute"));
    rep.set("cache.warm_ms", warm);
    rep.set("cache.recompute_ms", fresh);
    rep.set("cache.warm_over_recompute", warm / fresh.max(1e-9));
    rep.note("cache.binaries", cache_n as u64);
}

/// A traced set-up: the model a workload uses, and how its traced
/// training compared with the untraced trainer.
pub struct TracedSetup {
    /// The workload's inputs.
    pub inputs: crate::setup::Inputs,
    /// The model, loaded back from its CATI1 container.
    pub cati: Cati,
    /// Wall ms of the untraced `Cati::train_streamed`.
    pub train_untraced_ms: f64,
    /// The traced training's ledger.
    pub train_ledger: Ledger,
}

/// The set-up of every traced run: generate inputs, train once with
/// `Cati::train_streamed` and once through [`traced_train`] (gated to
/// encode byte-identical), then save and load the model.
pub fn traced_setup(
    rep: &mut Report,
    generate: impl FnOnce() -> crate::setup::Inputs,
    config: &Config,
    work: &crate::setup::WorkDir,
) -> Res<TracedSetup> {
    use crate::setup::{save_load, secs, train};
    use std::time::Instant;
    let t = Instant::now();
    let inputs = generate();
    rep.set("synbin.generate_ms", secs(t) * 1e3);
    let t = Instant::now();
    let reference = train(&inputs.train, config, &work.join("ckpt-untraced"))?;
    let train_untraced_ms = secs(t) * 1e3;
    let dir = work.join("ckpt-traced");
    let traced = traced_train(&inputs.train, config, &dir)?;
    let reference_bytes = cati::encode_cati1(&reference);
    let same = cati::encode_cati1(&traced.cati) == reference_bytes;
    rep.gate(
        "traced training encodes == Cati::train_streamed",
        same,
        format!("{} CATI1 bytes", reference_bytes.len()),
    );
    training_layers(rep, &traced, &dir);
    let (cati, save_ms, load_ms, bytes) = save_load(&traced.cati, &work.join("model.cati"))?;
    rep.gate(
        "model round trip",
        cati::encode_cati1(&cati) == reference_bytes,
        "CATI1 save/load",
    );
    rep.set("core.model_save_ms", save_ms);
    rep.set("core.model_load_ms", load_ms);
    rep.set("core.model_bytes", bytes as f64);
    rep.note("train.binaries", inputs.train.len() as u64);
    rep.note("train.untraced_ms", train_untraced_ms);
    Ok(TracedSetup {
        inputs,
        cati,
        train_untraced_ms,
        train_ledger: traced.ledger,
    })
}

/// The traced inference, kernel and cache layers over `bins`, gated
/// against `reference` (the entry point's outputs on the same
/// binaries). Returns the inference ledger for coverage.
pub fn inference_trace(
    rep: &mut Report,
    cati: &Cati,
    bins: &[Binary],
    reference: &[Vec<InferredVar>],
    work: &crate::setup::WorkDir,
) -> Res<Ledger> {
    let mut ledger = Ledger::default();
    let sink = Sink::default();
    let mut counts = InferCounts::default();
    let traced = traced_infer(cati, bins, &mut ledger, &sink, &mut counts)?;
    gate_infer(rep, &traced, reference);
    inference_layers(rep, &ledger, &sink, &counts);
    let mut probes = Ledger::default();
    let gflop = nn_probe(cati, counts.rows, &mut probes);
    let same = cache_probe(cati, bins, &work.join("artifact-cache"), &mut probes)?;
    rep.gate(
        "warm artifact cache == recompute",
        same,
        format!("{} binaries", bins.len()),
    );
    probe_layers(rep, &probes, gflop, bins.len());
    Ok(ledger)
}
