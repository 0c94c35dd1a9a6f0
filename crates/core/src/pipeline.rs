//! The end-to-end CATI pipeline: train on a corpus, evaluate on
//! labeled extractions, infer types from unseen stripped binaries.

use crate::artifact_cache::ArtifactCache;
use crate::checkpoint::{CheckpointDir, TrainIdentity};
use crate::config::Config;
use crate::dataset::{embedding_sentences, Dataset};
use crate::metrics::{Confusion, Prf};
use crate::multistage::{MultiStage, StreamError, StreamOptions};
use crate::session::EmbeddedExtraction;
use crate::shards::{write_dataset_shards, ShardError, ShardSet};
use crate::vote::{vote, VoteResult};
use cati_analysis::{
    extract_lenient_mode_observed, extract_mode_observed, Coverage, Diagnostics, ExtractError,
    Extraction, FeatureView, VarKey,
};
use cati_asm::binary::Binary;
use cati_dwarf::{StageId, TypeClass};
use cati_embedding::{VucEmbedder, Word2Vec};
use cati_nn::{argmax, Tensor};
use cati_obs::metrics::UNIT_BUCKETS;
use cati_obs::{Event, Observer, SpanGuard};
use cati_synbin::BuiltBinary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// A trained CATI system.
#[derive(Debug, Clone, PartialEq)]
pub struct Cati {
    /// Configuration used for training.
    pub config: Config,
    /// The instruction embedder.
    pub embedder: VucEmbedder,
    /// The six stage classifiers.
    pub stages: MultiStage,
}

/// Per-VUC and per-variable predictions for one extraction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Leaf distributions, one 19-class row per VUC.
    pub vuc_dists: Tensor,
    /// Argmax class of each VUC.
    pub vuc_preds: Vec<TypeClass>,
    /// Voted class of each variable (parallel to `Extraction::vars`).
    pub var_preds: Vec<TypeClass>,
    /// The full Eq. 4 vote of each variable (parallel to
    /// `Extraction::vars`), so downstream consumers — inference
    /// confidence above all — reuse the outcome instead of re-voting
    /// the identical distributions.
    pub votes: Vec<VoteResult>,
}

/// One inferred variable of a stripped binary — the system's final
/// user-facing output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferredVar {
    /// Location of the variable.
    pub key: VarKey,
    /// Predicted type class.
    pub class: TypeClass,
    /// Mean (clipped) vote share of the winning class.
    pub confidence: f32,
    /// Number of VUCs that voted.
    pub vuc_count: u32,
}

/// The outcome of a lenient inference run: always produced, with the
/// coverage and diagnostics needed to judge how partial it is.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InferReport {
    /// Inferred variables for every function that survived.
    pub vars: Vec<InferredVar>,
    /// How much of the binary was actually processed.
    pub coverage: Coverage,
    /// Non-fatal findings, in emission order.
    pub diagnostics: Diagnostics,
}

/// The front half of training, step one: extracts the training
/// binaries under the configured context mode (the `extract` span).
fn extract_training_set(train: &[BuiltBinary], config: &Config, obs: &dyn Observer) -> Dataset {
    cati_obs::info!(obs, "extracting {} training binaries", train.len());
    let dataset = {
        let _span = SpanGuard::enter(obs, "extract");
        Dataset::from_binaries_mode(
            train,
            FeatureView::WithSymbols,
            config.context_mode,
            None,
            obs,
        )
    };
    cati_obs::info!(
        obs,
        "extracted {} variables / {} VUCs",
        dataset.var_count(),
        dataset.vuc_count()
    );
    dataset
}

/// The front half of training: [`extract_training_set`] and Word2Vec
/// over the binaries' generalized function streams, sentences sampled
/// from the master seed (the `embed` spans). The two share no state.
/// With one thread they run one after the other. With more, they
/// overlap: Word2Vec's sentences are built on every thread, then a
/// scoped thread runs its SGD — serial by nature — while the calling
/// thread extracts on the remaining threads. Either way the outputs are
/// those of the two steps run alone. (The SGD's `embed` span then opens
/// on the scoped thread, so it nests under no span of the caller's.)
fn extract_and_embed(
    train: &[BuiltBinary],
    config: &Config,
    obs: &dyn Observer,
) -> (Dataset, VucEmbedder) {
    let sentences = {
        let _span = SpanGuard::enter(obs, "embed");
        let mut rng = StdRng::seed_from_u64(config.seed);
        embedding_sentences(train, config.max_sentences, &mut rng)
    };
    let word2vec = || {
        let _span = SpanGuard::enter(obs, "embed");
        cati_obs::info!(obs, "training Word2Vec on {} sentences", sentences.len());
        VucEmbedder::new(Word2Vec::train_observed(&sentences, config.w2v, obs))
    };
    let threads = rayon::current_num_threads();
    if threads == 1 {
        return (extract_training_set(train, config, obs), word2vec());
    }
    std::thread::scope(|scope| {
        let embedding = scope.spawn(word2vec);
        let dataset = rayon::ThreadPoolBuilder::new()
            .num_threads(threads - 1)
            .build()
            .expect("thread pool")
            .install(|| extract_training_set(train, config, obs));
        let embedder = match embedding.join() {
            Ok(embedder) => embedder,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        (dataset, embedder)
    })
}

impl Cati {
    /// Trains the full pipeline on `train` binaries: extraction →
    /// Word2Vec → six stage CNNs. `obs` receives typed telemetry:
    /// phase spans (`extract`, `embed`, `train.<stage>`), extraction
    /// counters, per-epoch losses, and human-readable progress
    /// messages. Pass `&cati_obs::NOOP` (or any legacy line callback
    /// wrapped in [`cati_obs::FnObserver`]) when telemetry is not
    /// wanted; the trained system is bit-identical either way.
    pub fn train(train: &[BuiltBinary], config: &Config, obs: &dyn Observer) -> Cati {
        config.with_threads(|| {
            let (dataset, embedder) = extract_and_embed(train, config, obs);
            let stages = MultiStage::train(&dataset, &embedder, config, obs);
            Cati {
                config: *config,
                embedder,
                stages,
            }
        })
    }

    /// [`Cati::train`] out-of-core, with epoch checkpoint/resume: the
    /// embedded training samples are streamed to a digest-checked
    /// shard set under `ckpt_dir/shards` and trained from disk, so
    /// peak memory is bounded by the model plus one shard buffer —
    /// never by corpus size — and every stage checkpoints atomically
    /// at every epoch boundary. The trained system is **bit-identical**
    /// to [`Cati::train`] on the same inputs (see
    /// [`MultiStage::train_streamed`] for why), and a run resumed
    /// after an interruption — even a hard kill mid-epoch — finishes
    /// byte-identical to an uninterrupted one.
    ///
    /// A shard set this call writes is trained from as sealed, without
    /// re-reading it ([`crate::ShardWriter::seal`]). With `opts.resume`,
    /// completed phases are loaded instead of recomputed: the persisted
    /// embedder skips extraction + Word2Vec, a sealed shard set found
    /// on disk is re-verified in full and reused (an unsealed one —
    /// killed mid-write — is rebuilt), and each stage restarts from
    /// its last checkpointed epoch. Returns `Ok(None)` when
    /// `opts.stop_after_epoch` paused the run early; resume later to
    /// finish.
    ///
    /// # Errors
    ///
    /// Fails with a typed [`StreamError`] on shard or checkpoint
    /// corruption, I/O failure, or a checkpoint directory belonging to
    /// a different configuration or corpus.
    pub fn train_streamed(
        train: &[BuiltBinary],
        config: &Config,
        ckpt_dir: &Path,
        opts: StreamOptions,
        obs: &dyn Observer,
    ) -> Result<Option<Cati>, StreamError> {
        config.with_threads(|| {
            let ckpt = CheckpointDir::open(ckpt_dir)?;
            let shards_dir = ckpt.shards_dir();
            let saved = if opts.resume {
                ckpt.load_embedder()?
            } else {
                None
            };
            let (embedder, shards) = match saved {
                // Resume with the embedder phase already done: reuse
                // the sealed shard set, or rebuild it if the run died
                // before the manifest sealed (shards are written after
                // the embedder, so this is the only partial state).
                Some(embedder) => match ShardSet::open(&shards_dir) {
                    Ok(shards) => (embedder, shards),
                    Err(ShardError::Io { ref err, .. })
                        if err.kind() == std::io::ErrorKind::NotFound =>
                    {
                        let dataset = extract_training_set(train, config, obs);
                        let shards =
                            write_dataset_shards(&dataset, &embedder, &shards_dir, 0, obs)?;
                        (embedder, shards)
                    }
                    Err(e) => return Err(e.into()),
                },
                None => {
                    let (dataset, embedder) = extract_and_embed(train, config, obs);
                    ckpt.save_embedder(&embedder)?;
                    let shards = {
                        let _span = SpanGuard::enter(obs, "shard");
                        write_dataset_shards(&dataset, &embedder, &shards_dir, 0, obs)?
                    };
                    cati_obs::info!(obs, "streamed {} samples into on-disk shards", shards.len());
                    (embedder, shards)
                }
            };
            let fingerprint = crate::artifact_cache::embedder_fingerprint(&embedder).to_string();
            if shards.fingerprint() != fingerprint {
                return Err(ShardError::Inconsistent {
                    path: shards_dir.join(crate::shards::SHARD_MANIFEST),
                    detail: "shard set was embedded by a different model".to_string(),
                }
                .into());
            }
            let identity = TrainIdentity {
                config: config_digest(config),
                data: shards.identity().to_string(),
            };
            let stages = MultiStage::train_streamed(&shards, config, &ckpt, &identity, opts, obs)?;
            Ok(stages.map(|stages| Cati {
                config: *config,
                embedder,
                stages,
            }))
        })
    }

    /// Evaluates one labeled extraction: per-VUC distributions and
    /// per-variable votes. All six stages run as batched passes over
    /// the whole extraction; votes index the shared distribution
    /// table by reference instead of cloning per-variable copies.
    pub fn evaluate(&self, ex: &Extraction) -> Evaluation {
        self.evaluate_observed(ex, &cati_obs::NOOP)
    }

    /// [`Cati::evaluate`] with telemetry: an `evaluate` span, an
    /// `embed.windows` counter, vote clip-rate counters
    /// (`vote.clipped` / `vote.considered`), and a winning-share
    /// histogram (`vote.confidence`). The evaluation is bit-identical
    /// to the unobserved path for any observer.
    pub fn evaluate_observed(&self, ex: &Extraction, obs: &dyn Observer) -> Evaluation {
        self.config.with_threads(|| {
            let session = EmbeddedExtraction::new_observed(&self.embedder, ex, obs);
            self.evaluate_session_inner(&session, obs)
        })
    }

    /// Evaluates a pre-embedded session — no re-embedding. Shared by
    /// every consumer that already holds an [`EmbeddedExtraction`].
    pub fn evaluate_session(
        &self,
        session: &EmbeddedExtraction<'_>,
        obs: &dyn Observer,
    ) -> Evaluation {
        self.config
            .with_threads(|| self.evaluate_session_inner(session, obs))
    }

    /// [`Cati::evaluate_session`] without the thread-pool scope, so
    /// callers that already installed one don't nest pools.
    fn evaluate_session_inner(
        &self,
        session: &EmbeddedExtraction<'_>,
        obs: &dyn Observer,
    ) -> Evaluation {
        let _span = SpanGuard::enter(obs, "evaluate");
        let vuc_dists = self.stages.leaf_distributions_batch(session.embedded());
        self.vote_dists(session.extraction(), vuc_dists, obs)
    }

    /// Evaluates an extraction from **precomputed** leaf distributions
    /// (one 19-class row per VUC, e.g. a per-request slice of a
    /// cross-request micro-batch). Rows must be exactly what
    /// [`MultiStage::leaf_distributions_batch`] yields for the
    /// extraction's embedded VUCs; per-row classification is
    /// row-independent, so a slice of a larger batch is bit-identical
    /// to a dedicated pass.
    ///
    /// # Panics
    ///
    /// Panics if `vuc_dists` is not parallel to `ex.vucs`.
    pub fn evaluate_dists(
        &self,
        ex: &Extraction,
        vuc_dists: Tensor,
        obs: &dyn Observer,
    ) -> Evaluation {
        assert_eq!(
            vuc_dists.rows(),
            ex.vucs.len(),
            "one distribution row per VUC: got {} rows for {} VUCs",
            vuc_dists.rows(),
            ex.vucs.len()
        );
        self.vote_dists(ex, vuc_dists, obs)
    }

    /// The voting half of an evaluation: per-VUC argmax plus the
    /// Eq. 3/4 per-variable vote over `vuc_dists`. Shared by the
    /// session paths and [`Cati::evaluate_dists`] so the batched
    /// serve path cannot drift from one-shot inference.
    fn vote_dists(&self, ex: &Extraction, vuc_dists: Tensor, obs: &dyn Observer) -> Evaluation {
        let vuc_preds: Vec<TypeClass> = vuc_dists
            .rows_iter()
            .map(|d| TypeClass::ALL[argmax(d)])
            .collect();
        obs.event(&Event::RegisterHistogram {
            name: "vote.confidence",
            bounds: &UNIT_BUCKETS,
        });
        let mut clipped = 0u64;
        let mut considered = 0u64;
        let mut votes = Vec::with_capacity(ex.vars.len());
        let var_preds = ex
            .vars
            .iter()
            .map(|var| {
                let dists: Vec<&[f32]> = var
                    .vucs
                    .iter()
                    .map(|&v| vuc_dists.row(v as usize))
                    .collect();
                let result = vote(&dists, self.config.vote_threshold);
                clipped += u64::from(result.clipped);
                considered += (dists.len() * result.totals.len()) as u64;
                obs.event(&Event::Observe {
                    name: "vote.confidence",
                    value: f64::from(result.winning_share(dists.len())),
                });
                let class = TypeClass::ALL[result.class];
                votes.push(result);
                class
            })
            .collect();
        obs.event(&Event::Counter {
            name: "vote.vars",
            delta: ex.vars.len() as u64,
        });
        obs.event(&Event::Counter {
            name: "vote.clipped",
            delta: clipped,
        });
        obs.event(&Event::Counter {
            name: "vote.considered",
            delta: considered,
        });
        Evaluation {
            vuc_dists,
            vuc_preds,
            var_preds,
            votes,
        }
    }

    /// Runs the full inference pipeline on a stripped binary: locate
    /// variables, extract VUCs, classify, vote.
    ///
    /// # Errors
    ///
    /// Fails if the binary's text section does not decode.
    pub fn infer(&self, binary: &Binary) -> Result<Vec<InferredVar>, ExtractError> {
        self.infer_observed(binary, &cati_obs::NOOP)
    }

    /// [`Cati::infer`] with telemetry: an `infer` span plus the
    /// extraction counters and vote metrics of the inner phases. The
    /// inferences are bit-identical to the unobserved path for any
    /// observer.
    ///
    /// # Errors
    ///
    /// Fails if the binary's text section does not decode.
    pub fn infer_observed(
        &self,
        binary: &Binary,
        obs: &dyn Observer,
    ) -> Result<Vec<InferredVar>, ExtractError> {
        self.infer_cached(binary, None, obs)
    }

    /// [`Cati::infer_observed`] with an optional on-disk
    /// [`ArtifactCache`]: the extraction and its embedded tensors are
    /// loaded from the cache when their content keys match (and
    /// stored after computing otherwise). Inference output is
    /// bit-identical with or without a cache — entries hold exactly
    /// what the pure extraction/embedding functions compute.
    ///
    /// # Errors
    ///
    /// Fails if the binary's text section does not decode.
    pub fn infer_cached(
        &self,
        binary: &Binary,
        cache: Option<&ArtifactCache>,
        obs: &dyn Observer,
    ) -> Result<Vec<InferredVar>, ExtractError> {
        let _span = SpanGuard::enter(obs, "infer");
        let mode = self.config.context_mode;
        let ex = match cache {
            Some(cache) => cache.extraction_mode(binary, FeatureView::Stripped, mode, obs)?,
            None => extract_mode_observed(binary, FeatureView::Stripped, mode, obs)?,
        };
        let eval = self.config.with_threads(|| {
            let session = match cache {
                Some(c) => EmbeddedExtraction::from_embeddings(
                    &ex,
                    c.embeddings_mode(
                        binary,
                        FeatureView::Stripped,
                        mode,
                        &self.embedder,
                        &ex,
                        obs,
                    ),
                ),
                None => EmbeddedExtraction::new_observed(&self.embedder, &ex, obs),
            };
            self.evaluate_session_inner(&session, obs)
        });
        Ok(inferred_vars(&ex, &eval))
    }

    /// Final user-facing inference output from an extraction plus
    /// precomputed leaf distributions — the tail of the serve
    /// daemon's cross-request micro-batch: many extractions are
    /// embedded, their rows concatenated through one
    /// [`MultiStage::leaf_distributions_batch`] pass, and each
    /// request's row slice flows through here. Bit-identical to
    /// [`Cati::infer`] on the same binary because both end in
    /// [`Cati::evaluate_dists`]'s voting path.
    ///
    /// # Panics
    ///
    /// Panics if `vuc_dists` is not parallel to `ex.vucs`.
    pub fn infer_prepared(
        &self,
        ex: &Extraction,
        vuc_dists: Tensor,
        obs: &dyn Observer,
    ) -> Vec<InferredVar> {
        let eval = self.evaluate_dists(ex, vuc_dists, obs);
        inferred_vars(ex, &eval)
    }

    /// Fault-isolated inference: never fails, reports what it skipped.
    ///
    /// See [`Cati::infer_lenient_observed`].
    pub fn infer_lenient(&self, binary: &Binary) -> InferReport {
        self.infer_lenient_observed(binary, &cati_obs::NOOP)
    }

    /// [`Cati::infer`] that degrades instead of refusing: extraction
    /// runs through [`cati_analysis::extract_lenient_observed`], so a
    /// corrupt debug section, undecodable function bodies, or decode
    /// gaps become [`Diagnostics`] and a reduced [`Coverage`] rather
    /// than an error. On a binary the strict path accepts, the
    /// returned `vars` are **bit-identical** to [`Cati::infer`]'s and
    /// the coverage is complete.
    pub fn infer_lenient_observed(&self, binary: &Binary, obs: &dyn Observer) -> InferReport {
        let _span = SpanGuard::enter(obs, "infer");
        let lenient = extract_lenient_mode_observed(
            binary,
            FeatureView::Stripped,
            self.config.context_mode,
            obs,
        );
        let eval = self.config.with_threads(|| {
            let session =
                EmbeddedExtraction::new_observed(&self.embedder, &lenient.extraction, obs);
            self.evaluate_session_inner(&session, obs)
        });
        InferReport {
            vars: inferred_vars(&lenient.extraction, &eval),
            coverage: lenient.coverage,
            diagnostics: lenient.diagnostics,
        }
    }

    /// Serializes the trained system to `path` as a CATI1 binary
    /// container (see [`crate::model_io`]), atomically: the model is
    /// written to a `.tmp` sibling and renamed into place, so a crash
    /// mid-write never leaves a truncated model at the target path.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures, each annotated with the path (and
    /// payload size) involved.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        crate::model_io::save_cati1(self, path.as_ref())
    }

    /// Loads a system saved by [`Cati::save`] (a CATI1 v2 container).
    ///
    /// # Errors
    ///
    /// Propagates I/O and decoding failures. Parse failures are
    /// reported as [`std::io::ErrorKind::InvalidData`] and carry the
    /// path, the file size, and what failed (truncation bounds,
    /// checksum mismatches, an unsupported container version); a file
    /// without the CATI1 magic gets a hex preview of its first bytes
    /// and an "expected CATI1 v2 model" hint.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Cati> {
        crate::model_io::load_model(path.as_ref())
    }
}

/// Digest of the serialized training configuration — half of the
/// [`TrainIdentity`] stamped into every checkpoint.
fn config_digest(config: &Config) -> String {
    match serde_json::to_vec(config) {
        Ok(bytes) => cati_analysis::digest_bytes(&bytes).to_string(),
        // Config is a plain struct of numbers; serialization cannot
        // fail, but a fixed sentinel keeps this total.
        Err(_) => "config-unserializable".to_string(),
    }
}

/// Maps an evaluation back onto its extraction's variables — the
/// final user-facing inference output. Shared by the strict and
/// lenient paths so they cannot diverge on a binary both accept.
fn inferred_vars(ex: &Extraction, eval: &Evaluation) -> Vec<InferredVar> {
    ex.vars
        .iter()
        .zip(&eval.var_preds)
        .zip(&eval.votes)
        .map(|((var, &class), result)| {
            // The evaluation already voted this variable (Eq. 4);
            // its winning share IS the confidence.
            InferredVar {
                key: var.key,
                class,
                confidence: result.winning_share(var.vucs.len()),
                vuc_count: var.vucs.len() as u32,
            }
        })
        .collect()
}

/// Per-stage evaluation at VUC granularity: each stage classifier is
/// scored on the samples whose ground truth reaches it (paper Table
/// III). Takes pre-embedded sessions, so an extraction shared across
/// every stage and table is embedded exactly once.
pub fn stage_vuc_metrics(
    cati: &Cati,
    sessions: &[EmbeddedExtraction<'_>],
    stage: StageId,
) -> (Prf, Confusion) {
    let mut m = Confusion::new(stage.num_classes());
    for session in sessions {
        let ex = session.extraction();
        // Only VUCs whose ground truth reaches this stage are scored;
        // batch the CNN over exactly that subset (borrowed rows).
        let scored: Vec<(usize, usize)> = ex
            .vucs
            .iter()
            .enumerate()
            .filter_map(|(i, vuc)| {
                let class = vuc.class(&ex.vars)?;
                Some((i, stage.label_of(class)?))
            })
            .collect();
        let sel: Vec<&[f32]> = scored.iter().map(|&(i, _)| session.embedding(i)).collect();
        let probs = cati.stages.stage_probs_batch(stage, &sel);
        for (&(_, truth), probs) in scored.iter().zip(probs.rows_iter()) {
            m.record(truth, argmax(probs));
        }
    }
    (m.weighted_avg(), m)
}

/// Per-stage evaluation at variable granularity, after voting over
/// each variable's VUCs with the stage's own distributions (paper
/// Table IV). Takes pre-embedded sessions like [`stage_vuc_metrics`].
pub fn stage_var_metrics(
    cati: &Cati,
    sessions: &[EmbeddedExtraction<'_>],
    stage: StageId,
) -> (Prf, Confusion) {
    let mut m = Confusion::new(stage.num_classes());
    for session in sessions {
        let ex = session.extraction();
        let stage_dists = cati.stages.stage_probs_batch(stage, session.embedded());
        for var in &ex.vars {
            let Some(class) = var.class else { continue };
            let Some(truth) = stage.label_of(class) else {
                continue;
            };
            let dists: Vec<&[f32]> = var
                .vucs
                .iter()
                .map(|&v| stage_dists.row(v as usize))
                .collect();
            let pred = vote(&dists, cati.config.vote_threshold).class;
            m.record(truth, pred);
        }
    }
    (m.weighted_avg(), m)
}

/// End-to-end accuracies of one extraction at both granularities
/// (paper Table VI): `(vuc_accuracy, vuc_n, var_accuracy, var_n)`,
/// read off [`pipeline_confusions`]. Kept only because the benchmark
/// (`perfbench`) calls it by name; everything else pools the
/// confusions themselves.
pub fn pipeline_accuracy(cati: &Cati, ex: &Extraction) -> (f64, u64, f64, u64) {
    let (vucs, vars) = pipeline_confusions(cati, &EmbeddedExtraction::new(&cati.embedder, ex));
    (vucs.accuracy(), vucs.total(), vars.accuracy(), vars.total())
}

/// Scores one pre-embedded extraction end to end (paper Table VI):
/// the 19-class VUC and variable confusions of the session's
/// [`Evaluation`] against the labels. Unlabeled VUCs and variables are
/// not scored.
pub fn pipeline_confusions(
    cati: &Cati,
    session: &EmbeddedExtraction<'_>,
) -> (Confusion, Confusion) {
    let ex = session.extraction();
    let eval = cati.evaluate_session(session, &cati_obs::NOOP);
    let mut vucs = Confusion::new(TypeClass::ALL.len());
    for (vuc, pred) in ex.vucs.iter().zip(&eval.vuc_preds) {
        if let Some(class) = vuc.class(&ex.vars) {
            vucs.record(class.index(), pred.index());
        }
    }
    let mut vars = Confusion::new(TypeClass::ALL.len());
    for (var, pred) in ex.vars.iter().zip(&eval.var_preds) {
        if let Some(class) = var.class {
            vars.record(class.index(), pred.index());
        }
    }
    (vucs, vars)
}
