//! The tree of six stage classifiers (paper Fig. 5).

use crate::checkpoint::{CheckpointDir, CheckpointError, TrainIdentity};
use crate::config::Config;
use crate::dataset::{labeled_rows, plan_stage_samples, Dataset, EmbeddedSamples};
use crate::shards::{ShardError, ShardSamples, ShardSet};
use cati_dwarf::{StageId, TypeClass};
use cati_embedding::VucEmbedder;
use cati_nn::{predict_fused, Adam, Rows, SampleSource, Tensor, TextCnn, TextCnnConfig, TrainHook};
use cati_obs::{Event, Level, Observer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::fmt;
use std::sync::Mutex;
use std::time::Instant;

/// RNG stream seed for one stage's data sampling and batch schedule:
/// the master seed mixed with a stage-specific odd multiplier
/// (SplitMix64's golden-ratio constant), keeping the streams distinct
/// from each other and from the `seed ^ stage` model-init seeds.
fn stage_seed(seed: u64, stage: StageId) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stage as u64 + 1)
}

/// Adapts the [`cati_nn::TrainHook`] batch/epoch callbacks of one
/// stage's training loop to typed [`Observer`] events. Gradient norms
/// are only requested (and thus computed) when the observer asks for
/// batch statistics.
struct EpochHook<'a> {
    obs: &'a dyn Observer,
    stage: &'a str,
    epoch: usize,
}

impl TrainHook for EpochHook<'_> {
    fn wants_grad_norm(&self) -> bool {
        self.obs.wants_batch_stats()
    }

    fn on_batch(&mut self, batch: usize, _mean_loss: f32, grad_norm: Option<f32>) {
        if let Some(norm) = grad_norm {
            self.obs.event(&Event::GradNorm {
                stage: self.stage,
                batch,
                norm: norm as f64,
            });
        }
    }

    fn on_epoch(&mut self, mean_loss: f32) {
        self.obs.event(&Event::EpochLoss {
            stage: self.stage,
            epoch: self.epoch,
            loss: mean_loss as f64,
        });
    }
}

/// A typed failure of the out-of-core (streamed) training path.
#[derive(Debug)]
pub enum StreamError {
    /// The shard layer failed (I/O, truncation, corruption, …).
    Shard(ShardError),
    /// The checkpoint layer failed (I/O, corruption, identity
    /// mismatch).
    Checkpoint(CheckpointError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Shard(e) => e.fmt(f),
            StreamError::Checkpoint(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<ShardError> for StreamError {
    fn from(e: ShardError) -> StreamError {
        StreamError::Shard(e)
    }
}

impl From<CheckpointError> for StreamError {
    fn from(e: CheckpointError) -> StreamError {
        StreamError::Checkpoint(e)
    }
}

/// Knobs of the streamed training loop beyond the [`Config`]. The
/// defaults run start-to-finish like the in-memory path; tests and the
/// CLI use the extra fields to pause at epoch boundaries or widen the
/// kill window without mutating process environment.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamOptions {
    /// Resume from the checkpoint directory's saved state instead of
    /// starting fresh (fresh is assumed when no checkpoint exists).
    pub resume: bool,
    /// Stop (checkpointed) after this many total epochs per stage,
    /// before the configured epoch count — the in-process way to cut a
    /// run at an exact epoch boundary.
    pub stop_after_epoch: Option<usize>,
    /// Sleep this long after each epoch's checkpoint lands — widens
    /// the window a kill-mid-epoch test aims for.
    pub epoch_sleep_ms: u64,
}

/// The six trained stage models.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiStage {
    models: Vec<(StageId, TextCnn)>,
}

/// One stage's training task: its stage, its RNG right after planning,
/// and its planned `(row, stage label)` samples.
type StageTask = (StageId, StdRng, Vec<(u32, u16)>);

/// The one stage-training loop behind [`MultiStage::train`] and
/// [`MultiStage::train_streamed`]: six concurrent stage workers over
/// a labeled-row pool given as class bytes (pool order, see
/// [`crate::dataset::labeled_rows`]). Each stage derives its
/// stage-seeded RNG and plans its samples ([`plan_stage_samples`]);
/// the workers then take the stages largest plan first, have `rows`
/// turn each plan into a [`SampleSource`] — embedded in memory or read
/// from shards — and train it epoch by epoch. With `ckpt`
/// (directory, run identity, options), the run resumes from and
/// checkpoints to it; without, it runs every epoch and touches no
/// disk. Returns `Ok(None)` when `opts.stop_after_epoch` paused the
/// run.
fn train_stages<S: SampleSource>(
    classes: &[u8],
    embed_dim: usize,
    config: &Config,
    rows: impl Fn(Vec<(u32, u16)>) -> S + Sync,
    ckpt: Option<(&CheckpointDir, &TrainIdentity, StreamOptions)>,
    obs: &dyn Observer,
) -> Result<Option<MultiStage>, StreamError> {
    let stop = ckpt
        .and_then(|(_, _, opts)| opts.stop_after_epoch)
        .unwrap_or(config.epochs)
        .min(config.epochs);
    // Plan every stage up front: a plan's length is the stage's
    // training cost, so the largest stages go to the workers first and
    // the small ones fill in behind them. Each plan sits in a slot its
    // worker takes it from, so no plan is copied.
    let planned: Vec<StageTask> = StageId::ALL
        .iter()
        .map(|&stage| {
            let mut rng = StdRng::seed_from_u64(stage_seed(config.seed, stage));
            let plan = plan_stage_samples(
                classes,
                stage,
                config.max_stage_samples,
                config.oversample_floor,
                &mut rng,
                obs,
            );
            (stage, rng, plan)
        })
        .collect();
    let mut order: Vec<usize> = (0..planned.len()).collect();
    order.sort_by_key(|&k| std::cmp::Reverse(planned[k].2.len()));
    let slots: Vec<Mutex<Option<StageTask>>> = planned
        .into_iter()
        .map(|task| Mutex::new(Some(task)))
        .collect();
    let train = |k: usize| -> Result<(StageId, TextCnn, String), StreamError> {
        let t0 = Instant::now();
        let (stage, mut rng, plan) = slots[k]
            .lock()
            .expect("stage slot lock")
            .take()
            .expect("each stage is trained once");
        let stage_name = stage.to_string();
        let samples = plan.len();
        obs.event(&Event::Counter {
            name: "train.samples",
            delta: samples as u64,
        });
        let data = rows(plan);
        let cnn_cfg = TextCnnConfig {
            seq_len: cati_analysis::VUC_LEN,
            embed_dim,
            conv1: config.conv1,
            conv2: config.conv2,
            fc: config.fc,
            classes: stage.num_classes(),
        };
        let mut model = TextCnn::new(cnn_cfg, config.seed ^ stage as u64);
        let mut opt = Adam::new(config.lr);
        let mut start_epoch = 0usize;
        if let Some((dir, identity, opts)) = ckpt {
            if opts.resume {
                if let Some(saved) = dir.load_stage(stage, cnn_cfg, identity)? {
                    start_epoch = saved.epoch;
                    model = saved.model;
                    opt = saved.opt;
                    rng = saved.rng;
                }
            }
        }
        let mut last_loss = f32::NAN;
        let mut hook = EpochHook {
            obs,
            stage: &stage_name,
            epoch: 0,
        };
        for epoch in start_epoch..stop {
            hook.epoch = epoch;
            last_loss =
                model.train_epoch_hooked(&data, &mut opt, config.batch, &mut rng, &mut hook);
            if let Some((dir, identity, opts)) = ckpt {
                dir.save_stage(stage, epoch + 1, &model, &opt, &rng, identity)?;
                if opts.epoch_sleep_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(opts.epoch_sleep_ms));
                }
            }
        }
        // Fixed span path regardless of which thread trained the
        // stage (workers have their own span stacks).
        obs.event(&Event::SpanClose {
            path: &format!("train.{stage_name}"),
            nanos: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            // Synthetic span, not guard-managed: no allocation
            // attribution.
            alloc_bytes: 0,
            alloc_count: 0,
        });
        let line = format!("{stage}: {samples} samples, final loss {last_loss:.4}");
        Ok((stage, model, line))
    };
    let mut trained: Vec<_> = order
        .par_iter()
        .with_max_len(1)
        .map(|&k| (k, train(k)))
        .collect();
    trained.sort_by_key(|&(k, _)| k);
    let mut models = Vec::with_capacity(trained.len());
    for (_, result) in trained {
        let (stage, model, line) = result?;
        obs.event(&Event::Message {
            level: Level::Info,
            text: &line,
        });
        models.push((stage, model));
    }
    if stop < config.epochs {
        return Ok(None);
    }
    Ok(Some(MultiStage { models }))
}

impl MultiStage {
    /// Trains all six stages on `dataset` using `embedder` features.
    /// `obs` receives one `train.<stage>` span and per-epoch
    /// [`Event::EpochLoss`] events per stage as workers emit them,
    /// plus one summary [`Event::Message`] per stage (in stage order,
    /// after training finishes).
    ///
    /// Each stage derives its own RNG from `(seed, stage)`, so its
    /// data sampling and batch schedule never depend on how much
    /// randomness earlier stages consumed. That independence is what
    /// lets the six stages train concurrently — each stage is its own
    /// parallel task, and the workers take the tasks largest first —
    /// while staying bit-identical to sequential
    /// training and to any other thread count. Observers only read the
    /// computation, so the trained models are identical whatever
    /// observer is installed.
    ///
    /// This is the stage loop [`MultiStage::train_streamed`] runs,
    /// reading rows from memory: each stage embeds only its planned
    /// rows, into one flat tensor.
    pub fn train(
        dataset: &Dataset,
        embedder: &VucEmbedder,
        config: &Config,
        obs: &dyn Observer,
    ) -> MultiStage {
        let (windows, classes) = labeled_rows(dataset);
        let rows = |plan| EmbeddedSamples::new(&windows, embedder, plan);
        match train_stages(&classes, embedder.embed_dim(), config, rows, None, obs) {
            Ok(Some(stages)) => stages,
            _ => unreachable!("in-memory training has no checkpoint to fail or pause at"),
        }
    }

    /// [`MultiStage::train`] out-of-core: the same stage loop, but
    /// samples live in an on-disk [`ShardSet`] and every epoch ends
    /// with an atomic per-stage checkpoint in `ckpt`.
    ///
    /// Bit-for-bit parity with the in-memory path holds by
    /// construction: one loop, two row sources. Shard rows are written
    /// in the pool order in-memory training plans over, so each stage
    /// plans the identical `(row, label)` sequence, and the trainer
    /// only sees the rows through [`SampleSource`] — the shuffle,
    /// minibatch sharding, and reduction order never see where the
    /// floats live.
    ///
    /// With `opts.resume`, stages restart from their saved epoch with
    /// model, optimizer, and RNG restored bitwise (the plan is
    /// replayed deterministically first), so a resumed run finishes
    /// byte-identical to an uninterrupted one. Returns `Ok(None)` when
    /// `opts.stop_after_epoch` paused the run before the configured
    /// epoch count — every completed epoch is checkpointed either way.
    ///
    /// # Errors
    ///
    /// Fails with a typed [`StreamError`] on checkpoint I/O failure,
    /// corruption, or a checkpoint that belongs to a different run
    /// (`identity` mismatch).
    pub fn train_streamed(
        shards: &ShardSet,
        config: &Config,
        ckpt: &CheckpointDir,
        identity: &TrainIdentity,
        opts: StreamOptions,
        obs: &dyn Observer,
    ) -> Result<Option<MultiStage>, StreamError> {
        let rows = |plan| ShardSamples::new(shards, plan);
        let embed_dim = shards.cols() / cati_analysis::VUC_LEN;
        let ckpt = Some((ckpt, identity, opts));
        train_stages(shards.labels(), embed_dim, config, rows, ckpt, obs)
    }

    /// Reassembles the tree from `(stage, model)` pairs — the binary
    /// model-container loading path. Order is preserved; callers are
    /// expected to supply every stage of [`StageId::ALL`].
    pub fn from_models(models: Vec<(StageId, TextCnn)>) -> MultiStage {
        MultiStage { models }
    }

    /// The `(stage, model)` pairs, in training order.
    pub fn models(&self) -> &[(StageId, TextCnn)] {
        &self.models
    }

    /// The model for one stage.
    ///
    /// # Panics
    ///
    /// Panics if the stage is missing (cannot happen for trained
    /// instances).
    pub fn stage(&self, stage: StageId) -> &TextCnn {
        &self
            .models
            .iter()
            .find(|(s, _)| *s == stage)
            .expect("stage trained")
            .1
    }

    /// Per-stage class probabilities for a batch of embedded VUCs
    /// (one batched CNN pass; workspaces shared per worker), one
    /// `stage.num_classes()` row per input row. Inputs are anything
    /// implementing [`Rows`] — the session's flat tensor, a borrowed
    /// row subset, or a stack of occlusion probes.
    pub fn stage_probs_batch<R: Rows + ?Sized>(&self, stage: StageId, xs: &R) -> Tensor {
        self.stage(stage).predict_batch(xs)
    }

    /// Leaf distributions of a whole batch of embedded VUCs, as an
    /// `n × 19` tensor: the probability of each leaf is the product of
    /// the stage probabilities along its root-to-leaf path. Row `i` is
    /// bitwise the distribution of row `i` alone.
    ///
    /// One fused pass ([`cati_nn::predict_fused`]) runs all six stage
    /// CNNs on each 16-VUC tile and writes each leaf's root-to-leaf
    /// product straight from the tile's stage probabilities, taken in
    /// [`StageId::path_of`] order.
    pub fn leaf_distributions_batch<R: Rows + ?Sized>(&self, xs: &R) -> Tensor {
        let models: Vec<&TextCnn> = StageId::ALL.iter().map(|&s| self.stage(s)).collect();
        // A fused row holds the stages' probabilities in
        // `StageId::ALL` order; each leaf's path becomes indices into it.
        let offset = |stage: StageId| -> usize {
            StageId::ALL
                .iter()
                .take_while(|&&s| s != stage)
                .map(|&s| self.stage(s).cfg.classes)
                .sum()
        };
        let paths: Vec<Vec<usize>> = TypeClass::ALL
            .iter()
            .map(|&class| {
                StageId::path_of(class)
                    .into_iter()
                    .map(|(stage, label)| offset(stage) + label)
                    .collect()
            })
            .collect();
        predict_fused(&models, xs, TypeClass::ALL.len(), |probs, out| {
            for (slot, path) in out.iter_mut().zip(&paths) {
                *slot = path.iter().map(|&i| probs[i]).product();
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::embedding_sentences;
    use cati_analysis::FeatureView;
    use cati_embedding::{VucEmbedder, Word2Vec};
    use cati_synbin::{build_corpus, CorpusConfig};

    fn trained() -> (MultiStage, VucEmbedder, Dataset) {
        let config = Config::small();
        let corpus = build_corpus(&CorpusConfig::small(13));
        let ds = Dataset::from_binaries(&corpus.train, FeatureView::WithSymbols);
        let mut rng = StdRng::seed_from_u64(1);
        let sentences = embedding_sentences(&corpus.train, config.max_sentences, &mut rng);
        let embedder = VucEmbedder::new(Word2Vec::train(&sentences, config.w2v));
        let ms = MultiStage::train(&ds, &embedder, &config, &cati_obs::NOOP);
        (ms, embedder, ds)
    }

    /// The fused pass's rows are bitwise equal both to the fused pass
    /// over that row alone and to the product of each stage's batched
    /// probabilities along `StageId::path_of` (the composition the
    /// traced benchmark times), for row counts around the 16-VUC tile
    /// and its 8-row halves.
    #[test]
    fn fused_leaf_distributions_match_per_row_and_per_stage_products() {
        let models = StageId::ALL
            .iter()
            .map(|&stage| {
                let cfg = TextCnnConfig {
                    seq_len: cati_analysis::VUC_LEN,
                    embed_dim: 6,
                    conv1: 5,
                    conv2: 8,
                    fc: 12,
                    classes: stage.num_classes(),
                };
                (stage, TextCnn::new(cfg, 40 + stage as u64))
            })
            .collect();
        let ms = MultiStage::from_models(models);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 33] {
            let cols = 6 * cati_analysis::VUC_LEN;
            let data = (0..n * cols)
                .map(|i| (i as f32 * 0.61).sin() * 1.7)
                .collect();
            let xs = Tensor::from_flat(n, cols, data);
            let fused = ms.leaf_distributions_batch(&xs);
            assert_eq!((fused.rows(), fused.cols()), (n, TypeClass::ALL.len()));
            let per_stage: Vec<Tensor> = StageId::ALL
                .iter()
                .map(|&s| ms.stage_probs_batch(s, &xs))
                .collect();
            for i in 0..n {
                let row = fused.row(i);
                let alone = ms.leaf_distributions_batch(&vec![xs.row(i)]);
                assert_eq!(bits(row), bits(alone.row(0)), "n={n} row {i}");
                let composed: Vec<f32> = TypeClass::ALL
                    .iter()
                    .map(|&class| {
                        StageId::path_of(class)
                            .into_iter()
                            .map(|(stage, label)| {
                                let k = StageId::ALL.iter().position(|&s| s == stage).unwrap();
                                per_stage[k].row(i)[label]
                            })
                            .product()
                    })
                    .collect();
                assert_eq!(bits(row), bits(&composed), "n={n} row {i}");
            }
        }
    }

    #[test]
    fn leaf_distribution_sums_to_one() {
        let (ms, embedder, ds) = trained();
        let ex = &ds.entries[0].1;
        let x = embedder.embed_window(&ex.vucs[0].insns);
        let dists = ms.leaf_distributions_batch(std::slice::from_ref(&x));
        let dist = dists.row(0);
        assert_eq!(dist.len(), 19);
        let sum: f32 = dist.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "leaf distribution sums to {sum}");
        assert!(dist.iter().all(|p| *p >= 0.0));
    }

    #[test]
    fn stage1_learns_pointerness_signal() {
        let (ms, embedder, ds) = trained();
        // On training data itself, stage 1 should beat a coin flip.
        let (mut xs, mut truths) = (Vec::new(), Vec::new());
        for (_, ex) in &ds.entries {
            for vuc in &ex.vucs {
                let Some(class) = vuc.class(&ex.vars) else {
                    continue;
                };
                truths.push(class.is_pointer());
                xs.push(embedder.embed_window(&vuc.insns));
                if truths.len() > 400 {
                    break;
                }
            }
        }
        let probs = ms.stage_probs_batch(StageId::Stage1, &xs);
        let correct = probs
            .rows_iter()
            .zip(&truths)
            .filter(|(p, &truth)| (p[1] > p[0]) == truth)
            .count();
        let acc = correct as f64 / truths.len() as f64;
        assert!(acc > 0.6, "stage1 train accuracy {acc:.2}");
    }
}
