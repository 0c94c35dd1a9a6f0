//! The 2-layer text CNN used by every stage classifier.
//!
//! Architecture (paper §V-A): Conv1d(embed→c1, k=3) → ReLU →
//! MaxPool(2) → Conv1d(c1→c2, k=3) → ReLU → MaxPool(2) → Dense(fc) →
//! ReLU → Dense(classes) → softmax. The paper's sizes are c1=32,
//! c2=64, fc=1024 over a 21×96 input; everything is configurable so
//! tests can run a tiny instance.

use crate::layers::{
    cross_entropy_backward, maxpool2_lanes, maxpool2_lanes_backward, maxpool2_lanes_train, relu,
    relu_backward, softmax, Conv1d, Dense, LANES,
};
use crate::optim::{Adam, GradBuffers};
use crate::tensor::{Rows, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of a [`TextCnn`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TextCnnConfig {
    /// Sequence length (21 for a VUC).
    pub seq_len: usize,
    /// Input channels (96 = 3 tokens × 32 dims at paper scale).
    pub embed_dim: usize,
    /// First conv output channels (paper: 32).
    pub conv1: usize,
    /// Second conv output channels (paper: 64).
    pub conv2: usize,
    /// Fully connected width (paper: 1024).
    pub fc: usize,
    /// Number of output classes.
    pub classes: usize,
}

impl TextCnnConfig {
    /// Paper-scale configuration for a given class count.
    pub fn paper(classes: usize) -> TextCnnConfig {
        TextCnnConfig {
            seq_len: 21,
            embed_dim: 96,
            conv1: 32,
            conv2: 64,
            fc: 1024,
            classes,
        }
    }

    /// Small configuration for fast tests.
    pub fn tiny(embed_dim: usize, classes: usize) -> TextCnnConfig {
        TextCnnConfig {
            seq_len: 21,
            embed_dim,
            conv1: 8,
            conv2: 8,
            fc: 32,
            classes,
        }
    }
}

/// Receives per-batch / per-epoch training statistics from
/// [`TextCnn::train_epoch_hooked`]. Hooks observe training — they
/// never influence it, so the trained weights are bit-identical
/// whatever hook is installed.
pub trait TrainHook {
    /// Whether the trainer should compute the global gradient L2 norm
    /// for [`TrainHook::on_batch`]. The default `false` skips that
    /// extra pass entirely, keeping the no-op path zero-cost.
    fn wants_grad_norm(&self) -> bool {
        false
    }

    /// Called after each minibatch with its mean per-sample loss and,
    /// when requested, the pre-scaling gradient L2 norm.
    fn on_batch(&mut self, batch: usize, mean_loss: f32, grad_norm: Option<f32>) {
        let _ = (batch, mean_loss, grad_norm);
    }

    /// Called once per epoch with the epoch's mean per-sample loss.
    fn on_epoch(&mut self, mean_loss: f32) {
        let _ = mean_loss;
    }
}

/// The do-nothing default [`TrainHook`].
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHook;

impl TrainHook for NoHook {}

/// Random access to `(features, label)` training samples, abstracting
/// over where the floats live: an in-memory `Vec` of embedded rows or
/// an out-of-core source that decodes rows on demand (e.g. on-disk
/// shards). Training over any two sources holding the same samples in
/// the same order is bit-identical — the trainer's shuffle, sharding,
/// and reduction see only indices and lengths.
pub trait SampleSource: Sync {
    /// Number of samples.
    fn len(&self) -> usize;

    /// True when the source holds no samples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sample at `idx` as `(features, label)`. `scratch` is a
    /// caller-owned buffer an out-of-core source may decode the row
    /// into (and borrow from); an in-memory source ignores it and
    /// borrows from itself. Callers reuse one scratch per worker, so
    /// steady-state access allocates nothing.
    fn sample<'a>(&'a self, idx: usize, scratch: &'a mut Vec<f32>) -> (&'a [f32], usize);
}

impl SampleSource for [(Vec<f32>, usize)] {
    fn len(&self) -> usize {
        <[(Vec<f32>, usize)]>::len(self)
    }

    fn sample<'a>(&'a self, idx: usize, _scratch: &'a mut Vec<f32>) -> (&'a [f32], usize) {
        let (x, label) = &self[idx];
        (x, *label)
    }
}

impl SampleSource for Vec<(Vec<f32>, usize)> {
    fn len(&self) -> usize {
        <[(Vec<f32>, usize)]>::len(self)
    }

    fn sample<'a>(&'a self, idx: usize, scratch: &'a mut Vec<f32>) -> (&'a [f32], usize) {
        self.as_slice().sample(idx, scratch)
    }
}

/// A 2-layer convolutional text classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct TextCnn {
    /// Configuration.
    pub cfg: TextCnnConfig,
    conv1: Conv1d,
    conv2: Conv1d,
    fc1: Dense,
    fc2: Dense,
}

/// Per-thread scratch of the fused tile pass ([`predict_fused`]): the
/// lane-major activation tiles of one [`LANES`]-sample tile, reused by
/// every model and every tile a worker runs.
#[derive(Debug, Default)]
struct TileWorkspace {
    /// Input tile transposed to `[embed_dim][seq_len][LANES]`.
    xt: Vec<f32>,
    /// First conv activations `[conv1][seq_len][LANES]`.
    c1t: Vec<f32>,
    /// First pooled activations `[conv1][seq_len/2][LANES]`.
    p1t: Vec<f32>,
    /// Second conv activations `[conv2][seq_len/2][LANES]`.
    c2t: Vec<f32>,
    /// Second pooled activations `[conv2][seq_len/4][LANES]` — which
    /// flattened is exactly the `[fc_in][LANES]` tile
    /// [`Dense::forward_batch`] consumes.
    p2t: Vec<f32>,
    /// Hidden activations `[fc][LANES]`.
    h: Vec<f32>,
    /// Logits `[classes][LANES]`.
    logits: Vec<f32>,
    /// Per-sample probabilities `[LANES][Σ classes]`: row `j` holds
    /// sample `j`'s softmax rows of every model, in model order.
    probs: Vec<f32>,
    /// The two max-pools' recorded choices, `[conv1][seq_len/2]` and
    /// `[conv2][seq_len/4]` lane columns (training only).
    left1: Vec<[bool; LANES]>,
    left2: Vec<[bool; LANES]>,
}

/// Samples per minibatch shard: one lane-major tile.
const SHARD: usize = LANES;

/// Per-worker scratch of tile training ([`TextCnn::batch_gradients`]):
/// the forward tiles, the gradient tiles of the backward pass (each
/// shaped like the activation tile it belongs to) and the sample
/// source's decode buffer, reused by every shard the worker runs.
#[derive(Debug, Default)]
struct TrainTile {
    tw: TileWorkspace,
    /// One live lane's probabilities, turned into its logit
    /// gradients in place.
    probs: Vec<f32>,
    /// Logit gradients `[classes][LANES]`.
    glogits: Vec<f32>,
    gh: Vec<f32>,
    gp2: Vec<f32>,
    gc2: Vec<f32>,
    gp1: Vec<f32>,
    gc1: Vec<f32>,
    scratch: Vec<f32>,
}

/// Scratch of one [`TextCnn::train_epoch_hooked`] call, reused by every
/// minibatch: a gradient buffer and a loss per shard of the largest
/// minibatch so far, and a [`TrainTile`] per worker.
#[derive(Debug, Default)]
struct TrainScratch {
    grads: Vec<GradBuffers>,
    losses: Vec<f64>,
    tiles: Vec<TrainTile>,
}

/// Class probabilities of several models over the same rows in one
/// fused, tiled pass, combined per row into `cols` outputs.
///
/// Every model must take the same input shape (`seq_len` ×
/// `embed_dim`). Rows go in [`LANES`]-row tiles, split over the
/// workers in contiguous runs; each worker transposes a tile once
/// into the lane-major `[embed_dim][seq_len][LANES]` layout and runs
/// every model's network on it ([`Conv1d::forward_lanes`],
/// [`maxpool2_lanes`], [`relu`], [`Dense::forward_batch`]). The last
/// partial tile is padded with zero lanes, whose outputs are dropped.
/// For each row, `combine(probs, out)` then receives the
/// concatenation of every model's softmax probabilities, in model
/// order, and writes the row's `cols` outputs.
///
/// Each lane keeps one row's float chains and rows never mix, so a
/// row's probabilities are the same bits whatever the tile, lane or
/// worker count; the tests pin them to a scalar one-sample forward.
///
/// # Panics
///
/// Panics when the models disagree on the input shape, or a row's
/// length is not `seq_len × embed_dim`.
pub fn predict_fused<R, F>(models: &[&TextCnn], xs: &R, cols: usize, combine: F) -> Tensor
where
    R: Rows + ?Sized,
    F: Fn(&[f32], &mut [f32]) + Sync,
{
    const L: usize = LANES;
    let Some(head) = models.first() else {
        return Tensor::zeros(xs.count(), cols);
    };
    let (len, embed_dim) = (head.cfg.seq_len, head.cfg.embed_dim);
    assert!(
        models
            .iter()
            .all(|m| (m.cfg.seq_len, m.cfg.embed_dim) == (len, embed_dim)),
        "fused models must share one input shape"
    );
    let width_in = len * embed_dim;
    let width: usize = models.iter().map(|m| m.cfg.classes).sum();
    Tensor::build_row_blocks(
        xs.count(),
        cols,
        L,
        TileWorkspace::default,
        |tw, first, chunk| {
            let n = chunk.len() / cols;
            let mut rows: [&[f32]; L] = [&[]; L];
            for (j, row) in rows.iter_mut().enumerate().take(n) {
                *row = xs.row_at(first + j);
                assert_eq!(row.len(), width_in, "input row length");
            }
            // Transpose in 8×8 blocks, so both the row reads and the
            // tile writes stay within a few cache lines.
            tw.xt.clear();
            tw.xt.resize(width_in * L, 0.0);
            for (e0, dst) in (0..width_in).step_by(L).zip(tw.xt.chunks_mut(L * L)) {
                for (j, row) in rows[..n].iter().enumerate() {
                    for (t, &v) in row[e0..(e0 + L).min(width_in)].iter().enumerate() {
                        dst[t * L + j] = v;
                    }
                }
            }
            tw.probs.clear();
            tw.probs.resize(L * width, 0.0);
            let mut offset = 0;
            for model in models {
                model.forward_tile(tw, false);
                let classes = model.cfg.classes;
                for (j, row) in tw.probs.chunks_exact_mut(width).take(n).enumerate() {
                    let out = &mut row[offset..offset + classes];
                    for (c, dst) in out.iter_mut().enumerate() {
                        *dst = tw.logits[c * L + j];
                    }
                    softmax(out);
                }
                offset += classes;
            }
            for (probs, out) in tw.probs.chunks_exact(width).zip(chunk.chunks_mut(cols)) {
                combine(probs, out);
            }
        },
    )
}

impl TextCnn {
    /// A freshly initialized model.
    pub fn new(cfg: TextCnnConfig, seed: u64) -> TextCnn {
        let mut rng = StdRng::seed_from_u64(seed);
        let len2 = cfg.seq_len / 2;
        let len4 = len2 / 2;
        TextCnn {
            cfg,
            conv1: Conv1d::new(cfg.embed_dim, cfg.conv1, 3, &mut rng),
            conv2: Conv1d::new(cfg.conv1, cfg.conv2, 3, &mut rng),
            fc1: Dense::new(cfg.conv2 * len4, cfg.fc, &mut rng),
            fc2: Dense::new(cfg.fc, cfg.classes, &mut rng),
        }
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.conv1.param_count()
            + self.conv2.param_count()
            + self.fc1.param_count()
            + self.fc2.param_count()
    }

    /// Gradient buffers with this model's shapes.
    pub fn grad_buffers(&self) -> GradBuffers {
        GradBuffers::new(&[
            self.conv1.w.len(),
            self.conv1.b.len(),
            self.conv2.w.len(),
            self.conv2.b.len(),
            self.fc1.w.len(),
            self.fc1.b.len(),
            self.fc2.w.len(),
            self.fc2.b.len(),
        ])
    }

    /// Immutable views of all parameter tensors, in the order
    /// [`TextCnn::grad_buffers`] uses.
    pub fn params(&self) -> [&[f32]; 8] {
        [
            &self.conv1.w,
            &self.conv1.b,
            &self.conv2.w,
            &self.conv2.b,
            &self.fc1.w,
            &self.fc1.b,
            &self.fc2.w,
            &self.fc2.b,
        ]
    }

    /// Rebuilds a model from its configuration and the eight tensors
    /// [`TextCnn::params`] returns, in that order — the model-container
    /// and checkpoint loading path. The tensors are moved in, not
    /// copied.
    ///
    /// # Errors
    ///
    /// Fails (naming the offending tensor) when a tensor's length
    /// disagrees with the configuration's shapes.
    pub fn from_params(cfg: TextCnnConfig, params: [Vec<f32>; 8]) -> Result<TextCnn, String> {
        const NAMES: [&str; 8] = [
            "conv1.w", "conv1.b", "conv2.w", "conv2.b", "fc1.w", "fc1.b", "fc2.w", "fc2.b",
        ];
        let mut model = TextCnn::new(cfg, 0);
        for ((dst, src), name) in model.params_mut().into_iter().zip(params).zip(NAMES) {
            if dst.len() != src.len() {
                return Err(format!(
                    "tensor {name}: {} floats, config needs {}",
                    src.len(),
                    dst.len()
                ));
            }
            *dst = src;
        }
        Ok(model)
    }

    fn params_mut(&mut self) -> [&mut Vec<f32>; 8] {
        [
            &mut self.conv1.w,
            &mut self.conv1.b,
            &mut self.conv2.w,
            &mut self.conv2.b,
            &mut self.fc1.w,
            &mut self.fc1.b,
            &mut self.fc2.w,
            &mut self.fc2.b,
        ]
    }

    /// Class probabilities for a batch of inputs, written into one
    /// flat `n × classes` [`Tensor`]. Row `i` is bitwise the
    /// prediction of row `i` alone. Inputs are anything implementing
    /// [`Rows`] — a [`Tensor`], owned rows, or borrowed rows
    /// (`Vec<&[f32]>`), so callers can batch a selected subset of a
    /// table without copying it.
    ///
    /// This is the one-model case of [`predict_fused`]: rows run in
    /// [`LANES`]-row lane-major tiles through the register-blocked
    /// lane kernels, and every weight matrix streams through once per
    /// tile instead of once per sample.
    pub fn predict_batch<R: Rows + ?Sized>(&self, xs: &R) -> Tensor {
        predict_fused(&[self], xs, self.cfg.classes, |probs, out| {
            out.copy_from_slice(probs);
        })
    }

    /// Runs the network on the lane-major input tile `tw.xt`, leaving
    /// the `[classes][LANES]` logits in `tw.logits`; `train` also
    /// records the max-pool choices the backward pass routes by.
    fn forward_tile(&self, tw: &mut TileWorkspace, train: bool) {
        let len = self.cfg.seq_len;
        let len2 = len / 2;
        self.conv1.forward_lanes(&tw.xt, len, &mut tw.c1t);
        relu(&mut tw.c1t);
        if train {
            maxpool2_lanes_train(&tw.c1t, self.cfg.conv1, len, &mut tw.p1t, &mut tw.left1);
        } else {
            maxpool2_lanes(&tw.c1t, self.cfg.conv1, len, &mut tw.p1t);
        }
        self.conv2.forward_lanes(&tw.p1t, len2, &mut tw.c2t);
        relu(&mut tw.c2t);
        if train {
            maxpool2_lanes_train(&tw.c2t, self.cfg.conv2, len2, &mut tw.p2t, &mut tw.left2);
        } else {
            maxpool2_lanes(&tw.c2t, self.cfg.conv2, len2, &mut tw.p2t);
        }
        self.fc1.forward_batch(&tw.p2t, &mut tw.h);
        relu(&mut tw.h);
        self.fc2.forward_batch(&tw.h, &mut tw.logits);
    }

    /// Forward and backward over the lane-major input tile `tt.tw.xt`,
    /// whose first `labels.len()` lanes hold samples and the rest zero
    /// padding. Accumulates the samples' gradients into `grads` and
    /// returns their summed loss.
    ///
    /// Every float chain is the one-sample backward pass's, run sample
    /// after sample: each live lane's loss and logit gradient come from
    /// its own softmax, the lane kernels keep each lane's chains, and
    /// every parameter gradient adds the live lanes in lane order, so
    /// the padding never enters a sum. The embeddings are frozen, so
    /// the first convolution's input gradient is never computed.
    fn train_tile(&self, tt: &mut TrainTile, labels: &[usize], grads: &mut GradBuffers) -> f64 {
        let (len, live, classes) = (self.cfg.seq_len, labels.len(), self.cfg.classes);
        let len2 = len / 2;
        self.forward_tile(&mut tt.tw, true);
        let tw = &tt.tw;
        tt.glogits.clear();
        tt.glogits.resize(classes * LANES, 0.0);
        let mut loss = 0.0f64;
        for (j, &label) in labels.iter().enumerate() {
            tt.probs.clear();
            tt.probs
                .extend(tw.logits.iter().skip(j).step_by(LANES).take(classes));
            softmax(&mut tt.probs);
            loss += f64::from(cross_entropy_backward(&mut tt.probs, label));
            for (c, &g) in tt.probs.iter().enumerate() {
                tt.glogits[c * LANES + j] = g;
            }
        }
        let [gc1w, gc1b, gc2w, gc2b, gf1w, gf1b, gf2w, gf2b] = grads.as_mut_arrays();
        self.fc2
            .weight_grads_batch(&tw.h, &tt.glogits, live, gf2w, gf2b);
        self.fc2.input_grad_batch(&tt.glogits, &mut tt.gh);
        relu_backward(&tw.h, &mut tt.gh);
        self.fc1
            .weight_grads_batch(&tw.p2t, &tt.gh, live, gf1w, gf1b);
        self.fc1.input_grad_batch(&tt.gh, &mut tt.gp2);
        maxpool2_lanes_backward(&tt.gp2, &tw.left2, self.cfg.conv2, len2, &mut tt.gc2);
        relu_backward(&tw.c2t, &mut tt.gc2);
        self.conv2
            .weight_grads_lanes(&tw.p1t, len2, &tt.gc2, live, gc2w, gc2b);
        self.conv2.input_grad_lanes(&tt.gc2, len2, &mut tt.gp1);
        maxpool2_lanes_backward(&tt.gp1, &tw.left1, self.cfg.conv1, len, &mut tt.gc1);
        relu_backward(&tw.c1t, &mut tt.gc1);
        self.conv1
            .weight_grads_lanes(&tw.xt, len, &tt.gc1, live, gc1w, gc1b);
        loss
    }

    /// Runs the shards of `idxs` (the samples they index into `data`)
    /// in order, shard `s` into the zeroed `grads[s]` with its summed
    /// loss in `losses[s]`. Each shard's samples are transposed into
    /// one lane-major tile, the rest zero-padded, and trained by
    /// [`TextCnn::train_tile`].
    fn run_shards<S: SampleSource + ?Sized>(
        &self,
        data: &S,
        idxs: &[usize],
        grads: &mut [GradBuffers],
        losses: &mut [f64],
        tt: &mut TrainTile,
    ) {
        let width = self.cfg.seq_len * self.cfg.embed_dim;
        for ((shard, g), loss) in idxs.chunks(SHARD).zip(grads).zip(losses) {
            tt.tw.xt.clear();
            tt.tw.xt.resize(width * LANES, 0.0);
            let mut labels = [0usize; SHARD];
            for ((j, &i), label) in shard.iter().enumerate().zip(&mut labels) {
                let (x, l) = data.sample(i, &mut tt.scratch);
                assert_eq!(x.len(), width, "sample length");
                *label = l;
                for (dst, &v) in tt.tw.xt[j..].iter_mut().step_by(LANES).zip(x) {
                    *dst = v;
                }
            }
            g.zero();
            *loss = self.train_tile(tt, &labels[..shard.len()], g);
        }
    }

    /// Applies accumulated gradients through `opt` and clears them.
    pub fn apply_grads(&mut self, grads: &mut GradBuffers, opt: &mut Adam, batch_size: usize) {
        let scale = 1.0 / batch_size.max(1) as f32;
        grads.scale(scale);
        let params = self.params_mut();
        opt.step(params, grads);
        grads.zero();
    }

    /// Accumulates the gradients of one non-empty minibatch (the
    /// samples `idxs` indexes into `data`) into `scratch.grads[0]` and
    /// returns its summed loss.
    ///
    /// The minibatch is split into fixed [`SHARD`]-sample shards — a
    /// function of the batch alone, never of the thread count — and
    /// each shard runs as one lane-major tile
    /// ([`TextCnn::train_tile`]) into its own zero-seeded gradient
    /// buffer. Workers take contiguous runs of shards, reusing one
    /// [`TrainTile`] each, and the shard buffers and losses are
    /// reduced strictly in shard order. Gradient sums are therefore
    /// bit-identical for any thread count.
    fn batch_gradients<S: SampleSource + ?Sized>(
        &self,
        data: &S,
        idxs: &[usize],
        scratch: &mut TrainScratch,
    ) -> f64 {
        assert!(!idxs.is_empty(), "empty minibatch");
        let shards = idxs.len().div_ceil(SHARD);
        let TrainScratch {
            grads,
            losses,
            tiles,
        } = scratch;
        if grads.len() < shards {
            grads.resize_with(shards, || self.grad_buffers());
            losses.resize(shards, 0.0);
        }
        let workers = rayon::current_num_threads().clamp(1, shards);
        if tiles.len() < workers {
            tiles.resize_with(workers, TrainTile::default);
        }
        if workers == 1 {
            self.run_shards(data, idxs, grads, losses, &mut tiles[0]);
        } else {
            let per_worker = shards.div_ceil(workers);
            let runs = idxs
                .chunks(per_worker * SHARD)
                .zip(grads.chunks_mut(per_worker))
                .zip(losses.chunks_mut(per_worker))
                .zip(tiles.iter_mut());
            std::thread::scope(|s| {
                for (((idxs, grads), losses), tt) in runs {
                    s.spawn(|| self.run_shards(data, idxs, grads, losses, tt));
                }
            });
        }
        let (total, rest) = grads[..shards]
            .split_first_mut()
            .expect("a non-empty minibatch has a shard");
        for g in rest.iter() {
            total.add(g);
        }
        losses[1..shards].iter().fold(losses[0], |sum, &l| sum + l)
    }

    /// One epoch of mini-batch training over `data`, shuffled with
    /// `rng`; each minibatch's 8-sample shards run as lane-major tiles,
    /// data-parallel with a shard-ordered reduction (see the crate
    /// docs). Returns the mean loss.
    pub fn train_epoch<S: SampleSource + ?Sized>(
        &mut self,
        data: &S,
        opt: &mut Adam,
        batch_size: usize,
        rng: &mut StdRng,
    ) -> f32 {
        self.train_epoch_hooked(data, opt, batch_size, rng, &mut NoHook)
    }

    /// [`TextCnn::train_epoch`] with a telemetry hook: the hook sees
    /// each minibatch's mean loss (plus the gradient norm when it
    /// asks for it) and the epoch's mean loss. Training results are
    /// identical to the unhooked path for any hook.
    pub fn train_epoch_hooked<S: SampleSource + ?Sized>(
        &mut self,
        data: &S,
        opt: &mut Adam,
        batch_size: usize,
        rng: &mut StdRng,
        hook: &mut dyn TrainHook,
    ) -> f32 {
        let mut order: Vec<usize> = (0..data.len()).collect();
        order.shuffle(rng);
        let mut total_loss = 0.0f64;
        let wants_norm = hook.wants_grad_norm();
        let mut scratch = TrainScratch::default();
        for (batch, chunk) in order.chunks(batch_size.max(1)).enumerate() {
            let loss = self.batch_gradients(data, chunk, &mut scratch);
            let grads = &mut scratch.grads[0];
            total_loss += loss;
            let grad_norm = wants_norm.then(|| grads.norm());
            hook.on_batch(batch, (loss / chunk.len().max(1) as f64) as f32, grad_norm);
            self.apply_grads(grads, opt, chunk.len());
        }
        let mean = (total_loss / data.len().max(1) as f64) as f32;
        hook.on_epoch(mean);
        mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::argmax;

    fn toy_dataset(cfg: TextCnnConfig, n: usize) -> Vec<(Vec<f32>, usize)> {
        // Class 0: energy at the left of the sequence; class 1: right.
        let mut rng = StdRng::seed_from_u64(1234);
        (0..n)
            .map(|i| {
                let label = i % 2;
                let mut x = vec![0.0f32; cfg.embed_dim * cfg.seq_len];
                use rand::Rng;
                for c in 0..cfg.embed_dim {
                    for t in 0..cfg.seq_len {
                        let on = if label == 0 {
                            t < cfg.seq_len / 2
                        } else {
                            t >= cfg.seq_len / 2
                        };
                        x[c * cfg.seq_len + t] = if on {
                            1.0 + rng.gen_range(-0.2..0.2)
                        } else {
                            rng.gen_range(-0.2..0.2)
                        };
                    }
                }
                (x, label)
            })
            .collect()
    }

    #[test]
    fn forward_shapes() {
        let cfg = TextCnnConfig::tiny(6, 3);
        let model = TextCnn::new(cfg, 7);
        let x = vec![0.5; cfg.embed_dim * cfg.seq_len];
        let probs = model.predict_batch(std::slice::from_ref(&x));
        assert_eq!((probs.rows(), probs.cols()), (1, 3));
        assert!((probs.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn learns_a_separable_toy_problem() {
        let cfg = TextCnnConfig::tiny(4, 2);
        let mut model = TextCnn::new(cfg, 3);
        let data = toy_dataset(cfg, 120);
        let mut opt = Adam::new(0.01);
        let mut rng = StdRng::seed_from_u64(5);
        let accuracy = |model: &TextCnn| {
            let probs = model.predict_batch(&data.iter().map(|(x, _)| x).collect::<Vec<_>>());
            let correct = (0..data.len())
                .filter(|&i| argmax(probs.row(i)) == data[i].1)
                .count();
            correct as f64 / data.len() as f64
        };
        let initial = accuracy(&model);
        for _ in 0..8 {
            model.train_epoch(&data, &mut opt, 16, &mut rng);
        }
        let trained = accuracy(&model);
        assert!(
            trained > 0.95,
            "accuracy {initial:.2} -> {trained:.2}, failed to learn"
        );
    }

    #[test]
    fn loss_decreases() {
        let cfg = TextCnnConfig::tiny(4, 2);
        let mut model = TextCnn::new(cfg, 11);
        let data = toy_dataset(cfg, 64);
        let mut opt = Adam::new(0.005);
        let mut rng = StdRng::seed_from_u64(6);
        let first = model.train_epoch(&data, &mut opt, 16, &mut rng);
        let mut last = first;
        for _ in 0..5 {
            last = model.train_epoch(&data, &mut opt, 16, &mut rng);
        }
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    /// The inference benchmark's medium widths: channel and output
    /// counts that fill whole register blocks.
    fn medium() -> TextCnnConfig {
        TextCnnConfig {
            seq_len: 21,
            embed_dim: 48,
            conv1: 16,
            conv2: 32,
            fc: 256,
            classes: 9,
        }
    }

    /// Odd widths, so every channel, column and output remainder path
    /// of the register-blocked kernels runs.
    fn odd(classes: usize) -> TextCnnConfig {
        TextCnnConfig {
            seq_len: 21,
            embed_dim: 5,
            conv1: 5,
            conv2: 7,
            fc: 13,
            classes,
        }
    }

    /// The fused tile pass is bitwise the scalar one-sample forward
    /// and softmax of the oracle, on every row of two full tiles and a
    /// partial one, at tiny, medium and odd widths.
    #[test]
    fn predict_batch_is_bitwise_equal_to_per_sample_predict() {
        for cfg in [TextCnnConfig::tiny(4, 5), medium(), odd(3), odd(19)] {
            let model = TextCnn::new(cfg, 21);
            // 19 rows: two full 8-lane tiles plus a 3-row tail.
            let data = toy_dataset(cfg, 19);
            let rows: Vec<&Vec<f32>> = data.iter().map(|(x, _)| x).collect();
            let batch = model.predict_batch(&rows);
            assert_eq!((batch.rows(), batch.cols()), (19, cfg.classes));
            for (i, row) in rows.iter().enumerate() {
                let single = oracle::predict(&model, row);
                let a: Vec<u32> = batch.row(i).iter().map(|v| v.to_bits()).collect();
                let b: Vec<u32> = single.iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b, "{cfg:?}: batch row {i} diverges from the oracle");
            }
        }
    }

    #[test]
    fn serialization_roundtrip_preserves_predictions() {
        let cfg = TextCnnConfig::tiny(4, 3);
        let model = TextCnn::new(cfg, 9);
        let restored =
            TextCnn::from_params(model.cfg, model.params().map(<[f32]>::to_vec)).unwrap();
        assert_eq!(restored, model);
        let x = vec![vec![0.25; cfg.embed_dim * cfg.seq_len]];
        assert_eq!(model.predict_batch(&x), restored.predict_batch(&x));
    }

    /// The one-sample forward and the trainer before it moved onto
    /// lane-major tiles — every sample through the one-sample backward
    /// pass, a fresh `GradBuffers` per 8-sample shard — kept as the
    /// parity oracles of the fused inference pass and the tile trainer.
    mod oracle {
        use super::super::*;
        use crate::layers::reference::{
            conv_forward_oracle, dense_forward_oracle, maxpool2_argmax, maxpool2_backward,
        };
        use rayon::prelude::*;

        #[derive(Default)]
        struct Workspace {
            c1: Vec<f32>,
            p1: Vec<f32>,
            a1: Vec<u32>,
            c2: Vec<f32>,
            p2: Vec<f32>,
            a2: Vec<u32>,
            h: Vec<f32>,
            logits: Vec<f32>,
            gh: Vec<f32>,
            gp2: Vec<f32>,
            gp1: Vec<f32>,
            gx: Vec<f32>,
        }

        fn forward(m: &TextCnn, x: &[f32], ws: &mut Workspace) {
            let len = m.cfg.seq_len;
            conv_forward_oracle(&m.conv1, x, len, &mut ws.c1);
            relu(&mut ws.c1);
            let (p1, a1) = maxpool2_argmax(&ws.c1, m.cfg.conv1, len);
            ws.p1 = p1;
            ws.a1 = a1;
            let len2 = len / 2;
            conv_forward_oracle(&m.conv2, &ws.p1, len2, &mut ws.c2);
            relu(&mut ws.c2);
            let (p2, a2) = maxpool2_argmax(&ws.c2, m.cfg.conv2, len2);
            ws.p2 = p2;
            ws.a2 = a2;
            dense_forward_oracle(&m.fc1, &ws.p2, &mut ws.h);
            relu(&mut ws.h);
            dense_forward_oracle(&m.fc2, &ws.h, &mut ws.logits);
        }

        /// Class probabilities of one input.
        pub(super) fn predict(m: &TextCnn, x: &[f32]) -> Vec<f32> {
            let mut ws = Workspace::default();
            forward(m, x, &mut ws);
            softmax(&mut ws.logits);
            ws.logits
        }

        fn backward(
            m: &TextCnn,
            x: &[f32],
            label: usize,
            ws: &mut Workspace,
            grads: &mut GradBuffers,
        ) -> f32 {
            let len = m.cfg.seq_len;
            let len2 = len / 2;
            forward(m, x, ws);
            let mut probs = ws.logits.clone();
            softmax(&mut probs);
            let loss = cross_entropy_backward(&mut probs, label);
            let glogits = probs;

            let [gc1w, gc1b, gc2w, gc2b, gf1w, gf1b, gf2w, gf2b] = grads.as_mut_arrays();
            m.fc2.backward(&ws.h, &glogits, &mut ws.gh, gf2w, gf2b);
            relu_backward(&ws.h, &mut ws.gh);
            let gh = std::mem::take(&mut ws.gh);
            m.fc1.backward(&ws.p2, &gh, &mut ws.gp2, gf1w, gf1b);
            ws.gh = gh;
            let mut gc2 = maxpool2_backward(&ws.gp2, &ws.a2, m.cfg.conv2 * len2);
            relu_backward(&ws.c2, &mut gc2);
            m.conv2
                .backward(&ws.p1, len2, &gc2, &mut ws.gp1, gc2w, gc2b);
            let mut gc1 = maxpool2_backward(&ws.gp1, &ws.a1, m.cfg.conv1 * len);
            relu_backward(&ws.c1, &mut gc1);
            m.conv1.backward(x, len, &gc1, &mut ws.gx, gc1w, gc1b);
            loss
        }

        fn batch_gradients<S: SampleSource + ?Sized>(
            m: &TextCnn,
            data: &S,
            idxs: &[usize],
        ) -> (GradBuffers, f64) {
            const SHARD: usize = 8;
            let shards: Vec<&[usize]> = idxs.chunks(SHARD).collect();
            let partials: Vec<(GradBuffers, f64)> = shards
                .par_iter()
                .map(|shard| {
                    let mut ws = Workspace::default();
                    let mut scratch = Vec::new();
                    let mut g = m.grad_buffers();
                    let mut loss = 0.0f64;
                    for &i in *shard {
                        let (x, label) = data.sample(i, &mut scratch);
                        loss += f64::from(backward(m, x, label, &mut ws, &mut g));
                    }
                    (g, loss)
                })
                .collect();
            let mut partials = partials.into_iter();
            let (mut grads, mut loss) = partials.next().unwrap_or_else(|| (m.grad_buffers(), 0.0));
            for (g, l) in partials {
                grads.add(&g);
                loss += l;
            }
            (grads, loss)
        }

        pub(super) fn train_epoch<S: SampleSource + ?Sized>(
            m: &mut TextCnn,
            data: &S,
            opt: &mut Adam,
            batch_size: usize,
            rng: &mut StdRng,
        ) -> f32 {
            let mut order: Vec<usize> = (0..data.len()).collect();
            order.shuffle(rng);
            let mut total_loss = 0.0f64;
            for chunk in order.chunks(batch_size.max(1)) {
                let (mut grads, loss) = batch_gradients(m, data, chunk);
                total_loss += loss;
                m.apply_grads(&mut grads, opt, chunk.len());
            }
            (total_loss / data.len().max(1) as f64) as f32
        }
    }

    /// A source that decodes each sample into the caller's scratch and
    /// borrows from it, as an out-of-core source does.
    struct Decoding<'a>(&'a [(Vec<f32>, usize)]);

    impl SampleSource for Decoding<'_> {
        fn len(&self) -> usize {
            self.0.len()
        }

        fn sample<'s>(&'s self, idx: usize, scratch: &'s mut Vec<f32>) -> (&'s [f32], usize) {
            let (x, label) = &self.0[idx];
            scratch.clear();
            scratch.extend_from_slice(x);
            (scratch.as_slice(), *label)
        }
    }

    /// The model's parameters as little-endian bytes.
    fn param_bytes(model: &TextCnn) -> Vec<u8> {
        model
            .params()
            .iter()
            .flat_map(|p| p.iter().flat_map(|v| v.to_le_bytes()))
            .collect()
    }

    /// Three epochs of training from a fixed start; returns the
    /// trained model's parameter bytes and the epochs' mean losses.
    fn train_three_epochs(
        cfg: TextCnnConfig,
        batch: usize,
        mut epoch: impl FnMut(&mut TextCnn, &mut Adam, &mut StdRng) -> f32,
    ) -> (Vec<u8>, Vec<u32>) {
        let mut model = TextCnn::new(cfg, 17);
        let mut opt = Adam::new(0.01);
        let mut rng = StdRng::seed_from_u64(batch as u64);
        let losses = (0..3)
            .map(|_| epoch(&mut model, &mut opt, &mut rng).to_bits())
            .collect();
        (param_bytes(&model), losses)
    }

    /// The tile trainer is bitwise the per-sample trainer: after three
    /// epochs the parameter bytes and every epoch's loss are equal —
    /// at widths that fill and leave every register block, batch sizes
    /// around the 8-sample shard, sample counts that leave partial
    /// tiles, on one worker and on three, over an in-memory source and
    /// a decoding one.
    #[test]
    fn tile_training_is_bitwise_equal_to_per_sample_training() {
        let pools: Vec<_> = [1, 3]
            .map(|n| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(n)
                    .build()
                    .unwrap()
            })
            .into();
        for cfg in [TextCnnConfig::tiny(4, 2), medium(), odd(3), odd(19)] {
            for n in [1, 7, 9, 37] {
                let mut data = toy_dataset(cfg, n);
                for (i, (_, label)) in data.iter_mut().enumerate() {
                    *label = (i * 7) % cfg.classes;
                }
                for batch in [1, 5, 8, 13, 32, 64] {
                    let want = train_three_epochs(cfg, batch, |m, opt, rng| {
                        oracle::train_epoch(m, &data, opt, batch, rng)
                    });
                    for pool in &pools {
                        let tiled = pool.install(|| {
                            train_three_epochs(cfg, batch, |m, opt, rng| {
                                m.train_epoch(&data, opt, batch, rng)
                            })
                        });
                        let decoded = pool.install(|| {
                            train_three_epochs(cfg, batch, |m, opt, rng| {
                                m.train_epoch(&Decoding(&data), opt, batch, rng)
                            })
                        });
                        let case = format!(
                            "{cfg:?}, {n} samples, batch {batch}, {} threads",
                            pool.current_num_threads()
                        );
                        assert!(tiled == want, "in-memory source diverges: {case}");
                        assert!(decoded == want, "decoding source diverges: {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn paper_config_has_expected_scale() {
        let model = TextCnn::new(TextCnnConfig::paper(19), 0);
        // conv1 ~9k, conv2 ~6k, fc1 320*1024 ~328k, fc2 ~19k.
        let n = model.param_count();
        assert!(n > 300_000 && n < 500_000, "param count {n}");
    }
}
