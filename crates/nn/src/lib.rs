//! `cati-nn` — the neural-network training substrate.
//!
//! The paper trains its six stage classifiers with Keras on a GPU; we
//! substitute a small, dependency-free CNN stack: [`layers`] with
//! hand-written forward and backward kernels, the [`TextCnn`] model
//! matching the paper's 2-layer 32→64-channel + FC-1024 architecture,
//! and [`optim`] with Adam and momentum-SGD.
//!
//! Inference and training both run on *lane-major tiles* of
//! [`layers::LANES`] = 8 samples, where the sample is the innermost
//! index and every arithmetic op is an 8-wide SIMD op; the lane
//! kernels are register-blocked and run the AVX2 build on CPUs that
//! have it. There is one inference path, [`predict_fused`] (with
//! [`TextCnn::predict_batch`] its one-model case): a single row is
//! classified as a batch of one. Training splits each minibatch into
//! 8-sample shards, runs each shard as one tile — forward, then the
//! backward kernels, with the first convolution's input gradient
//! skipped because the embeddings are frozen — and reduces the shard
//! gradients in shard order across CPU cores. Every float chain is the
//! one a one-sample pass computes, so predictions do not depend on the
//! batch around a row and the trained weights are bitwise those of
//! training sample by sample, for any thread count. The one-sample
//! forward and backward passes are kept only as test-only scalar
//! references: the tests pin every lane kernel, the fused pass and the
//! tile trainer to them and check the gradients against finite
//! differences.
//!
//! Every weight tensor is an owned `Vec<f32>`: a model loaded from a
//! file holds its own copy of the weights and never reads the file
//! again.
//!
//! # Example
//!
//! ```
//! use cati_nn::{Adam, TextCnn, TextCnnConfig};
//! use rand::SeedableRng;
//!
//! let cfg = TextCnnConfig::tiny(4, 2);
//! let mut model = TextCnn::new(cfg, 42);
//! let data = vec![(vec![0.0; cfg.embed_dim * cfg.seq_len], 0usize)];
//! let mut opt = Adam::new(0.01);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let loss = model.train_epoch(&data, &mut opt, 8, &mut rng);
//! assert!(loss.is_finite());
//! ```

// `deny` rather than `forbid`: one documented module holds the
// crate's unsafe code — `isa` (the one call into the AVX2 build of
// the lane kernels); everything else stays unsafe-free and any new
// unsafe outside it is a compile error.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

mod isa;
pub mod layers;
pub mod model;
pub mod optim;
pub mod tensor;

pub use model::{predict_fused, NoHook, SampleSource, TextCnn, TextCnnConfig, TrainHook};
pub use optim::{Adam, GradBuffers, Sgd};
pub use tensor::{argmax, fill_rows, Rows, Tensor};

/// A layer's weight or bias tensor: plain owned floats. The name is
/// kept for code outside the workspace (perfbench) that builds
/// [`layers::Conv1d`] and [`layers::Dense`] literals with
/// `ParamBuf::from(vec)`.
pub type ParamBuf = Vec<f32>;
