//! `cati-nn` — the neural-network training substrate.
//!
//! The paper trains its six stage classifiers with Keras on a GPU; we
//! substitute a small, dependency-free CNN stack: [`layers`] with
//! hand-written forward/backward passes (finite-difference checked in
//! tests), the [`TextCnn`] model matching the paper's 2-layer
//! 32→64-channel + FC-1024 architecture, and [`optim`] with Adam and
//! momentum-SGD. Mini-batches parallelize across CPU cores via rayon.
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

// `deny` rather than `forbid`: two documented modules hold the
// crate's unsafe code — [`mmap`] (the zero-copy weight loader) and
// `isa` (the one call into the AVX2 build of the lane kernels);
// everything else stays unsafe-free and any new unsafe outside them
// is a compile error.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

mod isa;
pub mod layers;
pub mod mmap;
pub mod model;
pub mod optim;
pub mod param;
pub mod quant;
pub mod tensor;

pub use mmap::{MapSlice, MappedFile};
pub use model::{
    predict_fused, NoHook, SampleSource, TextCnn, TextCnnConfig, TrainHook, Workspace,
};
pub use optim::{Adam, GradBuffers, Sgd};
pub use param::ParamBuf;
pub use quant::QuantMode;
pub use tensor::{argmax, Rows, Tensor};
