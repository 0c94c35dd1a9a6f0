//! `cati` — Context-Assisted Type Inference from stripped binaries.
//!
//! A from-scratch Rust reproduction of CATI (Chen, He, Mao — DSN
//! 2020): a system that locates variables in stripped x86-64 binaries
//! and infers one of 19 C type classes for each from the *Variable
//! Usage Context* — the target instruction plus ten instructions of
//! context on each side — using a six-stage tree of CNN classifiers
//! and a confidence-clipped voting rule over each variable's VUCs.
//!
//! The crate composes the substrates (see DESIGN.md):
//! [`cati_synbin`] builds corpora, [`cati_analysis`] recovers
//! variables and cuts VUCs, [`cati_embedding`] trains Word2Vec and
//! embeds windows, [`cati_nn`] trains the stage CNNs. This crate adds
//! the stage tree ([`multistage`]), voting ([`vote`]), metrics
//! ([`metrics`]), occlusion analysis ([`occlusion`], paper Fig. 6),
//! compiler identification ([`compiler_id`], §VIII), the DEBIN
//! comparison task ([`debin`]) and the end-to-end [`Cati`] pipeline.
//!
//! # Quickstart
//!
//! ```
//! use cati::{Cati, Config};
//! use cati_synbin::{build_corpus, CorpusConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let corpus = build_corpus(&CorpusConfig::small(7));
//! let cati = Cati::train(&corpus.train[..4], &Config::small(), &cati::obs::NOOP);
//! let stripped = corpus.test[0].binary.strip();
//! let vars = cati.infer(&stripped)?;
//! for var in vars.iter().take(3) {
//!     println!("func {} offset {:#x}: {} ({} VUCs)",
//!              var.key.func, var.key.offset, var.class, var.vuc_count);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod artifact_cache;
pub mod checkpoint;
pub mod compiler_id;
pub mod config;
pub mod dataset;
pub mod debin;
pub mod metrics;
pub mod model_io;
pub mod multistage;
pub mod occlusion;
pub mod pipeline;
pub mod report;
pub mod session;
pub mod shards;
pub mod vote;

pub use artifact_cache::{embedder_fingerprint, ArtifactCache};
pub use cati_analysis::{CatiError, ContextMode, Coverage, Diagnostic, Diagnostics, PipelineStage};
pub use cati_nn::{argmax, Rows, Tensor};
pub use checkpoint::{CheckpointDir, CheckpointError, StageCheckpoint, TrainIdentity};
pub use compiler_id::CompilerId;
pub use config::Config;
pub use dataset::{class_histogram, embedding_sentences, Dataset};
pub use debin::DebinTask;
pub use metrics::{confusion, Confusion, Prf};
pub use model_io::{decode_cati1, encode_cati1, is_cati1, CATI1_ALIGN, CATI1_MAGIC, CATI1_VERSION};
pub use multistage::{MultiStage, StreamError, StreamOptions};
pub use occlusion::{
    importance_heatmap, occlusion_epsilons, occlusion_epsilons_embedded, ImportanceHeatmap,
};
pub use pipeline::{
    pipeline_accuracy, pipeline_accuracy_session, stage_var_metrics, stage_vuc_metrics, Cati,
    Evaluation, InferReport, InferredVar,
};
pub use session::EmbeddedExtraction;
pub use shards::{write_dataset_shards, ShardError, ShardSamples, ShardSet, ShardWriter};
pub use vote::{clip_confidences, vote, VoteResult};

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use cati_analysis as analysis;
pub use cati_asm as asm;
pub use cati_dwarf as dwarf;
pub use cati_embedding as embedding;
pub use cati_nn as nn;
pub use cati_obs as obs;
pub use cati_synbin as synbin;
