//! Compiler identification (paper §VIII).
//!
//! Before routing a stripped binary to the right stage tree, CATI
//! identifies the producing compiler. Register-usage habits differ
//! enough between GCC and Clang that a VUC-level binary classifier
//! reaches 100% accuracy in the paper; a whole-binary majority vote
//! makes the decision even more robust.

use crate::config::Config;
use crate::dataset::embed_extraction;
use cati_analysis::{Extraction, VUC_LEN};
use cati_embedding::VucEmbedder;
use cati_nn::{Adam, TextCnn, TextCnnConfig};
use cati_synbin::Compiler;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;

/// A trained GCC-vs-Clang classifier over VUC windows.
#[derive(Debug, Clone, PartialEq)]
pub struct CompilerId {
    model: TextCnn,
}

fn label_of(compiler: Compiler) -> usize {
    match compiler {
        Compiler::Gcc => 0,
        Compiler::Clang => 1,
    }
}

impl CompilerId {
    /// Trains on labeled extractions (`(extraction, compiler)` pairs),
    /// re-using the instruction `embedder`.
    pub fn train(
        data: &[(&Extraction, Compiler)],
        embedder: &VucEmbedder,
        config: &Config,
    ) -> CompilerId {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xC0);
        let mut samples: Vec<(Vec<f32>, usize)> = data
            .par_iter()
            .flat_map_iter(|(ex, compiler)| {
                let label = label_of(*compiler);
                ex.vucs
                    .iter()
                    .map(move |v| (embedder.embed_window(&v.insns), label))
                    .collect::<Vec<_>>()
            })
            .collect();
        if config.max_stage_samples > 0 && samples.len() > config.max_stage_samples {
            samples.shuffle(&mut rng);
            samples.truncate(config.max_stage_samples);
        }
        let cfg = TextCnnConfig {
            seq_len: VUC_LEN,
            embed_dim: embedder.embed_dim(),
            conv1: config.conv1,
            conv2: config.conv2,
            fc: config.fc,
            classes: 2,
        };
        let mut model = TextCnn::new(cfg, config.seed ^ 0xC1);
        let mut opt = Adam::new(config.lr);
        for _ in 0..config.epochs {
            model.train_epoch(&samples, &mut opt, config.batch, &mut rng);
        }
        CompilerId { model }
    }

    /// Per-VUC predictions of one extraction: its VUCs embedded into
    /// one tensor and classified in one batched pass.
    fn predict_vucs(&self, embedder: &VucEmbedder, ex: &Extraction) -> Vec<Compiler> {
        let probs = self.model.predict_batch(&embed_extraction(ex, embedder));
        let compiler = |p: &[f32]| [Compiler::Gcc, Compiler::Clang][usize::from(p[1] > p[0])];
        probs.rows_iter().map(compiler).collect()
    }

    /// Whole-binary decision: majority vote over all its VUCs.
    pub fn predict_binary(&self, embedder: &VucEmbedder, ex: &Extraction) -> Compiler {
        let preds = self.predict_vucs(embedder, ex);
        let clang_votes = preds.iter().filter(|&&c| c == Compiler::Clang).count();
        if clang_votes * 2 > preds.len() {
            Compiler::Clang
        } else {
            Compiler::Gcc
        }
    }

    /// VUC-level accuracy over labeled extractions.
    pub fn accuracy(&self, embedder: &VucEmbedder, data: &[(&Extraction, Compiler)]) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for (ex, compiler) in data {
            let preds = self.predict_vucs(embedder, ex);
            correct += preds.iter().filter(|&c| c == compiler).count();
            total += preds.len();
        }
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }
}
