//! The 17-type DEBIN comparison task (paper §VII).
//!
//! To compare against DEBIN, CATI is retargeted at DEBIN's label set:
//! struct, union, enum, array, pointer, void, bool and the signed and
//! unsigned char/short/int/long/long long. Structurally this is a
//! single flat classifier (there is no pointer trichotomy to refine),
//! followed by the same confidence voting.

use crate::config::Config;
use crate::metrics::Confusion;
use crate::vote::vote;
use cati_analysis::{Extraction, VUC_LEN};
use cati_dwarf::Debin17;
use cati_embedding::VucEmbedder;
use cati_nn::{Adam, TextCnn, TextCnnConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;

/// A CATI classifier for DEBIN's 17-label task.
#[derive(Debug, Clone, PartialEq)]
pub struct DebinTask {
    model: TextCnn,
    threshold: f32,
}

impl DebinTask {
    /// Trains the flat 17-class model over labeled extractions.
    pub fn train(
        extractions: &[&Extraction],
        embedder: &VucEmbedder,
        config: &Config,
    ) -> DebinTask {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xDEB);
        let mut samples: Vec<(Vec<f32>, usize)> = extractions
            .par_iter()
            .flat_map_iter(|ex| {
                ex.vucs
                    .iter()
                    .filter_map(|v| {
                        let label = ex.vars[v.var as usize].debin?;
                        Some((embedder.embed_window(&v.insns), label.index()))
                    })
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
            classes: Debin17::ALL.len(),
        };
        let mut model = TextCnn::new(cfg, config.seed ^ 0xDEB1);
        let mut opt = Adam::new(config.lr);
        for _ in 0..config.epochs {
            model.train_epoch(&samples, &mut opt, config.batch, &mut rng);
        }
        DebinTask {
            model,
            threshold: config.vote_threshold,
        }
    }

    /// Variable-level confusion over DEBIN's 17 labels on labeled
    /// extractions, with voting.
    pub fn accuracy(&self, extractions: &[&Extraction], embedder: &VucEmbedder) -> Confusion {
        let mut m = Confusion::new(Debin17::ALL.len());
        for ex in extractions {
            let xs = crate::dataset::embed_extraction(ex, embedder);
            let dists = self.model.predict_batch(&xs);
            for var in &ex.vars {
                let Some(truth) = var.debin else { continue };
                let var_dists: Vec<&[f32]> =
                    var.vucs.iter().map(|&v| dists.row(v as usize)).collect();
                m.record(truth.index(), vote(&var_dists, self.threshold).class);
            }
        }
        m
    }
}
