//! The context ablation: CATI's own architecture with every context
//! position blanked out, so the model sees only the target
//! instruction — a dependency-free stand-in for the feature sets of
//! DEBIN/TypeMiner on *orphan variables*, and the direct measurement
//! of how much the VUC contributes.

use crate::VarTyper;
use cati::{Config, Dataset, MultiStage};
use cati_analysis::{Extraction, WINDOW};
use cati_asm::generalize::GenInsn;
use cati_dwarf::TypeClass;
use cati_embedding::VucEmbedder;

/// Blanks every non-center instruction of a window.
pub fn blank_context(window: &[GenInsn]) -> Vec<GenInsn> {
    window
        .iter()
        .enumerate()
        .map(|(i, g)| {
            if i == WINDOW {
                g.clone()
            } else {
                GenInsn::blank()
            }
        })
        .collect()
}

/// Returns a copy of `ex` whose VUC windows keep only the target
/// instruction.
pub fn blank_extraction(ex: &Extraction) -> Extraction {
    let mut out = ex.clone();
    for vuc in &mut out.vucs {
        vuc.insns = blank_context(&vuc.insns);
    }
    out
}

/// CATI without context: same embedder, same six-stage tree, blanked
/// windows.
#[derive(Debug, Clone, PartialEq)]
pub struct NoContextCati {
    /// Shared embedder (trained on full code).
    pub embedder: VucEmbedder,
    /// Stage models trained on blanked windows.
    pub stages: MultiStage,
    threshold: f32,
}

impl NoContextCati {
    /// Trains on the blanked version of `dataset`.
    pub fn train(dataset: &Dataset, embedder: &VucEmbedder, config: &Config) -> NoContextCati {
        let blanked = Dataset {
            entries: dataset
                .entries
                .iter()
                .map(|(app, ex)| (app.clone(), blank_extraction(ex)))
                .collect(),
        };
        let stages = MultiStage::train(&blanked, embedder, config, &cati::obs::NOOP);
        NoContextCati {
            embedder: embedder.clone(),
            stages,
            threshold: config.vote_threshold,
        }
    }
}

impl VarTyper for NoContextCati {
    fn name(&self) -> &'static str {
        "no-context CNN"
    }

    fn predict_var(&self, ex: &Extraction, var_idx: usize) -> TypeClass {
        let xs: Vec<Vec<f32>> = ex.vars[var_idx]
            .vucs
            .iter()
            .map(|&v| {
                let blanked = blank_context(&ex.vucs[v as usize].insns);
                self.embedder.embed_window(&blanked)
            })
            .collect();
        let dists = self.stages.leaf_distributions_batch(&xs);
        let rows: Vec<&[f32]> = dists.rows_iter().collect();
        TypeClass::ALL[cati::vote(&rows, self.threshold).class]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanking_keeps_only_the_center() {
        let mut window = vec![GenInsn::blank(); 21];
        window[WINDOW] = GenInsn {
            tokens: ["mov".into(), "%rax".into(), "0xIMM(%rsp)".into()],
        };
        window[0] = GenInsn {
            tokens: ["lea".into(), "0xIMM(%rsp)".into(), "%rax".into()],
        };
        let blanked = blank_context(&window);
        assert_eq!(blanked[0], GenInsn::blank());
        assert_eq!(blanked[WINDOW], window[WINDOW]);
    }
}
