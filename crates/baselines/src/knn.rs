//! A TypeMiner-style signature nearest-neighbour baseline: the
//! feature of a variable is the multiset of its generalized target
//! instructions (plus their immediate ±1 neighbours); prediction is
//! the majority class of training variables with the same signature.
//!
//! On *uncertain samples* — identical signatures, different classes —
//! this method cannot do better than the training-set majority, which
//! is exactly the failure mode the paper's Fig. 1 illustrates.

use crate::VarTyper;
use cati_analysis::{Extraction, WINDOW};
use cati_dwarf::TypeClass;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How wide a neighbourhood the signature includes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SignatureWidth {
    /// Target instructions only.
    TargetOnly,
    /// Target ±1 instruction — a minimal "dependency" context.
    TargetPlusMinusOne,
}

/// The trained signature table.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SignatureKnn {
    width_plus_one: bool,
    table: HashMap<String, Vec<(TypeClass, u32)>>,
    majority: Option<TypeClass>,
}

fn signature(ex: &Extraction, var_idx: usize, plus_one: bool) -> String {
    let mut parts: Vec<String> = ex.vars[var_idx]
        .vucs
        .iter()
        .map(|&v| {
            let vuc = &ex.vucs[v as usize];
            if plus_one {
                format!(
                    "{}|{}|{}",
                    vuc.insns[WINDOW - 1],
                    vuc.insns[WINDOW],
                    vuc.insns[WINDOW + 1]
                )
            } else {
                vuc.insns[WINDOW].to_string()
            }
        })
        .collect();
    parts.sort_unstable();
    parts.join(";")
}

impl SignatureKnn {
    /// Builds the table from labeled extractions.
    pub fn train<'a>(
        extractions: impl IntoIterator<Item = &'a Extraction>,
        width: SignatureWidth,
    ) -> SignatureKnn {
        let plus_one = width == SignatureWidth::TargetPlusMinusOne;
        let mut table: HashMap<String, HashMap<TypeClass, u32>> = HashMap::new();
        let mut global: HashMap<TypeClass, u32> = HashMap::new();
        for ex in extractions {
            for (i, var) in ex.labeled_vars() {
                let class = var.class.expect("labeled");
                let sig = signature(ex, i, plus_one);
                *table.entry(sig).or_default().entry(class).or_insert(0) += 1;
                *global.entry(class).or_insert(0) += 1;
            }
        }
        let majority = global.into_iter().max_by_key(|(_, c)| *c).map(|(c, _)| c);
        SignatureKnn {
            width_plus_one: plus_one,
            table: table
                .into_iter()
                .map(|(sig, counts)| {
                    let mut v: Vec<(TypeClass, u32)> = counts.into_iter().collect();
                    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                    (sig, v)
                })
                .collect(),
            majority,
        }
    }

    /// Number of distinct signatures seen in training.
    pub fn signature_count(&self) -> usize {
        self.table.len()
    }

    /// Fraction of training signatures that map to more than one
    /// class — the uncertain-sample collision rate this baseline
    /// cannot resolve.
    pub fn collision_rate(&self) -> f64 {
        if self.table.is_empty() {
            return 0.0;
        }
        let collisions = self.table.values().filter(|v| v.len() > 1).count();
        collisions as f64 / self.table.len() as f64
    }
}

impl VarTyper for SignatureKnn {
    fn name(&self) -> &'static str {
        "signature k-NN"
    }

    fn predict_var(&self, ex: &Extraction, var_idx: usize) -> TypeClass {
        let sig = signature(ex, var_idx, self.width_plus_one);
        self.table
            .get(&sig)
            .and_then(|v| v.first())
            .map(|(c, _)| *c)
            .or(self.majority)
            .unwrap_or(TypeClass::Int)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cati_analysis::{extract, FeatureView};
    use cati_synbin::{build_corpus, CorpusConfig};

    #[test]
    fn knn_memorizes_training_data_reasonably() {
        let corpus = build_corpus(&CorpusConfig::small(64));
        let exs: Vec<Extraction> = corpus
            .train
            .iter()
            .map(|b| extract(&b.binary, FeatureView::WithSymbols).unwrap())
            .collect();
        let knn = SignatureKnn::train(&exs, SignatureWidth::TargetOnly);
        assert!(knn.signature_count() > 20);
        // Training accuracy is bounded away from zero and from one —
        // one because uncertain samples collide.
        let acc = crate::variable_accuracy(&knn, &exs).accuracy();
        assert!(acc > 0.4, "training accuracy {acc:.2} too low");
        assert!(
            knn.collision_rate() > 0.02,
            "expected signature collisions (uncertain samples), rate {:.3}",
            knn.collision_rate()
        );
    }

    #[test]
    fn wider_signature_has_fewer_collisions() {
        let corpus = build_corpus(&CorpusConfig::small(65));
        let exs: Vec<Extraction> = corpus
            .train
            .iter()
            .map(|b| extract(&b.binary, FeatureView::WithSymbols).unwrap())
            .collect();
        let narrow = SignatureKnn::train(&exs, SignatureWidth::TargetOnly);
        let wide = SignatureKnn::train(&exs, SignatureWidth::TargetPlusMinusOne);
        assert!(wide.signature_count() >= narrow.signature_count());
    }
}
