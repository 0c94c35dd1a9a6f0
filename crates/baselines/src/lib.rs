//! `cati-baselines` — comparison methods for the evaluation.
//!
//! The paper compares CATI against DEBIN (CRF over dependency
//! features) and situates it against rule-based systems (IDA, TIE,
//! REWARDS) and shallow-ML systems (TypeMiner's n-grams). This crate
//! provides the corresponding families on our substrate:
//!
//! - [`RuleTyper`] — hand-written per-mnemonic rules, no learning;
//! - [`NoContextCati`] — CATI's own architecture with the context
//!   blanked, isolating exactly the paper's claim that the VUC is the
//!   decisive feature;
//! - [`SignatureKnn`] — a TypeMiner-style signature nearest-neighbour
//!   that collides on *uncertain samples* by construction.
//!
//! All baselines implement [`VarTyper`] so experiments can score them
//! uniformly via [`variable_accuracy`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod knn;
pub mod nocontext;
pub mod rules;

use cati::Confusion;
use cati_analysis::Extraction;
use cati_dwarf::TypeClass;

pub use knn::{SignatureKnn, SignatureWidth};
pub use nocontext::{blank_context, blank_extraction, NoContextCati};
pub use rules::RuleTyper;

/// A method that assigns a type class to a located variable.
pub trait VarTyper {
    /// Short display name.
    fn name(&self) -> &'static str;

    /// Predicts the class of `ex.vars[var_idx]`.
    fn predict_var(&self, ex: &Extraction, var_idx: usize) -> TypeClass;
}

/// Variable-level confusion of a typer over labeled extractions.
pub fn variable_accuracy<'a>(
    typer: &dyn VarTyper,
    extractions: impl IntoIterator<Item = &'a Extraction>,
) -> Confusion {
    let mut m = Confusion::new(TypeClass::ALL.len());
    for ex in extractions {
        for (i, var) in ex.labeled_vars() {
            let truth = var.class.expect("labeled");
            m.record(truth.index(), typer.predict_var(ex, i).index());
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use cati_analysis::{extract, FeatureView};
    use cati_synbin::{build_corpus, CorpusConfig};

    #[test]
    fn rule_typer_beats_chance_but_not_by_magic() {
        let corpus = build_corpus(&CorpusConfig::small(8));
        let exs: Vec<Extraction> = corpus
            .test
            .iter()
            .take(6)
            .map(|b| extract(&b.binary, FeatureView::WithSymbols).unwrap())
            .collect();
        let acc = variable_accuracy(&RuleTyper, &exs).accuracy();
        assert!(acc > 0.10, "rule accuracy {acc:.3} below chance-ish floor");
        assert!(acc < 0.9, "rule accuracy {acc:.3} suspiciously high");
    }
}
