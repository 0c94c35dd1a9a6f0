//! End-to-end integration: corpus → training → inference on unseen
//! stripped binaries.

use cati::{pipeline_confusions, Cati, Config, Confusion, EmbeddedExtraction};
use cati_analysis::{extract, FeatureView};
use cati_dwarf::TypeClass;
use cati_synbin::{build_corpus, Corpus, CorpusConfig};

fn small_corpus() -> Corpus {
    build_corpus(&CorpusConfig::small(2024))
}

fn train_small(corpus: &Corpus) -> Cati {
    Cati::train(&corpus.train, &Config::small(), &cati::obs::NOOP)
}

#[test]
fn trained_system_beats_chance_on_unseen_binaries() {
    let corpus = small_corpus();
    let cati = train_small(&corpus);
    let mut vucs = Confusion::new(TypeClass::ALL.len());
    let mut vars = Confusion::new(TypeClass::ALL.len());
    for built in corpus.test.iter().take(6) {
        let ex = extract(&built.binary, FeatureView::Stripped).unwrap();
        let (v, r) = pipeline_confusions(&cati, &EmbeddedExtraction::new(&cati.embedder, &ex));
        vucs += &v;
        vars += &r;
    }
    let (n, vuc_acc, var_acc) = (vucs.total(), vucs.accuracy(), vars.accuracy());
    assert!(n > 100, "need a real test sample, got {n} VUCs");
    // 19 classes => chance is ~5%, majority class well under 40%.
    // Even the tiny test-scale model must clearly beat chance.
    assert!(
        vuc_acc > 0.25,
        "VUC accuracy {vuc_acc:.3} is at chance level"
    );
    assert!(
        var_acc > 0.25,
        "variable accuracy {var_acc:.3} is at chance level"
    );
}

#[test]
fn inference_on_stripped_binary_produces_located_typed_vars() {
    let corpus = small_corpus();
    let cati = train_small(&corpus);
    let built = &corpus.test[0];
    let stripped = built.binary.strip();
    assert!(stripped.is_stripped());
    let inferred = cati.infer(&stripped).unwrap();
    assert!(!inferred.is_empty());
    for var in &inferred {
        assert!(var.vuc_count >= 1);
        assert!(var.confidence > 0.0 && var.confidence <= 1.0);
    }
    // The inferred variable locations cover most of the oracle's
    // (stripped recovery also finds excluded-class slots).
    let oracle = extract(&built.binary, FeatureView::WithSymbols).unwrap();
    let inferred_keys: std::collections::HashSet<_> = inferred.iter().map(|v| v.key).collect();
    let covered = oracle
        .vars
        .iter()
        .filter(|v| inferred_keys.contains(&v.key))
        .count();
    assert!(
        covered * 2 >= oracle.vars.len(),
        "only {covered}/{} oracle variables located on stripped input",
        oracle.vars.len()
    );
}

#[test]
fn model_save_load_roundtrip_preserves_predictions() {
    let corpus = small_corpus();
    let cati = train_small(&corpus);
    let path = std::env::temp_dir().join("cati_model_roundtrip.json");
    cati.save(&path).unwrap();
    let loaded = Cati::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let ex = extract(&corpus.test[0].binary, FeatureView::Stripped).unwrap();
    let a = cati.evaluate(&ex);
    let b = loaded.evaluate(&ex);
    assert_eq!(a.vuc_preds, b.vuc_preds);
    assert_eq!(a.var_preds, b.var_preds);
}

#[test]
fn training_is_reproducible() {
    let corpus = small_corpus();
    let a = train_small(&corpus);
    let b = train_small(&corpus);
    let ex = extract(&corpus.test[0].binary, FeatureView::Stripped).unwrap();
    assert_eq!(a.evaluate(&ex).vuc_preds, b.evaluate(&ex).vuc_preds);
}
