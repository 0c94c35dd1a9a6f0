//! The paper's central claim, as an executable test: context features
//! (the VUC) beat context-free methods on the same data.

use cati::{
    embedding_sentences, pipeline_confusions, Cati, Config, Confusion, Dataset, EmbeddedExtraction,
};
use cati_analysis::FeatureView;
use cati_baselines::{variable_accuracy, NoContextCati, RuleTyper, SignatureKnn, SignatureWidth};
use cati_dwarf::TypeClass;
use cati_embedding::{VucEmbedder, Word2Vec};
use cati_synbin::{build_corpus, CorpusConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn gap_experiment(corpus_cfg: CorpusConfig, config: Config) -> (f64, f64, f64, f64, u64) {
    let corpus = build_corpus(&corpus_cfg);
    let cati = Cati::train(&corpus.train, &config, &cati::obs::NOOP);
    let train_ds = Dataset::from_binaries(&corpus.train, FeatureView::WithSymbols);
    let test_ds = Dataset::from_binaries(&corpus.test, FeatureView::Stripped);
    let test: Vec<&cati_analysis::Extraction> = test_ds.iter().map(|(_, e)| e).collect();

    // Full CATI, variable level.
    let mut vars = Confusion::new(TypeClass::ALL.len());
    for ex in &test {
        vars += &pipeline_confusions(&cati, &EmbeddedExtraction::new(&cati.embedder, ex)).1;
    }

    // No-context ablation reusing the same embedder.
    let nocontext = NoContextCati::train(&train_ds, &cati.embedder, &config);
    let nc = variable_accuracy(&nocontext, test.iter().copied());

    // Rules and signature k-NN.
    let rules = variable_accuracy(&RuleTyper, test.iter().copied());
    let train_refs: Vec<&cati_analysis::Extraction> = train_ds.iter().map(|(_, e)| e).collect();
    let knn = SignatureKnn::train(train_refs.iter().copied(), SignatureWidth::TargetOnly);
    let knn = variable_accuracy(&knn, test.iter().copied());
    (
        vars.accuracy(),
        nc.accuracy(),
        rules.accuracy(),
        knn.accuracy(),
        vars.total(),
    )
}

/// Quick sanity version: at tiny scale the context model cannot be
/// expected to *beat* the target-only ablation (context needs data),
/// but it must stay competitive and beat the non-learning baselines.
#[test]
fn context_model_is_competitive_at_small_scale() {
    let mut corpus_cfg = CorpusConfig::small(4242);
    corpus_cfg.scale = 0.5;
    corpus_cfg.train_projects = 4;
    let mut config = Config::small();
    config.w2v.dim = 12;
    config.conv1 = 12;
    config.conv2 = 16;
    config.fc = 96;
    config.epochs = 3;
    let (cati_acc, nc_acc, rules_acc, knn_acc, n) = gap_experiment(corpus_cfg, config);
    assert!(n > 200, "need a real test sample");
    assert!(
        cati_acc > rules_acc,
        "CATI {cati_acc:.3} vs rules {rules_acc:.3}"
    );
    assert!(cati_acc > knn_acc, "CATI {cati_acc:.3} vs knn {knn_acc:.3}");
    assert!(
        cati_acc > nc_acc - 0.15,
        "CATI {cati_acc:.3} collapsed vs no-context {nc_acc:.3}"
    );
}

/// The paper's claim at reporting scale. Slow (~1 min); run with
/// `cargo test -p cati-baselines -- --ignored`.
#[test]
#[ignore = "trains two medium-capacity models (~1 min)"]
fn context_beats_every_context_free_baseline() {
    let (cati_acc, nc_acc, rules_acc, knn_acc, n) =
        gap_experiment(CorpusConfig::medium(4242), Config::medium());
    assert!(n > 500, "need a real test sample");
    assert!(
        cati_acc > nc_acc + 0.01,
        "context gap missing: CATI {cati_acc:.3} vs no-context {nc_acc:.3}"
    );
    assert!(cati_acc > rules_acc);
    assert!(cati_acc > knn_acc);
}

#[test]
fn nocontext_cannot_separate_uncertain_samples() {
    // Two windows whose targets are identical after generalization but
    // whose contexts differ must receive the same no-context prediction
    // and may receive different CATI predictions.
    let corpus = build_corpus(&CorpusConfig::small(777));
    let config = Config::small();
    let train_ds = Dataset::from_binaries(&corpus.train, FeatureView::WithSymbols);
    let mut rng = StdRng::seed_from_u64(0);
    let sentences = embedding_sentences(&corpus.train, config.max_sentences, &mut rng);
    let embedder = VucEmbedder::new(Word2Vec::train(&sentences, config.w2v));
    let nocontext = NoContextCati::train(&train_ds, &embedder, &config);

    // Find two VUCs with identical generalized centers in different
    // extractions.
    let mut by_center: std::collections::HashMap<String, Vec<(usize, usize)>> = Default::default();
    for (ei, (_, ex)) in train_ds.entries.iter().enumerate() {
        for (vi, vuc) in ex.vucs.iter().enumerate() {
            by_center
                .entry(vuc.insns[cati_analysis::WINDOW].to_string())
                .or_default()
                .push((ei, vi));
        }
    }
    let group = by_center
        .values()
        .find(|v| v.len() >= 2)
        .expect("collisions exist");
    let (e1, v1) = group[0];
    let (e2, v2) = group[1];

    // Build single-VUC pseudo-variables and compare predictions.
    let predict = |ei: usize, vi: usize| -> TypeClass {
        let ex = &train_ds.entries[ei].1;
        let mut solo = ex.clone();
        solo.vars = vec![cati_analysis::Variable {
            key: ex.vars[ex.vucs[vi].var as usize].key,
            name: None,
            class: None,
            debin: None,
            vucs: vec![0],
        }];
        solo.vucs = vec![ex.vucs[vi].clone()];
        solo.vucs[0].var = 0;
        cati_baselines::VarTyper::predict_var(&nocontext, &solo, 0)
    };
    assert_eq!(
        predict(e1, v1),
        predict(e2, v2),
        "identical generalized targets must get identical no-context predictions"
    );
}
