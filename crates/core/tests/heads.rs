//! Integration tests for the auxiliary classifier heads: compiler
//! identification (§VIII) and the DEBIN 17-type task (§VII).

use cati::{embedding_sentences, CompilerId, Config, Confusion, DebinTask};
use cati_analysis::{extract, Extraction, FeatureView};
use cati_embedding::{VucEmbedder, Word2Vec};
use cati_synbin::{build_corpus, Compiler, CorpusConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn embedder_over(binaries: &[cati_synbin::BuiltBinary], config: &Config) -> VucEmbedder {
    let mut rng = StdRng::seed_from_u64(1);
    let sentences = embedding_sentences(binaries, config.max_sentences, &mut rng);
    VucEmbedder::new(Word2Vec::train(&sentences, config.w2v))
}

#[test]
fn compiler_id_separates_gcc_from_clang() {
    // The frame-base / scratch-register signal is strong but the tiny
    // preset underfits it; use an intermediate capacity (seconds).
    let mut config = Config::small();
    config.w2v.dim = 12;
    config.conv1 = 12;
    config.conv2 = 16;
    config.fc = 96;
    config.epochs = 4;
    config.max_stage_samples = 12_000;
    let mut corpus_cfg = CorpusConfig::small(10);
    corpus_cfg.train_projects = 4;
    corpus_cfg.scale = 0.5;
    let gcc = build_corpus(&corpus_cfg.clone().with_compiler(Compiler::Gcc));
    let mut corpus_cfg2 = corpus_cfg;
    corpus_cfg2.seed = 11;
    let clang = build_corpus(&corpus_cfg2.with_compiler(Compiler::Clang));
    let mut all = gcc.train.clone();
    all.extend(clang.train.iter().cloned());
    let embedder = embedder_over(&all, &config);

    let exs = |bins: &[cati_synbin::BuiltBinary], c: Compiler| -> Vec<(Extraction, Compiler)> {
        bins.iter()
            .map(|b| (extract(&b.binary, FeatureView::WithSymbols).unwrap(), c))
            .collect()
    };
    let train: Vec<(Extraction, Compiler)> = exs(&gcc.train, Compiler::Gcc)
        .into_iter()
        .chain(exs(&clang.train, Compiler::Clang))
        .collect();
    let test: Vec<(Extraction, Compiler)> = exs(&gcc.test[..6], Compiler::Gcc)
        .into_iter()
        .chain(exs(&clang.test[..6], Compiler::Clang))
        .collect();
    let train_refs: Vec<(&Extraction, Compiler)> = train.iter().map(|(e, c)| (e, *c)).collect();
    let test_refs: Vec<(&Extraction, Compiler)> = test.iter().map(|(e, c)| (e, *c)).collect();

    let id = CompilerId::train(&train_refs, &embedder, &config);
    let acc = id.accuracy(&embedder, &test_refs).accuracy();
    // The paper reaches 100% (and our medium-scale experiment 98.7%
    // per VUC); the test-scale model sees far less data, so we assert
    // a clear margin per VUC and near-perfection after the per-binary
    // majority vote, which is what the 100% claim rests on.
    assert!(acc > 0.72, "compiler-id VUC accuracy {acc:.3}");

    let mut bins = Confusion::new(2);
    for (ex, c) in &test_refs {
        bins.record(*c as usize, id.predict_binary(&embedder, ex) as usize);
    }
    assert!(
        bins.correct() + 1 >= bins.total(),
        "binary-level {}/{}",
        bins.correct(),
        bins.total()
    );
}

#[test]
fn debin_task_trains_and_scores_above_chance() {
    let config = Config::small();
    let corpus = build_corpus(&CorpusConfig::small(12));
    let embedder = embedder_over(&corpus.train, &config);
    let train: Vec<Extraction> = corpus
        .train
        .iter()
        .map(|b| extract(&b.binary, FeatureView::WithSymbols).unwrap())
        .collect();
    let test: Vec<Extraction> = corpus
        .test
        .iter()
        .take(8)
        .map(|b| extract(&b.binary, FeatureView::Stripped).unwrap())
        .collect();
    let train_refs: Vec<&Extraction> = train.iter().collect();
    let test_refs: Vec<&Extraction> = test.iter().collect();

    let task = DebinTask::train(&train_refs, &embedder, &config);
    let acc = task.accuracy(&test_refs, &embedder).accuracy();
    // 17 classes, so chance ~6%; pointer alone is >30% of variables.
    assert!(acc > 0.30, "17-type accuracy {acc:.3} at chance level");
}
