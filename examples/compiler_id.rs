//! Compiler identification (paper §VIII): tell GCC output from Clang
//! output at VUC and binary granularity.
//!
//! ```sh
//! cargo run --release --example compiler_id [small|medium]
//! ```

use cati::{embedding_sentences, CompilerId, Config, Confusion};
use cati_analysis::{extract, Extraction, FeatureView};
use cati_embedding::{VucEmbedder, Word2Vec};
use cati_synbin::{build_corpus, Compiler, CorpusConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = std::env::args().nth(1).unwrap_or_else(|| "small".into());
    let (config, make_cfg): (Config, fn(u64) -> CorpusConfig) = match scale.as_str() {
        "medium" => (Config::medium(), CorpusConfig::medium),
        _ => (Config::small(), CorpusConfig::small),
    };
    let gcc = build_corpus(&make_cfg(1).with_compiler(Compiler::Gcc));
    let clang = build_corpus(&make_cfg(2).with_compiler(Compiler::Clang));

    // Shared embedder over both compilers' code.
    let mut all = gcc.train.clone();
    all.extend(clang.train.iter().cloned());
    let mut rng = StdRng::seed_from_u64(0);
    let sentences = embedding_sentences(&all, config.max_sentences, &mut rng);
    let embedder = VucEmbedder::new(Word2Vec::train(&sentences, config.w2v));

    let extract_all = |binaries: &[cati_synbin::BuiltBinary], compiler: Compiler| {
        binaries
            .iter()
            .map(|b| {
                (
                    extract(&b.binary, FeatureView::WithSymbols).unwrap(),
                    compiler,
                )
            })
            .collect::<Vec<_>>()
    };
    let train: Vec<(Extraction, Compiler)> = extract_all(&gcc.train, Compiler::Gcc)
        .into_iter()
        .chain(extract_all(&clang.train, Compiler::Clang))
        .collect();
    let test: Vec<(Extraction, Compiler)> = extract_all(&gcc.test, Compiler::Gcc)
        .into_iter()
        .chain(extract_all(&clang.test, Compiler::Clang))
        .collect();

    let train_refs: Vec<(&Extraction, Compiler)> = train.iter().map(|(e, c)| (e, *c)).collect();
    let test_refs: Vec<(&Extraction, Compiler)> = test.iter().map(|(e, c)| (e, *c)).collect();

    println!("training compiler-id classifier...");
    let id = CompilerId::train(&train_refs, &embedder, &config);
    let vucs = id.accuracy(&embedder, &test_refs);

    let mut bins = Confusion::new(2);
    for (ex, truth) in &test_refs {
        bins.record(*truth as usize, id.predict_binary(&embedder, ex) as usize);
    }
    println!("VUC-level accuracy:    {:.2}%", vucs.accuracy() * 100.0);
    println!(
        "binary-level accuracy: {:.2}% ({}/{} binaries)",
        100.0 * bins.accuracy(),
        bins.correct(),
        bins.total()
    );
    println!("(paper reports 100% on this task)");
    Ok(())
}
