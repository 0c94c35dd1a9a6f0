//! Compiler identification (paper §VIII): a VUC-level GCC-vs-Clang
//! classifier the paper trains to 100% accuracy.
//!
//! ```sh
//! cargo run --release -p cati-bench --bin exp_compiler_id -- --scale medium
//! ```

use cati::{embedding_sentences, CompilerId, Confusion};
use cati_analysis::{Extraction, FeatureView};
use cati_bench::{RunObs, Scale, SEED};
use cati_embedding::{VucEmbedder, Word2Vec};
use cati_synbin::{build_corpus, Compiler};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_args();
    let run = RunObs::from_args("exp_compiler_id");
    let _main_span = cati::obs::SpanGuard::enter(run.obs(), "main");
    let config = scale.config();
    let gcc = build_corpus(&scale.corpus(SEED).with_compiler(Compiler::Gcc));
    let clang = build_corpus(&scale.corpus(SEED + 1).with_compiler(Compiler::Clang));

    let mut all = gcc.train.clone();
    all.extend(clang.train.iter().cloned());
    let mut rng = StdRng::seed_from_u64(SEED);
    let sentences = embedding_sentences(&all, config.max_sentences, &mut rng);
    let embedder = VucEmbedder::new(Word2Vec::train(&sentences, config.w2v));

    let exs = |bins: &[cati_synbin::BuiltBinary], c: Compiler| -> Vec<(Extraction, Compiler)> {
        bins.iter()
            .map(|b| {
                (
                    cati_analysis::extract(&b.binary, FeatureView::WithSymbols).unwrap(),
                    c,
                )
            })
            .collect()
    };
    let train: Vec<(Extraction, Compiler)> = exs(&gcc.train, Compiler::Gcc)
        .into_iter()
        .chain(exs(&clang.train, Compiler::Clang))
        .collect();
    let test: Vec<(Extraction, Compiler)> = exs(&gcc.test, Compiler::Gcc)
        .into_iter()
        .chain(exs(&clang.test, Compiler::Clang))
        .collect();
    let train_refs: Vec<(&Extraction, Compiler)> = train.iter().map(|(e, c)| (e, *c)).collect();
    let test_refs: Vec<(&Extraction, Compiler)> = test.iter().map(|(e, c)| (e, *c)).collect();

    eprintln!("[compiler-id] training...");
    let id = CompilerId::train(&train_refs, &embedder, &config);
    let vucs = id.accuracy(&embedder, &test_refs);
    let mut bins = Confusion::new(2);
    for (ex, c) in &test_refs {
        bins.record(*c as usize, id.predict_binary(&embedder, ex) as usize);
    }

    println!("\nCompiler identification (paper §VIII)\n");
    println!("VUC-level accuracy:    {:.2}%", vucs.accuracy() * 100.0);
    println!(
        "binary-level accuracy: {:.2}% ({}/{})",
        100.0 * bins.accuracy(),
        bins.correct(),
        bins.total()
    );
    println!("paper: 100% accuracy from register-usage differences");
}
