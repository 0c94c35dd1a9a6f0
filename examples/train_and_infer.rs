//! Full training run with model persistence and per-application
//! evaluation — the workflow of paper §VII.
//!
//! ```sh
//! cargo run --release --example train_and_infer [small|medium]
//! ```

use cati::{pipeline_confusions, Cati, Config, Confusion, EmbeddedExtraction};
use cati_analysis::{extract, FeatureView};
use cati_dwarf::TypeClass;
use cati_synbin::{build_corpus, CorpusConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = std::env::args().nth(1).unwrap_or_else(|| "small".into());
    let (config, corpus_cfg) = match scale.as_str() {
        "medium" => (Config::medium(), CorpusConfig::medium(7)),
        _ => (Config::small(), CorpusConfig::small(7)),
    };
    let corpus = build_corpus(&corpus_cfg);
    let cati = Cati::train(
        &corpus.train,
        &config,
        &cati::obs::FnObserver(|line: &str| println!("[train] {line}")),
    );

    // Persist and reload, as a deployment would.
    let model_path = std::env::temp_dir().join("cati_trained_model.json");
    cati.save(&model_path)?;
    println!(
        "model saved to {} ({} bytes)",
        model_path.display(),
        std::fs::metadata(&model_path)?.len()
    );
    let cati = Cati::load(&model_path)?;

    // Evaluate per application at both granularities.
    println!(
        "\n{:<12} {:>8} {:>9} {:>8} {:>9}",
        "app", "vuc-acc", "vuc-n", "var-acc", "var-n"
    );
    let empty = Confusion::new(TypeClass::ALL.len());
    let mut by_app: std::collections::BTreeMap<String, (Confusion, Confusion)> = Default::default();
    for built in &corpus.test {
        let ex = extract(&built.binary, FeatureView::Stripped)?;
        let (v, r) = pipeline_confusions(&cati, &EmbeddedExtraction::new(&cati.embedder, &ex));
        let e = by_app
            .entry(built.app.clone())
            .or_insert_with(|| (empty.clone(), empty.clone()));
        e.0 += &v;
        e.1 += &r;
    }
    let (mut vucs, mut vars) = (empty.clone(), empty);
    let row = |app: &str, v: &Confusion, r: &Confusion| {
        println!(
            "{:<12} {:>8.3} {:>9} {:>8.3} {:>9}",
            app,
            v.accuracy(),
            v.total(),
            r.accuracy(),
            r.total()
        );
    };
    for (app, (v, r)) in &by_app {
        row(app, v, r);
        vucs += v;
        vars += r;
    }
    row("total", &vucs, &vars);
    std::fs::remove_file(&model_path).ok();
    Ok(())
}
