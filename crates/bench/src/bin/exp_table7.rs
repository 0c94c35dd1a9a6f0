//! Table VII: the transferability experiment — retrain the full
//! pipeline on a Clang-compiled corpus and report per-stage P/R/F1
//! (paper §VIII; total variable accuracy 82.14%).
//!
//! Each test extraction is embedded once into an
//! [`EmbeddedExtraction`] session shared by all six stage evaluations
//! and the end-to-end accuracy pass.
//!
//! ```sh
//! cargo run --release -p cati-bench --bin exp_table7 -- --scale medium
//! ```

use cati::report::Table;
use cati::{pipeline_confusions, stage_vuc_metrics, Confusion, EmbeddedExtraction};
use cati_bench::{load_ctx_observed, scored, RunObs, Scale};
use cati_dwarf::{StageId, TypeClass};
use cati_synbin::Compiler;
use serde_json::json;

fn main() {
    let scale = Scale::from_args();
    let run = RunObs::from_args("exp_table7");
    let ctx = load_ctx_observed(scale, Compiler::Clang, run.obs());
    let sessions: Vec<EmbeddedExtraction> = ctx
        .test
        .iter()
        .map(|(_, ex)| EmbeddedExtraction::new_observed(&ctx.cati.embedder, ex, run.obs()))
        .collect();

    let mut table = Table::new(&["Stage", "Precision", "Recall", "F1-score"]);
    for stage in StageId::ALL {
        let (prf, conf) = stage_vuc_metrics(&ctx.cati, &sessions, stage);
        if conf.total() == 0 {
            table.row(vec![
                stage.name().into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        table.row(vec![
            stage.name().to_string(),
            format!("{:.2}", prf.precision),
            format!("{:.2}", prf.recall),
            format!("{:.2}", prf.f1),
        ]);
    }
    println!(
        "\nTable VII — evaluation on Clang-compiled corpus ({})\n",
        scale.name()
    );
    println!("{}", table.render());

    let mut vars = Confusion::new(TypeClass::ALL.len());
    for session in &sessions {
        vars += &pipeline_confusions(&ctx.cati, session).1;
    }
    println!(
        "total variable accuracy on Clang: {:.2}%   (paper: 82.14%)",
        100.0 * vars.accuracy()
    );
    println!("Conclusion to check: the prototype transfers across compilers.");

    run.finish(&json!({ "scale": scale.name(), "total_var": scored(&vars) }));
}
