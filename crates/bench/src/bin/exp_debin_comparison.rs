//! DEBIN comparison (paper §VII): the 17-type task, CATI vs the
//! baseline families. The paper reports CATI 0.84 vs DEBIN 0.73 —
//! an ~11-point gap attributed to context features. We reproduce the
//! *shape*: context-assisted CATI beats every context-free method.
//!
//! ```sh
//! cargo run --release -p cati-bench --bin exp_debin_comparison -- --scale medium
//! ```

use cati::report::Table;
use cati::{pipeline_confusions, Confusion, DebinTask, EmbeddedExtraction};
use cati_analysis::Extraction;
use cati_baselines::{
    blank_extraction, variable_accuracy, NoContextCati, RuleTyper, SignatureKnn, SignatureWidth,
    VarTyper,
};
use cati_bench::{load_ctx_observed, scored, RunObs, Scale};
use cati_dwarf::TypeClass;
use cati_synbin::Compiler;
use serde_json::json;

fn main() {
    let scale = Scale::from_args();
    let run = RunObs::from_args("exp_debin_comparison");
    let ctx = load_ctx_observed(scale, Compiler::Gcc, run.obs());
    let train: Vec<&Extraction> = ctx.train.iter().map(|(_, e)| e).collect();
    let test: Vec<&Extraction> = ctx.test.iter().map(|(_, e)| e).collect();
    let config = scale.config();

    // --- 17-type task: CATI (flat 17-class + voting) vs a
    // dependency-only variant (blanked context = DEBIN-style features).
    eprintln!("[debin] training 17-type CATI head...");
    let cati17 =
        DebinTask::train(&train, &ctx.cati.embedder, &config).accuracy(&test, &ctx.cati.embedder);

    eprintln!("[debin] training 17-type no-context head...");
    let blanked_train: Vec<Extraction> = train.iter().map(|e| blank_extraction(e)).collect();
    let blanked_refs: Vec<&Extraction> = blanked_train.iter().collect();
    let nocontext17 = DebinTask::train(&blanked_refs, &ctx.cati.embedder, &config);
    let blanked_test: Vec<Extraction> = test.iter().map(|e| blank_extraction(e)).collect();
    let blanked_test_refs: Vec<&Extraction> = blanked_test.iter().collect();
    let nocontext17 = nocontext17.accuracy(&blanked_test_refs, &ctx.cati.embedder);

    // --- 19-type task: baseline ladder.
    eprintln!("[debin] training no-context 19-type baseline...");
    let nocontext = NoContextCati::train(&ctx.train, &ctx.cati.embedder, &config);
    eprintln!("[debin] training signature k-NN baselines...");
    let knn_narrow = SignatureKnn::train(train.iter().copied(), SignatureWidth::TargetOnly);
    let knn_wide = SignatureKnn::train(train.iter().copied(), SignatureWidth::TargetPlusMinusOne);

    let mut cati19 = Confusion::new(TypeClass::ALL.len());
    for ex in &test {
        cati19 +=
            &pipeline_confusions(&ctx.cati, &EmbeddedExtraction::new(&ctx.cati.embedder, ex)).1;
    }
    let ladder: Vec<(String, Confusion)> = vec![
        ("CATI (full)".to_string(), cati19),
        (
            RuleTyper.name().to_string(),
            variable_accuracy(&RuleTyper, test.iter().copied()),
        ),
        (
            format!("{} (target only)", knn_narrow.name()),
            variable_accuracy(&knn_narrow, test.iter().copied()),
        ),
        (
            format!("{} (target +/-1)", knn_wide.name()),
            variable_accuracy(&knn_wide, test.iter().copied()),
        ),
        (
            nocontext.name().to_string(),
            variable_accuracy(&nocontext, test.iter().copied()),
        ),
    ];

    println!("\nDEBIN comparison ({})\n", scale.name());
    let mut t17 = Table::new(&["method (17-type task)", "variable accuracy"]);
    let mut rows = Vec::new();
    for (name, m) in [
        ("CATI (context VUCs)", &cati17),
        ("dependency-only (DEBIN-style features)", &nocontext17),
    ] {
        t17.row(vec![name.into(), format!("{:.3}", m.accuracy())]);
        rows.push(json!({ "task": 17, "method": name, "var": scored(m) }));
    }
    println!("{}", t17.render());
    println!("paper: CATI 0.84 vs DEBIN 0.73 (+11 points)\n");

    let mut t19 = Table::new(&["method (19-type task)", "variable accuracy"]);
    for (name, m) in &ladder {
        t19.row(vec![name.clone(), format!("{:.3}", m.accuracy())]);
        rows.push(json!({ "task": 19, "method": name, "var": scored(m) }));
    }
    println!("{}", t19.render());
    println!(
        "signature collision rates: target-only {:.1}%, +/-1 {:.1}% (uncertain samples)",
        knn_narrow.collision_rate() * 100.0,
        knn_wide.collision_rate() * 100.0
    );
    println!("Expected shape: CATI > no-context/k-NN/rules; gap ~= the paper's DEBIN gap.");

    run.finish(&json!({ "scale": scale.name(), "ladder": rows }));
}
