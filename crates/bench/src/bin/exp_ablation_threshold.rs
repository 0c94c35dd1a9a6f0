//! Ablation: the confidence-clipping threshold of the voting rule.
//!
//! The paper sets the threshold to 0.9 "after several empirical
//! experiments" (§V-B). This sweep regenerates that choice: variable
//! accuracy across thresholds, where 1.1 disables clipping entirely
//! (plain confidence summation).
//!
//! ```sh
//! cargo run --release -p cati-bench --bin exp_ablation_threshold -- --scale medium
//! ```

use cati::dataset::embed_extraction;
use cati::report::Table;
use cati::{vote, Confusion};
use cati_bench::{load_ctx_observed, scored, RunObs, Scale};
use cati_dwarf::TypeClass;
use cati_synbin::Compiler;
use serde_json::json;

fn main() {
    let scale = Scale::from_args();
    let run = RunObs::from_args("exp_ablation_threshold");
    let ctx = load_ctx_observed(scale, Compiler::Gcc, run.obs());

    // Precompute leaf distributions once.
    let mut per_var: Vec<(TypeClass, Vec<Vec<f32>>)> = Vec::new();
    for (_, ex) in ctx.test.iter() {
        let xs = embed_extraction(ex, &ctx.cati.embedder);
        let dists = ctx.cati.stages.leaf_distributions_batch(&xs);
        for var in &ex.vars {
            let Some(class) = var.class else { continue };
            let vd: Vec<Vec<f32>> = var
                .vucs
                .iter()
                .map(|&v| dists.row(v as usize).to_vec())
                .collect();
            per_var.push((class, vd));
        }
    }

    let mut table = Table::new(&["threshold", "variable accuracy", "note"]);
    let mut rows = Vec::new();
    for &threshold in &[0.5f32, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.1] {
        let mut vars = Confusion::new(TypeClass::ALL.len());
        for (class, dists) in &per_var {
            vars.record(class.index(), vote(dists, threshold).class);
        }
        let acc = vars.accuracy();
        let note = if threshold == 0.9 {
            "paper's choice"
        } else if threshold > 1.0 {
            "clipping disabled"
        } else {
            ""
        };
        table.row(vec![
            format!("{threshold:.2}"),
            format!("{acc:.4}"),
            note.into(),
        ]);
        rows.push(json!({ "threshold": format!("{threshold:.2}"), "var": scored(&vars) }));
    }
    println!(
        "\nAblation — voting threshold ({}; {} variables)\n",
        scale.name(),
        per_var.len()
    );
    println!("{}", table.render());

    run.finish(&json!({ "scale": scale.name(), "thresholds": rows }));
}
