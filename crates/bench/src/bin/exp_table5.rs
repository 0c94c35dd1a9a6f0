//! Table V: per-type stage recalls, final accuracy, support, and the
//! same-type clustering statistics (cnt-same / cnt-all / c-rate).
//!
//! ```sh
//! cargo run --release -p cati-bench --bin exp_table5 -- --scale medium
//! ```

use cati::report::{cell, pct, Table};
use cati::{pipeline_confusions, vote, Confusion, EmbeddedExtraction};
use cati_analysis::clustering_stats;
use cati_bench::{load_ctx_observed, RunObs, Scale};
use cati_dwarf::{StageId, TypeClass};
use cati_synbin::Compiler;

fn main() {
    let scale = Scale::from_args();
    let run = RunObs::from_args("exp_table5");
    let ctx = load_ctx_observed(scale, Compiler::Gcc, run.obs());

    let n = TypeClass::ALL.len();
    // Per class: [stage-depth-0..2 recall numerators/denominators];
    // the final decision's per-class recall and support come from the
    // variable confusion.
    let mut stage_ok = vec![[0u64; 3]; n];
    let mut stage_n = vec![[0u64; 3]; n];
    let mut vars = Confusion::new(n);

    for (_, ex) in ctx.test.iter() {
        let session = EmbeddedExtraction::new(&ctx.cati.embedder, ex);
        let xs = session.embedded();
        // Cache stage distributions for all VUCs.
        let stage_dists: Vec<(StageId, cati::Tensor)> = StageId::ALL
            .iter()
            .map(|&s| (s, ctx.cati.stages.stage_probs_batch(s, xs)))
            .collect();
        let dist_of = |s: StageId, i: usize| -> &[f32] {
            stage_dists
                .iter()
                .find(|(x, _)| *x == s)
                .expect("stage cached")
                .1
                .row(i)
        };
        for var in &ex.vars {
            let Some(class) = var.class else { continue };
            let ci = class.index();
            // Per-stage voted prediction along the truth path.
            for (depth, (stage, truth_label)) in StageId::path_of(class).iter().enumerate() {
                let dists: Vec<&[f32]> = var
                    .vucs
                    .iter()
                    .map(|&v| dist_of(*stage, v as usize))
                    .collect();
                let pred = vote(&dists, ctx.cati.config.vote_threshold).class;
                stage_n[ci][depth] += 1;
                stage_ok[ci][depth] += u64::from(pred == *truth_label);
            }
        }
        // Final composed decision.
        vars += &pipeline_confusions(&ctx.cati, &session).1;
    }

    let clustering = clustering_stats(ctx.test.iter().map(|(_, e)| e));

    let mut table = Table::new(&[
        "Type", "S1-R", "S2-R", "S3-R", "ACC", "Support", "cnt-same", "cnt-all", "c-rate",
    ]);
    for class in TypeClass::ALL {
        let ci = class.index();
        let depth_cell = |d: usize| match stage_n[ci][d] {
            0 => "-".to_string(),
            n => cell(stage_ok[ci][d] as f64 / n as f64, n),
        };
        let cs = &clustering.per_class[ci];
        table.row(vec![
            class.name().to_string(),
            depth_cell(0),
            depth_cell(1),
            depth_cell(2),
            cell(vars.per_class(ci).recall, vars.support(ci)),
            vars.support(ci).to_string(),
            format!("{:.2}", cs.cnt_same()),
            format!("{:.2}", cs.cnt_all()),
            pct(cs.c_rate()),
        ]);
    }
    println!(
        "\nTable V — per-type stage recalls and clustering ({})\n",
        scale.name()
    );
    println!("{}", table.render());
    println!(
        "overall clustering: cnt-same {:.2}, cnt-all {:.2}, c-rate {}   (paper: ~53% same-type)",
        clustering.overall.cnt_same(),
        clustering.overall.cnt_all(),
        pct(clustering.overall.c_rate())
    );
    println!("Expected shape (paper): double/int strong; enum/short/long-long weak;");
    println!("final recall roughly tracks the clustering ratio.");
}
