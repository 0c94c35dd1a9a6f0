//! Ablation: context window width and context-assembly mode.
//!
//! Two axes over the paper's core design choice (§II-A):
//!
//! 1. **Width** — models retrained with the context masked to ±w for
//!    w ∈ {0, 2, 5, 10}; w = 0 is the no-context baseline, the proxy
//!    for dependency-only methods like DEBIN/TypeMiner on orphan
//!    variables.
//! 2. **Mode** — the paper's function-local windows (out-of-range
//!    slots pad with BLANK) versus interprocedural windows (callee
//!    prologues / caller continuations spliced into the padding at
//!    call/ret boundaries, DESIGN.md §17). Stages are retrained per
//!    mode on matching extractions; the Word2Vec embedder is shared —
//!    spliced slots contain ordinary generalized instructions, so the
//!    vocabulary is identical.
//!
//! ```sh
//! cargo run --release -p cati-bench --bin exp_ablation_window -- --scale medium
//! cargo run --release -p cati-bench --bin exp_ablation_window -- --quick
//! ```
//!
//! `--quick` trims the width axis to {0, 10} for CI smoke runs.

use cati::report::Table;
use cati::{
    pipeline_confusions, Cati, Confusion, ContextMode, Dataset, EmbeddedExtraction, MultiStage,
};
use cati_analysis::{FeatureView, WINDOW};
use cati_asm::generalize::GenInsn;
use cati_bench::{load_ctx_observed, scored, RunObs, Scale};
use cati_dwarf::TypeClass;
use cati_synbin::Compiler;
use serde_json::json;

/// Blanks all instructions farther than `w` from the center.
fn mask_window(insns: &[GenInsn], w: usize) -> Vec<GenInsn> {
    insns
        .iter()
        .enumerate()
        .map(|(i, g)| {
            if i.abs_diff(WINDOW) <= w {
                g.clone()
            } else {
                GenInsn::blank()
            }
        })
        .collect()
}

fn mask_dataset(ds: &Dataset, w: usize) -> Dataset {
    Dataset {
        entries: ds
            .entries
            .iter()
            .map(|(app, ex)| {
                let mut ex = ex.clone();
                for vuc in &mut ex.vucs {
                    vuc.insns = mask_window(&vuc.insns, w);
                }
                (app.clone(), ex)
            })
            .collect(),
    }
}

/// Scores `stages`, trained on one variant of the data, with the
/// pipeline scorer around the context model's embedder and config.
fn score(base: &Cati, stages: MultiStage, test: &Dataset) -> (Confusion, Confusion) {
    let cati = Cati {
        config: base.config,
        embedder: base.embedder.clone(),
        stages,
    };
    let mut vucs = Confusion::new(TypeClass::ALL.len());
    let mut vars = vucs.clone();
    for (_, ex) in test.iter() {
        let (v, r) = pipeline_confusions(&cati, &EmbeddedExtraction::new(&cati.embedder, ex));
        vucs += &v;
        vars += &r;
    }
    (vucs, vars)
}

fn main() {
    let scale = Scale::from_args();
    let quick = std::env::args().any(|a| a == "--quick");
    let run = RunObs::from_args("exp_ablation_window");
    let ctx = load_ctx_observed(scale, Compiler::Gcc, run.obs());
    let config = scale.config();

    // Axis 1: window width (function-local mode).
    let widths: &[usize] = if quick { &[0, 10] } else { &[0, 2, 5, 10] };
    let mut width_rows = Vec::new();
    let mut table = Table::new(&["window ±w", "VUC accuracy", "variable accuracy", "note"]);
    for &w in widths {
        eprintln!("[ablation] training with window ±{w}...");
        let train = mask_dataset(&ctx.train, w);
        let test = mask_dataset(&ctx.test, w);
        let stages = MultiStage::train(&train, &ctx.cati.embedder, &config, &cati::obs::NOOP);
        let (vucs, vars) = score(&ctx.cati, stages, &test);
        let note = match w {
            0 => "target only (no context)",
            10 => "paper's VUC",
            _ => "",
        };
        width_rows.push(json!({ "w": w, "vuc": scored(&vucs), "var": scored(&vars) }));
        table.row(vec![
            format!("{w}"),
            format!("{:.4}", vucs.accuracy()),
            format!("{:.4}", vars.accuracy()),
            note.into(),
        ]);
    }
    println!("\nAblation — context window width ({})\n", scale.name());
    println!("{}", table.render());

    // Axis 2: context-assembly mode. Extract, retrain and score each
    // mode on its own datasets; window width stays at the full ±10.
    let mut mode_rows = Vec::new();
    let mut mode_table = Table::new(&["context mode", "VUC accuracy", "variable accuracy", "note"]);
    for mode in ContextMode::ALL {
        eprintln!("[ablation] training with context mode {mode}...");
        let train = Dataset::from_binaries_mode(
            &ctx.corpus.train,
            FeatureView::WithSymbols,
            mode,
            None,
            &cati::obs::NOOP,
        );
        let test = Dataset::from_binaries_mode(
            &ctx.corpus.test,
            FeatureView::Stripped,
            mode,
            None,
            &cati::obs::NOOP,
        );
        let stages = MultiStage::train(&train, &ctx.cati.embedder, &config, &cati::obs::NOOP);
        let (vucs, vars) = score(&ctx.cati, stages, &test);
        let note = match mode {
            ContextMode::FunctionLocal => "paper baseline",
            ContextMode::Interprocedural => "call/ret splicing",
        };
        mode_rows.push(json!({
            "mode": mode.name(),
            "vuc": scored(&vucs),
            "var": scored(&vars),
        }));
        mode_table.row(vec![
            mode.name().to_string(),
            format!("{:.4}", vucs.accuracy()),
            format!("{:.4}", vars.accuracy()),
            note.into(),
        ]);
    }
    println!("\nAblation — context-assembly mode ({})\n", scale.name());
    println!("{}", mode_table.render());
    println!("Expected shape: accuracy grows with w; the w=0 row is the uncertain-sample");
    println!("ceiling that motivates the VUC (paper §II). The interproc row shows what");
    println!("splicing real caller/callee context into the padding buys over BLANKs.");

    run.finish(&json!({
        "scale": scale.name(),
        "quick": quick,
        "window_ablation": width_rows,
        "mode_ablation": mode_rows,
    }));
}
