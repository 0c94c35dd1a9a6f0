//! Extension experiment (paper §VIII future work): "different
//! compiler options may influence inferring types". We quantify it:
//! train on `-O0/-O1` binaries only and evaluate on each optimization
//! level separately, against a model trained on all levels.
//!
//! ```sh
//! cargo run --release -p cati-bench --bin exp_optlevel_transfer -- --scale medium
//! ```

use cati::report::Table;
use cati::{pipeline_confusions, Cati, Confusion, Dataset, EmbeddedExtraction};
use cati_analysis::FeatureView;
use cati_bench::{scored, RunObs, Scale, SEED};
use cati_dwarf::TypeClass;
use cati_synbin::{build_app, AppProfile, BuiltBinary, CodegenOptions, Compiler, OptLevel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;

fn build_split(scale: Scale, levels: &[OptLevel], seed: u64, projects: usize) -> Vec<BuiltBinary> {
    let mut rng = StdRng::seed_from_u64(seed);
    let factor = match scale {
        Scale::Small => 0.25,
        Scale::Medium => 1.0,
        Scale::Paper => 2.0,
    };
    let mut out = Vec::new();
    for profile in AppProfile::training_projects(projects) {
        for &opt in levels {
            let opts = CodegenOptions {
                compiler: Compiler::Gcc,
                opt,
            };
            out.extend(build_app(&profile, opts, factor, &mut rng));
        }
    }
    out
}

fn main() {
    let scale = Scale::from_args();
    let run = RunObs::from_args("exp_optlevel_transfer");
    let config = scale.config();
    let projects = match scale {
        Scale::Small => 2,
        Scale::Medium => 6,
        Scale::Paper => 16,
    };

    // Two training regimes.
    let low_train = build_split(scale, &[OptLevel::O0, OptLevel::O1], SEED, projects);
    let all_train = build_split(scale, &OptLevel::ALL, SEED, projects);
    eprintln!(
        "[optlevel] training low-opt model ({} binaries)...",
        low_train.len()
    );
    let low_model = Cati::train(&low_train, &config, run.obs());
    eprintln!(
        "[optlevel] training all-opt model ({} binaries)...",
        all_train.len()
    );
    let all_model = Cati::train(&all_train, &config, run.obs());

    // Per-level test sets from unseen apps.
    let mut table = Table::new(&[
        "test opt level",
        "trained on -O0/-O1",
        "trained on all levels",
        "vars",
    ]);
    let mut rows = Vec::new();
    for opt in OptLevel::ALL {
        let mut rng = StdRng::seed_from_u64(SEED ^ 0xBEEF ^ opt.0 as u64);
        let mut test = Vec::new();
        for profile in AppProfile::test_apps().into_iter().take(6) {
            let opts = CodegenOptions {
                compiler: Compiler::Gcc,
                opt,
            };
            test.extend(build_app(&profile, opts, 0.5, &mut rng));
        }
        let ds = Dataset::from_binaries(&test, FeatureView::Stripped);
        let score = |model: &Cati| {
            let mut vars = Confusion::new(TypeClass::ALL.len());
            for (_, ex) in ds.iter() {
                vars +=
                    &pipeline_confusions(model, &EmbeddedExtraction::new(&model.embedder, ex)).1;
            }
            vars
        };
        let (low, all) = (score(&low_model), score(&all_model));
        table.row(vec![
            opt.to_string(),
            format!("{:.3}", low.accuracy()),
            format!("{:.3}", all.accuracy()),
            low.total().to_string(),
        ]);
        rows.push(json!({
            "opt": opt.to_string(),
            "trained_low": scored(&low),
            "trained_all": scored(&all),
        }));
    }
    println!("\nOptimization-level transfer ({})\n", scale.name());
    println!("{}", table.render());
    println!("Expected shape: the low-opt model degrades on -O2/-O3 (register promotion");
    println!("and scheduling change the idioms); training across levels closes the gap.");

    run.finish(&json!({ "scale": scale.name(), "levels": rows }));
}
