//! Table VI: per-application pipeline accuracy at VUC and variable
//! granularity (paper totals: 0.68 / 0.71).
//!
//! ```sh
//! cargo run --release -p cati-bench --bin exp_table6 -- --scale medium
//! ```

use cati::report::Table;
use cati::{pipeline_confusions, Confusion, EmbeddedExtraction};
use cati_bench::{load_ctx_observed, scored, RunObs, Scale, TEST_APPS};
use cati_dwarf::TypeClass;
use cati_synbin::Compiler;
use serde_json::json;

fn main() {
    let scale = Scale::from_args();
    let run = RunObs::from_args("exp_table6");
    let ctx = load_ctx_observed(scale, Compiler::Gcc, run.obs());
    let by_app = ctx.test.by_app();

    let mut table = Table::new(&["", "VUC Acc", "VUC Support", "Var Acc", "Var Support"]);
    let row = |name: &str, vucs: &Confusion, vars: &Confusion| {
        vec![
            name.to_string(),
            format!("{:.2}", vucs.accuracy()),
            vucs.total().to_string(),
            format!("{:.2}", vars.accuracy()),
            vars.total().to_string(),
        ]
    };
    let empty = Confusion::new(TypeClass::ALL.len());
    let (mut vucs, mut vars) = (empty.clone(), empty.clone());
    let mut apps = Vec::new();
    for app in TEST_APPS {
        let (mut app_vucs, mut app_vars) = (empty.clone(), empty.clone());
        for (_, exs) in by_app.iter().filter(|(a, _)| a == app) {
            for ex in exs {
                let session = EmbeddedExtraction::new(&ctx.cati.embedder, ex);
                let (v, r) = pipeline_confusions(&ctx.cati, &session);
                app_vucs += &v;
                app_vars += &r;
            }
        }
        vucs += &app_vucs;
        vars += &app_vars;
        table.row(row(app, &app_vucs, &app_vars));
        apps.push(json!({ "app": app, "vuc": scored(&app_vucs), "var": scored(&app_vars) }));
    }
    table.row(row("Total", &vucs, &vars));
    println!(
        "\nTable VI — pipeline accuracy per application ({})\n",
        scale.name()
    );
    println!("{}", table.render());
    println!("Paper totals: VUC 0.68 over >1M VUCs, variable 0.71 over >150k variables;");
    println!("voting lifts variable accuracy ~3 points over VUC accuracy.");

    run.finish(&json!({
        "scale": scale.name(),
        "apps": apps,
        "total": json!({ "vuc": scored(&vucs), "var": scored(&vars) }),
    }));
}
