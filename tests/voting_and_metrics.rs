//! Voting behaviour and metric plumbing across the pipeline.

use cati::{
    pipeline_accuracy, pipeline_confusions, stage_var_metrics, stage_vuc_metrics, Cati, Config,
    Confusion, EmbeddedExtraction,
};
use cati_analysis::{extract, Extraction, FeatureView};
use cati_dwarf::{StageId, TypeClass};
use cati_synbin::{build_corpus, CorpusConfig};

fn setup() -> (Cati, Vec<Extraction>) {
    let corpus = build_corpus(&CorpusConfig::small(31337));
    let cati = Cati::train(&corpus.train, &Config::small(), &cati::obs::NOOP);
    let exs = corpus
        .test
        .iter()
        .take(8)
        .map(|b| extract(&b.binary, FeatureView::Stripped).unwrap())
        .collect();
    (cati, exs)
}

#[test]
fn voting_does_not_hurt_aggregate_accuracy_much() {
    // Paper Table VI: voting lifts variable accuracy ~3 points above
    // VUC accuracy. At test scale we assert the weaker invariant that
    // voting does not collapse performance.
    let (cati, exs) = setup();
    let mut vucs = Confusion::new(TypeClass::ALL.len());
    let mut vars = Confusion::new(TypeClass::ALL.len());
    for ex in &exs {
        let (v, r) = pipeline_confusions(&cati, &EmbeddedExtraction::new(&cati.embedder, ex));
        vucs += &v;
        vars += &r;
    }
    let (vuc_acc, var_acc) = (vucs.accuracy(), vars.accuracy());
    assert!(
        var_acc >= vuc_acc - 0.10,
        "voting collapsed accuracy: VUC {vuc_acc:.3} vs var {var_acc:.3}"
    );
}

#[test]
fn pipeline_accuracy_reads_the_scorer_bit_for_bit() {
    // perfbench's `vuc_accuracy`/`var_accuracy` come from
    // `pipeline_accuracy`; its four numbers must be the confusions'.
    let (cati, exs) = setup();
    let bits = |(va, vn, ra, rn): (f64, u64, f64, u64)| (va.to_bits(), vn, ra.to_bits(), rn);
    for ex in &exs {
        let (vucs, vars) = pipeline_confusions(&cati, &EmbeddedExtraction::new(&cati.embedder, ex));
        let scorer = (vucs.accuracy(), vucs.total(), vars.accuracy(), vars.total());
        assert_eq!(bits(pipeline_accuracy(&cati, ex)), bits(scorer));
    }
}

#[test]
fn stage_metrics_are_consistent() {
    let (cati, exs) = setup();
    let refs: Vec<EmbeddedExtraction> = exs
        .iter()
        .map(|ex| EmbeddedExtraction::new(&cati.embedder, ex))
        .collect();
    for stage in StageId::ALL {
        let (prf_vuc, conf_vuc) = stage_vuc_metrics(&cati, &refs, stage);
        let (prf_var, conf_var) = stage_var_metrics(&cati, &refs, stage);
        // Metric ranges.
        for prf in [prf_vuc, prf_var] {
            assert!(
                (0.0..=1.0).contains(&prf.precision),
                "{stage} P {}",
                prf.precision
            );
            assert!((0.0..=1.0).contains(&prf.recall));
            assert!((0.0..=1.0).contains(&prf.f1));
        }
        // Variables never outnumber VUCs.
        assert!(conf_var.total() <= conf_vuc.total(), "{stage}");
        // Confusion matrices have the stage's class count.
        assert_eq!(conf_vuc.classes(), stage.num_classes());
    }
    // Stage 1 must carry the overwhelming majority of samples.
    let (_, c1) = stage_vuc_metrics(&cati, &refs, StageId::Stage1);
    let (_, c32) = stage_vuc_metrics(&cati, &refs, StageId::Stage3Float);
    assert!(c1.total() > c32.total());
}

#[test]
fn stage1_generalizes_to_unseen_apps() {
    let (cati, exs) = setup();
    let refs: Vec<EmbeddedExtraction> = exs
        .iter()
        .map(|ex| EmbeddedExtraction::new(&cati.embedder, ex))
        .collect();
    let (prf, conf) = stage_vuc_metrics(&cati, &refs, StageId::Stage1);
    assert!(conf.total() > 200);
    // Pointer vs non-pointer is the paper's easiest stage (~0.9 F1);
    // at test scale it must still be clearly above the majority-class
    // baseline.
    let majority = (0..2).map(|c| conf.support(c)).max().unwrap_or(0) as f64 / conf.total() as f64;
    assert!(
        prf.recall > majority.min(0.85) - 0.05,
        "stage1 recall {:.3} vs majority {majority:.3}",
        prf.recall
    );
    assert!(
        conf.accuracy() > 0.55,
        "stage1 accuracy {:.3}",
        conf.accuracy()
    );
}
