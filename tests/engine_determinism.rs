//! Determinism harness for the parallel execution engine (§ training
//! and batched inference): a fixed seed must give bit-identical
//! models and predictions regardless of the thread count — with
//! telemetry enabled — and a trained system must survive a save/load
//! roundtrip with its inference output unchanged.

use cati::obs::{Recorder, RecorderConfig};
use cati::{ArtifactCache, Cati, Config, EmbeddedExtraction};
use cati_analysis::{extract, FeatureView};
use cati_synbin::{build_corpus, Corpus, CorpusConfig};

/// Trains under a live [`Recorder`] (not the no-op observer), so this
/// harness also proves instrumentation never perturbs the engine.
fn train_with_threads(corpus: &Corpus, threads: usize) -> (Cati, Recorder) {
    let config = Config {
        threads,
        ..Config::small()
    };
    let recorder = Recorder::new(RecorderConfig {
        batch_stats: true,
        ..RecorderConfig::default()
    });
    let cati = Cati::train(&corpus.train, &config, &recorder);
    (cati, recorder)
}

/// The CATI1 encoding of everything training produced: raw f32 bits
/// of every weight (so -0.0 and +0.0 differ), with the `threads`
/// knob — the one config field the compared runs set differently —
/// zeroed.
fn trained_bytes(cati: &Cati) -> Vec<u8> {
    let mut cati = cati.clone();
    cati.config.threads = 0;
    cati::encode_cati1(&cati)
}

#[test]
fn thread_count_does_not_change_the_model() {
    let corpus = build_corpus(&CorpusConfig::small(13));
    let (one, obs_one) = train_with_threads(&corpus, 1);
    let (four, obs_four) = train_with_threads(&corpus, 4);
    // Everything training produced must be bit-identical.
    assert!(
        trained_bytes(&one) == trained_bytes(&four),
        "models diverged across thread counts"
    );
    // Inference over a held-out stripped binary must agree exactly.
    let stripped = corpus.test[0].binary.strip();
    assert_eq!(
        one.infer(&stripped).unwrap(),
        four.infer(&stripped).unwrap(),
        "inference diverged across thread counts"
    );
    // Telemetry content (not timings) must also agree: identical
    // training observes identical losses and counts, whatever the
    // thread count. Losses may arrive in any order across workers, so
    // compare them sorted.
    for obs in [&obs_one, &obs_four] {
        let spans = obs.span_totals();
        for stage in [
            "Stage1", "Stage2-1", "Stage2-2", "Stage3-1", "Stage3-2", "Stage3-3",
        ] {
            assert!(
                spans.iter().any(|(p, _)| p == &format!("train.{stage}")),
                "missing span for {stage}: {spans:?}"
            );
        }
    }
    let sorted = |r: &Recorder| {
        let mut l = r.losses();
        l.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        l
    };
    assert_eq!(
        sorted(&obs_one),
        sorted(&obs_four),
        "observed losses diverged across thread counts"
    );
    assert_eq!(
        obs_one.metrics().counter_value("train.samples"),
        obs_four.metrics().counter_value("train.samples"),
        "observed sample counts diverged across thread counts"
    );
}

#[test]
fn thread_count_does_not_change_the_streamed_model() {
    // The out-of-core path inherits the same guarantee: training from
    // on-disk shards with one worker or four must be bit-identical —
    // the shard-order reduction, not scheduling, decides the sums.
    let corpus = build_corpus(&CorpusConfig::small(13));
    let streamed = |threads: usize| {
        let config = Config {
            threads,
            ..Config::small()
        };
        let dir =
            std::env::temp_dir().join(format!("cati_det_stream_t{threads}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cati = Cati::train_streamed(
            &corpus.train,
            &config,
            &dir,
            cati::StreamOptions::default(),
            &cati::obs::NOOP,
        )
        .expect("streamed training failed")
        .expect("full streamed run must produce a system");
        std::fs::remove_dir_all(&dir).ok();
        cati
    };
    let one = streamed(1);
    let four = streamed(4);
    assert!(
        trained_bytes(&one) == trained_bytes(&four),
        "streamed models diverged across thread counts"
    );
    let stripped = corpus.test[0].binary.strip();
    assert_eq!(
        one.infer(&stripped).unwrap(),
        four.infer(&stripped).unwrap(),
        "streamed-model inference diverged across thread counts"
    );
}

#[test]
fn golden_retrain_and_save_load_roundtrip() {
    let corpus = build_corpus(&CorpusConfig::small(13));
    let (a, _) = train_with_threads(&corpus, 0);
    let (b, _) = train_with_threads(&corpus, 0);
    // Same seed, same corpus: retraining reproduces the exact system.
    assert_eq!(a, b, "retraining with a fixed seed is not deterministic");

    // Save/load roundtrip preserves inference on a held-out stripped
    // binary exactly.
    let stripped = corpus.test.last().unwrap().binary.strip();
    let before = a.infer(&stripped).unwrap();
    assert!(!before.is_empty(), "held-out binary yielded no variables");
    let path = std::env::temp_dir().join(format!("cati_golden_{}.json", std::process::id()));
    a.save(&path).unwrap();
    let loaded = Cati::load(&path).unwrap();

    // A corrupted model must fail to load with an error that names
    // the file and its size — not silently misparse or panic.
    let corrupt = std::env::temp_dir().join(format!("cati_corrupt_{}.json", std::process::id()));
    let mut bytes = std::fs::read(&path).unwrap();
    let cut = bytes.len() / 2;
    bytes.truncate(cut);
    std::fs::write(&corrupt, &bytes).unwrap();
    let err = Cati::load(&corrupt).expect_err("truncated model must not load");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(
        msg.contains("cati_corrupt") && msg.contains(&format!("{cut} bytes")),
        "load error lacks path/size context: {msg}"
    );
    let err = Cati::load(std::env::temp_dir().join("cati_no_such_model.json"))
        .expect_err("missing model must not load");
    assert!(
        err.to_string().contains("cati_no_such_model"),
        "read error lacks path context: {err}"
    );
    std::fs::remove_file(&corrupt).ok();
    std::fs::remove_file(&path).ok();

    assert_eq!(
        loaded.infer(&stripped).unwrap(),
        before,
        "save/load roundtrip changed inference output"
    );
}

#[test]
fn lenient_mode_is_bit_identical_to_strict_on_clean_binaries() {
    // The error-path machinery must be invisible on healthy input:
    // lenient inference routes through the same strict sweep first,
    // so on an unmutated binary its output — and its coverage
    // accounting — must match the strict path bit for bit.
    let corpus = build_corpus(&CorpusConfig::small(13));
    let (cati, _) = train_with_threads(&corpus, 0);
    for built in corpus.test.iter().take(3) {
        let stripped = built.binary.strip();
        let symbols_only = cati_asm::binary::Binary {
            debug: None,
            ..built.binary.clone()
        };
        for bin in [&stripped, &symbols_only] {
            let strict = cati.infer(bin).unwrap();
            let report = cati.infer_lenient(bin);
            assert_eq!(
                report.vars, strict,
                "{}: lenient inference diverged from strict on clean input",
                bin.name
            );
            assert!(
                report.diagnostics.is_empty(),
                "{}: clean binary produced diagnostics: {:?}",
                bin.name,
                report.diagnostics
            );
            assert!(
                report.coverage.is_complete(),
                "{}: clean binary reported incomplete coverage: {:?}",
                bin.name,
                report.coverage
            );
            assert_eq!(report.coverage.bytes_skipped, 0);
            assert_eq!(report.coverage.functions_skipped, 0);
        }
    }
}

#[test]
fn profiling_does_not_perturb_inference_output() {
    // The profiler must be a pure observer: inference under a live
    // recorder (span tree, phase metrics) is bit-identical to the
    // unobserved path, and with profiling off (no `alloc-profile`
    // feature) the span tree carries no allocation columns at all.
    let corpus = build_corpus(&CorpusConfig::small(13));
    let (cati, _) = train_with_threads(&corpus, 0);
    let stripped = corpus.test[0].binary.strip();

    let unobserved = cati.infer(&stripped).unwrap();
    let recorder = Recorder::silent();
    let observed = cati.infer_observed(&stripped, &recorder).unwrap();
    assert_eq!(
        serde_json::to_string(&unobserved).unwrap(),
        serde_json::to_string(&observed).unwrap(),
        "profiling perturbed inference output"
    );

    // The observed run did produce a span tree.
    let tree = recorder.span_tree();
    assert!(tree.total_ns() > 0, "observed run produced no spans");

    // Without the counting allocator, allocation accounting must be
    // exactly zero everywhere — not merely small.
    #[cfg(not(feature = "alloc-profile"))]
    {
        let mut alloc_total = 0u64;
        tree.walk(|node, _| alloc_total += node.alloc_bytes + node.alloc_count);
        assert_eq!(
            alloc_total, 0,
            "allocation columns nonzero without the alloc-profile feature"
        );
    }
}

#[test]
fn sessions_and_artifact_cache_do_not_change_results() {
    let corpus = build_corpus(&CorpusConfig::small(13));
    let (cati, _) = train_with_threads(&corpus, 0);
    let stripped = corpus.test[0].binary.strip();

    // The plain path embeds internally; the session path embeds once
    // up front through the memoizing per-instruction cache. Both must
    // produce the same evaluation bit for bit.
    let ex = extract(&stripped, FeatureView::Stripped).unwrap();
    let plain = cati.evaluate(&ex);
    let session = EmbeddedExtraction::new(&cati.embedder, &ex);
    assert_eq!(
        plain,
        cati.evaluate_session(&session, &cati::obs::NOOP),
        "session evaluation diverged from the plain path"
    );

    // Cold then warm on-disk artifact cache: inference must be
    // bit-identical to the uncached path both times, and the warm run
    // must actually serve from the cache.
    let uncached = cati.infer(&stripped).unwrap();
    let dir = std::env::temp_dir().join(format!("cati_artifacts_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = ArtifactCache::open(&dir).unwrap();
    let cold_rec = Recorder::silent();
    let cold = cati
        .infer_cached(&stripped, Some(&cache), &cold_rec)
        .unwrap();
    let warm_rec = Recorder::silent();
    let warm = cati
        .infer_cached(&stripped, Some(&cache), &warm_rec)
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(uncached, cold, "cold artifact cache changed inference");
    assert_eq!(uncached, warm, "warm artifact cache changed inference");
    assert_eq!(
        cold_rec.metrics().counter_value("cache.hit"),
        0,
        "cold run unexpectedly hit the artifact cache"
    );
    assert!(
        warm_rec.metrics().counter_value("cache.hit") >= 2,
        "warm run should hit both the extraction and embedding entries"
    );
    assert_eq!(
        warm_rec.metrics().counter_value("cache.miss"),
        0,
        "warm run should not miss the artifact cache"
    );
    // The warm path reuses stored embeddings, so it must not re-embed.
    assert_eq!(
        warm_rec.metrics().counter_value("embed.windows"),
        0,
        "warm run re-embedded windows despite the cache"
    );
}
