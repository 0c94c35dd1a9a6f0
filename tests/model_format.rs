//! Model container format tests: the committed golden CATI1 fixture
//! must keep loading byte-for-byte and predicting what it predicted
//! when it was recorded, and anything that is not a CATI1 v2
//! container must be refused with a typed error.
//!
//! The fixture pins the on-disk format: if an encoder change produces
//! different bytes for the same model, the golden test fails and the
//! change needs a format version bump (plus a regenerated fixture via
//! `cargo test -p cati --test model_format -- --ignored`).

use cati::{encode_cati1, is_cati1, Cati, Config, CATI1_MAGIC};
use cati_synbin::{build_corpus, Corpus, CorpusConfig};
use std::path::PathBuf;

/// Corpus seed the fixture model was trained from. Distinct from the
/// seeds other test harnesses use, so corpus tweaks elsewhere do not
/// silently alter this fixture's provenance.
const FIXTURE_SEED: u64 = 47;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/model")
}

fn fixture_corpus() -> Corpus {
    build_corpus(&CorpusConfig::small(FIXTURE_SEED))
}

/// The deterministic tiny system the fixture records: two training
/// binaries at the small scale. Retraining reproduces it exactly
/// (engine determinism), which is what lets the golden bytes live in
/// the repository at all.
fn fixture_model(corpus: &Corpus) -> Cati {
    Cati::train(&corpus.train[..2], &Config::small(), &cati::obs::NOOP)
}

/// Predictions over the first stripped test binary, as a JSON value —
/// the comparison currency of the recorded-predictions fixture.
fn fixture_predictions(cati: &Cati, corpus: &Corpus) -> serde_json::Value {
    let stripped = corpus.test[0].binary.strip();
    let mut vars = cati.infer(&stripped).expect("fixture inference");
    vars.sort_by_key(|v| (v.key.func, v.key.offset));
    serde_json::to_value(&vars).expect("predictions to JSON")
}

fn recorded_predictions() -> serde_json::Value {
    let path = fixture_dir().join("golden_predictions.json");
    serde_json::from_slice(&std::fs::read(path).expect("read golden_predictions.json"))
        .expect("parse golden_predictions.json")
}

#[test]
fn golden_cati1_fixture_still_loads_and_predicts_identically() {
    let bytes = std::fs::read(fixture_dir().join("golden.cati"))
        .expect("read golden.cati (regenerate with --ignored)");
    assert!(is_cati1(&bytes), "golden fixture lost its CATI1 magic");
    let cati = cati::decode_cati1(&bytes).expect("decode golden fixture");

    // Re-encoding the decoded system must reproduce the committed
    // bytes exactly. The encoder writes raw f32 bits, so this is a
    // bitwise check of every weight (-0.0 included), not `PartialEq`.
    assert_eq!(
        encode_cati1(&cati),
        bytes,
        "re-encoding the golden model produced different bytes — \
         format drift without a version bump?"
    );
    assert_eq!(
        fixture_predictions(&cati, &fixture_corpus()),
        recorded_predictions(),
        "golden model's predictions drifted from the recorded fixture"
    );
}

/// The fixture was recorded as a v1 container and migrated to v2
/// bit for bit; loaded through the mmap path it must still predict
/// exactly what it predicted when it was recorded.
#[test]
fn v1_golden_migrated_to_v2_loads_zero_copy_with_identical_predictions() {
    let cati = Cati::load(fixture_dir().join("golden.cati")).expect("load golden fixture");
    #[cfg(unix)]
    assert!(
        cati.mapped_param_count() > 0,
        "a load on unix should keep weights memory-mapped"
    );
    assert_eq!(
        fixture_predictions(&cati, &fixture_corpus()),
        recorded_predictions(),
        "mmap-loaded model's predictions drifted from the recorded fixture"
    );
}

#[test]
fn unrecognized_model_format_reports_a_hex_preview() {
    let dir = std::env::temp_dir().join(format!("cati_badfmt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let golden = std::fs::read(fixture_dir().join("golden.cati")).expect("read golden.cati");
    let with_version = |v: u32| {
        let mut b = golden.clone();
        b[CATI1_MAGIC.len()..CATI1_MAGIC.len() + 4].copy_from_slice(&v.to_le_bytes());
        b
    };
    // (file contents, what the error must name)
    let cases: [(&str, Vec<u8>, &[&str]); 4] = [
        (
            "elf.bin",
            b"\x7fELF\x02\x01\x01\x00junk".to_vec(),
            &["7f 45 4c 46", "expected CATI1 magic"],
        ),
        ("v1.cati", with_version(1), &["container version 1"]),
        ("v3.cati", with_version(3), &["container version 3"]),
        (
            "legacy.json",
            br#"{"config": {}, "embedder": {}, "stages": {}}"#.to_vec(),
            &["7b 22 63 6f", "expected CATI1 magic"],
        ),
    ];
    for (name, bytes, needles) in cases {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        let err = Cati::load(&path).expect_err("non-v2 file must not load");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}: {err}");
        let msg = err.to_string();
        for needle in needles {
            assert!(
                msg.contains(needle),
                "{name}: error lacks `{needle}`: {msg}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Regenerates the golden fixture. Run explicitly after an intended
/// format or model change:
///
/// ```sh
/// cargo test -p cati --test model_format -- --ignored
/// ```
#[test]
#[ignore = "writes tests/fixtures/model; run explicitly to regenerate"]
fn regenerate_golden_fixture() {
    let corpus = fixture_corpus();
    let cati = fixture_model(&corpus);
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    cati.save(dir.join("golden.cati")).unwrap();
    let preds = fixture_predictions(&cati, &corpus);
    std::fs::write(
        dir.join("golden_predictions.json"),
        serde_json::to_string_pretty(&preds).unwrap(),
    )
    .unwrap();
    println!("regenerated {}", dir.display());
}
