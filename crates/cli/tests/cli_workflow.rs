//! End-to-end test of the `cati` command-line tool: build a corpus,
//! strip a binary, train a model, infer types — all through the CLI.

use std::path::PathBuf;
use std::process::Command;

fn cati_bin() -> PathBuf {
    // target/<profile>/cati sits two levels above the test executable.
    let mut p = std::env::current_exe().expect("test exe path");
    p.pop(); // deps/
    p.pop(); // debug|release/
    p.push("cati");
    p
}

fn run(args: &[&str], cwd: &std::path::Path) -> (bool, String, String) {
    let out = Command::new(cati_bin())
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn cati");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn full_cli_workflow() {
    let dir = std::env::temp_dir().join(format!("cati_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // 1. Build a corpus.
    let (ok, stdout, stderr) = run(&["build-corpus", "--out", "corpus", "--seed", "5"], &dir);
    assert!(ok, "build-corpus failed: {stderr}");
    assert!(stdout.contains("wrote"), "{stdout}");
    let manifest = dir.join("corpus/manifest.json");
    assert!(manifest.exists());

    // Find one test binary from the manifest.
    let entries: Vec<serde_json::Value> =
        serde_json::from_slice(&std::fs::read(&manifest).unwrap()).unwrap();
    let test_file = entries
        .iter()
        .find(|e| e["split"] == "test")
        .and_then(|e| e["file"].as_str())
        .expect("a test binary");
    let test_path = format!("corpus/{test_file}");

    // 2. Strip it.
    let (ok, _, stderr) = run(&["strip", &test_path, "--out", "stripped.json"], &dir);
    assert!(ok, "strip failed: {stderr}");

    // 3. Disassemble both views.
    let (ok, full, _) = run(&["disasm", &test_path], &dir);
    assert!(ok);
    assert!(
        full.contains("push %rbp") || full.contains("sub $"),
        "{full}"
    );
    assert!(full.contains('<'), "unstripped listing should show symbols");
    let (ok, stripped_listing, _) = run(&["disasm", "stripped.json"], &dir);
    assert!(ok);
    assert!(
        !stripped_listing.contains('<'),
        "stripped listing must not show symbols"
    );

    // 4. Ground-truth variables.
    let (ok, vars, _) = run(&["vars", &test_path], &dir);
    assert!(ok);
    assert!(vars.contains("variables,"), "{vars}");

    // 5. Train.
    let (ok, _, stderr) = run(
        &["train", "--corpus", "corpus", "--out", "model.json"],
        &dir,
    );
    assert!(ok, "train failed: {stderr}");
    assert!(dir.join("model.json").exists());

    // 6. Infer on the stripped binary.
    let (ok, inferred, stderr) = run(&["infer", "--model", "model.json", "stripped.json"], &dir);
    assert!(ok, "infer failed: {stderr}");
    assert!(inferred.contains("inferred type"), "{inferred}");
    assert!(
        inferred.lines().count() > 3,
        "no variables inferred:\n{inferred}"
    );

    // 7. JSON output parses.
    let (ok, json_out, _) = run(
        &["infer", "--model", "model.json", "stripped.json", "--json"],
        &dir,
    );
    assert!(ok);
    let parsed: serde_json::Value = serde_json::from_str(&json_out).expect("valid JSON");
    assert!(parsed.as_array().map(|a| !a.is_empty()).unwrap_or(false));

    // 7b. The run manifest names the lane-kernel build that ran, passes
    //     validation, and `cati report` prints the build.
    let (ok, _, stderr) = run(
        &[
            "infer",
            "--model",
            "model.json",
            "stripped.json",
            "--manifest",
            "infer.jsonl",
        ],
        &dir,
    );
    assert!(ok, "infer --manifest failed: {stderr}");
    let text = std::fs::read_to_string(dir.join("infer.jsonl")).unwrap();
    let meta: serde_json::Value =
        serde_json::from_str(text.lines().next().expect("a meta line")).unwrap();
    let isa = meta["kernel_isa"].as_str().expect("kernel_isa in the meta");
    assert!(
        ["baseline", "avx2", "avx512"].contains(&isa),
        "unknown kernel build {isa}"
    );
    let (ok, out, stderr) = run(&["report", "infer.jsonl", "--validate"], &dir);
    assert!(ok && out.contains("OK"), "{out}{stderr}");
    let (ok, out, _) = run(&["report", "infer.jsonl"], &dir);
    assert!(ok && out.contains(&format!("kernel_isa: {isa}")), "{out}");

    // 8. Degradation modes. Append undecodable junk to the stripped
    //    binary: strict inference must refuse it with a typed error,
    //    lenient inference must return a partial result and say so.
    let mut corrupt: cati_asm::binary::Binary =
        serde_json::from_slice(&std::fs::read(dir.join("stripped.json")).unwrap()).unwrap();
    corrupt.text.extend_from_slice(&[0xFF, 0xFF, 0xFF]);
    std::fs::write(
        dir.join("corrupt.json"),
        serde_json::to_string(&corrupt).unwrap(),
    )
    .unwrap();
    let (ok, _, stderr) = run(
        &["infer", "--model", "model.json", "corrupt.json", "--strict"],
        &dir,
    );
    assert!(!ok, "strict infer accepted a corrupt binary");
    assert!(
        stderr.contains("undecodable"),
        "strict error is not typed/attributed: {stderr}"
    );
    let (ok, lenient_out, stderr) = run(
        &[
            "infer",
            "--model",
            "model.json",
            "corrupt.json",
            "--lenient",
        ],
        &dir,
    );
    assert!(ok, "lenient infer failed on a corrupt binary: {stderr}");
    assert!(
        lenient_out.contains("coverage"),
        "lenient output lacks a coverage footer: {lenient_out}"
    );
    let (ok, lenient_json, _) = run(
        &[
            "infer",
            "--model",
            "model.json",
            "corrupt.json",
            "--lenient",
            "--json",
        ],
        &dir,
    );
    assert!(ok);
    let report: serde_json::Value = serde_json::from_str(&lenient_json).expect("valid JSON");
    assert_eq!(
        report["coverage"]["bytes_skipped"].as_u64(),
        Some(3),
        "coverage must account for exactly the junk bytes: {lenient_json}"
    );
    // The two flags are mutually exclusive.
    let (ok, _, stderr) = run(
        &[
            "infer",
            "--model",
            "model.json",
            "corrupt.json",
            "--strict",
            "--lenient",
        ],
        &dir,
    );
    assert!(!ok);
    assert!(stderr.contains("--strict"), "{stderr}");

    // 9. A tiny fuzz campaign: must exit zero (no panics, hangs or
    //    coverage violations) and leave a machine-readable summary.
    let (ok, fuzz_out, stderr) = run(
        &[
            "fuzz",
            "--seed",
            "4",
            "--mutants",
            "20",
            "--budget",
            "120s",
            "--out",
            "fuzz",
        ],
        &dir,
    );
    assert!(ok, "fuzz campaign failed: {stderr}");
    assert!(fuzz_out.contains("\"ran\""), "{fuzz_out}");
    let summary: serde_json::Value =
        serde_json::from_slice(&std::fs::read(dir.join("fuzz/summary.json")).unwrap()).unwrap();
    assert_eq!(summary["ran"].as_u64(), Some(20), "{summary}");
    assert_eq!(
        summary["hangs"].as_array().map(Vec::len),
        Some(0),
        "{summary}"
    );

    // 10. Unknown commands fail cleanly.
    let (ok, _, stderr) = run(&["frobnicate"], &dir);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));

    // 11. A corrupt training binary — truncated debug section, then
    //     undecodable text — is refused by name with exit code 1, not
    //     a panic mid-extraction.
    let train_file = entries
        .iter()
        .find(|e| e["split"] == "train")
        .and_then(|e| e["file"].as_str())
        .expect("a training binary");
    let train_path = dir.join("corpus").join(train_file);
    let pristine: cati_asm::binary::Binary =
        serde_json::from_slice(&std::fs::read(&train_path).unwrap()).unwrap();
    let mut truncated = pristine.clone();
    truncated
        .debug
        .as_mut()
        .expect("debug section")
        .truncate(100);
    let mut undecodable = pristine;
    undecodable.text.extend_from_slice(&[0xFF, 0xFF, 0xFF]);
    for (corrupt, what) in [(truncated, "debug section"), (undecodable, "offset")] {
        std::fs::write(&train_path, serde_json::to_string(&corrupt).unwrap()).unwrap();
        let out = Command::new(cati_bin())
            .args(["train", "--corpus", "corpus", "--out", "corrupt.cati"])
            .current_dir(&dir)
            .output()
            .expect("spawn cati");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.contains(train_file) && stderr.contains(what),
            "error names neither the file nor the fault: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// `cati train` scores only the first four test-split binaries of the
/// manifest: a corrupt fifth test file is never read, while a corrupt
/// file among the first four is still refused by name.
#[test]
fn train_reads_only_the_scored_test_files() {
    let dir = std::env::temp_dir().join(format!("cati_cli_holdout_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (ok, _, stderr) = run(&["build-corpus", "--out", "corpus", "--seed", "9"], &dir);
    assert!(ok, "build-corpus failed: {stderr}");
    let manifest = dir.join("corpus/manifest.json");
    let entries: Vec<serde_json::Value> =
        serde_json::from_slice(&std::fs::read(&manifest).unwrap()).unwrap();
    // One training binary keeps the run short; five test binaries put
    // exactly one past the holdout.
    let train = entries.iter().find(|e| e["split"] == "train").unwrap();
    let tests: Vec<&serde_json::Value> = entries
        .iter()
        .filter(|e| e["split"] == "test")
        .take(5)
        .collect();
    assert_eq!(tests.len(), 5, "the small corpus has five test binaries");
    let mut kept = vec![train.clone()];
    kept.extend(tests.iter().map(|&e| e.clone()));
    std::fs::write(&manifest, serde_json::to_string(&kept).unwrap()).unwrap();
    let file = |e: &serde_json::Value| e["file"].as_str().unwrap().to_string();

    std::fs::write(dir.join("corpus").join(file(tests[4])), b"not a binary").unwrap();
    let (ok, _, stderr) = run(
        &["train", "--corpus", "corpus", "--out", "model.cati"],
        &dir,
    );
    assert!(ok, "a corrupt fifth test file was read: {stderr}");

    let second = file(tests[1]);
    std::fs::write(dir.join("corpus").join(&second), b"not a binary").unwrap();
    let out = Command::new(cati_bin())
        .args(["train", "--corpus", "corpus", "--out", "model.cati"])
        .current_dir(&dir)
        .output()
        .expect("spawn cati");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&second),
        "error does not name {second}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
