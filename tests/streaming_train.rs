//! Parity and crash-safety harness for out-of-core streaming training
//! (§ on-disk shards + epoch checkpoint/resume).
//!
//! The streaming path makes three strong promises, and this file holds
//! it to every one of them at the byte level:
//!
//! 1. **Streamed == in-memory.** Training from on-disk shards produces
//!    a system bit-identical to [`Cati::train`] on the same corpus.
//! 2. **Resume == uninterrupted.** Pausing at *every* epoch boundary
//!    and resuming yields the exact bytes of a run that never stopped.
//! 3. **Kill-anywhere safety.** A subprocess SIGKILLed mid-training
//!    resumes to the uninterrupted result, and damaged state (corrupt
//!    or truncated shards, corrupt checkpoints, a foreign config) is
//!    refused with a typed error — never silently retrained wrong.

use cati::obs::{Recorder, RecorderConfig, NOOP};
use cati::{Cati, CheckpointError, Config, ShardError, StreamError, StreamOptions};
use cati_synbin::{build_corpus, Corpus, CorpusConfig};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn test_corpus() -> Corpus {
    build_corpus(&CorpusConfig::small(13))
}

/// Three epochs so resume can be probed at interior boundaries, not
/// just the trivial first/last ones.
fn test_config() -> Config {
    Config {
        epochs: 3,
        ..Config::small()
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cati_stream_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Runs a full streamed training pass from scratch in `dir`.
fn stream_full(corpus: &Corpus, config: &Config, dir: &Path) -> Cati {
    Cati::train_streamed(&corpus.train, config, dir, StreamOptions::default(), &NOOP)
        .expect("streamed training failed")
        .expect("full run must produce a system")
}

/// Serialized model bytes, the currency of every parity assertion.
fn saved_bytes(cati: &Cati, tag: &str) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("cati_stream_{tag}_{}.cati", std::process::id()));
    cati.save(&path).expect("save failed");
    let bytes = std::fs::read(&path).expect("read saved model");
    std::fs::remove_file(&path).ok();
    bytes
}

/// Trains `config` in memory and streamed, each under its own
/// recorder, and demands identical systems, bytes, inference and
/// sample counters. Returns the streamed run's recorder.
fn assert_streamed_matches_in_memory(corpus: &Corpus, config: &Config, tag: &str) -> Recorder {
    let mem_rec = Recorder::new(RecorderConfig::default());
    let in_memory = Cati::train(&corpus.train, config, &mem_rec);
    let dir = fresh_dir(tag);
    let str_rec = Recorder::new(RecorderConfig::default());
    let streamed = Cati::train_streamed(
        &corpus.train,
        config,
        &dir,
        StreamOptions::default(),
        &str_rec,
    )
    .expect("streamed training failed")
    .expect("full run must produce a system");
    assert_eq!(
        in_memory, streamed,
        "{tag}: streamed training diverged from the in-memory path"
    );
    assert_eq!(
        saved_bytes(&in_memory, &format!("{tag}_mem")),
        saved_bytes(&streamed, &format!("{tag}_str")),
        "{tag}: serialized models differ between streamed and in-memory training"
    );
    // And inference downstream of both agrees exactly.
    let stripped = corpus.test[0].binary.strip();
    assert_eq!(
        in_memory.infer(&stripped).unwrap(),
        streamed.infer(&stripped).unwrap(),
        "{tag}: inference diverged between streamed and in-memory models"
    );
    for counter in ["train.samples", "train.oversampled"] {
        assert_eq!(
            mem_rec.metrics().counter_value(counter),
            str_rec.metrics().counter_value(counter),
            "{tag}: {counter} differs between the paths"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    str_rec
}

/// Samples planned before oversampling, summed over the six stages.
fn base_samples(rec: &Recorder) -> u64 {
    let m = rec.metrics();
    m.counter_value("train.samples") - m.counter_value("train.oversampled")
}

/// Both plan shapes: the uncapped identity order, and a cap below the
/// Stage 1 pool (every labeled row) that shuffles and truncates,
/// with rare-class oversampling firing on top.
#[test]
fn streamed_training_is_bit_identical_to_in_memory() {
    let corpus = test_corpus();
    let uncapped = Config {
        max_stage_samples: 0,
        ..test_config()
    };
    let rec = assert_streamed_matches_in_memory(&corpus, &uncapped, "parity_uncapped");
    let stage1_pool = rec.metrics().counter_value("shards.rows");
    // One epoch: the plan shape is what differs, and the uncapped
    // run already covers the epoch-to-epoch RNG stream.
    let capped = Config {
        epochs: 1,
        max_stage_samples: stage1_pool as usize / 2,
        ..test_config()
    };
    let capped_rec = assert_streamed_matches_in_memory(&corpus, &capped, "parity_capped");
    assert!(
        base_samples(&capped_rec) < base_samples(&rec),
        "the cap of {} never applied",
        capped.max_stage_samples
    );
    assert!(
        capped_rec.metrics().counter_value("train.oversampled") > 0,
        "oversampling never fired under the cap"
    );
}

#[test]
fn resume_at_every_epoch_boundary_is_byte_identical() {
    let corpus = test_corpus();
    let config = test_config();
    let base_dir = fresh_dir("resume_base");
    let uninterrupted = stream_full(&corpus, &config, &base_dir);
    let golden = saved_bytes(&uninterrupted, "resume_golden");
    std::fs::remove_dir_all(&base_dir).ok();

    for stop_at in 1..config.epochs {
        let dir = fresh_dir(&format!("resume_{stop_at}"));
        let paused = Cati::train_streamed(
            &corpus.train,
            &config,
            &dir,
            StreamOptions {
                stop_after_epoch: Some(stop_at),
                ..StreamOptions::default()
            },
            &NOOP,
        )
        .expect("partial streamed run failed");
        assert!(
            paused.is_none(),
            "run stopped at epoch {stop_at} should not yield a finished system"
        );
        let resumed = Cati::train_streamed(
            &corpus.train,
            &config,
            &dir,
            StreamOptions {
                resume: true,
                ..StreamOptions::default()
            },
            &NOOP,
        )
        .expect("resume failed")
        .expect("resumed run must finish");
        assert_eq!(
            saved_bytes(&resumed, &format!("resume_{stop_at}")),
            golden,
            "resume after epoch {stop_at} diverged from the uninterrupted run"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn corrupt_or_truncated_shards_are_refused_with_typed_errors() {
    let corpus = test_corpus();
    let config = test_config();
    let dir = fresh_dir("badshard");
    stream_full(&corpus, &config, &dir);
    let shard = std::fs::read_dir(dir.join("shards"))
        .expect("shards dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "cshard"))
        .expect("no shard file written");

    // A single flipped bit in the middle of the payload must fail the
    // digest check on resume.
    let pristine = std::fs::read(&shard).expect("read shard");
    let mut bytes = pristine.clone();
    bytes[pristine.len() / 2] ^= 0x10;
    std::fs::write(&shard, &bytes).expect("write corrupt shard");
    let err = Cati::train_streamed(
        &corpus.train,
        &config,
        &dir,
        StreamOptions {
            resume: true,
            ..StreamOptions::default()
        },
        &NOOP,
    )
    .expect_err("corrupt shard must refuse to resume");
    assert!(
        matches!(err, StreamError::Shard(ShardError::DigestMismatch { .. })),
        "expected a digest mismatch, got {err}"
    );

    // Truncation must also surface as a typed shard error.
    std::fs::write(&shard, &pristine[..pristine.len() - 7]).expect("truncate shard");
    let err = Cati::train_streamed(
        &corpus.train,
        &config,
        &dir,
        StreamOptions {
            resume: true,
            ..StreamOptions::default()
        },
        &NOOP,
    )
    .expect_err("truncated shard must refuse to resume");
    assert!(
        matches!(
            err,
            StreamError::Shard(ShardError::Truncated { .. } | ShardError::DigestMismatch { .. })
        ),
        "expected truncation/digest error, got {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_checkpoints_and_foreign_configs_are_refused() {
    let corpus = test_corpus();
    let config = test_config();
    let dir = fresh_dir("badckpt");
    stream_full(&corpus, &config, &dir);
    let ckpt = std::fs::read_dir(&dir)
        .expect("checkpoint dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .expect("no stage checkpoint written");

    // Resuming under a different config must be refused: these
    // checkpoints describe someone else's training run.
    let foreign = Config {
        lr: config.lr * 2.0,
        ..config
    };
    let err = Cati::train_streamed(
        &corpus.train,
        &foreign,
        &dir,
        StreamOptions {
            resume: true,
            ..StreamOptions::default()
        },
        &NOOP,
    )
    .expect_err("foreign config must refuse to resume");
    assert!(
        matches!(
            err,
            StreamError::Checkpoint(CheckpointError::Mismatch { .. })
        ),
        "expected an identity mismatch, got {err}"
    );

    // A bit flip inside a checkpoint must be a typed corruption error.
    let mut bytes = std::fs::read(&ckpt).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    std::fs::write(&ckpt, &bytes).expect("write corrupt checkpoint");
    let err = Cati::train_streamed(
        &corpus.train,
        &config,
        &dir,
        StreamOptions {
            resume: true,
            ..StreamOptions::default()
        },
        &NOOP,
    )
    .expect_err("corrupt checkpoint must refuse to resume");
    assert!(
        matches!(
            err,
            StreamError::Checkpoint(CheckpointError::Corrupt { .. })
        ),
        "expected typed corruption, got {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Env var carrying the checkpoint dir into the subprocess victim.
const KILL_DIR_ENV: &str = "CATI_TEST_KILL_DIR";

/// Subprocess victim for [`kill_mid_epoch_then_resume_matches_uninterrupted`]:
/// runs a slowed-down streamed training pass that the parent SIGKILLs
/// partway through. Ignored so it never runs on its own; the parent
/// re-executes this test binary with `--ignored --exact` to invoke it.
#[test]
#[ignore = "subprocess victim; driven by the kill-and-resume test"]
fn child_streaming_kill_victim() {
    let Ok(dir) = std::env::var(KILL_DIR_ENV) else {
        return; // invoked outside the harness; nothing to do
    };
    let corpus = test_corpus();
    let config = test_config();
    let outcome = Cati::train_streamed(
        &corpus.train,
        &config,
        Path::new(&dir),
        StreamOptions {
            // Slow each epoch so the parent reliably wins the race to
            // SIGKILL us between checkpoint writes.
            epoch_sleep_ms: 500,
            ..StreamOptions::default()
        },
        &NOOP,
    );
    if outcome.is_ok() {
        // The parent asserts this marker is absent: its presence means
        // the kill landed too late and the test run proves nothing.
        std::fs::write(Path::new(&dir).join("FINISHED"), b"").ok();
    }
}

#[test]
fn kill_mid_epoch_then_resume_matches_uninterrupted() {
    let corpus = test_corpus();
    let config = test_config();

    // Golden: the run that never stops.
    let base_dir = fresh_dir("kill_base");
    let uninterrupted = stream_full(&corpus, &config, &base_dir);
    let golden = saved_bytes(&uninterrupted, "kill_golden");
    std::fs::remove_dir_all(&base_dir).ok();

    // Victim: this same test binary, re-executed to run the ignored
    // child above, then SIGKILLed once the first epoch checkpoint
    // lands on disk — i.e. genuinely mid-training.
    let dir = fresh_dir("kill_victim");
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = Command::new(&exe)
        .args(["--ignored", "--exact", "child_streaming_kill_victim"])
        .env(KILL_DIR_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn victim");

    let deadline = Instant::now() + Duration::from_secs(120);
    let first_ckpt_seen = loop {
        let seen = std::fs::read_dir(&dir).ok().is_some_and(|entries| {
            entries
                .filter_map(|e| e.ok())
                .any(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
        });
        if seen {
            break true;
        }
        if child.try_wait().expect("try_wait").is_some() || Instant::now() > deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(first_ckpt_seen, "victim never wrote a checkpoint");
    child.kill().expect("SIGKILL victim");
    let status = child.wait().expect("wait for victim");
    assert!(!status.success(), "victim should have died by signal");
    assert!(
        !dir.join("FINISHED").exists(),
        "victim finished before the kill; the test raced and proves nothing"
    );

    // Resume from whatever the kill left behind; the result must be
    // byte-for-byte the uninterrupted run.
    let resumed = Cati::train_streamed(
        &corpus.train,
        &config,
        &dir,
        StreamOptions {
            resume: true,
            ..StreamOptions::default()
        },
        &NOOP,
    )
    .expect("resume after kill failed")
    .expect("resumed run must finish");
    assert_eq!(
        saved_bytes(&resumed, "kill_resumed"),
        golden,
        "resume after SIGKILL diverged from the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}
