//! Epoch-level checkpoint/resume for streamed training.
//!
//! After every epoch of every stage, the streamed trainer writes one
//! checkpoint file per stage: a CATI1 v2 container (the model
//! container framing — checksummed section table, aligned tensor
//! payloads) holding the stage's eight parameter tensors *plus* the
//! optimizer's first/second moment buffers, with a sidecar meta
//! record (epoch, RNG state, Adam step count, identity digests)
//! riding in the container's meta section. One file per epoch,
//! written atomically (tmp + rename), so a kill at any instant leaves
//! either the previous epoch's checkpoint or the new one — never a
//! torn state.
//!
//! Resume restores model, optimizer, and RNG bitwise and replays the
//! remaining epochs; the identity digests (pipeline config + shard
//! manifest) are checked first, so a resume against a different
//! corpus or configuration is a typed [`CheckpointError::Mismatch`],
//! not silent garbage. An interrupted run resumed at epoch *k*
//! therefore finishes byte-identical to an uninterrupted one — the
//! contract `tests/streaming_train.rs` asserts at every epoch
//! boundary.
//!
//! The trained embedder is written once, to `embedder.cati`: a CATI1
//! container holding the model container's `w2v` and `vocab` meta
//! entries and its two Word2Vec matrices, so model weights have one
//! on-disk form.

use crate::model_io::{
    decode_embedder, decode_meta_tensors, encode_embedder, encode_meta_tensors, save_bytes_atomic,
};
use cati_dwarf::StageId;
use cati_embedding::VucEmbedder;
use cati_nn::{Adam, TextCnn, TextCnnConfig};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};

/// Checkpoint meta-record format version.
pub const CHECKPOINT_FORMAT: u32 = 1;

/// A typed checkpoint-layer failure.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure, annotated with the path involved.
    Io {
        /// File the operation touched.
        path: PathBuf,
        /// Underlying error.
        err: std::io::Error,
    },
    /// The checkpoint file exists but fails structural verification
    /// (container checksums, meta schema, tensor shapes).
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// First problem found.
        detail: String,
    },
    /// The checkpoint is intact but belongs to a different run
    /// (config digest, data digest, or stage disagree) — resuming
    /// from it would silently train the wrong thing.
    Mismatch {
        /// Offending file.
        path: PathBuf,
        /// What disagreed.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, err } => {
                write!(f, "checkpoint io {}: {err}", path.display())
            }
            CheckpointError::Corrupt { path, detail } => {
                write!(f, "checkpoint {} corrupt: {detail}", path.display())
            }
            CheckpointError::Mismatch { path, detail } => {
                write!(f, "checkpoint {} mismatch: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// What a training run *is*: digests of the pipeline configuration
/// and of the shard-set manifest. Both are stamped into every
/// checkpoint and must match on resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainIdentity {
    /// Digest of the serialized [`Config`](crate::config::Config).
    pub config: String,
    /// Digest of the shard manifest (the data identity).
    pub data: String,
}

/// The sidecar meta record riding in the checkpoint container's meta
/// section. RNG words are hex strings — they exceed `f64` precision,
/// so they must never pass through a JSON number.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CkptMeta {
    format: u32,
    stage: String,
    epoch: usize,
    rng: Vec<String>,
    adam_t: u64,
    lr: f32,
    cnn: TextCnnConfig,
    config_digest: String,
    data_digest: String,
}

/// Everything needed to continue a stage bit-exactly from the end of
/// epoch [`StageCheckpoint::epoch`].
pub struct StageCheckpoint {
    /// Epochs already completed.
    pub epoch: usize,
    /// Model weights at that boundary.
    pub model: TextCnn,
    /// Optimizer (step count + moment buffers) at that boundary.
    pub opt: Adam,
    /// Data-order RNG, positioned after that epoch's shuffle draws.
    pub rng: StdRng,
}

/// A directory of per-stage checkpoint files plus the persisted
/// embedder.
#[derive(Debug, Clone)]
pub struct CheckpointDir {
    dir: PathBuf,
}

impl CheckpointDir {
    /// Opens (creating if needed) a checkpoint directory.
    pub fn open(dir: &Path) -> Result<CheckpointDir, CheckpointError> {
        std::fs::create_dir_all(dir).map_err(|e| CheckpointError::Io {
            path: dir.to_path_buf(),
            err: e,
        })?;
        Ok(CheckpointDir {
            dir: dir.to_path_buf(),
        })
    }

    /// The directory root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shard-set subdirectory for runs that materialize their own
    /// shards under the checkpoint root.
    pub fn shards_dir(&self) -> PathBuf {
        self.dir.join("shards")
    }

    fn stage_path(&self, stage: StageId) -> PathBuf {
        self.dir.join(format!("stage_{stage}.ckpt"))
    }

    fn embedder_path(&self) -> PathBuf {
        self.dir.join("embedder.cati")
    }

    /// Atomically writes the post-epoch checkpoint of `stage`.
    pub fn save_stage(
        &self,
        stage: StageId,
        epoch: usize,
        model: &TextCnn,
        opt: &Adam,
        rng: &StdRng,
        identity: &TrainIdentity,
    ) -> Result<(), CheckpointError> {
        let path = self.stage_path(stage);
        let (t, m, v) = opt.state();
        let meta = CkptMeta {
            format: CHECKPOINT_FORMAT,
            stage: stage.to_string(),
            epoch,
            rng: rng.state().iter().map(|w| format!("{w:016x}")).collect(),
            adam_t: t,
            lr: opt.lr,
            cnn: model.cfg,
            config_digest: identity.config.clone(),
            data_digest: identity.data.clone(),
        };
        let meta_bytes = match serde_json::to_vec(&meta) {
            Ok(b) => b,
            Err(e) => {
                return Err(CheckpointError::Corrupt {
                    path,
                    detail: format!("meta failed to serialize: {e}"),
                })
            }
        };
        let mut tensors: Vec<(String, &[f32])> = model
            .params()
            .into_iter()
            .enumerate()
            .map(|(k, p)| (format!("p{k}"), p))
            .collect();
        tensors.push(("adam.m".to_string(), m));
        tensors.push(("adam.v".to_string(), v));
        let bytes = encode_meta_tensors(&meta_bytes, &tensors);
        save_bytes_atomic(&bytes, &path).map_err(|e| CheckpointError::Io { path, err: e })
    }

    /// Loads the checkpoint of `stage`, if one exists. `Ok(None)`
    /// means "no checkpoint — start fresh"; any structural or
    /// identity problem is a typed error, never a silent fresh start.
    pub fn load_stage(
        &self,
        stage: StageId,
        cnn_cfg: TextCnnConfig,
        identity: &TrainIdentity,
    ) -> Result<Option<StageCheckpoint>, CheckpointError> {
        let path = self.stage_path(stage);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CheckpointError::Io { path, err: e }),
        };
        let corrupt = |detail: String| CheckpointError::Corrupt {
            path: path.clone(),
            detail,
        };
        let (meta_bytes, mut tensors) = decode_meta_tensors(&bytes).map_err(corrupt)?;
        let meta: CkptMeta = serde_json::from_slice(meta_bytes)
            .map_err(|e| corrupt(format!("meta is not a checkpoint record: {e}")))?;
        if meta.format != CHECKPOINT_FORMAT {
            return Err(corrupt(format!("format {} unsupported", meta.format)));
        }
        let mismatch = |detail: String| CheckpointError::Mismatch {
            path: path.clone(),
            detail,
        };
        if meta.stage != stage.to_string() {
            return Err(mismatch(format!("stage {} != {stage}", meta.stage)));
        }
        if meta.config_digest != identity.config {
            return Err(mismatch(
                "pipeline configuration changed since the checkpoint was written".to_string(),
            ));
        }
        if meta.data_digest != identity.data {
            return Err(mismatch(
                "training data changed since the checkpoint was written".to_string(),
            ));
        }
        if meta.cnn != cnn_cfg {
            return Err(mismatch(format!(
                "stage CNN shape {:?} != expected {:?}",
                meta.cnn, cnn_cfg
            )));
        }
        let mut take = |name: &str| -> Result<Vec<f32>, CheckpointError> {
            tensors
                .remove(name)
                .ok_or_else(|| CheckpointError::Corrupt {
                    path: path.clone(),
                    detail: format!("missing tensor {name}"),
                })
        };
        let mut params: [Vec<f32>; 8] = Default::default();
        for (k, p) in params.iter_mut().enumerate() {
            *p = take(&format!("p{k}"))?;
        }
        let m = take("adam.m")?;
        let v = take("adam.v")?;
        let model = TextCnn::from_params(cnn_cfg, params)
            .map_err(|e| corrupt(format!("stage weights: {e}")))?;
        let opt = Adam::from_state(meta.lr, meta.adam_t, m, v);
        let mut words = [0u64; 4];
        if meta.rng.len() != 4 {
            return Err(corrupt(format!("rng state has {} words", meta.rng.len())));
        }
        for (w, s) in words.iter_mut().zip(&meta.rng) {
            *w = u64::from_str_radix(s, 16).map_err(|e| corrupt(format!("rng word {s:?}: {e}")))?;
        }
        Ok(Some(StageCheckpoint {
            epoch: meta.epoch,
            model,
            opt,
            rng: StdRng::from_state(words),
        }))
    }

    /// Persists the trained embedder as a CATI1 container (its
    /// Word2Vec config, vocabulary and two matrices), so a resumed run
    /// skips the extraction + Word2Vec phase and loads the bit-exact
    /// embedder instead.
    pub fn save_embedder(&self, embedder: &VucEmbedder) -> Result<(), CheckpointError> {
        let path = self.embedder_path();
        save_bytes_atomic(&encode_embedder(embedder), &path)
            .map_err(|e| CheckpointError::Io { path, err: e })
    }

    /// Loads the persisted embedder, if present (`Ok(None)` = not
    /// written yet). A present-but-corrupt embedder is a typed error.
    pub fn load_embedder(&self) -> Result<Option<VucEmbedder>, CheckpointError> {
        let path = self.embedder_path();
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CheckpointError::Io { path, err: e }),
        };
        decode_embedder(&bytes)
            .map(Some)
            .map_err(|detail| CheckpointError::Corrupt { path, detail })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cati_embedding::{W2vConfig, Word2Vec};
    use rand::{Rng, SeedableRng};

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cati-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn identity() -> TrainIdentity {
        TrainIdentity {
            config: "cfg-digest".to_string(),
            data: "data-digest".to_string(),
        }
    }

    #[test]
    fn stage_checkpoint_roundtrips_bitwise() {
        let dir = tempdir("roundtrip");
        let ckpt = CheckpointDir::open(&dir).expect("open");
        let cfg = TextCnnConfig::tiny(4, 3);
        let model = TextCnn::new(cfg, 7);
        let mut opt = Adam::new(2e-3);
        // Give the optimizer real moments.
        let mut trained = model.clone();
        let data: Vec<(Vec<f32>, usize)> = (0..8)
            .map(|i| (vec![0.25 * i as f32; 4 * 21], i % 3))
            .collect();
        let mut rng = StdRng::seed_from_u64(3);
        trained.train_epoch(&data, &mut opt, 4, &mut rng);
        rng.gen_range(0..1000u32);
        ckpt.save_stage(StageId::Stage1, 5, &trained, &opt, &rng, &identity())
            .expect("save");
        let loaded = ckpt
            .load_stage(StageId::Stage1, cfg, &identity())
            .expect("load")
            .expect("present");
        assert_eq!(loaded.epoch, 5);
        assert_eq!(loaded.model, trained);
        assert_eq!(loaded.opt, opt);
        assert_eq!(loaded.rng, rng);
        // Absent stage: clean None.
        assert!(ckpt
            .load_stage(StageId::Stage2Ptr, cfg, &identity())
            .expect("load")
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn identity_mismatch_is_refused() {
        let dir = tempdir("mismatch");
        let ckpt = CheckpointDir::open(&dir).expect("open");
        let cfg = TextCnnConfig::tiny(4, 2);
        let model = TextCnn::new(cfg, 1);
        let opt = Adam::new(1e-3);
        let rng = StdRng::seed_from_u64(1);
        ckpt.save_stage(StageId::Stage1, 1, &model, &opt, &rng, &identity())
            .expect("save");
        let other = TrainIdentity {
            config: "different".to_string(),
            data: "data-digest".to_string(),
        };
        match ckpt.load_stage(StageId::Stage1, cfg, &other) {
            Err(CheckpointError::Mismatch { .. }) => {}
            other => panic!("expected Mismatch, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_is_a_typed_error() {
        let dir = tempdir("corrupt");
        let ckpt = CheckpointDir::open(&dir).expect("open");
        let cfg = TextCnnConfig::tiny(4, 2);
        let model = TextCnn::new(cfg, 1);
        let opt = Adam::new(1e-3);
        let rng = StdRng::seed_from_u64(1);
        ckpt.save_stage(StageId::Stage1, 1, &model, &opt, &rng, &identity())
            .expect("save");
        let path = dir.join(format!("stage_{}.ckpt", StageId::Stage1));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
        match ckpt.load_stage(StageId::Stage1, cfg, &identity()) {
            Err(CheckpointError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }

        // The embedder checkpoint: a bit flip, and a file in the
        // earlier format (a digest line, then the embedder as JSON).
        let sentences = vec![vec!["mov".to_string(), "rax".to_string(), "ret".to_string()]; 4];
        let embedder = VucEmbedder::new(Word2Vec::train(&sentences, W2vConfig::tiny()));
        ckpt.save_embedder(&embedder).expect("save embedder");
        assert_eq!(
            ckpt.load_embedder().expect("load").expect("present"),
            embedder
        );
        let path = dir.join("embedder.cati");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        let json = serde_json::to_vec(&embedder).unwrap();
        let mut legacy = cati_analysis::digest_bytes(&json).to_string().into_bytes();
        legacy.push(b'\n');
        legacy.extend_from_slice(&json);
        for damaged in [bytes, legacy] {
            std::fs::write(&path, damaged).unwrap();
            match ckpt.load_embedder() {
                Err(CheckpointError::Corrupt { .. }) => {}
                other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
