//! On-disk training shards: the out-of-core sample store.
//!
//! Training at corpus scale cannot materialize every embedded sample
//! in memory (ROADMAP item 3). Instead, extraction + embedding are
//! streamed once into *shards* — fixed-capacity, digest-trailed,
//! row-addressable binary files — and the trainer reads rows back on
//! demand with positioned reads, so peak memory is bounded by one
//! shard buffer plus the model, never by corpus size.
//!
//! ## Shard file layout (version 1)
//!
//! ```text
//! magic    8 bytes   b"CATISHR1"
//! version  u32 LE    SHARD_VERSION
//! rows     u32 LE    row count
//! cols     u32 LE    f32 elements per row
//! labels   rows × u8          TypeClass index per row
//! data     rows × cols × f32  LE row data, row-major
//! digest   16 bytes  FNV-1a/128 over all preceding bytes, LE
//! ```
//!
//! The label bytes sit ahead of the bulk data so the planning pass
//! (label counting, capping, oversampling) reads only `header +
//! labels` per shard; the f32 rows are touched one positioned read at
//! a time during training. The whole-file digest is verified once at
//! open — a shard that fails any check is a typed [`ShardError`],
//! never silently trained on.
//!
//! A shard *set* is a directory of shard files plus an
//! envelope-sealed JSON manifest (`shards.json`) listing them in
//! order with their digests and the embedder fingerprint, written
//! last — the same integrity conventions as the [`ArtifactCache`]
//! (digest envelope, atomic tmp + rename).
//!
//! [`ArtifactCache`]: crate::artifact_cache::ArtifactCache

use crate::artifact_cache::{open_envelope, seal_envelope};
use cati_analysis::{digest_bytes, Digest, Fnv128};
use cati_nn::SampleSource;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};

/// Shard file format version (bumped on any layout change).
pub const SHARD_VERSION: u32 = 1;

/// Shard file magic.
pub const SHARD_MAGIC: [u8; 8] = *b"CATISHR1";

/// Manifest file name inside a shard directory.
pub const SHARD_MANIFEST: &str = "shards.json";

/// Default rows per shard file: bounds the writer's in-memory buffer
/// (and a verifier's working set) regardless of corpus size.
pub const DEFAULT_ROWS_PER_SHARD: usize = 2048;

/// Fixed shard header length: magic + version + rows + cols.
const HEADER_LEN: usize = 8 + 4 + 4 + 4;

/// Digest trailer length.
const TRAILER_LEN: usize = 16;

/// A typed shard-layer failure. Every corrupt, truncated, or
/// inconsistent shard surfaces as one of these — the training path
/// refuses to start rather than learn from garbage.
#[derive(Debug)]
pub enum ShardError {
    /// Filesystem failure, annotated with the path involved.
    Io {
        /// File or directory the operation touched.
        path: PathBuf,
        /// Underlying error.
        err: std::io::Error,
    },
    /// File shorter than its own framing claims.
    Truncated {
        /// Offending file.
        path: PathBuf,
        /// Bytes present.
        len: usize,
        /// Bytes the framing requires.
        need: usize,
    },
    /// The magic bytes are not [`SHARD_MAGIC`].
    BadMagic {
        /// Offending file.
        path: PathBuf,
    },
    /// Unsupported shard format version.
    BadVersion {
        /// Offending file.
        path: PathBuf,
        /// Version the file claims.
        version: u32,
    },
    /// The digest trailer does not match the file contents.
    DigestMismatch {
        /// Offending file.
        path: PathBuf,
    },
    /// Structurally valid but self-inconsistent (shape mismatch,
    /// manifest disagreement, label out of range, …).
    Inconsistent {
        /// Offending file or directory.
        path: PathBuf,
        /// What disagreed.
        detail: String,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io { path, err } => write!(f, "shard io {}: {err}", path.display()),
            ShardError::Truncated { path, len, need } => write!(
                f,
                "shard {} truncated: {len} bytes, framing needs {need}",
                path.display()
            ),
            ShardError::BadMagic { path } => {
                write!(f, "shard {} has no CATISHR1 magic", path.display())
            }
            ShardError::BadVersion { path, version } => write!(
                f,
                "shard {} version {version} unsupported (this build reads {SHARD_VERSION})",
                path.display()
            ),
            ShardError::DigestMismatch { path } => {
                write!(f, "shard {} digest mismatch (corrupt)", path.display())
            }
            ShardError::Inconsistent { path, detail } => {
                write!(f, "shard {} inconsistent: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for ShardError {}

impl ShardError {
    fn io(path: &Path, err: std::io::Error) -> ShardError {
        ShardError::Io {
            path: path.to_path_buf(),
            err,
        }
    }
}

/// Encodes one shard: `labels[i]` is the class byte of row `i`, whose
/// `cols` floats are `rows[i*cols..(i+1)*cols]`. Pure — the same
/// inputs always produce the same bytes.
pub fn encode_shard(cols: usize, labels: &[u8], rows: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + labels.len() + rows.len() * 4 + TRAILER_LEN);
    let Ok(_) = stream_shard(cols, labels, rows, |bytes| {
        out.extend_from_slice(bytes);
        Ok::<(), std::convert::Infallible>(())
    });
    out
}

/// The one shard encoder: hands the encoding of [`encode_shard`] to
/// `put` piece by piece, digesting as it goes, and returns the digest.
/// The floats pass through a fixed 64 KiB chunk, so a file writer
/// never holds a shard's encoded bytes whole.
fn stream_shard<E>(
    cols: usize,
    labels: &[u8],
    rows: &[f32],
    mut put: impl FnMut(&[u8]) -> Result<(), E>,
) -> Result<Digest, E> {
    debug_assert_eq!(rows.len(), labels.len() * cols, "row data shape");
    let mut hasher = Fnv128::new();
    let mut head = [0u8; HEADER_LEN];
    head[..8].copy_from_slice(&SHARD_MAGIC);
    head[8..12].copy_from_slice(&SHARD_VERSION.to_le_bytes());
    head[12..16].copy_from_slice(&(labels.len() as u32).to_le_bytes());
    head[16..20].copy_from_slice(&(cols as u32).to_le_bytes());
    let mut chunk = vec![0u8; 64 * 1024];
    for piece in [&head[..], labels] {
        hasher.update(piece);
        put(piece)?;
    }
    for block in rows.chunks(chunk.len() / 4) {
        let bytes = &mut chunk[..block.len() * 4];
        for (b, v) in bytes.chunks_exact_mut(4).zip(block) {
            b.copy_from_slice(&v.to_le_bytes());
        }
        hasher.update(bytes);
        put(bytes)?;
    }
    let digest = hasher.finish();
    put(&digest.0.to_le_bytes())?;
    Ok(digest)
}

/// Parses and fully verifies one in-memory shard, returning
/// `(cols, labels, row data)`. The streaming reader ([`ShardSet`])
/// performs the same checks without holding the data section; this
/// whole-buffer form is the codec ground truth the property tests
/// exercise.
pub fn decode_shard(bytes: &[u8], path: &Path) -> Result<(usize, Vec<u8>, Vec<f32>), ShardError> {
    let (rows, cols) = check_header(bytes, path, bytes.len())?;
    let need = HEADER_LEN + rows + rows * cols * 4 + TRAILER_LEN;
    if bytes.len() != need {
        return Err(ShardError::Truncated {
            path: path.to_path_buf(),
            len: bytes.len(),
            need,
        });
    }
    let body = &bytes[..bytes.len() - TRAILER_LEN];
    let mut trailer = [0u8; TRAILER_LEN];
    trailer.copy_from_slice(&bytes[bytes.len() - TRAILER_LEN..]);
    if digest_bytes(body).0 != u128::from_le_bytes(trailer) {
        return Err(ShardError::DigestMismatch {
            path: path.to_path_buf(),
        });
    }
    let labels = bytes[HEADER_LEN..HEADER_LEN + rows].to_vec();
    let data = bytes[HEADER_LEN + rows..HEADER_LEN + rows + rows * cols * 4]
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Ok((cols, labels, data))
}

/// Validates the fixed header against the total file length, returning
/// `(rows, cols)`.
fn check_header(head: &[u8], path: &Path, file_len: usize) -> Result<(usize, usize), ShardError> {
    if head.len() < HEADER_LEN {
        return Err(ShardError::Truncated {
            path: path.to_path_buf(),
            len: file_len,
            need: HEADER_LEN + TRAILER_LEN,
        });
    }
    if head[..8] != SHARD_MAGIC {
        return Err(ShardError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let version = u32::from_le_bytes([head[8], head[9], head[10], head[11]]);
    if version != SHARD_VERSION {
        return Err(ShardError::BadVersion {
            path: path.to_path_buf(),
            version,
        });
    }
    let rows = u32::from_le_bytes([head[12], head[13], head[14], head[15]]) as usize;
    let cols = u32::from_le_bytes([head[16], head[17], head[18], head[19]]) as usize;
    let need = rows
        .checked_mul(cols)
        .and_then(|e| e.checked_mul(4))
        .and_then(|d| d.checked_add(HEADER_LEN + rows + TRAILER_LEN));
    match need {
        Some(need) if file_len == need => Ok((rows, cols)),
        Some(need) => Err(ShardError::Truncated {
            path: path.to_path_buf(),
            len: file_len,
            need,
        }),
        None => Err(ShardError::Inconsistent {
            path: path.to_path_buf(),
            detail: format!("rows {rows} × cols {cols} overflows the file framing"),
        }),
    }
}

/// One shard's manifest entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ShardEntry {
    /// File name inside the shard directory.
    file: String,
    /// Row count.
    rows: usize,
    /// Whole-file digest (32 hex digits), as written.
    digest: String,
}

/// The envelope-sealed manifest listing a shard set in order.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ShardManifest {
    /// [`SHARD_VERSION`] at write time.
    format_version: u32,
    /// f32 elements per row (constant across the set).
    cols: usize,
    /// Fingerprint of the embedder that produced the rows.
    embedder_fingerprint: String,
    /// Shards in dataset order.
    shards: Vec<ShardEntry>,
}

/// Streams `(class byte, embedded row)` samples into a directory of
/// shard files, holding at most one shard's rows in memory. Call
/// [`ShardWriter::push`] in dataset order, then [`ShardWriter::finish`]
/// (or [`ShardWriter::seal`]) to seal the manifest — a set without a
/// manifest is unreadable, so an interrupted write never passes for a
/// complete one.
pub struct ShardWriter {
    dir: PathBuf,
    cols: usize,
    rows_per_shard: usize,
    labels: Vec<u8>,
    data: Vec<f32>,
    shards: Vec<ShardEntry>,
    /// Class bytes of every row already written, shard order.
    written: Vec<u8>,
}

impl ShardWriter {
    /// Creates `dir` (and parents) and an empty writer producing rows
    /// of `cols` floats, `rows_per_shard` rows per file (0 = the
    /// [`DEFAULT_ROWS_PER_SHARD`]).
    pub fn create(
        dir: &Path,
        cols: usize,
        rows_per_shard: usize,
    ) -> Result<ShardWriter, ShardError> {
        std::fs::create_dir_all(dir).map_err(|e| ShardError::io(dir, e))?;
        let rows_per_shard = if rows_per_shard == 0 {
            DEFAULT_ROWS_PER_SHARD
        } else {
            rows_per_shard
        };
        Ok(ShardWriter {
            dir: dir.to_path_buf(),
            cols,
            rows_per_shard,
            labels: Vec::new(),
            data: Vec::new(),
            shards: Vec::new(),
            written: Vec::new(),
        })
    }

    /// Appends one sample; flushes a full shard to disk.
    pub fn push(&mut self, class: u8, row: &[f32]) -> Result<(), ShardError> {
        if row.len() != self.cols {
            return Err(ShardError::Inconsistent {
                path: self.dir.clone(),
                detail: format!(
                    "row of {} floats pushed into a {}-col set",
                    row.len(),
                    self.cols
                ),
            });
        }
        self.labels.push(class);
        self.data.extend_from_slice(row);
        if self.labels.len() >= self.rows_per_shard {
            self.flush()?;
        }
        Ok(())
    }

    /// Total rows pushed so far (flushed or buffered).
    pub fn rows(&self) -> usize {
        self.written.len() + self.labels.len()
    }

    /// Writes the buffered rows as the next shard file.
    fn flush(&mut self) -> Result<(), ShardError> {
        if self.labels.is_empty() {
            return Ok(());
        }
        let entry = write_shard_file(
            &self.dir,
            self.shards.len(),
            self.cols,
            &self.labels,
            &self.data,
        )?;
        self.shards.push(entry);
        self.written.append(&mut self.labels);
        self.data.clear();
        Ok(())
    }

    /// Writes one whole shard (`labels.len()` rows, `data` their
    /// floats) as the next shard file, bypassing the row buffer — the
    /// bulk writer's path. Shard boundaries are the caller's, so the
    /// caller cuts at `rows_per_shard` exactly as [`ShardWriter::push`]
    /// would.
    fn write_shard(&mut self, labels: &[u8], data: &[f32]) -> Result<(), ShardError> {
        debug_assert!(self.labels.is_empty(), "no pushed rows pending");
        let entry = write_shard_file(&self.dir, self.shards.len(), self.cols, labels, data)?;
        self.shards.push(entry);
        self.written.extend_from_slice(labels);
        Ok(())
    }

    /// Flushes the final partial shard and seals the manifest. Returns
    /// the total row count.
    pub fn finish(self, embedder_fingerprint: &str) -> Result<usize, ShardError> {
        Ok(self.seal(embedder_fingerprint)?.len())
    }

    /// [`ShardWriter::finish`], returning the sealed set ready to
    /// train from: each shard file reopened read-only, with the class
    /// bytes this writer wrote and the identity of the manifest it
    /// sealed. The bytes just written are not read back — their
    /// digests were taken as they streamed out. A set from anywhere
    /// else goes through [`ShardSet::open`], which verifies in full.
    pub fn seal(mut self, embedder_fingerprint: &str) -> Result<ShardSet, ShardError> {
        self.flush()?;
        let manifest = ShardManifest {
            format_version: SHARD_VERSION,
            cols: self.cols,
            embedder_fingerprint: embedder_fingerprint.to_string(),
            shards: std::mem::take(&mut self.shards),
        };
        let path = self.dir.join(SHARD_MANIFEST);
        let payload = match serde_json::to_vec(&manifest) {
            Ok(p) => p,
            Err(e) => {
                return Err(ShardError::Inconsistent {
                    path,
                    detail: format!("manifest failed to serialize: {e}"),
                })
            }
        };
        crate::model_io::save_bytes_atomic(&seal_envelope(&payload), &path)
            .map_err(|e| ShardError::io(&path, e))?;
        let mut shards = Vec::with_capacity(manifest.shards.len());
        let mut starts = Vec::with_capacity(manifest.shards.len());
        let mut start = 0;
        for entry in &manifest.shards {
            let path = self.dir.join(&entry.file);
            let file = File::open(&path).map_err(|e| ShardError::io(&path, e))?;
            starts.push(start);
            start += entry.rows;
            shards.push(OpenShard {
                file,
                path,
                rows: entry.rows,
                data_off: (HEADER_LEN + entry.rows) as u64,
            });
        }
        Ok(ShardSet {
            cols: self.cols,
            fingerprint: manifest.embedder_fingerprint,
            identity: digest_bytes(&payload),
            shards,
            labels: self.written,
            starts,
        })
    }
}

/// Encodes shard number `index` straight into its file under `dir`
/// (atomic tmp + rename), returning its manifest entry.
fn write_shard_file(
    dir: &Path,
    index: usize,
    cols: usize,
    labels: &[u8],
    data: &[f32],
) -> Result<ShardEntry, ShardError> {
    use std::io::Write;
    let file = format!("shard_{index:05}.cshard");
    let path = dir.join(&file);
    let tmp = dir.join(format!("{file}.tmp"));
    let io = |e| ShardError::io(&path, e);
    let mut out = File::create(&tmp).map_err(io)?;
    let digest = stream_shard(cols, labels, data, |bytes| out.write_all(bytes)).map_err(io)?;
    drop(out);
    std::fs::rename(&tmp, &path).map_err(io)?;
    Ok(ShardEntry {
        file,
        rows: labels.len(),
        digest: digest.to_string(),
    })
}

/// Streams a dataset's labeled VUCs into a shard set under `dir`: one
/// row per [`labeled_rows`] entry, in pool order, labeled with the
/// class's [`TypeClass::index`] byte and embedded with `embedder` —
/// the identical `(class sequence, floats)` in-memory training embeds
/// from, which is what makes streamed training bit-identical. The
/// files are byte-identical to pushing the same rows through
/// [`ShardWriter::push`]. Returns the sealed set, ready to train from
/// without re-reading it ([`ShardWriter::seal`]).
///
/// Each shard's rows are embedded into one reused flat buffer
/// ([`embed_windows_into`]), so peak memory never scales with the
/// corpus. With more than one thread the work is pipelined: a scoped
/// writer thread encodes, digests and writes shard `k` while the
/// other threads embed shard `k + 1`, two buffers passing back and
/// forth between them. With one thread, embedding and writing
/// alternate on the caller's thread.
///
/// [`TypeClass::index`]: cati_dwarf::TypeClass::index
/// [`labeled_rows`]: crate::dataset::labeled_rows
/// [`embed_windows_into`]: crate::dataset::embed_windows_into
///
/// # Errors
///
/// Propagates shard-layer write failures, including the writer
/// thread's.
pub fn write_dataset_shards(
    dataset: &crate::dataset::Dataset,
    embedder: &cati_embedding::VucEmbedder,
    dir: &Path,
    rows_per_shard: usize,
    obs: &dyn cati_obs::Observer,
) -> Result<ShardSet, ShardError> {
    use crate::dataset::embed_windows_into;
    use std::sync::mpsc;
    let cols = embedder.embed_dim() * cati_analysis::VUC_LEN;
    let mut writer = ShardWriter::create(dir, cols, rows_per_shard)?;
    let (windows, classes) = crate::dataset::labeled_rows(dataset);
    let per_shard = writer.rows_per_shard;
    let shard_labels = |k: usize| &classes[k * per_shard..classes.len().min((k + 1) * per_shard)];
    let embed = |k: usize, buf: &mut Vec<f32>| {
        let windows = &windows[k * per_shard..windows.len().min((k + 1) * per_shard)];
        buf.resize(windows.len() * cols, 0.0);
        embed_windows_into(windows, embedder, cols, buf);
    };
    let shards = classes.len().div_ceil(per_shard);
    let threads = rayon::current_num_threads();
    if threads == 1 {
        let mut buf = Vec::new();
        for k in 0..shards {
            embed(k, &mut buf);
            writer.write_shard(shard_labels(k), &buf)?;
        }
    } else {
        let embed_pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads - 1)
            .build()
            .map_err(|e| ShardError::Inconsistent {
                path: dir.to_path_buf(),
                detail: format!("embedding pool: {e}"),
            })?;
        writer = std::thread::scope(|scope| {
            // Filled buffers go to the writer with their shard number;
            // written ones come back to be refilled.
            let (full_tx, full_rx) = mpsc::channel::<(usize, Vec<f32>)>();
            let (free_tx, free_rx) = mpsc::channel::<Vec<f32>>();
            let handle = scope.spawn(move || -> Result<ShardWriter, ShardError> {
                for (k, buf) in full_rx {
                    writer.write_shard(shard_labels(k), &buf)?;
                    // The embedder may have stopped taking buffers.
                    let _ = free_tx.send(buf);
                }
                Ok(writer)
            });
            let mut ping_pong = vec![Vec::new(), Vec::new()];
            for k in 0..shards {
                // A closed channel means the writer failed; its join
                // below reports why.
                let Some(mut buf) = ping_pong.pop().or_else(|| free_rx.recv().ok()) else {
                    break;
                };
                embed_pool.install(|| embed(k, &mut buf));
                if full_tx.send((k, buf)).is_err() {
                    break;
                }
            }
            drop(full_tx);
            match handle.join() {
                Ok(result) => result,
                Err(panic) => std::panic::resume_unwind(panic),
            }
        })?;
    }
    let fingerprint = crate::artifact_cache::embedder_fingerprint(embedder).to_string();
    let set = writer.seal(&fingerprint)?;
    obs.event(&cati_obs::Event::Counter {
        name: "shards.rows",
        delta: set.len() as u64,
    });
    Ok(set)
}

/// One opened, verified shard file.
#[derive(Debug)]
struct OpenShard {
    file: File,
    path: PathBuf,
    rows: usize,
    /// Absolute byte offset of the f32 data section.
    data_off: u64,
}

/// A verified, readable shard set: every shard's digest checked once
/// at open (constant memory) — or, for a set this process just wrote,
/// taken as the bytes streamed out ([`ShardWriter::seal`]) — all class
/// bytes resident for planning, f32 rows fetched by positioned read
/// during training.
#[derive(Debug)]
pub struct ShardSet {
    cols: usize,
    fingerprint: String,
    identity: Digest,
    shards: Vec<OpenShard>,
    /// Class byte per global row, shard order.
    labels: Vec<u8>,
    /// `starts[i]` = global row index of shard `i`'s first row.
    starts: Vec<usize>,
}

impl ShardSet {
    /// Opens and fully verifies the shard set in `dir`: the manifest
    /// envelope, then every listed shard — framing, digest, and
    /// manifest agreement — one parallel task per shard. Fails with a
    /// typed [`ShardError`] for the first bad shard in manifest order,
    /// whatever the thread count; a set that opens is safe to train
    /// from.
    pub fn open(dir: &Path) -> Result<ShardSet, ShardError> {
        let mpath = dir.join(SHARD_MANIFEST);
        let sealed = std::fs::read(&mpath).map_err(|e| ShardError::io(&mpath, e))?;
        let Some(payload) = open_envelope(&sealed) else {
            return Err(ShardError::DigestMismatch { path: mpath });
        };
        let manifest: ShardManifest = match serde_json::from_slice(payload) {
            Ok(m) => m,
            Err(e) => {
                return Err(ShardError::Inconsistent {
                    path: mpath,
                    detail: format!("manifest is not valid JSON: {e}"),
                })
            }
        };
        if manifest.format_version != SHARD_VERSION {
            return Err(ShardError::BadVersion {
                path: mpath,
                version: manifest.format_version,
            });
        }
        let identity = digest_bytes(payload);
        // One verification task per shard; results come back in
        // manifest order, so the first error reported is the first bad
        // shard listed, whichever task finished first.
        let opened: Vec<Result<(OpenShard, Vec<u8>), ShardError>> = manifest
            .shards
            .par_iter()
            .with_max_len(1)
            .map(|entry| open_one(dir, entry, manifest.cols))
            .collect();
        let mut shards = Vec::with_capacity(opened.len());
        let mut labels = Vec::with_capacity(manifest.shards.iter().map(|e| e.rows).sum());
        let mut starts = Vec::with_capacity(opened.len());
        for result in opened {
            let (shard, shard_labels) = result?;
            starts.push(labels.len());
            labels.extend_from_slice(&shard_labels);
            shards.push(shard);
        }
        Ok(ShardSet {
            cols: manifest.cols,
            fingerprint: manifest.embedder_fingerprint,
            identity,
            shards,
            labels,
            starts,
        })
    }

    /// Total rows across all shards.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the set holds no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// f32 elements per row.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The class byte of every global row, in shard order — the
    /// planning pass's input (two-pass label counting: labels now,
    /// floats later).
    pub fn labels(&self) -> &[u8] {
        &self.labels
    }

    /// Fingerprint of the embedder that produced the rows.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Digest of the manifest payload: the identity of the whole set,
    /// recorded into checkpoints so a resume against different data
    /// is refused.
    pub fn identity(&self) -> Digest {
        self.identity
    }

    /// Reads global row `row` into `out` (resized to `cols`).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range row — plans are built from this
    /// set's own labels, so that is a caller bug, not data corruption
    /// (corruption is caught at [`ShardSet::open`]).
    pub fn read_row(&self, row: usize, out: &mut Vec<f32>) -> Result<(), ShardError> {
        let shard_idx = match self.starts.partition_point(|&s| s <= row) {
            0 => panic!("row {row} before the first shard"),
            i => i - 1,
        };
        let shard = &self.shards[shard_idx];
        let local = row - self.starts[shard_idx];
        assert!(local < shard.rows, "row {row} out of range");
        let off = shard.data_off + (local * self.cols * 4) as u64;
        out.resize(self.cols, 0.0);
        read_floats_at(&shard.file, &shard.path, off, out)
    }
}

/// Opens one shard file, streaming it once to verify the digest, and
/// returns it with its label bytes.
fn open_one(
    dir: &Path,
    entry: &ShardEntry,
    cols: usize,
) -> Result<(OpenShard, Vec<u8>), ShardError> {
    let path = dir.join(&entry.file);
    let mut file = File::open(&path).map_err(|e| ShardError::io(&path, e))?;
    let file_len = file.metadata().map_err(|e| ShardError::io(&path, e))?.len() as usize;
    let mut head = [0u8; HEADER_LEN];
    if file_len >= HEADER_LEN {
        file.read_exact(&mut head)
            .map_err(|e| ShardError::io(&path, e))?;
    }
    let (rows, file_cols) = check_header(&head[..HEADER_LEN.min(file_len)], &path, file_len)?;
    if file_cols != cols || rows != entry.rows {
        return Err(ShardError::Inconsistent {
            path,
            detail: format!(
                "file says {rows} rows × {file_cols} cols, manifest says {} rows × {cols} cols",
                entry.rows
            ),
        });
    }
    // Stream the remainder once: digest everything up to the trailer,
    // keep only the label bytes.
    let mut hasher = Fnv128::new();
    hasher.update(&head);
    let mut labels = vec![0u8; rows];
    file.read_exact(&mut labels)
        .map_err(|e| ShardError::io(&path, e))?;
    hasher.update(&labels);
    if let Some(bad) = labels
        .iter()
        .find(|&&c| usize::from(c) >= cati_dwarf::TypeClass::ALL.len())
    {
        return Err(ShardError::Inconsistent {
            path,
            detail: format!("class byte {bad} exceeds the 19 type classes"),
        });
    }
    let mut remaining = rows * cols * 4;
    let mut buf = [0u8; 64 * 1024];
    while remaining > 0 {
        let n = remaining.min(buf.len());
        file.read_exact(&mut buf[..n])
            .map_err(|e| ShardError::io(&path, e))?;
        hasher.update(&buf[..n]);
        remaining -= n;
    }
    let mut trailer = [0u8; TRAILER_LEN];
    file.read_exact(&mut trailer)
        .map_err(|e| ShardError::io(&path, e))?;
    let actual = hasher.finish();
    if actual.0 != u128::from_le_bytes(trailer) {
        return Err(ShardError::DigestMismatch { path });
    }
    if actual.to_string() != entry.digest {
        return Err(ShardError::Inconsistent {
            path,
            detail: "file digest disagrees with the manifest".to_string(),
        });
    }
    let shard = OpenShard {
        file,
        path,
        rows,
        data_off: (HEADER_LEN + rows) as u64,
    };
    Ok((shard, labels))
}

/// Positioned read of `out.len()` floats at byte `off` (thread-safe:
/// no shared cursor).
#[cfg(unix)]
fn read_floats_at(file: &File, path: &Path, off: u64, out: &mut [f32]) -> Result<(), ShardError> {
    use std::os::unix::fs::FileExt;
    let mut buf = [0u8; 4096];
    let mut pos = off;
    let mut i = 0;
    while i < out.len() {
        let n = ((out.len() - i) * 4).min(buf.len());
        file.read_exact_at(&mut buf[..n], pos)
            .map_err(|e| ShardError::io(path, e))?;
        for c in buf[..n].chunks_exact(4) {
            out[i] = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            i += 1;
        }
        pos += n as u64;
    }
    Ok(())
}

/// Portable fallback: re-open the file and read at the offset.
#[cfg(not(unix))]
fn read_floats_at(file: &File, path: &Path, off: u64, out: &mut [f32]) -> Result<(), ShardError> {
    use std::io::{Seek, SeekFrom};
    let _ = file;
    let mut f = File::open(path).map_err(|e| ShardError::io(path, e))?;
    f.seek(SeekFrom::Start(off))
        .map_err(|e| ShardError::io(path, e))?;
    let mut bytes = vec![0u8; out.len() * 4];
    f.read_exact(&mut bytes)
        .map_err(|e| ShardError::io(path, e))?;
    for (o, c) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *o = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    }
    Ok(())
}

/// One stage's planned training samples over a [`ShardSet`]: the
/// sample at plan position `i` is global row `plan[i].0` with stage
/// label `plan[i].1`. Implements [`SampleSource`], so
/// [`TextCnn::train_epoch_hooked`](cati_nn::TextCnn::train_epoch_hooked)
/// consumes it exactly like the in-memory source over the same plan —
/// same shuffle, same sharding, same reduction order, bit-identical
/// weights.
pub struct ShardSamples<'a> {
    shards: &'a ShardSet,
    /// `(global row, stage label)` in training order (duplicates =
    /// oversampling).
    plan: Vec<(u32, u16)>,
}

impl<'a> ShardSamples<'a> {
    /// Wraps a plan over `shards`.
    pub fn new(shards: &'a ShardSet, plan: Vec<(u32, u16)>) -> ShardSamples<'a> {
        ShardSamples { shards, plan }
    }
}

impl SampleSource for ShardSamples<'_> {
    fn len(&self) -> usize {
        self.plan.len()
    }

    /// # Panics
    ///
    /// Panics if the positioned read fails. The shard set verified
    /// every byte at open, so a failure here is an environment error
    /// (disk vanished mid-training), not data corruption — aborting
    /// is the only honest response.
    fn sample<'s>(&'s self, idx: usize, scratch: &'s mut Vec<f32>) -> (&'s [f32], usize) {
        let (row, label) = self.plan[idx];
        if let Err(e) = self.shards.read_row(row as usize, scratch) {
            panic!("shard row read failed after open-time verification: {e}");
        }
        (scratch.as_slice(), label as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_set(dir: &Path, rows_per_shard: usize, n: usize, cols: usize) -> ShardSet {
        let mut w = ShardWriter::create(dir, cols, rows_per_shard).expect("create");
        for i in 0..n {
            let row: Vec<f32> = (0..cols).map(|c| (i * cols + c) as f32 * 0.5).collect();
            w.push((i % 7) as u8, &row).expect("push");
        }
        assert_eq!(w.rows(), n);
        assert_eq!(w.finish("test-fingerprint").expect("finish"), n);
        ShardSet::open(dir).expect("open")
    }

    #[test]
    fn write_read_roundtrip_across_shard_boundaries() {
        let dir = tempdir("roundtrip");
        let set = roundtrip_set(&dir, 8, 37, 5);
        assert_eq!(set.len(), 37);
        assert_eq!(set.cols(), 5);
        assert_eq!(set.fingerprint(), "test-fingerprint");
        let mut out = Vec::new();
        for i in 0..37 {
            assert_eq!(set.labels()[i], (i % 7) as u8);
            set.read_row(i, &mut out).expect("read");
            let want: Vec<f32> = (0..5).map(|c| (i * 5 + c) as f32 * 0.5).collect();
            assert_eq!(out, want, "row {i}");
        }
    }

    #[test]
    fn shard_samples_match_in_memory_source() {
        use cati_nn::SampleSource;
        let dir = tempdir("samples");
        let set = roundtrip_set(&dir, 4, 10, 3);
        let plan: Vec<(u32, u16)> = vec![(9, 1), (0, 0), (4, 2), (9, 1)];
        let src = ShardSamples::new(&set, plan.clone());
        assert_eq!(SampleSource::len(&src), 4);
        let mut scratch = Vec::new();
        for (k, &(row, label)) in plan.iter().enumerate() {
            let (x, l) = src.sample(k, &mut scratch);
            assert_eq!(l, label as usize);
            let want: Vec<f32> = (0..3)
                .map(|c| (row as usize * 3 + c) as f32 * 0.5)
                .collect();
            assert_eq!(x, want.as_slice());
        }
    }

    /// Tile training over a shard-backed source is bitwise training
    /// over the same rows in memory: after three epochs over
    /// `ShardSamples` the parameters equal those of three epochs over a
    /// `Vec`, at batch sizes around the 8-sample tile, sample counts
    /// that leave partial tiles, and on one worker and on three. (The
    /// in-memory trainer is pinned to the per-sample oracle in
    /// `cati-nn`'s unit tests.)
    #[test]
    fn tile_training_over_shard_samples_matches_in_memory() {
        use cati_nn::{Adam, SampleSource, TextCnn, TextCnnConfig};
        use rand::{rngs::StdRng, SeedableRng};
        let cfg = TextCnnConfig::tiny(3, 4);
        let cols = cfg.seq_len * cfg.embed_dim;
        let rows: Vec<(Vec<f32>, usize)> = (0..37)
            .map(|i| {
                let x = (0..cols).map(|c| ((i * cols + c) as f32 * 0.37).sin());
                (x.collect(), i % cfg.classes)
            })
            .collect();
        let dir = tempdir("tile-train");
        let mut w = ShardWriter::create(&dir, cols, 8).expect("create");
        for (x, label) in &rows {
            w.push(*label as u8, x).expect("push");
        }
        w.finish("tile-train").expect("finish");
        let set = ShardSet::open(&dir).expect("open");
        fn train<S: SampleSource + ?Sized>(cfg: TextCnnConfig, data: &S, batch: usize) -> TextCnn {
            let mut model = TextCnn::new(cfg, 3);
            let mut opt = Adam::new(0.01);
            let mut rng = StdRng::seed_from_u64(batch as u64);
            for _ in 0..3 {
                model.train_epoch(data, &mut opt, batch, &mut rng);
            }
            model
        }
        let bits = |m: &TextCnn| -> Vec<u32> {
            m.params()
                .iter()
                .flat_map(|p| p.iter().map(|v| v.to_bits()))
                .collect()
        };
        for n in [1, 7, 9, 37] {
            let plan: Vec<(u32, u16)> = (0..n).map(|i| (i as u32, rows[i].1 as u16)).collect();
            let shard_src = ShardSamples::new(&set, plan);
            let mem_src = rows[..n].to_vec();
            for batch in [1, 5, 8, 13, 32, 64] {
                for threads in [1, 3] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .expect("pool");
                    let (streamed, in_memory) = pool
                        .install(|| (train(cfg, &shard_src, batch), train(cfg, &mem_src, batch)));
                    assert_eq!(
                        bits(&streamed),
                        bits(&in_memory),
                        "{n} samples, batch {batch}, {threads} threads"
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_is_a_typed_error() {
        let dir = tempdir("nomanifest");
        std::fs::create_dir_all(&dir).unwrap();
        match ShardSet::open(&dir) {
            Err(ShardError::Io { .. }) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn tampered_manifest_is_rejected() {
        let dir = tempdir("manifest-tamper");
        roundtrip_set(&dir, 8, 10, 3);
        let mpath = dir.join(SHARD_MANIFEST);
        let mut bytes = std::fs::read(&mpath).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x20;
        std::fs::write(&mpath, bytes).unwrap();
        match ShardSet::open(&dir) {
            Err(ShardError::DigestMismatch { .. }) => {}
            other => panic!("expected DigestMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncated_shard_file_is_rejected() {
        let dir = tempdir("truncate");
        roundtrip_set(&dir, 8, 10, 3);
        let shard = dir.join("shard_00000.cshard");
        let bytes = std::fs::read(&shard).unwrap();
        std::fs::write(&shard, &bytes[..bytes.len() - 5]).unwrap();
        match ShardSet::open(&dir) {
            Err(ShardError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn flipped_data_bit_is_rejected() {
        let dir = tempdir("bitflip");
        roundtrip_set(&dir, 8, 10, 3);
        let shard = dir.join("shard_00000.cshard");
        let mut bytes = std::fs::read(&shard).unwrap();
        let mid = HEADER_LEN + 10 + 7; // inside the f32 data section
        bytes[mid] ^= 1;
        std::fs::write(&shard, bytes).unwrap();
        match ShardSet::open(&dir) {
            Err(ShardError::DigestMismatch { .. }) => {}
            other => panic!("expected DigestMismatch, got {other:?}"),
        }
    }

    /// A labeled dataset of a few hundred rows and a Word2Vec
    /// embedder trained on the same binaries.
    fn small_dataset() -> (crate::dataset::Dataset, cati_embedding::VucEmbedder) {
        use cati_embedding::{VucEmbedder, W2vConfig, Word2Vec};
        use rand::SeedableRng;
        let corpus = cati_synbin::build_corpus(&cati_synbin::CorpusConfig::small(21));
        let train = &corpus.train[..3];
        let dataset =
            crate::dataset::Dataset::from_binaries(train, cati_analysis::FeatureView::WithSymbols);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let sentences = crate::dataset::embedding_sentences(train, 200, &mut rng);
        let embedder = VucEmbedder::new(Word2Vec::train(&sentences, W2vConfig::tiny()));
        (dataset, embedder)
    }

    /// Every file of a shard directory, by name.
    fn dir_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .expect("read shard dir")
            .map(|e| {
                let e = e.expect("dir entry");
                let name = e.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(e.path()).expect("read shard file"))
            })
            .collect();
        files.sort();
        files
    }

    /// The pipelined bulk writer writes exactly the files — every
    /// `.cshard` and `shards.json` — that pushing the same rows one by
    /// one through [`ShardWriter::push`] writes, for shard sizes of one
    /// row, an odd size and the default, at one, two and four threads.
    #[test]
    fn bulk_writer_matches_serial_push_byte_for_byte() {
        let (dataset, embedder) = small_dataset();
        let (windows, classes) = crate::dataset::labeled_rows(&dataset);
        assert!(classes.len() > 100, "{} rows", classes.len());
        let cols = embedder.embed_dim() * cati_analysis::VUC_LEN;
        let fingerprint = crate::artifact_cache::embedder_fingerprint(&embedder).to_string();
        for rows_per_shard in [1, 7, DEFAULT_ROWS_PER_SHARD] {
            let reference = tempdir(&format!("push-{rows_per_shard}"));
            let mut w = ShardWriter::create(&reference, cols, rows_per_shard).expect("create");
            for (window, &class) in windows.iter().zip(&classes) {
                w.push(class, &embedder.embed_window(window)).expect("push");
            }
            assert_eq!(w.finish(&fingerprint).expect("finish"), classes.len());
            let want = dir_files(&reference);
            for threads in [1, 2, 4] {
                let dir = tempdir(&format!("bulk-{rows_per_shard}-{threads}"));
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("pool");
                let set = pool
                    .install(|| {
                        write_dataset_shards(
                            &dataset,
                            &embedder,
                            &dir,
                            rows_per_shard,
                            &cati_obs::NOOP,
                        )
                    })
                    .expect("bulk write");
                assert_eq!(set.len(), classes.len());
                let got = dir_files(&dir);
                assert_eq!(
                    got.iter().map(|(n, _)| n).collect::<Vec<_>>(),
                    want.iter().map(|(n, _)| n).collect::<Vec<_>>(),
                    "file names, {rows_per_shard} rows per shard, {threads} threads"
                );
                assert!(
                    got == want,
                    "file bytes differ, {rows_per_shard} rows per shard, {threads} threads"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
            let _ = std::fs::remove_dir_all(&reference);
        }
    }

    /// The set [`write_dataset_shards`] seals reads exactly like the
    /// one [`ShardSet::open`] verifies from the same directory: labels,
    /// columns, fingerprint, identity and every row's floats, with
    /// one shard or several, at one and four threads.
    #[test]
    fn sealed_set_equals_the_verified_open() {
        let (dataset, embedder) = small_dataset();
        for threads in [1, 4] {
            for rows_per_shard in [7, DEFAULT_ROWS_PER_SHARD] {
                let dir = tempdir(&format!("sealed-{rows_per_shard}-{threads}"));
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("pool");
                let sealed = pool
                    .install(|| {
                        write_dataset_shards(
                            &dataset,
                            &embedder,
                            &dir,
                            rows_per_shard,
                            &cati_obs::NOOP,
                        )
                    })
                    .expect("bulk write");
                let opened = ShardSet::open(&dir).expect("open");
                let case = format!("{rows_per_shard} rows per shard, {threads} threads");
                assert!(!opened.is_empty(), "{case}");
                assert_eq!(sealed.labels(), opened.labels(), "{case}");
                assert_eq!(sealed.cols(), opened.cols(), "{case}");
                assert_eq!(sealed.fingerprint(), opened.fingerprint(), "{case}");
                assert_eq!(sealed.identity(), opened.identity(), "{case}");
                let (mut a, mut b) = (Vec::new(), Vec::new());
                for row in 0..opened.len() {
                    sealed.read_row(row, &mut a).expect("sealed row");
                    opened.read_row(row, &mut b).expect("opened row");
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&a), bits(&b), "row {row}, {case}");
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    /// A failed write on the writer side — here a directory squatting
    /// at the second shard's path — comes back as a typed I/O error,
    /// with no panic and no hang, whether or not the writes are
    /// pipelined.
    #[test]
    fn bulk_writer_reports_a_write_failure() {
        let (dataset, embedder) = small_dataset();
        for threads in [1, 2, 4] {
            let dir = tempdir(&format!("squat-{threads}"));
            let squat = dir.join("shard_00001.cshard");
            std::fs::create_dir_all(squat.join("occupied")).unwrap();
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let result = pool
                .install(|| write_dataset_shards(&dataset, &embedder, &dir, 16, &cati_obs::NOOP));
            match result {
                Err(ShardError::Io { path, .. }) => assert_eq!(path, squat, "{threads} threads"),
                other => panic!("expected an Io error at {threads} threads, got {other:?}"),
            }
            assert!(
                !dir.join(SHARD_MANIFEST).exists(),
                "a failed set is never sealed"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// With several bad shards, open reports the first one the manifest
    /// lists, however many threads verify them.
    #[test]
    fn open_reports_the_first_bad_shard_in_manifest_order() {
        let dir = tempdir("two-bad");
        roundtrip_set(&dir, 4, 40, 3);
        for bad in ["shard_00003.cshard", "shard_00007.cshard"] {
            let path = dir.join(bad);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[HEADER_LEN + 4 + 5] ^= 1;
            std::fs::write(&path, bytes).unwrap();
        }
        for threads in [1, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            match pool.install(|| ShardSet::open(&dir)) {
                Err(ShardError::DigestMismatch { path }) => {
                    assert_eq!(path, dir.join("shard_00003.cshard"), "{threads} threads")
                }
                other => panic!("expected DigestMismatch at {threads} threads, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cati-shards-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}
