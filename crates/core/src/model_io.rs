//! The CATI1 binary model container — the one model format.
//!
//! The container stores the weights as named little-endian `f32`
//! tensors and keeps JSON only for the small structured head
//! (configuration and vocabulary). Layout (all integers
//! little-endian; see DESIGN.md §12/§15):
//!
//! ```text
//! magic        8 bytes   "CATI1\r\n\0"
//! version      u32       container version (always 2)
//! n_sections   u32
//! section table, per section:
//!     name_len u32
//!     name     name_len bytes (UTF-8)
//!     offset   u64       absolute file offset of the payload
//!     len      u64       payload length in bytes
//!     digest   u128      FNV-1a/128 of the payload
//! table digest u128      FNV-1a/128 over magic, version, count and
//!                        every table entry (names length-prefixed)
//! payloads     section payloads, in table order, each starting on a
//!              64-byte file offset, with zero padding between
//! ```
//!
//! Two sections: `meta` (JSON: pipeline config, Word2Vec config,
//! vocabulary, and the `(stage, cnn-config)` list) and `tensors`.
//! Tensor names are `w2v.input`, `w2v.output`, and
//! `stage.<stage>.p0`‥`p7` in [`TextCnn::params`] order. Every write
//! is a pure function of the model, so re-saving an unchanged model
//! is byte-identical.
//!
//! The `tensors` payload separates an index from a data region:
//! count, then per tensor `{name_len, name, elems u64, rel_off u64}`,
//! then zero padding so the data region starts on a 64-byte boundary,
//! then each tensor's raw `f32` data at its `rel_off` — every
//! `rel_off` 64-byte aligned, with zero padding between tensors.
//! Because section payloads also start on 64-byte *file* offsets,
//! every tensor's absolute file offset is 64-byte aligned. The
//! alignment is part of the format: changing it would change the
//! bytes of every container.
//!
//! [`load_model`] reads the whole file, verifies every checksum and
//! copies each tensor into an owned buffer through [`decode_cati1`],
//! so a loaded model never touches its file again: rewriting or
//! truncating the file under a running server cannot change or crash
//! it. It accepts version 2 only. Any other version, and any file
//! without the magic, fails with what was found (the version number,
//! or a hex preview of the first bytes).
//!
//! The embedder checkpoint of a streamed training run uses the same
//! container: its meta holds the model meta's `w2v` and `vocab`
//! entries, its tensors are `w2v.input` and `w2v.output`.

use crate::pipeline::Cati;
use cati_analysis::{digest_bytes, Fnv128};
use cati_dwarf::StageId;
use cati_embedding::{Vocab, VucEmbedder, W2vConfig, Word2Vec};
use cati_nn::{TextCnn, TextCnnConfig};
use serde::Serialize;
use std::collections::HashMap;
use std::path::Path;

/// The 8-byte CATI1 magic. The `\r\n` catches newline-translating
/// transports, the trailing NUL catches C-string truncation.
pub const CATI1_MAGIC: [u8; 8] = *b"CATI1\r\n\0";

/// Container format version written by [`encode_cati1`].
pub const CATI1_VERSION: u32 = 2;

/// Alignment (bytes) of every section payload and tensor datum: a
/// cache line, which also covers `f32` and SIMD vector loads. Part of
/// the v2 format.
pub const CATI1_ALIGN: usize = 64;

/// A decoded container's tensors, by name.
pub(crate) type Tensors = HashMap<String, Vec<f32>>;

fn align_up(n: usize) -> usize {
    n.div_ceil(CATI1_ALIGN) * CATI1_ALIGN
}

/// Whether `bytes` carry the CATI1 magic.
pub fn is_cati1(bytes: &[u8]) -> bool {
    bytes.starts_with(&CATI1_MAGIC)
}

// ---------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------

/// The named flat weight tensors of a trained system, in the fixed
/// container order (borrowed views — encoding never copies weights).
fn weight_tensors(cati: &Cati) -> Vec<(String, &[f32])> {
    let mut tensors = embedder_tensors(&cati.embedder);
    for (stage, cnn) in cati.stages.models() {
        for (k, t) in cnn.params().into_iter().enumerate() {
            tensors.push((format!("stage.{stage}.p{k}"), t));
        }
    }
    tensors
}

/// The embedder's weight tensors, in container order.
fn embedder_tensors(embedder: &VucEmbedder) -> Vec<(String, &[f32])> {
    let model = embedder.model();
    vec![
        ("w2v.input".to_string(), model.input_matrix()),
        ("w2v.output".to_string(), model.output_matrix()),
    ]
}

/// Appends the embedder's meta entries to `m`: its Word2Vec config
/// and vocabulary.
fn insert_embedder_meta(m: &mut serde::Map, embedder: &VucEmbedder) {
    let model = embedder.model();
    m.insert("w2v".to_string(), model.cfg.to_value());
    m.insert("vocab".to_string(), model.vocab.to_value());
}

/// The `meta` section payload: everything except the weights, as JSON.
fn meta_blob(cati: &Cati) -> Vec<u8> {
    let mut m = serde::Map::new();
    m.insert("config".to_string(), cati.config.to_value());
    insert_embedder_meta(&mut m, &cati.embedder);
    let stages: Vec<serde::Value> = cati
        .stages
        .models()
        .iter()
        .map(|(stage, cnn)| {
            let mut s = serde::Map::new();
            s.insert("stage".to_string(), stage.to_value());
            s.insert("cfg".to_string(), cnn.cfg.to_value());
            serde::Value::Object(s)
        })
        .collect();
    m.insert("stages".to_string(), serde::Value::Array(stages));
    serde_json::to_vec(&serde::Value::Object(m)).unwrap_or_default()
}

/// The `tensors` section payload: an index (count, then per tensor
/// name / element count / section-relative data offset), zero padding
/// to a [`CATI1_ALIGN`] boundary, then each tensor's raw LE `f32`
/// data at its recorded offset — every offset aligned, zero padding
/// between tensors. Combined with aligned section placement this
/// makes every tensor's *file* offset 64-byte aligned.
fn tensor_blob(tensors: &[(String, &[f32])]) -> Vec<u8> {
    let index_len: usize = 4 + tensors
        .iter()
        .map(|(n, _)| 4 + n.len() + 8 + 8)
        .sum::<usize>();
    let mut rel = align_up(index_len);
    let mut offsets = Vec::with_capacity(tensors.len());
    for (_, data) in tensors {
        offsets.push(rel);
        rel = align_up(rel + data.len() * 4);
    }
    let total = offsets
        .last()
        .zip(tensors.last())
        .map_or(align_up(index_len), |(&off, (_, d))| off + d.len() * 4);
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&(tensors.len() as u32).to_le_bytes());
    for ((name, data), &off) in tensors.iter().zip(&offsets) {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(data.len() as u64).to_le_bytes());
        out.extend_from_slice(&(off as u64).to_le_bytes());
    }
    for ((_, data), &off) in tensors.iter().zip(&offsets) {
        out.resize(off, 0);
        for v in *data {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Encodes an arbitrary `(meta JSON, named tensors)` pair as a CATI1
/// container, starting every payload on a [`CATI1_ALIGN`]-byte file
/// offset. Models and the epoch checkpoints share this framing —
/// checksummed section table, aligned tensor payloads, whole-file
/// integrity — the checkpoints for model weights *and* the optimizer
/// moments riding alongside them.
pub(crate) fn encode_meta_tensors(meta: &[u8], tensors: &[(String, &[f32])]) -> Vec<u8> {
    let sections: Vec<(&str, Vec<u8>)> =
        vec![("meta", meta.to_vec()), ("tensors", tensor_blob(tensors))];
    let table_len: usize = sections.iter().map(|(n, _)| 4 + n.len() + 8 + 8 + 16).sum();
    let header_len = CATI1_MAGIC.len() + 4 + 4 + table_len + 16;
    let payload_len: usize = sections.iter().map(|(_, p)| p.len()).sum();
    let mut out = Vec::with_capacity(align_up(header_len) + payload_len + CATI1_ALIGN);
    out.extend_from_slice(&CATI1_MAGIC);
    out.extend_from_slice(&CATI1_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut hasher = Fnv128::new();
    hasher.update(&CATI1_MAGIC);
    hasher.update_u32(CATI1_VERSION);
    hasher.update_u32(sections.len() as u32);
    let mut offset = align_up(header_len);
    let mut offsets = Vec::with_capacity(sections.len());
    for (name, payload) in &sections {
        let digest = digest_bytes(payload);
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(offset as u64).to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&digest.0.to_le_bytes());
        hasher.update_field(name.as_bytes());
        hasher.update_u64(offset as u64);
        hasher.update_u64(payload.len() as u64);
        hasher.update(&digest.0.to_le_bytes());
        offsets.push(offset);
        offset = align_up(offset + payload.len());
    }
    out.extend_from_slice(&hasher.finish().0.to_le_bytes());
    for ((_, payload), &off) in sections.iter().zip(&offsets) {
        out.resize(off, 0); // zero padding up to the aligned offset
        out.extend_from_slice(payload);
    }
    out
}

/// Encodes a trained system as a CATI1 container ([`CATI1_VERSION`]
/// = 2, the aligned layout).
pub fn encode_cati1(cati: &Cati) -> Vec<u8> {
    encode_meta_tensors(&meta_blob(cati), &weight_tensors(cati))
}

/// Encodes a trained embedder alone as a CATI1 container: the model
/// container's `w2v` and `vocab` meta entries and its two `w2v.*`
/// tensors (the streamed trainer's embedder checkpoint).
pub(crate) fn encode_embedder(embedder: &VucEmbedder) -> Vec<u8> {
    let mut m = serde::Map::new();
    insert_embedder_meta(&mut m, embedder);
    let meta = serde_json::to_vec(&serde::Value::Object(m)).unwrap_or_default();
    encode_meta_tensors(&meta, &embedder_tensors(embedder))
}

/// Decodes a container written by [`encode_meta_tensors`] back into
/// its meta payload and named tensors, every tensor copied into an
/// owned buffer.
pub(crate) fn decode_meta_tensors(bytes: &[u8]) -> Result<(&[u8], Tensors), String> {
    let sections = read_sections(bytes)?;
    let find = |name: &str| -> Result<&Section<'_>, String> {
        sections
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("missing section {name}"))
    };
    let meta = find("meta")?.payload;
    let tensors = read_tensors(find("tensors")?.payload)?;
    Ok((meta, tensors))
}

/// Test hook: encodes arbitrary named tensors as a container
/// (with an empty `meta` payload), so the alignment invariant can be
/// property-tested over shapes without training a model.
#[doc(hidden)]
pub fn encode_v2_raw(tensors: &[(String, Vec<f32>)]) -> Vec<u8> {
    let views: Vec<(String, &[f32])> = tensors
        .iter()
        .map(|(n, d)| (n.clone(), d.as_slice()))
        .collect();
    encode_meta_tensors(b"{}", &views)
}

// ---------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------

/// A bounds-checked byte reader over the container.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(format!(
                "truncated container: {what} needs {n} bytes at offset {}, file has {}",
                self.pos,
                self.bytes.len()
            )),
        }
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        let b = self.take(8, what)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(b);
        Ok(u64::from_le_bytes(buf))
    }

    fn u128(&mut self, what: &str) -> Result<u128, String> {
        let b = self.take(16, what)?;
        let mut buf = [0u8; 16];
        buf.copy_from_slice(b);
        Ok(u128::from_le_bytes(buf))
    }

    fn name(&mut self, what: &str) -> Result<String, String> {
        let len = self.u32(what)? as usize;
        if len > 4096 {
            return Err(format!("{what} name length {len} is implausible"));
        }
        String::from_utf8(self.take(len, what)?.to_vec())
            .map_err(|e| format!("{what} name is not UTF-8: {e}"))
    }
}

/// A verified section: name, absolute file offset of the payload, and
/// the payload itself.
struct Section<'a> {
    name: String,
    offset: usize,
    payload: &'a [u8],
}

/// Splits the container into verified sections: the magic, the
/// version, the table checksum, every section's bounds, and every
/// section's payload checksum must all hold.
fn read_sections(bytes: &[u8]) -> Result<Vec<Section<'_>>, String> {
    let mut cur = Cursor { bytes, pos: 0 };
    if cur.take(CATI1_MAGIC.len(), "magic")? != CATI1_MAGIC {
        return Err("missing CATI1 magic".to_string());
    }
    let version = cur.u32("container version")?;
    if version != CATI1_VERSION {
        return Err(format!(
            "unsupported CATI1 container version {version} \
             (this build reads only version {CATI1_VERSION})"
        ));
    }
    let count = cur.u32("section count")?;
    if count == 0 || count > 64 {
        return Err(format!("implausible section count {count}"));
    }
    let mut hasher = Fnv128::new();
    hasher.update(&CATI1_MAGIC);
    hasher.update_u32(version);
    hasher.update_u32(count);
    let mut table = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let name = cur.name("section")?;
        let offset = cur.u64("section offset")?;
        let len = cur.u64("section length")?;
        let digest = cur.u128("section digest")?;
        hasher.update_field(name.as_bytes());
        hasher.update_u64(offset);
        hasher.update_u64(len);
        hasher.update(&digest.to_le_bytes());
        table.push((name, offset, len, digest));
    }
    let recorded = cur.u128("table digest")?;
    if hasher.finish().0 != recorded {
        return Err("section table checksum mismatch (corrupt header)".to_string());
    }
    let mut sections = Vec::with_capacity(table.len());
    for (name, offset, len, digest) in table {
        let end = offset.checked_add(len).filter(|&e| e <= bytes.len() as u64);
        let Some(end) = end else {
            return Err(format!(
                "section {name} out of bounds: bytes {offset}..{} of a {}-byte file",
                offset.saturating_add(len),
                bytes.len()
            ));
        };
        let payload = &bytes[offset as usize..end as usize];
        if digest_bytes(payload).0 != digest {
            return Err(format!("section {name} checksum mismatch"));
        }
        sections.push(Section {
            name,
            offset: offset as usize,
            payload,
        });
    }
    Ok(sections)
}

/// Copies `elems` floats out of `payload` at byte `off`.
fn copy_f32s(payload: &[u8], off: usize, elems: usize, name: &str) -> Result<Vec<f32>, String> {
    let end = elems
        .checked_mul(4)
        .and_then(|b| off.checked_add(b))
        .filter(|&e| e <= payload.len())
        .ok_or_else(|| {
            format!(
                "tensor {name} data {off}+{elems}x4 out of bounds ({}-byte section)",
                payload.len()
            )
        })?;
    Ok(payload[off..end]
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// Parses a `tensors` payload (index + aligned data region) into
/// name → owned buffer.
fn read_tensors(payload: &[u8]) -> Result<Tensors, String> {
    let mut cur = Cursor {
        bytes: payload,
        pos: 0,
    };
    let count = cur.u32("tensor count")?;
    let mut tensors = HashMap::with_capacity(count as usize);
    for _ in 0..count {
        let name = cur.name("tensor")?;
        let elems = cur.u64(&format!("tensor {name} length"))? as usize;
        let rel = cur.u64(&format!("tensor {name} offset"))? as usize;
        let data = copy_f32s(payload, rel, elems, &name)?;
        tensors.insert(name, data);
    }
    Ok(tensors)
}

fn take_tensor(tensors: &mut Tensors, name: &str) -> Result<Vec<f32>, String> {
    tensors
        .remove(name)
        .ok_or_else(|| format!("missing tensor {name}"))
}

/// Rebuilds the embedder from its meta entries and its two tensors
/// (taken out of `tensors`).
fn decode_embedder_parts(meta: &serde::Map, tensors: &mut Tensors) -> Result<VucEmbedder, String> {
    let w2v_cfg: W2vConfig = serde::field(meta, "w2v", "CATI1 meta").map_err(|e| e.to_string())?;
    let vocab: Vocab = serde::field(meta, "vocab", "CATI1 meta").map_err(|e| e.to_string())?;
    let input = take_tensor(tensors, "w2v.input")?;
    let output = take_tensor(tensors, "w2v.output")?;
    Ok(VucEmbedder::new(Word2Vec::from_parts(
        vocab, w2v_cfg, input, output,
    )?))
}

/// Parses a `meta` payload as a JSON object.
fn parse_meta(meta: &[u8]) -> Result<serde::Map, String> {
    match serde_json::from_slice(meta)
        .map_err(|e| format!("meta section is not valid JSON: {e}"))?
    {
        serde::Value::Object(m) => Ok(m),
        v => Err(serde::DeError::expected("object for CATI1 meta", &v).to_string()),
    }
}

/// Fails when a container holds tensors its decoder did not take.
fn no_extra_tensors(tensors: &Tensors) -> Result<(), String> {
    if tensors.is_empty() {
        return Ok(());
    }
    let mut extra: Vec<&String> = tensors.keys().collect();
    extra.sort();
    Err(format!("unexpected tensors in container: {extra:?}"))
}

/// Decodes an embedder container written by [`encode_embedder`].
pub(crate) fn decode_embedder(bytes: &[u8]) -> Result<VucEmbedder, String> {
    let (meta, mut tensors) = decode_meta_tensors(bytes)?;
    let embedder = decode_embedder_parts(&parse_meta(meta)?, &mut tensors)?;
    no_extra_tensors(&tensors)?;
    Ok(embedder)
}

/// Decodes a CATI1 container back into a trained system, every weight
/// copied into an owned buffer. [`load_model`] is this over the file's
/// bytes.
///
/// # Errors
///
/// Returns a description of the first structural problem found:
/// truncation, checksum mismatch, an unsupported version, a missing
/// section or tensor, or a tensor whose shape disagrees with the
/// recorded configuration.
pub fn decode_cati1(bytes: &[u8]) -> Result<Cati, String> {
    let (meta, mut tensors) = decode_meta_tensors(bytes)?;
    let meta = parse_meta(meta)?;
    let config: crate::config::Config =
        serde::field(&meta, "config", "CATI1 meta").map_err(|e| e.to_string())?;
    let stage_vals: Vec<serde::Value> =
        serde::field(&meta, "stages", "CATI1 meta").map_err(|e| e.to_string())?;
    let embedder = decode_embedder_parts(&meta, &mut tensors)?;

    let mut models = Vec::with_capacity(stage_vals.len());
    for v in &stage_vals {
        let m = serde::as_object_for(v, "CATI1 stage entry").map_err(|e| e.to_string())?;
        let stage: StageId =
            serde::field(m, "stage", "CATI1 stage entry").map_err(|e| e.to_string())?;
        let cfg: TextCnnConfig =
            serde::field(m, "cfg", "CATI1 stage entry").map_err(|e| e.to_string())?;
        let mut params: [Vec<f32>; 8] = Default::default();
        for (k, p) in params.iter_mut().enumerate() {
            *p = take_tensor(&mut tensors, &format!("stage.{stage}.p{k}"))?;
        }
        let cnn = TextCnn::from_params(cfg, params).map_err(|e| format!("stage {stage}: {e}"))?;
        models.push((stage, cnn));
    }
    no_extra_tensors(&tensors)?;
    Ok(Cati {
        config,
        embedder,
        stages: crate::multistage::MultiStage::from_models(models),
    })
}

/// Test hook: the `(name, absolute file offset, element count)` of
/// every tensor in a container, for asserting the 64-byte alignment
/// invariant without decoding a full model.
#[doc(hidden)]
pub fn v2_tensor_offsets(bytes: &[u8]) -> Result<Vec<(String, usize, usize)>, String> {
    let sections = read_sections(bytes)?;
    let tsec = sections
        .iter()
        .find(|s| s.name == "tensors")
        .ok_or_else(|| "missing section tensors".to_string())?;
    let mut cur = Cursor {
        bytes: tsec.payload,
        pos: 0,
    };
    let count = cur.u32("tensor count")?;
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let name = cur.name("tensor")?;
        let elems = cur.u64("tensor length")? as usize;
        let rel = cur.u64("tensor offset")? as usize;
        out.push((name, tsec.offset + rel, elems));
    }
    Ok(out)
}

// ---------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------

/// Writes `bytes` to `path` atomically (tmp + rename), annotating
/// failures with the path and payload size.
pub(crate) fn save_bytes_atomic(bytes: &[u8], path: &Path) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, bytes).map_err(|e| {
        std::io::Error::new(
            e.kind(),
            format!(
                "write model ({} bytes) to {}: {e}",
                bytes.len(),
                tmp.display()
            ),
        )
    })?;
    std::fs::rename(&tmp, path).map_err(|e| {
        std::io::Error::new(
            e.kind(),
            format!("rename {} -> {}: {e}", tmp.display(), path.display()),
        )
    })
}

/// Saves a trained system to `path` as a CATI1 container (atomically).
pub(crate) fn save_cati1(cati: &Cati, path: &Path) -> std::io::Result<()> {
    save_bytes_atomic(&encode_cati1(cati), path)
}

/// Loads a CATI1 model file: reads it whole and decodes the bytes with
/// [`decode_cati1`]. A file without the CATI1 magic fails with a hex
/// preview of its first bytes and a format hint.
pub(crate) fn load_model(path: &Path) -> std::io::Result<Cati> {
    let bytes = std::fs::read(path).map_err(|e| {
        std::io::Error::new(e.kind(), format!("read model {}: {e}", path.display()))
    })?;
    let bytes = bytes.as_slice();
    let parse_err = |detail: String| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "parse model {} ({} bytes): {detail}",
                path.display(),
                bytes.len()
            ),
        )
    };
    if is_cati1(bytes) {
        decode_cati1(bytes).map_err(parse_err)
    } else {
        let preview: Vec<String> = bytes.iter().take(8).map(|b| format!("{b:02x}")).collect();
        Err(parse_err(format!(
            "unrecognized model format (first bytes: {}); expected CATI1 magic",
            preview.join(" ")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use cati_synbin::{build_corpus, CorpusConfig};

    fn tiny_cati() -> Cati {
        let corpus = build_corpus(&CorpusConfig::small(29));
        Cati::train(&corpus.train[..2], &Config::small(), &cati_obs::NOOP)
    }

    #[test]
    fn encode_decode_roundtrip_is_exact_and_deterministic() {
        let cati = tiny_cati();
        let bytes = encode_cati1(&cati);
        assert!(is_cati1(&bytes));
        assert_eq!(
            bytes,
            encode_cati1(&cati),
            "encoding must be a pure function"
        );
        let back = decode_cati1(&bytes).unwrap();
        assert_eq!(back, cati, "container roundtrip must be bit-exact");
        assert_eq!(
            encode_cati1(&back),
            bytes,
            "re-encoding must be byte-identical"
        );
    }

    #[test]
    fn corrupt_header_is_rejected() {
        let cati = tiny_cati();
        let mut bytes = encode_cati1(&cati);
        // Flip a bit in the first table entry's offset field (magic 8
        // + version 4 + count 4 + name_len 4 + "meta" 4 = offset 24):
        // the table checksum must catch it.
        bytes[24] ^= 1;
        let err = decode_cati1(&bytes).expect_err("corrupt header must not decode");
        assert!(err.contains("checksum"), "unexpected error: {err}");
    }

    #[test]
    fn truncated_section_is_rejected_with_bounds_context() {
        let cati = tiny_cati();
        let bytes = encode_cati1(&cati);
        let cut = bytes.len() - bytes.len() / 4;
        let err = decode_cati1(&bytes[..cut]).expect_err("truncated container must not decode");
        assert!(
            err.contains("out of bounds") || err.contains("truncated"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn tampered_payload_fails_its_section_checksum() {
        let cati = tiny_cati();
        let mut bytes = encode_cati1(&cati);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let err = decode_cati1(&bytes).expect_err("tampered payload must not decode");
        assert!(err.contains("checksum mismatch"), "unexpected error: {err}");
    }

    #[test]
    fn unknown_version_is_rejected() {
        let cati = tiny_cati();
        let mut bytes = encode_cati1(&cati);
        bytes[CATI1_MAGIC.len()] = 9;
        let err = decode_cati1(&bytes).expect_err("future version must not decode");
        assert!(err.contains("version 9"), "unexpected error: {err}");
    }

    #[test]
    fn v2_tensor_offsets_are_cache_line_aligned() {
        let bytes = encode_cati1(&tiny_cati());
        let offsets = v2_tensor_offsets(&bytes).expect("offset table");
        assert!(!offsets.is_empty());
        for (name, off, elems) in &offsets {
            assert_eq!(
                off % CATI1_ALIGN,
                0,
                "tensor {name} starts at {off}, not {CATI1_ALIGN}-byte aligned"
            );
            assert!(
                off + elems * 4 <= bytes.len(),
                "tensor {name} out of bounds"
            );
        }
    }

    proptest::proptest! {
        /// The alignment invariant holds for arbitrary tensor shapes,
        /// not just the shapes a trained model happens to produce —
        /// including empty tensors and lengths straddling the 16-float
        /// (64-byte) boundary.
        #[test]
        fn v2_alignment_holds_for_arbitrary_shapes(
            lens in proptest::collection::vec(0usize..40, 1..8)
        ) {
            let tensors: Vec<(String, Vec<f32>)> = lens
                .iter()
                .enumerate()
                .map(|(i, &n)| (format!("t{i}"), (0..n).map(|k| k as f32).collect()))
                .collect();
            let bytes = encode_v2_raw(&tensors);
            let offsets = v2_tensor_offsets(&bytes).unwrap();
            proptest::prop_assert_eq!(offsets.len(), tensors.len());
            for ((name, data), (oname, off, elems)) in tensors.iter().zip(&offsets) {
                proptest::prop_assert_eq!(name, oname);
                proptest::prop_assert_eq!(data.len(), *elems);
                proptest::prop_assert_eq!(off % CATI1_ALIGN, 0);
                // The recorded window really holds the tensor's bytes.
                for (k, v) in data.iter().enumerate() {
                    let at = off + k * 4;
                    let got = f32::from_le_bytes([
                        bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3],
                    ]);
                    proptest::prop_assert_eq!(got.to_bits(), v.to_bits());
                }
            }
        }
    }

    #[test]
    fn file_load_equals_byte_decode() {
        let cati = tiny_cati();
        let dir = std::env::temp_dir().join(format!("cati-v2-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.cati");
        cati.save(&path).unwrap();
        let loaded = Cati::load(&path).unwrap();
        assert_eq!(loaded, cati, "file load must be bit-exact");
        let decoded = decode_cati1(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(encode_cati1(&loaded), encode_cati1(&decoded));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn embedder_container_roundtrips_and_refuses_extra_tensors() {
        let cati = tiny_cati();
        let bytes = encode_embedder(&cati.embedder);
        assert_eq!(decode_embedder(&bytes).unwrap(), cati.embedder);
        // A whole model is not an embedder checkpoint.
        let err = decode_embedder(&encode_cati1(&cati)).expect_err("model is not an embedder");
        assert!(
            err.contains("unexpected tensors"),
            "unexpected error: {err}"
        );
    }
}
