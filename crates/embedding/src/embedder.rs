//! VUC → CNN-input embedding.
//!
//! Each instruction is three tokens; each token embeds to `dim`
//! floats; a VUC of `L` instructions becomes a `[3*dim][L]`
//! channel-major matrix — the paper's 21×96 input at dim = 32.
//!
//! The generalized-instruction alphabet is tiny relative to the
//! number of VUC instances, so the embedder memoizes the `3*dim`
//! channel column of every [`GenInsn`] it sees: embedding a window
//! becomes stitching cached rows into the channel-major layout, and
//! occlusion probes can patch a single position in place.

use crate::hash::FxHashMap;
use crate::word2vec::Word2Vec;
use cati_asm::generalize::{GenInsn, TOKENS_PER_INSN};
use serde::Serialize;
use std::sync::{Arc, RwLock};

/// Embeds generalized instruction windows into CNN input tensors.
///
/// Carries a memoizing per-instruction cache; the cache is pure
/// derived state (exactly the floats [`Word2Vec::vector`] returns, or
/// zeros for out-of-vocabulary tokens), so it never affects results,
/// equality, or the serialized form.
#[derive(Debug)]
pub struct VucEmbedder {
    model: Word2Vec,
    /// `GenInsn` → its `embed_dim()` channel column. Keyed with the
    /// crate-local [`FxHashMap`]: one lookup per instruction per VUC
    /// makes SipHash over three strings the bulk-embedding bottleneck.
    cache: RwLock<FxHashMap<GenInsn, Arc<[f32]>>>,
}

impl Clone for VucEmbedder {
    fn clone(&self) -> VucEmbedder {
        VucEmbedder {
            model: self.model.clone(),
            cache: RwLock::new(self.cache.read().expect("embed cache lock").clone()),
        }
    }
}

impl PartialEq for VucEmbedder {
    fn eq(&self, other: &VucEmbedder) -> bool {
        self.model == other.model
    }
}

impl Serialize for VucEmbedder {
    fn to_value(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert("model".to_string(), self.model.to_value());
        serde::Value::Object(m)
    }
}

impl VucEmbedder {
    /// Wraps a trained Word2Vec model.
    pub fn new(model: Word2Vec) -> VucEmbedder {
        VucEmbedder {
            model,
            cache: RwLock::new(FxHashMap::default()),
        }
    }

    /// Per-token embedding dimension.
    pub fn token_dim(&self) -> usize {
        self.model.cfg.dim
    }

    /// Channel count of the produced tensors (`3 × token_dim`).
    pub fn embed_dim(&self) -> usize {
        TOKENS_PER_INSN * self.model.cfg.dim
    }

    /// The underlying Word2Vec model.
    pub fn model(&self) -> &Word2Vec {
        &self.model
    }

    /// The `embed_dim()` channel column of one instruction, straight
    /// from the model (no cache involved).
    fn compute_column(&self, insn: &GenInsn) -> Vec<f32> {
        let dim = self.model.cfg.dim;
        let mut col = vec![0.0f32; self.embed_dim()];
        for (k, token) in insn.iter().enumerate() {
            if let Some(v) = self.model.vector(token) {
                col[k * dim..(k + 1) * dim].copy_from_slice(v);
            }
        }
        col
    }

    /// The memoized channel column of one instruction.
    fn insn_column(&self, insn: &GenInsn) -> Arc<[f32]> {
        if let Some(col) = self.cache.read().expect("embed cache lock").get(insn) {
            return Arc::clone(col);
        }
        let col: Arc<[f32]> = Arc::from(self.compute_column(insn));
        Arc::clone(
            self.cache
                .write()
                .expect("embed cache lock")
                .entry(insn.clone())
                .or_insert(col),
        )
    }

    /// Embeds a window of instructions into a `[embed_dim][len]`
    /// channel-major tensor (`x[c * len + t]`). Out-of-vocabulary
    /// tokens embed to zero — by construction generalization covers
    /// >99% of unseen instructions (paper §IV-B), so this is rare.
    pub fn embed_window(&self, insns: &[GenInsn]) -> Vec<f32> {
        let mut x = vec![0.0f32; self.embed_dim() * insns.len()];
        self.embed_window_into(insns, &mut x);
        x
    }

    /// [`VucEmbedder::embed_window`] writing into a caller-provided
    /// buffer — the flat-tensor fast path: embedding a whole
    /// extraction fills one row of a contiguous matrix per VUC with
    /// no per-row allocation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an `embed_dim × insns.len()` buffer.
    pub fn embed_window_into(&self, insns: &[GenInsn], x: &mut [f32]) {
        let len = insns.len();
        assert_eq!(x.len(), self.embed_dim() * len, "tensor/len mismatch");
        x.fill(0.0);
        for (t, insn) in insns.iter().enumerate() {
            let col = self.insn_column(insn);
            for (c, &v) in col.iter().enumerate() {
                x[c * len + t] = v;
            }
        }
    }

    /// Ensures every instruction of `windows` has a cached channel
    /// column, inserting all misses under a single write lock (the
    /// per-insn path takes the lock once per new instruction).
    pub fn prime<'a>(&self, windows: impl IntoIterator<Item = &'a [GenInsn]>) {
        let mut fresh: FxHashMap<GenInsn, Arc<[f32]>> = FxHashMap::default();
        {
            let cache = self.cache.read().expect("embed cache lock");
            for w in windows {
                for insn in w {
                    if !cache.contains_key(insn) && !fresh.contains_key(insn) {
                        fresh.insert(insn.clone(), Arc::from(self.compute_column(insn)));
                    }
                }
            }
        }
        if fresh.is_empty() {
            return;
        }
        let mut cache = self.cache.write().expect("embed cache lock");
        for (insn, col) in fresh {
            cache.entry(insn).or_insert(col);
        }
    }

    /// A read-locked view of the column cache for embedding many
    /// windows in bulk: one lock acquisition for the whole batch
    /// instead of one per instruction, and columns are borrowed
    /// straight from the map (no per-lookup `Arc` traffic). The view
    /// is `Sync`, so parallel workers filling disjoint tensor rows
    /// can share it.
    ///
    /// Writers (including [`VucEmbedder::prime`] and the per-insn
    /// miss path) block while a view is alive — keep its scope to one
    /// batch.
    pub fn columns(&self) -> ColumnView<'_> {
        // Window edges are BLANK-padded, so the all-BLANK instruction
        // is by far the most frequent key; the view resolves its
        // column once up front and matches it by direct comparison,
        // skipping the hash-and-probe entirely for padding.
        let blank = GenInsn::blank();
        let blank_col = self.compute_column(&blank);
        let guard = self.cache.read().expect("embed cache lock");
        let blank_cached = guard.contains_key(&blank);
        ColumnView {
            guard,
            model: &self.model,
            blank,
            blank_col,
            blank_cached,
        }
    }

    /// Overwrites window position `t` of a tensor produced by
    /// [`VucEmbedder::embed_window`] with `insn`'s channel column —
    /// the occlusion fast path: a probe that blanks one instruction
    /// patches `embed_dim` floats instead of re-embedding all `len`
    /// positions.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an `embed_dim × len` tensor or `t` is out
    /// of range.
    pub fn patch_window_position(&self, x: &mut [f32], len: usize, t: usize, insn: &GenInsn) {
        assert_eq!(x.len(), self.embed_dim() * len, "tensor/len mismatch");
        assert!(t < len, "position {t} out of range for window of {len}");
        let col = self.insn_column(insn);
        for (c, &v) in col.iter().enumerate() {
            x[c * len + t] = v;
        }
    }

    /// Number of distinct instructions currently cached.
    pub fn cached_insns(&self) -> usize {
        self.cache.read().expect("embed cache lock").len()
    }

    /// Fraction of tokens in `insns` that are in-vocabulary; the
    /// coverage figure the paper quotes as >99%.
    pub fn coverage<'a>(&self, windows: impl IntoIterator<Item = &'a Vec<GenInsn>>) -> f64 {
        let mut total = 0u64;
        let mut known = 0u64;
        for window in windows {
            for insn in window {
                for token in insn.iter() {
                    total += 1;
                    if self.model.vocab.id(token).is_some() {
                        known += 1;
                    }
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            known as f64 / total as f64
        }
    }
}

/// A read-locked bulk view of a [`VucEmbedder`]'s column cache; see
/// [`VucEmbedder::columns`].
#[derive(Debug)]
pub struct ColumnView<'a> {
    guard: std::sync::RwLockReadGuard<'a, FxHashMap<GenInsn, Arc<[f32]>>>,
    model: &'a Word2Vec,
    /// The all-BLANK padding instruction, matched by equality (its
    /// mnemonic differs from every real generalized mnemonic, so the
    /// comparison fails fast on length).
    blank: GenInsn,
    /// Pre-resolved channel column for [`ColumnView::blank`] — the
    /// same floats [`VucEmbedder::compute_column`] produces, so the
    /// fast path is bit-identical to a cache hit or miss.
    blank_col: Vec<f32>,
    /// Whether the shared cache already held the BLANK column when
    /// this view was taken; if not, BLANK occurrences still count as
    /// misses so the caller's re-prime inserts it.
    blank_cached: bool,
}

impl ColumnView<'_> {
    /// Bit-identical to [`VucEmbedder::embed_window_into`], reading
    /// columns through the held guard. Instructions missing from the
    /// cache are computed directly into the tensor (same floats, not
    /// inserted — a read lock cannot grow the map); the returned miss
    /// count tells the caller to re-[`VucEmbedder::prime`] afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an `embed_dim × insns.len()` buffer.
    pub fn fill_window(&self, insns: &[GenInsn], x: &mut [f32]) -> usize {
        let len = insns.len();
        let dim = self.model.cfg.dim;
        let embed_dim = TOKENS_PER_INSN * dim;
        assert_eq!(x.len(), embed_dim * len, "tensor/len mismatch");
        let mut misses = 0usize;
        for (t, insn) in insns.iter().enumerate() {
            if *insn == self.blank {
                if !self.blank_cached {
                    misses += 1;
                }
                for (xc, &v) in x.chunks_exact_mut(len).zip(self.blank_col.iter()) {
                    xc[t] = v;
                }
            } else if let Some(col) = self.guard.get(insn) {
                for (xc, &v) in x.chunks_exact_mut(len).zip(col.iter()) {
                    xc[t] = v;
                }
            } else {
                misses += 1;
                for c in 0..embed_dim {
                    x[c * len + t] = 0.0;
                }
                for (k, token) in insn.iter().enumerate() {
                    if let Some(v) = self.model.vector(token) {
                        for (d, &val) in v.iter().enumerate() {
                            x[(k * dim + d) * len + t] = val;
                        }
                    }
                }
            }
        }
        misses
    }
}

/// Flattens instruction windows into token sentences for Word2Vec
/// training (one sentence per window or function stream).
pub fn to_sentences<'a>(windows: impl IntoIterator<Item = &'a [GenInsn]>) -> Vec<Vec<String>> {
    windows
        .into_iter()
        .map(|w| {
            w.iter()
                .flat_map(|insn| insn.iter().map(str::to_string))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word2vec::W2vConfig;
    use cati_asm::fmt::NoSymbols;
    use cati_asm::parse::parse_insn;

    fn gen(line: &str) -> GenInsn {
        cati_asm::generalize::generalize(&parse_insn(line).unwrap().insn, &NoSymbols)
    }

    fn sample_windows() -> Vec<Vec<GenInsn>> {
        vec![
            vec![
                gen("movl $0x8,0x40(%rsp)"),
                gen("mov %rax,0xb0(%rsp)"),
                gen("ret"),
            ],
            vec![
                gen("lea 0x220(%rsp),%rax"),
                gen("movl $0x8,0x40(%rsp)"),
                gen("cltq"),
            ],
        ]
    }

    fn embedder() -> VucEmbedder {
        let windows = sample_windows();
        let sentences = to_sentences(windows.iter().map(Vec::as_slice));
        VucEmbedder::new(Word2Vec::train(&sentences, W2vConfig::tiny()))
    }

    /// The original non-memoized embedding, kept as the oracle the
    /// cached path must match bit for bit.
    fn embed_window_uncached(e: &VucEmbedder, insns: &[GenInsn]) -> Vec<f32> {
        let len = insns.len();
        let dim = e.token_dim();
        let mut x = vec![0.0f32; e.embed_dim() * len];
        for (t, insn) in insns.iter().enumerate() {
            for (k, token) in insn.iter().enumerate() {
                if let Some(v) = e.model().vector(token) {
                    for (d, &val) in v.iter().enumerate() {
                        x[(k * dim + d) * len + t] = val;
                    }
                }
            }
        }
        x
    }

    #[test]
    fn embed_shape_is_channel_major() {
        let e = embedder();
        let w = sample_windows().remove(0);
        let x = e.embed_window(&w);
        assert_eq!(x.len(), e.embed_dim() * 3);
        assert_eq!(e.embed_dim(), 24); // 3 tokens × 8 dims
    }

    #[test]
    fn blank_padding_embeds_consistently() {
        let e = embedder();
        let w = vec![GenInsn::blank(), gen("ret"), GenInsn::blank()];
        let x = e.embed_window(&w);
        let len = 3;
        // Both BLANK positions produce identical channel columns.
        for c in 0..e.embed_dim() {
            assert_eq!(x[c * len], x[c * len + 2]);
        }
    }

    #[test]
    fn oov_tokens_embed_to_zero() {
        let e = embedder();
        // `fldt` and `-0xIMM(%rbp)` were never seen in training; the
        // BLANK pad token was.
        let w = vec![gen("fldt -0x20(%rbp)")];
        let x = e.embed_window(&w);
        let dim = e.token_dim();
        // Channels of the first two token slots are all zero.
        assert!(x[..2 * dim].iter().all(|v| *v == 0.0));
        let cov = e.coverage(std::iter::once(&w));
        assert!(cov < 0.5, "coverage {cov}");
    }

    #[test]
    fn coverage_is_full_on_training_tokens() {
        let e = embedder();
        let windows = sample_windows();
        assert_eq!(e.coverage(windows.iter()), 1.0);
    }

    #[test]
    fn cached_embedding_matches_uncached_oracle() {
        let e = embedder();
        let windows = sample_windows();
        for w in &windows {
            // First pass populates the cache, second pass hits it;
            // both must equal the direct per-token lookup bit for bit.
            let oracle = embed_window_uncached(&e, w);
            assert_eq!(e.embed_window(w), oracle);
            assert_eq!(e.embed_window(w), oracle);
        }
        let distinct: std::collections::HashSet<&GenInsn> = windows.iter().flatten().collect();
        assert_eq!(e.cached_insns(), distinct.len());
    }

    #[test]
    fn patch_matches_full_reembedding() {
        let e = embedder();
        let w = sample_windows().remove(0);
        let x = e.embed_window(&w);
        for t in 0..w.len() {
            let mut occluded = w.clone();
            occluded[t] = GenInsn::blank();
            let full = e.embed_window(&occluded);
            let mut patched = x.clone();
            e.patch_window_position(&mut patched, w.len(), t, &GenInsn::blank());
            assert_eq!(patched, full, "patch at position {t} diverged");
        }
    }

    #[test]
    fn bulk_fill_matches_per_insn_path_cold_and_warm() {
        let windows = sample_windows();
        for warm in [false, true] {
            let e = embedder();
            if warm {
                e.prime(windows.iter().map(Vec::as_slice));
                assert!(e.cached_insns() > 0, "prime populated nothing");
            }
            let view = e.columns();
            for w in &windows {
                let mut bulk = vec![f32::NAN; e.embed_dim() * w.len()];
                let misses = view.fill_window(w, &mut bulk);
                assert_eq!(
                    misses == 0,
                    warm,
                    "warm={warm} should mean zero bulk misses"
                );
                let oracle = embed_window_uncached(&e, w);
                assert_eq!(bulk, oracle, "bulk fill diverged (warm={warm})");
            }
        }
    }

    #[test]
    fn prime_is_idempotent() {
        let e = embedder();
        let windows = sample_windows();
        e.prime(windows.iter().map(Vec::as_slice));
        let n = e.cached_insns();
        assert!(n > 0);
        e.prime(windows.iter().map(Vec::as_slice));
        assert_eq!(e.cached_insns(), n, "second prime must not grow the cache");
    }

    /// Files store an embedder as its model's parts (vocabulary,
    /// config, the two matrices); rebuilding from them keeps the model
    /// and its serialized fingerprint form, and starts with an empty
    /// cache.
    #[test]
    fn serde_roundtrip_drops_cache_but_keeps_model() {
        let e = embedder();
        e.embed_window(&sample_windows()[0]);
        assert!(e.cached_insns() > 0);
        let m = e.model();
        let parts = Word2Vec::from_parts(
            m.vocab.clone(),
            m.cfg,
            m.input_matrix().to_vec(),
            m.output_matrix().to_vec(),
        );
        let back = VucEmbedder::new(parts.unwrap());
        assert_eq!(back, e, "model must survive the roundtrip");
        assert_eq!(back.cached_insns(), 0, "cache is not stored");
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&e).unwrap()
        );
    }

    #[test]
    fn clone_copies_cache() {
        let e = embedder();
        e.embed_window(&sample_windows()[0]);
        let c = e.clone();
        assert_eq!(c.cached_insns(), e.cached_insns());
        assert_eq!(c, e);
    }
}
