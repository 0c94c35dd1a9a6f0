//! Dataset assembly: corpus → extractions → embedding sentences →
//! per-stage training sets.

use cati_analysis::{extract_mode_observed, ContextMode, Extraction, FeatureView};
use cati_asm::generalize::{generalize, GenInsn};
use cati_dwarf::{StageId, TypeClass};
use cati_embedding::VucEmbedder;
use cati_nn::{SampleSource, Tensor};
use cati_obs::{Event, Observer};
use cati_synbin::BuiltBinary;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// The extractions of a set of binaries, tagged with their
/// application names.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// `(application, extraction)` per binary.
    pub entries: Vec<(String, Extraction)>,
}

impl Dataset {
    /// Extracts every binary in `built` in parallel.
    ///
    /// # Panics
    ///
    /// Panics if a binary fails to extract — corpus binaries are
    /// produced by our own linker, so failure indicates a bug.
    pub fn from_binaries(built: &[BuiltBinary], view: FeatureView) -> Dataset {
        Dataset::from_binaries_observed(built, view, &cati_obs::NOOP)
    }

    /// [`Dataset::from_binaries`] with telemetry: extraction counters
    /// (functions, variables, VUCs) accumulate into `obs`.
    ///
    /// # Panics
    ///
    /// Panics if a binary fails to extract — corpus binaries are
    /// produced by our own linker, so failure indicates a bug.
    pub fn from_binaries_observed(
        built: &[BuiltBinary],
        view: FeatureView,
        obs: &dyn Observer,
    ) -> Dataset {
        Dataset::from_binaries_cached(built, view, None, obs)
    }

    /// [`Dataset::from_binaries_observed`] through an optional
    /// on-disk [`ArtifactCache`]: each extraction is loaded by the
    /// binary's content digest when cached, extracted and stored
    /// otherwise. The dataset is bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if a binary fails to extract — corpus binaries are
    /// produced by our own linker, so failure indicates a bug.
    pub fn from_binaries_cached(
        built: &[BuiltBinary],
        view: FeatureView,
        cache: Option<&crate::artifact_cache::ArtifactCache>,
        obs: &dyn Observer,
    ) -> Dataset {
        Dataset::from_binaries_mode(built, view, ContextMode::FunctionLocal, cache, obs)
    }

    /// [`Dataset::from_binaries_cached`] under an explicit
    /// [`ContextMode`]. Cache keys incorporate the mode, so warm
    /// function-local artifacts are never served to an
    /// interprocedural run (or vice versa).
    ///
    /// # Panics
    ///
    /// Panics if a binary fails to extract — corpus binaries are
    /// produced by our own linker, so failure indicates a bug.
    pub fn from_binaries_mode(
        built: &[BuiltBinary],
        view: FeatureView,
        mode: ContextMode,
        cache: Option<&crate::artifact_cache::ArtifactCache>,
        obs: &dyn Observer,
    ) -> Dataset {
        let entries = built
            .par_iter()
            .map(|b| {
                let ex = match cache {
                    Some(cache) => cache.extraction_mode(&b.binary, view, mode, obs),
                    None => extract_mode_observed(&b.binary, view, mode, obs),
                }
                .expect("corpus binary must extract");
                (b.app.clone(), ex)
            })
            .collect();
        Dataset { entries }
    }

    /// Total labeled variables.
    pub fn var_count(&self) -> usize {
        self.entries.iter().map(|(_, e)| e.vars.len()).sum()
    }

    /// Total VUCs.
    pub fn vuc_count(&self) -> usize {
        self.entries.iter().map(|(_, e)| e.vucs.len()).sum()
    }

    /// Iterates `(app, extraction)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = &(String, Extraction)> {
        self.entries.iter()
    }

    /// Groups extractions by application name (insertion order).
    pub fn by_app(&self) -> Vec<(String, Vec<&Extraction>)> {
        let mut order: Vec<String> = Vec::new();
        let mut map: std::collections::HashMap<&str, Vec<&Extraction>> = Default::default();
        for (app, ex) in &self.entries {
            if !map.contains_key(app.as_str()) {
                order.push(app.clone());
            }
            map.entry(app.as_str()).or_default().push(ex);
        }
        order
            .into_iter()
            .map(|app| {
                let v = map.remove(app.as_str()).unwrap_or_default();
                (app, v)
            })
            .collect()
    }
}

/// Builds Word2Vec training sentences from whole binaries: one
/// sentence per function's generalized instruction stream, which is
/// what "assembly code embedding" trains over (paper §IV-C).
pub fn embedding_sentences(
    built: &[BuiltBinary],
    max_sentences: usize,
    rng: &mut StdRng,
) -> Vec<Vec<String>> {
    let mut sentences: Vec<Vec<String>> = built
        .par_iter()
        .flat_map_iter(|b| {
            let insns = b.binary.disassemble().expect("corpus binary must decode");
            let funcs = cati_analysis::split_functions(&insns, &b.binary);
            let mut out = Vec::with_capacity(funcs.len());
            for (start, end) in funcs {
                let mut sent = Vec::with_capacity((end - start) * 3);
                for located in &insns[start..end] {
                    sent.extend(generalize(&located.insn, &b.binary).tokens);
                }
                out.push(sent);
            }
            out
        })
        .collect();
    if max_sentences > 0 && sentences.len() > max_sentences {
        sentences.shuffle(rng);
        sentences.truncate(max_sentences);
    }
    sentences
}

/// The labeled VUCs of `dataset` in `(entry, vuc)` order — the one
/// definition of *pool order* every training path shares: each VUC
/// whose variable has a ground-truth class, as its generalized window
/// and that class's [`TypeClass::index`] byte. The shard writer
/// streams these rows to disk; in-memory training embeds the planned
/// ones straight from the windows.
pub(crate) fn labeled_rows(dataset: &Dataset) -> (Vec<&[GenInsn]>, Vec<u8>) {
    dataset
        .entries
        .iter()
        .flat_map(|(_, ex)| {
            ex.vucs.iter().filter_map(|vuc| {
                let class = vuc.class(&ex.vars)?;
                Some((vuc.insns.as_slice(), class.index() as u8))
            })
        })
        .unzip()
}

/// Plans one stage's training samples over a labeled-row pool given
/// as class bytes (one [`TypeClass::index`] per row, pool order): the
/// rows whose class carries a label at `stage`, optionally capped
/// (shuffle + truncate), then rare-class-oversampled to a floor
/// fraction of the largest class. Returns `(row, stage label)` pairs
/// in training order; duplicates are the oversampled rows.
///
/// RNG consumption depends only on the stage pool's length and label
/// multiplicities, never on where the rows' floats live — which is
/// what makes in-memory and shard-backed training bit-identical.
/// Oversampling never adds more than `max_count` duplicates per rare
/// class (the safety bound), and everything it adds is counted into
/// the `train.oversampled` counter on `obs` (with a warning when the
/// bound truncates a class short of its floor).
pub(crate) fn plan_stage_samples(
    classes: &[u8],
    stage: StageId,
    max_samples: usize,
    oversample_floor: f64,
    rng: &mut StdRng,
    obs: &dyn Observer,
) -> Vec<(u32, u16)> {
    let mut pool: Vec<(u32, u16)> = classes
        .iter()
        .enumerate()
        .filter_map(|(row, &cls)| {
            let label = stage.label_of(TypeClass::ALL[cls as usize])?;
            Some((row as u32, label as u16))
        })
        .collect();
    if max_samples > 0 && pool.len() > max_samples {
        pool.shuffle(rng);
        pool.truncate(max_samples);
    }
    if oversample_floor <= 0.0 {
        return pool;
    }
    let mut counts = vec![0usize; stage.num_classes()];
    for &(_, label) in &pool {
        counts[label as usize] += 1;
    }
    let max_count = counts.iter().copied().max().unwrap_or(0);
    let floor = ((max_count as f64) * oversample_floor) as usize;
    let base_len = pool.len();
    for (label, &count) in counts.iter().enumerate() {
        if count == 0 || count >= floor {
            continue;
        }
        let class_rows: Vec<(u32, u16)> = pool[..base_len]
            .iter()
            .filter(|&&(_, l)| l as usize == label)
            .copied()
            .collect();
        let mut extra = 0usize;
        while count + extra < floor {
            if extra >= max_count {
                // Hard safety bound: never duplicate a class more
                // than the largest class's population.
                cati_obs::warn!(
                    obs,
                    "{stage}: oversampling label {label} stopped at the \
                     {max_count}-duplicate bound, short of floor {floor}"
                );
                break;
            }
            pool.push(class_rows[rng.gen_range(0..class_rows.len())]);
            extra += 1;
        }
    }
    let oversampled = (pool.len() - base_len) as u64;
    if oversampled > 0 {
        obs.event(&Event::Counter {
            name: "train.oversampled",
            delta: oversampled,
        });
    }
    pool
}

/// One stage's planned samples embedded into memory: row `i` of one
/// flat `plan × (embed_dim·VUC_LEN)` [`Tensor`] holds plan entry `i`'s
/// window, bit-identical to [`VucEmbedder::embed_window`] and to the
/// shard row of the same pool row. Implements [`SampleSource`], so the
/// trainer consumes it exactly like a [`ShardSamples`] over the same
/// plan.
///
/// [`ShardSamples`]: crate::shards::ShardSamples
pub(crate) struct EmbeddedSamples {
    xs: Tensor,
    labels: Vec<u16>,
}

impl EmbeddedSamples {
    /// Embeds the planned `(row, label)` pairs of `plan` (rows index
    /// `windows`) in parallel: one allocation for the whole stage.
    pub(crate) fn new(
        windows: &[&[GenInsn]],
        embedder: &VucEmbedder,
        plan: Vec<(u32, u16)>,
    ) -> EmbeddedSamples {
        let cols = embedder.embed_dim() * cati_analysis::VUC_LEN;
        let xs = Tensor::build_rows(
            plan.len(),
            cols,
            || (),
            |_, i, x| embedder.embed_window_into(windows[plan[i].0 as usize], x),
        );
        EmbeddedSamples {
            xs,
            labels: plan.into_iter().map(|(_, label)| label).collect(),
        }
    }
}

impl SampleSource for EmbeddedSamples {
    fn len(&self) -> usize {
        self.labels.len()
    }

    fn sample<'a>(&'a self, idx: usize, _scratch: &'a mut Vec<f32>) -> (&'a [f32], usize) {
        (self.xs.row(idx), self.labels[idx] as usize)
    }
}

/// Embeds every VUC of one extraction (inference path) into one flat
/// `vucs × (embed_dim·VUC_LEN)` [`Tensor`], one row per VUC, through
/// [`embed_windows_into`].
pub fn embed_extraction(ex: &Extraction, embedder: &VucEmbedder) -> Tensor {
    let cols = ex
        .vucs
        .first()
        .map_or(0, |v| embedder.embed_dim() * v.insns.len());
    let windows: Vec<&[GenInsn]> = ex.vucs.iter().map(|v| v.insns.as_slice()).collect();
    let mut data = vec![0.0; windows.len() * cols];
    embed_windows_into(&windows, embedder, cols, &mut data);
    Tensor::from_flat(windows.len(), cols, data)
}

/// Embeds `windows[i]` into row `i` of the flat block `out`
/// (`windows.len()` rows of `cols` floats). Rows are filled in
/// parallel; each row is bit-identical to
/// [`VucEmbedder::embed_window`] on its window.
///
/// Hot-path shape: the instruction-column cache is read-locked *once*
/// for the whole batch (`VucEmbedder::columns`) and every worker
/// scatters borrowed columns straight into its rows — no per-insn
/// lock or `Arc` clone. Columns missing from the cache are computed
/// directly into the rows (same floats), then inserted afterwards via
/// one [`VucEmbedder::prime`] pass so later batches hit.
pub(crate) fn embed_windows_into(
    windows: &[&[GenInsn]],
    embedder: &VucEmbedder,
    cols: usize,
    out: &mut [f32],
) {
    use std::sync::atomic::{AtomicBool, Ordering};
    let missed = AtomicBool::new(false);
    {
        let view = embedder.columns();
        cati_nn::fill_rows(
            out,
            cols,
            || &view,
            |view, i, row| {
                if view.fill_window(windows[i], row) > 0 {
                    missed.store(true, Ordering::Relaxed);
                }
            },
        );
    }
    if missed.into_inner() {
        embedder.prime(windows.iter().copied());
    }
}

/// The class distribution of labeled variables, indexed by
/// [`TypeClass::index`].
pub fn class_histogram(dataset: &Dataset) -> Vec<u64> {
    let mut hist = vec![0u64; TypeClass::ALL.len()];
    for (_, ex) in &dataset.entries {
        for (_, var) in ex.labeled_vars() {
            hist[var.class.expect("labeled").index()] += 1;
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use cati_embedding::{W2vConfig, Word2Vec};
    use cati_synbin::{build_corpus, CorpusConfig};
    use rand::SeedableRng;

    fn tiny_dataset() -> (Dataset, Vec<BuiltBinary>) {
        let corpus = build_corpus(&CorpusConfig::small(77));
        let ds = Dataset::from_binaries(&corpus.train, FeatureView::WithSymbols);
        (ds, corpus.train)
    }

    #[test]
    fn dataset_collects_labeled_vucs() {
        let (ds, _) = tiny_dataset();
        assert!(ds.var_count() > 50, "vars {}", ds.var_count());
        assert!(ds.vuc_count() >= ds.var_count());
    }

    #[test]
    fn sentences_and_stage_sets() {
        let (ds, built) = tiny_dataset();
        let mut rng = StdRng::seed_from_u64(0);
        let sentences = embedding_sentences(&built, 500, &mut rng);
        assert!(!sentences.is_empty());
        assert!(sentences.len() <= 500);
        let model = Word2Vec::train(&sentences, W2vConfig::tiny());
        let embedder = VucEmbedder::new(model);

        let s1 = stage_source(
            &ds,
            &embedder,
            StageId::Stage1,
            300,
            0.05,
            &mut rng,
            &cati_obs::NOOP,
        );
        assert!(!s1.is_empty());
        assert!(
            s1.len() <= 330,
            "cap plus oversample slack, got {}",
            s1.len()
        );
        for (x, label) in samples(&s1) {
            assert_eq!(x.len(), embedder.embed_dim() * 21);
            assert!(label < 2);
        }
        // Stage 3-2 may be tiny but labels stay in range.
        let s32 = stage_source(
            &ds,
            &embedder,
            StageId::Stage3Float,
            0,
            0.05,
            &mut rng,
            &cati_obs::NOOP,
        );
        assert!(samples(&s32).all(|(_, label)| label < 3));
    }

    /// One stage's in-memory training source, planned and embedded
    /// the way `MultiStage::train` builds it.
    fn stage_source(
        dataset: &Dataset,
        embedder: &VucEmbedder,
        stage: StageId,
        max_samples: usize,
        oversample_floor: f64,
        rng: &mut StdRng,
        obs: &dyn Observer,
    ) -> EmbeddedSamples {
        let (windows, classes) = labeled_rows(dataset);
        let plan = plan_stage_samples(&classes, stage, max_samples, oversample_floor, rng, obs);
        EmbeddedSamples::new(&windows, embedder, plan)
    }

    /// The source's samples in training order.
    fn samples(src: &EmbeddedSamples) -> impl Iterator<Item = (Vec<f32>, usize)> + '_ {
        (0..src.len()).map(|k| {
            let mut scratch = Vec::new();
            let (x, label) = src.sample(k, &mut scratch);
            (x.to_vec(), label)
        })
    }

    /// A dataset of single-VUC variables with a chosen Stage-1 class
    /// mix: `majority` non-pointers (Int) and `rare` pointers
    /// (PtrVoid), every VUC a window of BLANKs.
    fn synthetic_dataset(majority: usize, rare: usize) -> Dataset {
        use cati_analysis::{VarKey, Variable, Vuc, VUC_LEN};
        use cati_asm::generalize::GenInsn;
        let mut vars = Vec::new();
        let mut vucs = Vec::new();
        for i in 0..majority + rare {
            let class = if i < majority {
                TypeClass::Int
            } else {
                TypeClass::PtrVoid
            };
            vars.push(Variable {
                key: VarKey {
                    func: i as u32,
                    offset: -8,
                },
                name: None,
                class: Some(class),
                debin: None,
                vucs: vec![i as u32],
            });
            vucs.push(Vuc {
                insns: vec![GenInsn::blank(); VUC_LEN],
                var: i as u32,
                context_classes: vec![None; VUC_LEN],
            });
        }
        Dataset {
            entries: vec![(
                "synthetic".to_string(),
                Extraction {
                    binary_name: "synthetic".to_string(),
                    vars,
                    vucs,
                },
            )],
        }
    }

    fn tiny_embedder() -> VucEmbedder {
        let sentences = vec![vec!["mov".to_string(), "ret".to_string()]];
        VucEmbedder::new(Word2Vec::train(&sentences, W2vConfig::tiny()))
    }

    fn stage1_label_counts(src: &EmbeddedSamples) -> (usize, usize) {
        let ptrs = samples(src).filter(|&(_, l)| l == 1).count();
        (src.len() - ptrs, ptrs)
    }

    #[test]
    fn oversampling_fills_rare_classes_to_the_floor_and_counts_them() {
        use cati_obs::{Recorder, RecorderConfig};
        let ds = synthetic_dataset(100, 3);
        let embedder = tiny_embedder();
        let mut rng = StdRng::seed_from_u64(9);
        let rec = Recorder::new(RecorderConfig::default());
        // floor = 10% of the 100-strong majority = 10; the 3 pointer
        // samples gain exactly 7 duplicates.
        let s = stage_source(&ds, &embedder, StageId::Stage1, 0, 0.1, &mut rng, &rec);
        let (ints, ptrs) = stage1_label_counts(&s);
        assert_eq!((ints, ptrs), (100, 10));
        assert_eq!(rec.metrics().counter_value("train.oversampled"), 7);
    }

    #[test]
    fn class_exactly_at_the_floor_is_not_oversampled() {
        use cati_obs::{Recorder, RecorderConfig};
        let ds = synthetic_dataset(100, 10);
        let embedder = tiny_embedder();
        let mut rng = StdRng::seed_from_u64(9);
        let rec = Recorder::new(RecorderConfig::default());
        let s = stage_source(&ds, &embedder, StageId::Stage1, 0, 0.1, &mut rng, &rec);
        assert_eq!(stage1_label_counts(&s), (100, 10));
        assert_eq!(rec.metrics().counter_value("train.oversampled"), 0);
    }

    #[test]
    fn oversampling_safety_bound_adds_at_most_max_count_duplicates() {
        use cati_obs::{Recorder, RecorderConfig};
        let ds = synthetic_dataset(10, 2);
        let embedder = tiny_embedder();
        let mut rng = StdRng::seed_from_u64(9);
        let rec = Recorder::new(RecorderConfig::default());
        // A floor of 5× the majority (50) can never be reached by any
        // class; the bound stops each at exactly max_count = 10
        // duplicates (the old loop leaked an 11th before noticing).
        let s = stage_source(&ds, &embedder, StageId::Stage1, 0, 5.0, &mut rng, &rec);
        assert_eq!(stage1_label_counts(&s), (20, 12));
        assert_eq!(rec.metrics().counter_value("train.oversampled"), 20);
    }

    #[test]
    fn output_may_exceed_max_samples_by_the_oversample_slack() {
        let ds = synthetic_dataset(100, 2);
        let embedder = tiny_embedder();
        let mut rng = StdRng::seed_from_u64(9);
        // 102 refs don't exceed the 102 cap, so nothing is truncated;
        // oversampling then legitimately pushes past max_samples.
        let s = stage_source(
            &ds,
            &embedder,
            StageId::Stage1,
            102,
            0.1,
            &mut rng,
            &cati_obs::NOOP,
        );
        assert_eq!(s.len(), 110, "100 ints + 2 ptrs + 8 duplicates");
        // With the floor disabled the cap is exact.
        let capped = stage_source(
            &ds,
            &embedder,
            StageId::Stage1,
            50,
            0.0,
            &mut rng,
            &cati_obs::NOOP,
        );
        assert_eq!(capped.len(), 50);
    }

    /// Verbatim copy of the original `stage_dataset` (materialize a
    /// `(ref, vuc, label)` vec, shuffle and truncate it under a cap,
    /// oversample by appending into it, embed each sample). Kept as
    /// the reference that pins the planner and the in-memory source —
    /// including their RNG consumption — bitwise.
    fn stage_dataset_reference(
        dataset: &Dataset,
        embedder: &VucEmbedder,
        stage: StageId,
        max_samples: usize,
        oversample_floor: f64,
        rng: &mut StdRng,
        obs: &dyn Observer,
    ) -> Vec<(Vec<f32>, usize)> {
        let mut refs: Vec<(&Extraction, usize, usize)> = Vec::new();
        for (_, ex) in &dataset.entries {
            for (i, vuc) in ex.vucs.iter().enumerate() {
                let Some(class) = vuc.class(&ex.vars) else {
                    continue;
                };
                let Some(label) = stage.label_of(class) else {
                    continue;
                };
                refs.push((ex, i, label));
            }
        }
        if max_samples > 0 && refs.len() > max_samples {
            refs.shuffle(rng);
            refs.truncate(max_samples);
        }
        if oversample_floor > 0.0 {
            let mut counts = vec![0usize; stage.num_classes()];
            for &(_, _, l) in &refs {
                counts[l] += 1;
            }
            let max_count = counts.iter().copied().max().unwrap_or(0);
            let floor = ((max_count as f64) * oversample_floor) as usize;
            let mut extra = Vec::new();
            for (label, &count) in counts.iter().enumerate() {
                if count == 0 || count >= floor {
                    continue;
                }
                let pool: Vec<_> = refs.iter().filter(|r| r.2 == label).copied().collect();
                while count + extra.len() < floor && !pool.is_empty() {
                    if extra.len() >= max_count {
                        break;
                    }
                    extra.push(pool[rng.gen_range(0..pool.len())]);
                }
                refs.append(&mut extra);
            }
        }
        let _ = obs;
        refs.into_par_iter()
            .map(|(ex, i, label)| (embedder.embed_window(&ex.vucs[i].insns), label))
            .collect()
    }

    #[test]
    fn planner_rewrite_is_bitwise_identical_to_the_reference() {
        use rand::Rng;
        let (real, _) = tiny_dataset();
        let synth = synthetic_dataset(60, 5);
        let embedder = tiny_embedder();
        for ds in [&real, &synth] {
            for stage in [StageId::Stage1, StageId::Stage2NonPtr, StageId::Stage3Int] {
                for &(max_samples, floor) in
                    &[(0usize, 0.0f64), (0, 0.1), (50, 0.1), (30, 0.0), (10, 5.0)]
                {
                    for seed in [1u64, 9, 42] {
                        let mut rng_new = StdRng::seed_from_u64(seed);
                        let mut rng_old = StdRng::seed_from_u64(seed);
                        let new = stage_source(
                            ds,
                            &embedder,
                            stage,
                            max_samples,
                            floor,
                            &mut rng_new,
                            &cati_obs::NOOP,
                        );
                        let old = stage_dataset_reference(
                            ds,
                            &embedder,
                            stage,
                            max_samples,
                            floor,
                            &mut rng_old,
                            &cati_obs::NOOP,
                        );
                        let case = format!("{stage} cap={max_samples} floor={floor} seed={seed}");
                        assert_eq!(new.len(), old.len(), "{case}: sample count");
                        for (k, ((xa, la), (xb, lb))) in samples(&new).zip(&old).enumerate() {
                            assert_eq!(la, *lb, "{case}: label of sample {k}");
                            assert!(
                                xa.iter()
                                    .zip(xb.iter())
                                    .all(|(a, b)| a.to_bits() == b.to_bits())
                                    && xa.len() == xb.len(),
                                "{case}: floats of sample {k} differ bitwise"
                            );
                        }
                        // Identical RNG consumption: both generators
                        // must sit at the same stream position.
                        assert_eq!(rng_new.state(), rng_old.state(), "{case}: rng state");
                        assert_eq!(
                            rng_new.gen_range(0..u32::MAX),
                            rng_old.gen_range(0..u32::MAX),
                            "{case}: next draw"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn histogram_covers_common_classes() {
        let (ds, _) = tiny_dataset();
        let hist = class_histogram(&ds);
        assert!(hist[TypeClass::Int.index()] > 0);
        assert!(hist[TypeClass::PtrStruct.index()] + hist[TypeClass::Struct.index()] > 0);
        assert_eq!(hist.iter().sum::<u64>() as usize, ds.var_count());
    }

    #[test]
    fn by_app_groups_entries() {
        let (ds, _) = tiny_dataset();
        let groups = ds.by_app();
        let total: usize = groups.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, ds.entries.len());
    }
}
