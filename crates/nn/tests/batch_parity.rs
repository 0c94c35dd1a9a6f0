//! Parity harness for the batched inference path: every row of a
//! `predict_batch` call must be bitwise the prediction of that row
//! alone (a batch of one), for untrained and trained models, across
//! the 16-row tile and worker boundaries of the work splitter and
//! every register-block remainder of the lane kernels — so no row's
//! prediction depends on the rows batched with it. (The fused pass
//! itself is pinned to a scalar one-sample forward by the `cati-nn`
//! unit tests.)

use cati_nn::{Adam, TextCnn, TextCnnConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Row counts around the 16-row inference tile and its 8-lane halves:
/// empty, a lone row, one short of, at and one over each half and
/// each tile, and two tiles with a short or long tail.
const ROW_COUNTS: [usize; 10] = [0, 1, 7, 8, 9, 15, 16, 17, 31, 33];

/// Deterministic pseudo-inputs covering a range of magnitudes.
fn inputs(cfg: &TextCnnConfig, n: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|s| {
            (0..cfg.embed_dim * cfg.seq_len)
                .map(|i| ((s * 31 + i) as f32 * 0.37).sin() * 2.0)
                .collect()
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_parity(model: &TextCnn, xs: &[Vec<f32>]) {
    let batch = model.predict_batch(xs);
    assert_eq!(batch.rows(), xs.len());
    for (i, (x, row)) in xs.iter().zip(batch.rows_iter()).enumerate() {
        let alone = model.predict_batch(std::slice::from_ref(x));
        assert_eq!(
            bits(alone.row(0)),
            bits(row),
            "batch row {i} of {} diverges from predicting it alone",
            xs.len()
        );
    }
}

/// [`assert_parity`] for every row count, on one worker and on three.
fn assert_parity_all_counts(model: &TextCnn) {
    for threads in [1, 3] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        for n in ROW_COUNTS {
            pool.install(|| assert_parity(model, &inputs(&model.cfg, n)));
        }
    }
}

#[test]
fn predict_batch_matches_predict_untrained() {
    let cfg = TextCnnConfig::tiny(6, 4);
    let model = TextCnn::new(cfg, 7);
    // 37 samples: spans several shards of the parallel splitter.
    assert_parity(&model, &inputs(&cfg, 37));
}

#[test]
fn predict_batch_matches_predict_after_training() {
    let cfg = TextCnnConfig::tiny(5, 3);
    let mut model = TextCnn::new(cfg, 11);
    let data: Vec<(Vec<f32>, usize)> = inputs(&cfg, 24)
        .into_iter()
        .enumerate()
        .map(|(i, x)| (x, i % cfg.classes))
        .collect();
    let mut opt = Adam::new(0.01);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..3 {
        model.train_epoch(&data, &mut opt, 6, &mut rng);
    }
    assert_parity_all_counts(&model);
}

#[test]
fn predict_batch_handles_empty_and_single_inputs() {
    let cfg = TextCnnConfig::tiny(4, 3);
    let model = TextCnn::new(cfg, 1);
    let none: Vec<Vec<f32>> = Vec::new();
    assert!(model.predict_batch(&none).is_empty());
    assert_parity(&model, &inputs(&cfg, 1));
}

/// The inference benchmark's medium widths: channel and output counts
/// that fill whole register blocks.
#[test]
fn predict_batch_matches_predict_at_medium_widths() {
    let cfg = TextCnnConfig {
        seq_len: 21,
        embed_dim: 48,
        conv1: 16,
        conv2: 32,
        fc: 256,
        classes: 9,
    };
    assert_parity_all_counts(&TextCnn::new(cfg, 5));
}

/// Odd widths, so every channel, column and output remainder path of
/// the register-blocked kernels runs.
#[test]
fn predict_batch_matches_predict_at_odd_widths() {
    for classes in [3, 19] {
        let cfg = TextCnnConfig {
            seq_len: 21,
            embed_dim: 5,
            conv1: 5,
            conv2: 7,
            fc: 13,
            classes,
        };
        assert_parity_all_counts(&TextCnn::new(cfg, 13));
    }
}
