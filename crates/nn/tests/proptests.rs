//! Property tests on the NN stack: numerical invariants hold for
//! arbitrary inputs and shapes.

use cati_nn::{layers, Adam, TextCnn, TextCnnConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn softmax_is_a_distribution(mut z in proptest::collection::vec(-30.0f32..30.0, 1..16)) {
        layers::softmax(&mut z);
        let sum: f32 = z.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4, "sum {sum}");
        prop_assert!(z.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn softmax_is_shift_invariant(z in proptest::collection::vec(-10.0f32..10.0, 2..8), c in -5.0f32..5.0) {
        let mut a = z.clone();
        let mut b: Vec<f32> = z.iter().map(|v| v + c).collect();
        layers::softmax(&mut a);
        layers::softmax(&mut b);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero(
        mut z in proptest::collection::vec(-10.0f32..10.0, 2..8),
        label_idx in any::<prop::sample::Index>(),
    ) {
        layers::softmax(&mut z);
        let label = label_idx.index(z.len());
        let loss = layers::cross_entropy_backward(&mut z, label);
        prop_assert!(loss >= 0.0 && loss.is_finite());
        let sum: f32 = z.iter().sum();
        prop_assert!(sum.abs() < 1e-4);
    }

    #[test]
    fn forward_pass_is_finite_for_arbitrary_inputs(
        seed in any::<u64>(),
        scale in 0.01f32..8.0,
    ) {
        let cfg = TextCnnConfig::tiny(6, 4);
        let model = TextCnn::new(cfg, seed);
        let x: Vec<f32> = (0..cfg.embed_dim * cfg.seq_len)
            .map(|i| ((i as f32).sin()) * scale)
            .collect();
        let probs = model.predict_batch(std::slice::from_ref(&x));
        prop_assert!(probs.row(0).iter().all(|p| p.is_finite()));
        let sum: f32 = probs.row(0).iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-3);
    }

    #[test]
    fn maxpool_output_bounds_input(x in proptest::collection::vec(-100.0f32..100.0, 8..64)) {
        let len = x.len() / 2 * 2; // even prefix
        let x = &x[..len];
        // The same sample in every lane of the tile.
        let xt: Vec<f32> = x.iter().flat_map(|&v| [v; layers::LANES]).collect();
        let mut yt = Vec::new();
        layers::maxpool2_lanes(&xt, 1, len, &mut yt);
        let y: Vec<f32> = yt.iter().step_by(layers::LANES).copied().collect();
        prop_assert_eq!(y.len(), len / 2);
        for (i, v) in y.iter().enumerate() {
            let (a, b) = (x[2 * i], x[2 * i + 1]);
            prop_assert!(*v == a || *v == b);
            prop_assert_eq!(*v, a.max(b));
        }
    }

    #[test]
    fn one_training_step_never_produces_nan(seed in any::<u64>()) {
        let cfg = TextCnnConfig::tiny(4, 3);
        let mut model = TextCnn::new(cfg, seed);
        let data: Vec<(Vec<f32>, usize)> = (0..8)
            .map(|i| (vec![(i as f32) * 0.3 - 1.0; cfg.embed_dim * cfg.seq_len], i % 3))
            .collect();
        let mut opt = Adam::new(0.01);
        let mut rng = StdRng::seed_from_u64(seed);
        let loss = model.train_epoch(&data, &mut opt, 4, &mut rng);
        prop_assert!(loss.is_finite());
        let probs = model.predict_batch(std::slice::from_ref(&data[0].0));
        prop_assert!(probs.row(0).iter().all(|v| v.is_finite()));
    }
}
