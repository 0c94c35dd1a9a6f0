//! Criterion benchmarks for the substrate layers: disassembly,
//! generalization, extraction, embedding, CNN passes, voting, and
//! end-to-end per-binary inference (the paper's ~6 s/binary claim).

use cati::{embedding_sentences, Cati, Config};
use cati_analysis::{extract, FeatureView};
use cati_asm::fmt::NoSymbols;
use cati_asm::generalize::generalize;
use cati_embedding::{VucEmbedder, Word2Vec};
use cati_nn::{Adam, TextCnn, TextCnnConfig, Workspace};
use cati_synbin::{build_corpus, CorpusConfig};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_disassembly(c: &mut Criterion) {
    let corpus = build_corpus(&CorpusConfig::small(1));
    let bin = &corpus.train[0].binary;
    let mut g = c.benchmark_group("disassembly");
    g.throughput(Throughput::Bytes(bin.text.len() as u64));
    g.bench_function("linear_sweep", |b| {
        b.iter(|| bin.disassemble().unwrap());
    });
    g.finish();
}

fn bench_generalize(c: &mut Criterion) {
    let corpus = build_corpus(&CorpusConfig::small(2));
    let insns = corpus.train[0].binary.disassemble().unwrap();
    let mut g = c.benchmark_group("generalize");
    g.throughput(Throughput::Elements(insns.len() as u64));
    g.bench_function("table2_rules", |b| {
        b.iter(|| {
            insns
                .iter()
                .map(|l| generalize(&l.insn, &NoSymbols))
                .collect::<Vec<_>>()
        });
    });
    g.finish();
}

fn bench_extraction(c: &mut Criterion) {
    let corpus = build_corpus(&CorpusConfig::small(3));
    let bin = &corpus.train[0].binary;
    c.bench_function("vuc_extraction_per_binary", |b| {
        b.iter(|| extract(bin, FeatureView::WithSymbols).unwrap());
    });
}

fn bench_embedding(c: &mut Criterion) {
    let corpus = build_corpus(&CorpusConfig::small(4));
    let mut rng = StdRng::seed_from_u64(0);
    let sentences = embedding_sentences(&corpus.train[..4], 200, &mut rng);
    c.bench_function("word2vec_train_200_sentences", |b| {
        b.iter(|| Word2Vec::train(&sentences, cati_embedding::W2vConfig::tiny()));
    });
    let embedder = VucEmbedder::new(Word2Vec::train(
        &sentences,
        cati_embedding::W2vConfig::tiny(),
    ));
    let ex = extract(&corpus.train[0].binary, FeatureView::WithSymbols).unwrap();
    let window = &ex.vucs[0].insns;
    c.bench_function("embed_one_vuc", |b| {
        b.iter(|| embedder.embed_window(window));
    });
}

fn bench_cnn(c: &mut Criterion) {
    // Paper-scale forward/backward pass cost.
    let cfg = TextCnnConfig::paper(19);
    let model = TextCnn::new(cfg, 0);
    let x = vec![0.1f32; cfg.embed_dim * cfg.seq_len];
    c.bench_function("cnn_forward_paper_scale", |b| {
        let mut ws = Workspace::default();
        b.iter(|| {
            model.forward(&x, &mut ws);
        });
    });
    // One 8-sample minibatch: a single lane-major tile's forward and
    // backward pass plus the optimizer step.
    let tile: Vec<(Vec<f32>, usize)> = (0..8).map(|i| (x.clone(), i % 19)).collect();
    c.bench_function("cnn_train_tile_paper_scale", |b| {
        b.iter_batched(
            || (model.clone(), Adam::new(1e-3), StdRng::seed_from_u64(1)),
            |(mut m, mut opt, mut rng)| m.train_epoch(&tile, &mut opt, 8, &mut rng),
            BatchSize::SmallInput,
        );
    });
    let small = TextCnn::new(TextCnnConfig::tiny(24, 5), 0);
    let xs: Vec<(Vec<f32>, usize)> = (0..64)
        .map(|i| (vec![0.05 * (i % 7) as f32; 24 * 21], i % 5))
        .collect();
    c.bench_function("cnn_train_epoch_64_tiny", |b| {
        b.iter_batched(
            || (small.clone(), Adam::new(1e-3), StdRng::seed_from_u64(1)),
            |(mut m, mut opt, mut rng)| m.train_epoch(&xs, &mut opt, 16, &mut rng),
            BatchSize::SmallInput,
        );
    });
}

fn bench_voting(c: &mut Criterion) {
    let dists: Vec<Vec<f32>> = (0..16)
        .map(|i| {
            let mut d = vec![0.03f32; 19];
            d[i % 19] = 0.46;
            d
        })
        .collect();
    c.bench_function("vote_16_vucs_19_classes", |b| {
        b.iter(|| cati::vote(&dists, 0.9));
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    // The paper's headline speed figure: seconds per stripped binary
    // for extraction + prediction + voting.
    let corpus = build_corpus(&CorpusConfig::small(5));
    let n = corpus.train.len().min(6);
    let cati = Cati::train(&corpus.train[..n], &Config::small(), &cati::obs::NOOP);
    let stripped = corpus.test[0].binary.strip();
    c.bench_function("infer_stripped_binary", |b| {
        b.iter(|| cati.infer(&stripped).unwrap());
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_disassembly, bench_generalize, bench_extraction, bench_embedding,
              bench_cnn, bench_voting, bench_end_to_end
}
criterion_main!(benches);
