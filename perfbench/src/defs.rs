//! The metrics the benchmark reports: names, units, and — for each
//! per-layer metric — which end-to-end metric it should move on which
//! workload. `BENCHMARK.json` lists the same names and units; `run.py`
//! refuses a run whose output disagrees with it.

/// One reported metric.
pub struct Def {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which end-to-end metric (and on which workload) a change in this
    /// layer metric should show up in. Empty for end-to-end metrics.
    pub moves: &'static str,
}

const fn def(name: &'static str, unit: &'static str, moves: &'static str) -> Def {
    Def { name, unit, moves }
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["infer_batch", "serve_http", "train_stream"];

/// End-to-end metrics, measured with tracing off on every workload.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", ""),
    def("peak_rss_mb", "MB", ""),
    def("throughput_per_s", "1/s", ""),
    def("latency_p50_ms", "ms", ""),
    def("latency_tail_ms", "ms", ""),
    def("var_accuracy", "frac", ""),
    def("vuc_accuracy", "frac", ""),
    def("disk_mb", "MB", ""),
];

const SETUP: &str = "setup_s on infer_batch and serve_http; throughput_per_s on train_stream";
const INFER: &str =
    "throughput_per_s and latency_p50_ms on infer_batch; in-process share of serve_http latency";
const SERVE: &str = "latency_p50_ms, latency_tail_ms and throughput_per_s on serve_http";
const MODEL: &str = "setup_s on infer_batch and serve_http";
const CACHE: &str = "none in these workloads: keep-or-delete evidence for the artifact cache";
const LEDGER: &str = "none: validity of the ledger";

/// Per-layer metrics, measured in a separate traced run on every
/// workload. Training layers come from the set-up training of
/// infer_batch and serve_http and from the measured job of
/// train_stream; inference layers from the timed passes of
/// infer_batch, the request pool of serve_http and the held-out
/// evaluation of train_stream.
pub const PER_LAYER: &[Def] = &[
    def("synbin.generate_ms", "ms", "setup_s on every workload"),
    def("analysis.train_extract_ms", "ms", SETUP),
    def("embedding.word2vec_ms", "ms", SETUP),
    def("embedding.train_embed_ms", "ms", SETUP),
    def("core.shard_write_ms", "ms", SETUP),
    def("core.shard_verify_ms", "ms", SETUP),
    def("core.shard_bytes_per_row", "B", "disk_mb on every workload"),
    def("core.checkpoint_bytes", "B", "disk_mb on every workload"),
    def("core.train_ms", "ms", SETUP),
    def("core.train.Stage1_ms", "ms", SETUP),
    def("core.train.Stage2-1_ms", "ms", SETUP),
    def("core.train.Stage2-2_ms", "ms", SETUP),
    def("core.train.Stage3-1_ms", "ms", SETUP),
    def("core.train.Stage3-2_ms", "ms", SETUP),
    def("core.train.Stage3-3_ms", "ms", SETUP),
    def("core.model_save_ms", "ms", MODEL),
    def("core.model_load_ms", "ms", MODEL),
    def("core.model_bytes", "B", MODEL),
    def("asm.decode_ms", "ms", INFER),
    def("analysis.extract_ms", "ms", INFER),
    def("analysis.generalize_per_insn", "ratio", INFER),
    def("embedding.embed_ms", "ms", INFER),
    def("embedding.rows_per_s", "1/s", INFER),
    def("core.classify_ms", "ms", INFER),
    def("core.stage.Stage1_ms", "ms", INFER),
    def("core.stage.Stage2-1_ms", "ms", INFER),
    def("core.stage.Stage2-2_ms", "ms", INFER),
    def("core.stage.Stage3-1_ms", "ms", INFER),
    def("core.stage.Stage3-2_ms", "ms", INFER),
    def("core.stage.Stage3-3_ms", "ms", INFER),
    def("core.leaf_product_ms", "ms", INFER),
    def("nn.conv1_ms", "ms", INFER),
    def("nn.conv2_ms", "ms", INFER),
    def("nn.fc_ms", "ms", INFER),
    def("nn.gflop", "GFLOP", INFER),
    def(
        "core.vote_ms",
        "ms",
        "throughput_per_s on infer_batch (predicted: no visible change)",
    ),
    def("cache.warm_ms", "ms", CACHE),
    def("cache.recompute_ms", "ms", CACHE),
    def("cache.warm_over_recompute", "ratio", CACHE),
    def("serve.parse_share", "frac", SERVE),
    def("serve.queue_wait_share", "frac", SERVE),
    def("serve.embed_share", "frac", SERVE),
    def("serve.batch_wait_share", "frac", SERVE),
    def("serve.leaf_share", "frac", SERVE),
    def("serve.vote_share", "frac", SERVE),
    def("serve.batch_size_mean", "count", SERVE),
    def("trace.overhead_frac", "frac", LEDGER),
    def("trace.coverage_frac", "frac", LEDGER),
];

/// Looks a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.moves.is_empty()));
        assert!(PER_LAYER.iter().all(|d| !d.moves.is_empty()));
    }
}
