//! Run-manifest JSONL: parsing, validation, rendering, and diffing of
//! the files [`crate::Recorder::write_manifest`] produces.
//!
//! A manifest is one JSON object per line. The first line has
//! `"record":"meta"` (config, seed, git revision, start time); then
//! the timeline (`span` / `loss` / `message` lines with monotonic
//! `ts_ms`); then a `metrics` line holding the final
//! [`MetricsSnapshot`]; then an `end` line with the wall time.

use crate::metrics::MetricsSnapshot;
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Milliseconds since the Unix epoch.
pub fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable. The
/// scale benchmarks record this to demonstrate that out-of-core
/// training keeps peak memory flat as the corpus grows.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Best-effort git revision of the checkout containing `start` (or
/// any ancestor directory): reads `.git/HEAD` without invoking git.
/// Falls back to the `GITHUB_SHA` environment variable, then `None`.
pub fn git_rev(start: &Path) -> Option<String> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let head = d.join(".git/HEAD");
        if let Ok(content) = std::fs::read_to_string(&head) {
            let content = content.trim();
            let rev = match content.strip_prefix("ref: ") {
                Some(r) => std::fs::read_to_string(d.join(".git").join(r.trim()))
                    .ok()
                    .map(|s| s.trim().to_string()),
                None => Some(content.to_string()),
            };
            if let Some(rev) = rev.filter(|r| !r.is_empty()) {
                return Some(rev);
            }
        }
        dir = d.parent();
    }
    std::env::var("GITHUB_SHA").ok().filter(|s| !s.is_empty())
}

/// One closed span from a manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanLine {
    /// Dot-joined path.
    pub path: String,
    /// Duration in milliseconds.
    pub ms: f64,
    /// Timestamp (ms since run start) of the span *close*.
    pub ts_ms: f64,
    /// Thread token of the recording thread (0 in manifests written
    /// before thread identity was recorded).
    pub tid: u64,
    /// Self-attributed allocated bytes (0 without `alloc-profile`).
    pub alloc_bytes: u64,
    /// Self-attributed allocation count (0 without `alloc-profile`).
    pub alloc_count: u64,
}

/// One stage-epoch loss from a manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct LossLine {
    /// Stage name.
    pub stage: String,
    /// Zero-based epoch.
    pub epoch: usize,
    /// Mean per-sample loss.
    pub loss: f64,
}

/// A parsed run manifest.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// The `meta` line (config, seed, git revision, ...).
    pub meta: Value,
    /// All spans in file order.
    pub spans: Vec<SpanLine>,
    /// All per-epoch losses in file order.
    pub losses: Vec<LossLine>,
    /// All `(ts_ms, level, text)` messages in file order.
    pub messages: Vec<(f64, String, String)>,
    /// The final metrics snapshot, if present.
    pub metrics: Option<MetricsSnapshot>,
    /// Total wall time from the `end` line.
    pub wall_ms: Option<f64>,
    /// Every line's `ts_ms` in file order (for validation).
    pub ts_seq: Vec<f64>,
}

impl Manifest {
    /// Parses manifest JSONL.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, a non-object line, or a first line
    /// that is not a `meta` record.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let mut m = Manifest::default();
        let mut saw_meta = false;
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v: Value =
                serde_json::from_str(line).map_err(|e| format!("manifest line {}: {e}", i + 1))?;
            let record = v["record"]
                .as_str()
                .ok_or_else(|| format!("manifest line {}: missing \"record\" field", i + 1))?
                .to_string();
            if !saw_meta && record != "meta" {
                return Err(format!(
                    "manifest line {}: first record is `{record}`, expected `meta`",
                    i + 1
                ));
            }
            if let Some(ts) = v["ts_ms"].as_f64() {
                m.ts_seq.push(ts);
            }
            match record.as_str() {
                "meta" => {
                    saw_meta = true;
                    m.meta = v;
                }
                "span" => m.spans.push(SpanLine {
                    path: v["path"].as_str().unwrap_or("?").to_string(),
                    ms: v["ms"].as_f64().unwrap_or(0.0),
                    ts_ms: v["ts_ms"].as_f64().unwrap_or(0.0),
                    tid: v["tid"].as_u64().unwrap_or(0),
                    alloc_bytes: v["alloc_bytes"].as_u64().unwrap_or(0),
                    alloc_count: v["alloc_count"].as_u64().unwrap_or(0),
                }),
                "loss" => m.losses.push(LossLine {
                    stage: v["stage"].as_str().unwrap_or("?").to_string(),
                    epoch: v["epoch"].as_u64().unwrap_or(0) as usize,
                    loss: v["loss"].as_f64().unwrap_or(f64::NAN),
                }),
                "message" => m.messages.push((
                    v["ts_ms"].as_f64().unwrap_or(0.0),
                    v["level"].as_str().unwrap_or("info").to_string(),
                    v["text"].as_str().unwrap_or("").to_string(),
                )),
                "metrics" => {
                    m.metrics = serde_json::from_value(v["snapshot"].clone()).ok();
                }
                "end" => m.wall_ms = v["wall_ms"].as_f64(),
                // Unknown records are forward-compatible: skipped.
                _ => {}
            }
        }
        if !saw_meta {
            return Err("manifest is empty (no meta record)".to_string());
        }
        Ok(m)
    }

    /// Checks the invariants CI asserts on smoke runs: a meta record
    /// exists, at least one span or loss was captured, and timestamps
    /// never go backwards.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.meta.is_null() {
            return Err("no meta record".to_string());
        }
        if self.spans.is_empty() && self.losses.is_empty() {
            return Err("manifest captured no spans and no losses".to_string());
        }
        for w in self.ts_seq.windows(2) {
            if w[1] < w[0] {
                return Err(format!(
                    "timestamps go backwards: {:.3}ms then {:.3}ms",
                    w[0], w[1]
                ));
            }
        }
        if let Some(ms) = self.wall_ms {
            if !ms.is_finite() || ms < 0.0 {
                return Err(format!("bad wall_ms {ms}"));
            }
        }
        Ok(())
    }

    /// Total milliseconds per span path (summed over repeats).
    pub fn span_totals(&self) -> BTreeMap<String, f64> {
        let mut totals = BTreeMap::new();
        for s in &self.spans {
            *totals.entry(s.path.clone()).or_default() += s.ms;
        }
        totals
    }

    /// Aggregates the manifest's spans into a call tree (see
    /// [`crate::profile`]).
    pub fn span_tree(&self) -> crate::profile::SpanTree {
        crate::profile::SpanTree::from_observations(self.spans.iter().map(|s| {
            crate::profile::SpanObservation {
                path: &s.path,
                nanos: (s.ms * 1e6) as u64,
                alloc_bytes: s.alloc_bytes,
                alloc_count: s.alloc_count,
            }
        }))
    }

    /// Final (last-epoch) loss per stage.
    pub fn final_losses(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for l in &self.losses {
            out.insert(l.stage.clone(), l.loss);
        }
        out
    }

    /// Renders a human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let meta = &self.meta;
        let _ = writeln!(out, "run: {}", meta["name"].as_str().unwrap_or("?"));
        for key in [
            "scale",
            "seed",
            "threads",
            "kernel_isa",
            "git_rev",
            "started_unix_ms",
        ] {
            if !meta[key].is_null() {
                let _ = writeln!(out, "  {key}: {}", render_scalar(&meta[key]));
            }
        }
        if let Some(ms) = self.wall_ms {
            let _ = writeln!(out, "  wall: {}", fmt_ms(ms));
        }
        let totals = self.span_totals();
        if !totals.is_empty() {
            let _ = writeln!(out, "spans (total per path):");
            let width = totals.keys().map(String::len).max().unwrap_or(0);
            for (path, ms) in &totals {
                let _ = writeln!(out, "  {path:<width$}  {:>12}", fmt_ms(*ms));
            }
            let tree = self.span_tree();
            // The tree view only adds information when spans nest.
            if tree.roots.iter().any(|r| !r.children.is_empty()) {
                let _ = writeln!(out, "span tree (calls / total / self):");
                for line in tree.render().lines() {
                    let _ = writeln!(out, "  {line}");
                }
            }
        }
        if !self.losses.is_empty() {
            let _ = writeln!(out, "losses (per stage, per epoch):");
            let mut by_stage: BTreeMap<&str, Vec<(usize, f64)>> = BTreeMap::new();
            for l in &self.losses {
                by_stage
                    .entry(&l.stage)
                    .or_default()
                    .push((l.epoch, l.loss));
            }
            for (stage, mut epochs) in by_stage {
                epochs.sort_by_key(|&(e, _)| e);
                let curve: Vec<String> = epochs.iter().map(|(_, l)| format!("{l:.4}")).collect();
                let _ = writeln!(out, "  {stage}: {}", curve.join(" -> "));
            }
        }
        if let Some(m) = &self.metrics {
            if !m.counters.is_empty() {
                let _ = writeln!(out, "counters:");
                for c in &m.counters {
                    let _ = writeln!(out, "  {:<32} {:>12}", c.name, c.value);
                }
            }
            if !m.gauges.is_empty() {
                let _ = writeln!(out, "gauges:");
                for g in &m.gauges {
                    let _ = writeln!(out, "  {:<32} {:>12.4}", g.name, g.value);
                }
            }
            if !m.histograms.is_empty() {
                let _ = writeln!(out, "histograms:");
                for h in &m.histograms {
                    let quantiles = match (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99)) {
                        (Some(p50), Some(p95), Some(p99)) => {
                            format!(" p50={p50:.4} p95={p95:.4} p99={p99:.4}")
                        }
                        _ => String::new(),
                    };
                    let _ = writeln!(
                        out,
                        "  {:<32} n={} mean={:.4}{quantiles} invalid={}",
                        h.name,
                        h.count,
                        h.mean(),
                        h.invalid
                    );
                }
            }
        }
        out
    }

    /// Renders a side-by-side diff of two manifests: span-time deltas,
    /// counter deltas, and final-loss deltas.
    pub fn diff(a: &Manifest, b: &Manifest) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "diff: {} -> {}",
            a.meta["name"].as_str().unwrap_or("a"),
            b.meta["name"].as_str().unwrap_or("b")
        );
        if let (Some(wa), Some(wb)) = (a.wall_ms, b.wall_ms) {
            let _ = writeln!(
                out,
                "  wall: {} -> {} ({})",
                fmt_ms(wa),
                fmt_ms(wb),
                fmt_delta_pct(wa, wb)
            );
        }
        let (ta, tb) = (a.span_totals(), b.span_totals());
        let paths: std::collections::BTreeSet<&String> = ta.keys().chain(tb.keys()).collect();
        if !paths.is_empty() {
            let _ = writeln!(out, "spans:");
            let width = paths.iter().map(|p| p.len()).max().unwrap_or(0);
            for path in paths {
                match (ta.get(path), tb.get(path)) {
                    (Some(&ma), Some(&mb)) => {
                        let _ = writeln!(
                            out,
                            "  {path:<width$}  {:>12} -> {:>12} ({})",
                            fmt_ms(ma),
                            fmt_ms(mb),
                            fmt_delta_pct(ma, mb)
                        );
                    }
                    (Some(&ma), None) => {
                        let _ = writeln!(out, "  {path:<width$}  {:>12} -> (absent)", fmt_ms(ma));
                    }
                    (None, Some(&mb)) => {
                        let _ = writeln!(out, "  {path:<width$}  (absent) -> {:>12}", fmt_ms(mb));
                    }
                    (None, None) => {}
                }
            }
        }
        let (la, lb) = (a.final_losses(), b.final_losses());
        let stages: std::collections::BTreeSet<&String> = la.keys().chain(lb.keys()).collect();
        if !stages.is_empty() {
            let _ = writeln!(out, "final losses:");
            for stage in stages {
                let _ = writeln!(
                    out,
                    "  {stage}: {} -> {}",
                    la.get(stage).map_or("-".into(), |l| format!("{l:.4}")),
                    lb.get(stage).map_or("-".into(), |l| format!("{l:.4}")),
                );
            }
        }
        let empty = MetricsSnapshot::default();
        let ma = a.metrics.as_ref().unwrap_or(&empty);
        let mb = b.metrics.as_ref().unwrap_or(&empty);
        let names: std::collections::BTreeSet<&String> = ma
            .counters
            .iter()
            .map(|c| &c.name)
            .chain(mb.counters.iter().map(|c| &c.name))
            .collect();
        if !names.is_empty() {
            let _ = writeln!(out, "counters:");
            for name in names {
                let va = ma.counter(name).unwrap_or(0);
                let vb = mb.counter(name).unwrap_or(0);
                let delta = vb as i128 - va as i128;
                let _ = writeln!(out, "  {name:<32} {va:>12} -> {vb:>12} ({delta:+})");
            }
        }
        out
    }
}

fn render_scalar(v: &Value) -> String {
    match v {
        Value::String(s) => s.clone(),
        other => serde_json::to_string(other).unwrap_or_default(),
    }
}

fn fmt_ms(ms: f64) -> String {
    if ms >= 10_000.0 {
        format!("{:.2}s", ms / 1e3)
    } else {
        format!("{ms:.1}ms")
    }
}

fn fmt_delta_pct(a: f64, b: f64) -> String {
    if a <= 0.0 {
        "n/a".to_string()
    } else {
        format!("{:+.1}%", (b - a) / a * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_missing_meta() {
        let err = Manifest::parse("{\"record\":\"span\",\"path\":\"x\",\"ms\":1.0}").unwrap_err();
        assert!(err.contains("expected `meta`"), "{err}");
        assert!(Manifest::parse("").is_err());
    }

    #[test]
    fn validate_catches_backwards_timestamps() {
        let text = "{\"record\":\"meta\",\"ts_ms\":0.0,\"name\":\"t\"}\n\
                    {\"record\":\"span\",\"ts_ms\":5.0,\"path\":\"a\",\"ms\":5.0}\n\
                    {\"record\":\"span\",\"ts_ms\":2.0,\"path\":\"b\",\"ms\":1.0}\n";
        let m = Manifest::parse(text).unwrap();
        let err = m.validate().unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn render_and_diff_do_not_panic_on_minimal_manifests() {
        let text = "{\"record\":\"meta\",\"ts_ms\":0.0,\"name\":\"t\",\"seed\":7}\n\
                    {\"record\":\"span\",\"ts_ms\":1.0,\"path\":\"train\",\"ms\":1.0}\n\
                    {\"record\":\"loss\",\"ts_ms\":2.0,\"stage\":\"stage1\",\"epoch\":0,\"loss\":0.5}\n\
                    {\"record\":\"end\",\"ts_ms\":3.0,\"wall_ms\":3.0}\n";
        let m = Manifest::parse(text).unwrap();
        m.validate().unwrap();
        let rendered = m.render();
        assert!(rendered.contains("stage1"));
        let d = Manifest::diff(&m, &m);
        assert!(d.contains("train"));
    }
}
