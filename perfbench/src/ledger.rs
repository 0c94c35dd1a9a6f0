//! The per-layer ledger of a traced run. Every entry is wall time
//! around one public call into a layer, timed from the benchmark's own
//! code; nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::time::Instant;

/// Traced passes whose layer calls cover less of their wall time than
/// this name the largest untimed gap in the run record.
pub const COVERAGE_FLOOR: f64 = 0.97;

/// Milliseconds between two instants.
pub fn ms_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Wall time of sequential layer calls within traced passes.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Total ms per layer call on the traced path.
    path: BTreeMap<String, f64>,
    /// Calls the untraced program never makes on their own: they
    /// re-execute part of another call so it can be split into layers.
    /// Excluded from coverage.
    probes: BTreeMap<String, f64>,
    /// Untimed time between consecutive calls, keyed by the call that
    /// followed it (`end` for the tail of a pass).
    gaps: BTreeMap<String, f64>,
    start: Option<Instant>,
    last: Option<Instant>,
    wall_ms: f64,
}

impl Ledger {
    /// Starts a traced pass; its wall time runs until [`Ledger::end`].
    pub fn begin(&mut self) {
        let now = Instant::now();
        self.start = Some(now);
        self.last = Some(now);
    }

    /// Closes the current pass and adds its wall time.
    pub fn end(&mut self) {
        let now = Instant::now();
        self.gap_before("end", now);
        if let Some(start) = self.start.take() {
            self.wall_ms += ms_between(start, now);
        }
        self.last = None;
    }

    fn gap_before(&mut self, name: &str, now: Instant) {
        if let Some(last) = self.last {
            *self.gaps.entry(name.to_string()).or_default() += ms_between(last, now);
        }
    }

    fn timed<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        self.gap_before(name, t0);
        let out = f();
        let t1 = Instant::now();
        if self.start.is_some() {
            self.last = Some(t1);
        }
        (out, ms_between(t0, t1))
    }

    /// Times one call on the traced path.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let (out, ms) = self.timed(name, f);
        *self.path.entry(name.to_string()).or_default() += ms;
        out
    }

    /// Times a probe: a re-execution that isolates one layer of a
    /// call the untraced program makes as a whole.
    pub fn probe<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let (out, ms) = self.timed(name, f);
        *self.probes.entry(name.to_string()).or_default() += ms;
        out
    }

    /// Total ms of a path call or probe (0 when never made).
    pub fn ms(&self, name: &str) -> f64 {
        self.path
            .get(name)
            .or_else(|| self.probes.get(name))
            .copied()
            .unwrap_or(0.0)
    }

    /// Wall time of all closed passes.
    pub fn wall_ms(&self) -> f64 {
        self.wall_ms
    }

    /// Share of the passes' wall time (probes excluded) spent inside
    /// timed path calls.
    pub fn coverage(&self) -> f64 {
        let timed: f64 = self.path.values().sum();
        let probes: f64 = self.probes.values().sum();
        let wall = self.wall_ms - probes;
        if wall > 0.0 {
            timed / wall
        } else {
            0.0
        }
    }

    /// The largest untimed stretch: the call it preceded and its ms.
    pub fn largest_gap(&self) -> Option<(String, f64)> {
        self.gaps
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, v)| (k.clone(), *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn coverage_counts_path_calls_and_excludes_probes() {
        let mut ledger = Ledger::default();
        ledger.begin();
        ledger.probe("decode", || std::thread::sleep(Duration::from_millis(20)));
        ledger.time("extract", || std::thread::sleep(Duration::from_millis(20)));
        std::thread::sleep(Duration::from_millis(20));
        ledger.time("embed", || std::thread::sleep(Duration::from_millis(20)));
        ledger.end();
        assert!(ledger.ms("extract") >= 20.0);
        assert!(ledger.ms("decode") >= 20.0);
        // 40 ms timed of ~60 ms non-probe wall.
        let c = ledger.coverage();
        assert!(c > 0.5 && c < 0.8, "coverage {c}");
        let (gap, ms) = ledger.largest_gap().unwrap();
        assert_eq!(gap, "embed");
        assert!(ms >= 20.0);
    }
}
