//! One run's result: metric values, correctness gates and the notes
//! (sample counts, percentiles, extra ledger entries) that go into the
//! run record.

use serde_json::Value;
use std::collections::BTreeMap;

/// A correctness gate: a check whose failure makes the run incorrect.
pub struct Gate {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence: counts compared, or the first mismatch.
    pub detail: String,
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations the run attempted (binaries, requests or jobs).
    pub attempted: u64,
    /// Attempted operations that failed or were refused.
    pub failed: u64,
    /// Reported metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Correctness gates, in the order they ran.
    pub gates: Vec<Gate>,
    /// Context for the run record: sample counts behind every
    /// percentile and ratio, and ledger entries without a bound.
    pub notes: BTreeMap<String, Value>,
}

impl Report {
    /// Sets a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Adds a note to the run record.
    pub fn note(&mut self, key: &str, value: impl serde::Serialize) {
        self.notes.insert(key.to_string(), value.to_value());
    }

    /// Records a correctness gate.
    pub fn gate(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Whether every gate held.
    pub fn correct(&self) -> bool {
        !self.gates.is_empty() && self.gates.iter().all(|g| g.ok)
    }
}
