//! Classification metrics: precision, recall, F1, accuracy, confusion
//! matrices (paper §VII-A). [`Confusion`] is the one scorer; results
//! over parts pool by adding counts.

use serde::{Deserialize, Serialize};
use std::ops::AddAssign;

/// Precision/recall/F1 with support.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Prf {
    /// Precision.
    pub precision: f64,
    /// Recall.
    pub recall: f64,
    /// F1 score.
    pub f1: f64,
    /// Number of ground-truth samples.
    pub support: u64,
}

/// A square confusion matrix over `n` classes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Confusion {
    n: usize,
    counts: Vec<u64>,
}

impl Confusion {
    /// An empty `n × n` matrix.
    pub fn new(n: usize) -> Confusion {
        Confusion {
            n,
            counts: vec![0; n * n],
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.n
    }

    /// Records one `(truth, prediction)` observation.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn record(&mut self, truth: usize, pred: usize) {
        assert!(truth < self.n && pred < self.n);
        self.counts[truth * self.n + pred] += 1;
    }

    /// The count at `(truth, pred)`.
    pub fn get(&self, truth: usize, pred: usize) -> u64 {
        self.counts[truth * self.n + pred]
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Ground-truth support of one class.
    pub fn support(&self, class: usize) -> u64 {
        (0..self.n).map(|p| self.get(class, p)).sum()
    }

    /// Per-class precision/recall/F1.
    pub fn per_class(&self, class: usize) -> Prf {
        let tp = self.get(class, class);
        let fp: u64 = (0..self.n)
            .filter(|&t| t != class)
            .map(|t| self.get(t, class))
            .sum();
        let fn_: u64 = (0..self.n)
            .filter(|&p| p != class)
            .map(|p| self.get(class, p))
            .sum();
        let precision = if tp + fp == 0 {
            0.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let recall = if tp + fn_ == 0 {
            0.0
        } else {
            tp as f64 / (tp + fn_) as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Prf {
            precision,
            recall,
            f1,
            support: self.support(class),
        }
    }

    /// Support-weighted average of the per-class metrics — what the
    /// paper reports per stage per application.
    pub fn weighted_avg(&self) -> Prf {
        let total = self.total();
        if total == 0 {
            return Prf::default();
        }
        let mut acc = Prf {
            support: total,
            ..Prf::default()
        };
        for c in 0..self.n {
            let prf = self.per_class(c);
            let w = prf.support as f64 / total as f64;
            acc.precision += w * prf.precision;
            acc.recall += w * prf.recall;
            acc.f1 += w * prf.f1;
        }
        acc
    }

    /// Correct observations: the trace.
    pub fn correct(&self) -> u64 {
        (0..self.n).map(|c| self.get(c, c)).sum()
    }

    /// Micro accuracy: trace / total.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.correct() as f64 / total as f64
    }
}

impl AddAssign<&Confusion> for Confusion {
    /// Pools another matrix's counts into this one.
    ///
    /// # Panics
    ///
    /// Panics if the class counts differ.
    fn add_assign(&mut self, other: &Confusion) {
        assert_eq!(self.n, other.n, "class counts differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

/// Builds a confusion matrix from parallel truth/prediction slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn confusion(n: usize, truths: &[usize], preds: &[usize]) -> Confusion {
    assert_eq!(truths.len(), preds.len());
    let mut m = Confusion::new(n);
    for (&t, &p) in truths.iter().zip(preds) {
        m.record(t, p);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let m = confusion(3, &[0, 1, 2, 1], &[0, 1, 2, 1]);
        assert_eq!(m.accuracy(), 1.0);
        let avg = m.weighted_avg();
        assert_eq!(avg.precision, 1.0);
        assert_eq!(avg.recall, 1.0);
        assert_eq!(avg.f1, 1.0);
        assert_eq!(avg.support, 4);
    }

    #[test]
    fn known_asymmetric_case() {
        // truth:  0 0 0 1 1
        // pred:   0 0 1 1 0
        let m = confusion(2, &[0, 0, 0, 1, 1], &[0, 0, 1, 1, 0]);
        let c0 = m.per_class(0);
        assert!((c0.precision - 2.0 / 3.0).abs() < 1e-9);
        assert!((c0.recall - 2.0 / 3.0).abs() < 1e-9);
        let c1 = m.per_class(1);
        assert!((c1.precision - 0.5).abs() < 1e-9);
        assert!((c1.recall - 0.5).abs() < 1e-9);
        assert!((m.accuracy() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn absent_class_contributes_zero() {
        let m = confusion(3, &[0, 0], &[0, 1]);
        let c2 = m.per_class(2);
        assert_eq!(c2.support, 0);
        assert_eq!(c2.f1, 0.0);
        let avg = m.weighted_avg();
        assert!(avg.precision > 0.0);
    }

    #[test]
    fn empty_matrix() {
        let m = Confusion::new(4);
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.weighted_avg(), Prf::default());
    }

    #[test]
    fn merged_parts_equal_one_matrix_over_all_outcomes() {
        let truths = [0, 1, 2, 2, 1, 0, 0, 2, 1];
        let preds = [0, 2, 2, 1, 1, 0, 1, 2, 0];
        let mut merged = Confusion::new(3);
        for (t, p) in truths.chunks(4).zip(preds.chunks(4)) {
            merged += &confusion(3, t, p);
        }
        assert_eq!(merged, confusion(3, &truths, &preds));
        assert_eq!(merged.total(), truths.len() as u64);
    }

    #[test]
    #[should_panic(expected = "class counts differ")]
    fn merging_mismatched_class_counts_panics() {
        let mut m = Confusion::new(3);
        m += &Confusion::new(2);
    }

    #[test]
    #[should_panic]
    fn out_of_range_record_panics() {
        let mut m = Confusion::new(2);
        m.record(2, 0);
    }
}
