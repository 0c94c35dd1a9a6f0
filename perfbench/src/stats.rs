//! Order statistics behind every reported number: medians, quartiles,
//! the tail-percentile rule and open-loop due-time latency.

/// Latency assigned to a request that failed or was refused: it misses
/// every latency limit. Kept finite so it serializes as a JSON number.
pub const MISS_MS: f64 = 1e9;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count), as
/// Python's `statistics.median` computes it. `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// `None` for fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // Negative when the clamp moved `j` up (tiny samples).
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// The highest percentile of a sample that still has at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in `[0, 1)`: `k / n` where the value is the
    /// `k`-th smallest of `n` samples.
    pub percentile: f64,
    /// The `k`-th smallest sample.
    pub value: f64,
    /// Samples behind the percentile: always [`TAIL_BEYOND`].
    pub beyond: usize,
}

/// Applies the tail rule; `None` when the sample is too small
/// (fewer than `TAIL_BEYOND + 1` values).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    let k = n.checked_sub(TAIL_BEYOND).filter(|&k| k >= 1)?;
    Some(Tail {
        percentile: k as f64 / n as f64,
        value: v[k - 1],
        beyond: n - k,
    })
}

/// The tail value reported for a sample: the tail-rule value, or the
/// maximum when the sample is too small for the rule (recorded as
/// percentile 1.0 with nothing beyond).
pub fn tail_or_max(xs: &[f64]) -> Option<Tail> {
    tail(xs).or_else(|| {
        let max = sorted(xs).last().copied()?;
        Some(Tail {
            percentile: 1.0,
            value: max,
            beyond: 0,
        })
    })
}

/// Open-loop latencies: each request is timed from the moment it was
/// *due* (not from when the generator got round to sending it), so a
/// stall also charges the requests queued behind it. `done[i]` is the
/// completion time of request `i`, or `None` when it failed or was
/// refused — a miss, reported as [`MISS_MS`].
pub fn due_latencies_ms(due_ms: &[f64], done_ms: &[Option<f64>]) -> Vec<f64> {
    due_ms
        .iter()
        .zip(done_ms)
        .map(|(&due, done)| match done {
            Some(t) => (t - due).max(0.0),
            None => MISS_MS,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some([2.0, 5.0, 8.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 is the 990th value, with 10 beyond it.
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.percentile, 0.99);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        // 200 samples: only p95 is supported.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.percentile, 0.95);
        assert_eq!(t.value, 190.0);
        // 11 samples: the smallest value is the only supported point.
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().value, 1.0);
        // 10 samples: nothing has ten beyond it.
        assert_eq!(tail(&xs[..10]), None);
        assert_eq!(tail_or_max(&xs[..10]).unwrap().value, 10.0);
        assert_eq!(tail_or_max(&xs[..10]).unwrap().beyond, 0);
        assert_eq!(tail_or_max(&[]), None);
    }

    #[test]
    fn due_time_latency_charges_stalls_and_misses() {
        // Requests due at 0, 10, 20 ms; a stall delays the first two
        // completions to 50 ms, the third is refused.
        let due = [0.0, 10.0, 20.0];
        let done = [Some(50.0), Some(50.0), None];
        let lat = due_latencies_ms(&due, &done);
        assert_eq!(lat, vec![50.0, 40.0, MISS_MS]);
        // The miss sorts beyond every real latency.
        assert_eq!(median(&lat), Some(50.0));
        assert_eq!(sorted(&lat).last(), Some(&MISS_MS));
    }

    #[test]
    fn misses_reach_the_tail() {
        // 100 requests, 15 refused: the tail percentile (p90) lands on
        // a miss, so a refused request can never hide in the tail.
        let mut done: Vec<Option<f64>> = (0..85).map(|i| Some(f64::from(i) + 1.0)).collect();
        done.extend(std::iter::repeat_n(None, 15));
        let due = vec![0.0; 100];
        let t = tail(&due_latencies_ms(&due, &done)).unwrap();
        assert_eq!(t.percentile, 0.9);
        assert_eq!(t.value, MISS_MS);
    }
}
