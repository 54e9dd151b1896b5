//! Exact order statistics over raw samples.
//!
//! Every virtual-clock percentile the benchmark reports comes from the
//! raw per-request samples through these helpers, never from a bucketed
//! histogram: a bucket edge cannot move when the distribution inside the
//! bucket does.

/// Candidate tail percentiles, highest first.
pub const TAIL_CANDIDATES: [(f64, &str); 4] =
    [(0.999, "p99.9"), (0.99, "p99"), (0.95, "p95"), (0.9, "p90")];

/// Samples that must lie strictly above a percentile for it to count as
/// the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Sorts a sample set for quantile queries (NaN-free input).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile of sorted samples: the smallest sample with at
/// least a `q` share of the samples at or below it. Returns an observed
/// value, never an interpolation. `None` for an empty set.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    // The epsilon keeps `0.9 * 100` from ceiling to 91 through rounding.
    let rank = (q * n as f64 - 1e-9).ceil().max(1.0) as usize;
    Some(sorted[rank.min(n) - 1])
}

/// Median of sorted samples (nearest rank).
pub fn median(sorted: &[f64]) -> Option<f64> {
    quantile(sorted, 0.5)
}

/// The tail of a latency set: the highest percentile among
/// [`TAIL_CANDIDATES`] with at least [`TAIL_MIN_BEYOND`] samples
/// strictly above its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile label (`"p99"`, …).
    pub label: &'static str,
    /// The percentile's value.
    pub value: f64,
    /// Samples strictly above the value.
    pub beyond: usize,
    /// Samples in the set.
    pub count: usize,
}

/// Applies the tail rule. `None` when no candidate has enough samples
/// beyond it (the set is too small to have a measurable tail).
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    TAIL_CANDIDATES.iter().find_map(|&(q, label)| {
        let value = quantile(sorted, q)?;
        let beyond = sorted.len() - sorted.partition_point(|&x| x <= value);
        (beyond >= TAIL_MIN_BEYOND).then_some(Tail {
            label,
            value,
            beyond,
            count: sorted.len(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_returns_observed_samples() {
        let s = ramp(10);
        assert_eq!(quantile(&s, 0.5), Some(5.0));
        assert_eq!(quantile(&s, 0.9), Some(9.0));
        assert_eq!(quantile(&s, 0.91), Some(10.0));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(10.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.5]), Some(3.5));
    }

    #[test]
    fn quantiles_are_exact_not_bucketed() {
        // Values a 2x-wide bucket would collapse stay distinct.
        let s = sorted(&[101.0, 102.0, 103.0, 150.0, 199.0]);
        assert_eq!(median(&s), Some(103.0));
        assert_eq!(quantile(&s, 0.8), Some(150.0));
        assert_eq!(median(&sorted(&[3.0, 1.0, 2.0])), Some(2.0));
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 100 samples: p99 leaves 1 above, p95 leaves 5, p90 leaves 10.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!(
            (t.label, t.value, t.beyond, t.count),
            ("p90", 90.0, 10, 100)
        );
        // 1000 samples: p99 leaves exactly 10.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.label, t.value, t.beyond), ("p99", 990.0, 10));
        // 20000 samples: p99.9 leaves 20.
        let t = tail(&ramp(20_000)).unwrap();
        assert_eq!((t.label, t.beyond), ("p99.9", 20));
    }

    #[test]
    fn tail_counts_strictly_greater_samples_under_ties() {
        // 200 samples whose top 15 tie: p99 and p95 sit inside the tie,
        // so nothing lies above them; p90 leaves the 15 tied samples.
        let mut s: Vec<f64> = (1..=185).map(f64::from).collect();
        s.extend(std::iter::repeat_n(500.0, 15));
        let t = tail(&sorted(&s)).unwrap();
        assert_eq!((t.label, t.value, t.beyond), ("p90", 180.0, 20));
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        assert_eq!(tail(&ramp(99)), None);
        assert_eq!(tail(&[]), None);
    }
}
