//! Order statistics for timing samples.
//!
//! Percentiles are nearest-rank over the exact samples (no bucketing):
//! the `q`-quantile of `n` sorted samples is the sample of rank
//! `⌈q·n⌉`. A percentile is only *reportable* when at least
//! [`MIN_BEYOND`] samples lie beyond it — below that, a "p99" is one or
//! two unlucky samples, not a tail.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond the nearest-rank `q`-quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Whether the `q`-quantile of `n` samples has at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn reportable(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_BEYOND
}

/// The nearest-rank `q`-quantile of `sorted` (ascending), or `None` when
/// it is not [`reportable`].
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    reportable(sorted.len(), q).then(|| sorted[rank(sorted.len(), q) - 1])
}

/// Quantiles a tail may be reported at, highest first.
const TAIL_QUANTILES: [f64; 4] = [0.99, 0.9, 0.75, 0.5];

/// The quantile [`tail`] reports for `n` samples: the highest of
/// [`TAIL_QUANTILES`] that is [`reportable`], else the median.
pub fn tail_quantile(n: usize) -> f64 {
    TAIL_QUANTILES
        .into_iter()
        .find(|&q| reportable(n, q))
        .unwrap_or(0.5)
}

/// The tail of `sorted` (ascending, non-empty): its nearest-rank value at
/// [`tail_quantile`].
pub fn tail(sorted: &[f64]) -> f64 {
    sorted[rank(sorted.len(), tail_quantile(sorted.len())) - 1]
}

/// The median of `values` (any order; the mean of the two middle values
/// for an even count). `0.0` for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of `values` (any order, non-empty),
/// whatever the sample count — for summarizing a run's windows or
/// repetitions, not for reporting a tail.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    v[rank(v.len(), q) - 1]
}

/// `values` sorted ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!reportable(999, 0.99));
        assert!(reportable(1000, 0.99));
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(!reportable(9_999, 0.999));
        assert!(reportable(10_000, 0.999));
    }

    #[test]
    fn median_needs_twenty_samples_to_count_as_a_percentile() {
        assert!(!reportable(19, 0.5));
        assert!(reportable(20, 0.5));
        assert!(!reportable(0, 0.5));
    }

    #[test]
    fn percentile_is_nearest_rank_and_gated() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        assert_eq!(percentile(&v[..500], 0.99), None);
    }

    #[test]
    fn tail_falls_back_to_the_highest_reportable_quantile() {
        assert_eq!(tail_quantile(100_000), 0.99);
        assert_eq!(tail_quantile(999), 0.9);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(25), 0.5);
        assert_eq!(tail_quantile(7), 0.5, "too few for any tail: the median");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), 90.0);
        assert_eq!(tail(&[5.0]), 5.0);
    }

    #[test]
    fn quantile_is_ungated_nearest_rank() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.25), 1.0);
        assert_eq!(quantile(&v, 0.75), 3.0);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
