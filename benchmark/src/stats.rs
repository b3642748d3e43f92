//! Order statistics over measured samples.
//!
//! Percentiles use the nearest-rank rule (the `⌈p·n⌉`-th smallest
//! sample), so every reported value is one that was actually measured.
//! A percentile is *supported* only when at least [`MIN_BEYOND`]
//! samples lie beyond it; with fewer, the tail value is one or two
//! outliers and moves from run to run.

/// Samples that must lie strictly beyond a percentile for it to be
/// reported as supported.
pub const MIN_BEYOND: usize = 10;

/// The percentile ladder the benchmark reports the tail from.
pub const LADDER: [f64; 7] = [0.5, 0.9, 0.95, 0.98, 0.99, 0.999, 0.9999];

/// The 1-based nearest rank of percentile `p ∈ (0, 1]` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank percentile of an ascending sample, or `None` when the
/// sample is empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Number of samples strictly beyond percentile `p` among `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Sorts a sample ascending (NaN-free by construction: every sample is
/// an elapsed time or a finite score).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median of a sample (the mean of the two middle values for an even
/// count), or `None` when it is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some(0.5 * (s[n / 2 - 1] + s[n / 2])),
    }
}

/// The arithmetic mean, or `None` when the sample is empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The ladder percentiles of an ascending sample that have at least
/// [`MIN_BEYOND`] samples beyond them, as `(p, value)` pairs.
pub fn supported_ladder(sorted: &[f64]) -> Vec<(f64, f64)> {
    LADDER
        .iter()
        .filter(|&&p| beyond(sorted.len(), p) >= MIN_BEYOND)
        .filter_map(|&p| percentile(sorted, p).map(|v| (p, v)))
        .collect()
}
