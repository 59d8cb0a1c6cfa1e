//! Exact order statistics over raw samples.
//!
//! Latency quantiles are computed by sorting every sample, never from a
//! bucketed histogram: `bagpred_obs::LogHistogram` keeps power-of-two
//! buckets, so any quantile it reports can be off by up to 2×.

/// The percentiles the report considers, lowest first.
pub const PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Nearest-rank quantile of already sorted samples: the value at 1-based
/// rank `ceil(q * n)`, clamped to `[1, n]`, with no interpolation.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(q, sorted.len()) - 1]
}

/// 1-based nearest rank `ceil(q * n)` clamped to `[1, n]`. The product
/// is rounded to 1e-6 first so that, e.g., `0.999 * 10000` (which is
/// 9990.000000000002 in binary floating point) ranks 9990, not 9991.
fn rank(q: f64, n: usize) -> usize {
    let exact = (q * n as f64 * 1e6).round() / 1e6;
    (exact.ceil() as usize).clamp(1, n.max(1))
}

/// The highest of [`PERCENTILES`] that leaves at least `min_beyond`
/// samples above its rank, or `None` when even the median does not.
pub fn top_supported_percentile(n: usize, min_beyond: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| n >= rank(p / 100.0, n) + min_beyond)
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// `exclusive` method), so spreads reported here match that tool.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Median of the values (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let mid = data.len() / 2;
    if data.len() % 2 == 1 {
        data[mid]
    } else {
        (data[mid - 1] + data[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        let ten: Vec<u64> = (1..=10).map(|v| v * 10).collect();
        // ceil(0.5*10)=5 -> 50; ceil(0.9*10)=9 -> 90; ceil(0.99*10)=10.
        assert_eq!(nearest_rank(&ten, 0.50), 50);
        assert_eq!(nearest_rank(&ten, 0.90), 90);
        assert_eq!(nearest_rank(&ten, 0.99), 100);
        assert_eq!(nearest_rank(&ten, 0.0), 10, "rank clamps to 1");
        assert_eq!(nearest_rank(&ten, 1.0), 100);
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&hundred, 0.99), 99);
        assert_eq!(nearest_rank(&hundred, 0.999), 100, "ceil(99.9) = 100");
        assert_eq!(nearest_rank(&hundred, 0.5), 50);
        let seven = [3, 8, 9, 15, 21, 40, 41];
        // ceil(0.5*7)=4 -> 15; ceil(0.25*7)=2 -> 8.
        assert_eq!(nearest_rank(&seven, 0.5), 15);
        assert_eq!(nearest_rank(&seven, 0.25), 8);
    }

    #[test]
    fn top_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(top_supported_percentile(5, 10), None);
        assert_eq!(top_supported_percentile(20, 10), Some(50.0));
        assert_eq!(top_supported_percentile(100, 10), Some(90.0));
        assert_eq!(top_supported_percentile(1000, 10), Some(99.0));
        assert_eq!(top_supported_percentile(10_000, 10), Some(99.9));
        assert_eq!(top_supported_percentile(100_000, 10), Some(99.99));
        assert_eq!(top_supported_percentile(9_999, 10), Some(99.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
