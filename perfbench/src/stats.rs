//! Order statistics for latency samples: medians, nearest-rank percentiles and
//! the tail rule the benchmark reports.

/// The percentiles [`tail`] considers, highest first.
pub const TAIL_PERCENTILES: [u32; 3] = [99, 95, 90];

/// The fewest samples that must lie beyond a percentile for it to be reported
/// as the tail.
pub const MIN_BEYOND: usize = 50;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// If `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples: the smallest rank
/// `k` with `k / n >= p / 100`.
fn rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// A reported tail percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile (99, 95 or 90).
    pub percentile: u32,
    /// Its nearest-rank value.
    pub value: f64,
    /// How many samples lie strictly above its rank.
    pub beyond: usize,
}

/// The highest of p99, p95 and p90 that still has at least [`MIN_BEYOND`]
/// samples beyond it, by nearest rank over `sorted` (ascending).  When no
/// percentile qualifies (fewer than 500 samples) p90 is returned with its
/// smaller count, so the caller can see the rule was not met.
///
/// # Panics
/// If `sorted` is empty.
pub fn tail(sorted: &[f64]) -> Tail {
    assert!(!sorted.is_empty(), "tail of no samples");
    let n = sorted.len();
    let at = |percentile: u32| {
        let k = rank(percentile, n);
        Tail {
            percentile,
            value: sorted[k - 1],
            beyond: n - k,
        }
    };
    TAIL_PERCENTILES
        .iter()
        .map(|&p| at(p))
        .find(|t| t.beyond >= MIN_BEYOND)
        .unwrap_or_else(|| at(90))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_needs_five_thousand_samples() {
        // 5000 samples: rank 4950, 50 beyond — p99 qualifies exactly.
        let t = tail(&ramp(5000));
        assert_eq!((t.percentile, t.value, t.beyond), (99, 4950.0, 50));
        // One fewer leaves 49 beyond p99, so p95 is reported instead.
        let t = tail(&ramp(4999));
        assert_eq!(t.percentile, 95);
        assert_eq!(t.beyond, 4999 - 4750);
    }

    #[test]
    fn falls_back_through_p95_to_p90() {
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.value, t.beyond), (95, 950.0, 50));
        let t = tail(&ramp(999));
        assert_eq!((t.percentile, t.beyond), (90, 999 - 900));
        let t = tail(&ramp(500));
        assert_eq!((t.percentile, t.value, t.beyond), (90, 450.0, 50));
    }

    #[test]
    fn too_few_samples_report_p90_with_its_short_count() {
        let t = tail(&ramp(20));
        assert_eq!((t.percentile, t.value, t.beyond), (90, 18.0, 2));
        let t = tail(&[7.0]);
        assert_eq!((t.percentile, t.value, t.beyond), (90, 7.0, 0));
    }
}
