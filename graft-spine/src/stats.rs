//! Order statistics over timing samples.

/// Median of `samples` (mean of the two middle values for even counts).
/// Panics on an empty slice: every stage of the pipeline runs at least
/// once, so an empty sample set is a bug in the harness.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), so spreads computed
/// here agree with the ones the acceptance driver computes. With fewer
/// than two samples both quartiles are the sample itself.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let sorted = sorted(samples);
    let n = sorted.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        // Position i*(n+1)/4 on a 1-based axis, clamped into the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The smallest sample. Panics on an empty slice, like [`median`].
pub fn minimum(samples: &[f64]) -> f64 {
    samples.iter().copied().min_by(f64::total_cmp).expect("minimum of no samples")
}

/// Nearest-rank percentile: the smallest sample such that at least
/// `pct` percent of the samples are no larger.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    let sorted = sorted(samples);
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Inter-quartile range as a share of the median (0 for a zero median).
pub fn relative_iqr(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let med = median(samples);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn minimum_is_the_smallest_sample() {
        assert_eq!(minimum(&[5.0, 1.0, 4.0]), 1.0);
        assert_eq!(minimum(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(percentile(&[5.0, 1.0], 1.0), 1.0);
        // 2,000 samples leave 20 beyond the 99th percentile.
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(percentile(&many, 99.0), 1980.0);
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(relative_iqr(&[0.0, 0.0]), 0.0);
    }
}
