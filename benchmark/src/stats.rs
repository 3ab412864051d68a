//! Order statistics: the median, the tail percentile rule and the
//! quartile spread that `BENCHMARK.json`'s bounds are checked against.

/// Sorts a sample ascending.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an ascending sample (mean of the middle pair when even); 0
/// for an empty one.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    median_sorted(&sorted(values.to_vec()))
}

/// The percentiles a tail may be reported at, ascending, in hundredths of
/// a percent so that ranks are exact integer arithmetic.
const LADDER: [usize; 8] = [5000, 7500, 9000, 9500, 9900, 9950, 9990, 9999];

/// The highest ladder percentile that still has at least ten samples
/// beyond it, with its nearest-rank value: `(percentile, value)`. A sample
/// too small for any rung (fewer than 20) reports `(0, max)`, so a short
/// run can never pass off its slowest operation as a p99.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let Some(&max) = sorted.last() else {
        return (0.0, 0.0);
    };
    LADDER
        .iter()
        .rev()
        .find_map(|&p| {
            let rank = (p * n).div_ceil(10_000);
            (rank >= 1 && n - rank >= 10).then(|| (p as f64 / 100.0, sorted[rank - 1]))
        })
        .unwrap_or((0.0, max))
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(values, n=4)` (its default exclusive method)
/// gives them — the rule the driver applies to repeated runs.
///
/// # Panics
/// Panics on fewer than two values, like the Python function.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let data = sorted(values.to_vec());
    let len = data.len();
    let m = len + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the median.
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
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let sample = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        // 19 samples: even p50 has only 9 beyond it.
        assert_eq!(tail(&sample(19)), (0.0, 19.0));
        // 20 samples: p50 is rank 10, ten beyond.
        assert_eq!(tail(&sample(20)), (50.0, 10.0));
        // 100 samples: p90 (rank 90) has exactly ten beyond; p95 has five.
        assert_eq!(tail(&sample(100)), (90.0, 90.0));
        // 1000 samples: p99 (rank 990) has exactly ten beyond.
        assert_eq!(tail(&sample(1000)), (99.0, 990.0));
        // 999 samples: p99 is rank 990, nine beyond — fall back to p95.
        assert_eq!(tail(&sample(999)), (95.0, 950.0));
        assert_eq!(tail(&sample(10_000)), (99.9, 9990.0));
        assert_eq!(tail(&[]), (0.0, 0.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([5, 1, 3, 2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(spread(&ten), 5.5 / 5.5);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
