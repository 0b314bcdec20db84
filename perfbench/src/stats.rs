//! The benchmark's own statistics: order statistics over host timings and
//! simulated latencies, the failed-operation share, and metric-name checks.

/// Median, quartiles and range of one metric's samples within a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

/// Summarises `values` (`None` when empty). The quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so a spread computed here matches one computed from the printed values.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (&min, &max) = (sorted.first()?, sorted.last()?);
    let (q1, q3) = match sorted.len() {
        1 => (min, min),
        _ => (
            exclusive_quartile(&sorted, 1),
            exclusive_quartile(&sorted, 3),
        ),
    };
    Some(Summary {
        n: sorted.len(),
        median: median_sorted(&sorted),
        q1,
        q3,
        min,
        max,
    })
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `i`-th of the three cut points of Python's exclusive quantile method
/// with `n = 4`; `sorted` holds at least two values.
fn exclusive_quartile(sorted: &[f64], i: usize) -> f64 {
    let m = sorted.len();
    let j = (i * (m + 1) / 4).clamp(1, m - 1);
    let delta = (i * (m + 1)) as f64 - (j * 4) as f64; // may be negative after the clamp
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Nearest-rank percentile `pct` (0 < pct ≤ 100, to a tenth of a percent)
/// of `values`.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Per-mille integers keep the rank exact.
    let rank = ((pct * 10.0).round() as usize * sorted.len()).div_ceil(1000);
    sorted.get(rank.clamp(1, sorted.len().max(1)) - 1).copied()
}

/// The highest of the percentiles 50, 90, 99 and 99.9 that still has at
/// least ten of `n` samples beyond it (`None` below twenty samples): a
/// tail figure worth reporting has enough samples to be more than one
/// outlier.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Per-mille integers keep the "ten beyond" count exact.
    [999, 990, 900, 500]
        .into_iter()
        .find(|&per_mille| n * (1000 - per_mille) / 1000 >= 10)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// Share of attempted operations that failed.
pub fn failed_share(attempted: u64, failed: u64) -> f64 {
    assert!(failed <= attempted, "more failures than attempts");
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    (1..=64).contains(&bytes.len())
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(summarize(&[3.0, 1.0, 2.0]).unwrap().median, 2.0);
        assert_eq!(summarize(&[4.0, 1.0, 3.0, 2.0]).unwrap().median, 2.5);
        assert_eq!(summarize(&[7.5]).unwrap().median, 7.5);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        let s = summarize(&[6.0]).unwrap();
        assert_eq!((s.q1, s.q3), (6.0, 6.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 100.0), Some(100.0));
        assert_eq!(percentile(&[4.0], 99.0), Some(4.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // At the chosen percentile at least ten samples lie strictly above it.
        for n in [20, 100, 1000, 10_000] {
            let values: Vec<f64> = (1..=n).map(|v| v as f64).collect();
            let cut = percentile(&values, tail_percentile(n).unwrap()).unwrap();
            assert!(values.iter().filter(|&&v| v > cut).count() >= 10, "n = {n}");
        }
    }

    #[test]
    fn failed_share_counts_against_attempts() {
        assert_eq!(failed_share(0, 0), 0.0);
        assert_eq!(failed_share(200, 0), 0.0);
        assert_eq!(failed_share(200, 50), 0.25);
        assert_eq!(failed_share(7, 7), 1.0);
    }

    #[test]
    #[should_panic(expected = "more failures than attempts")]
    fn failed_share_rejects_impossible_counts() {
        let _ = failed_share(1, 2);
    }

    #[test]
    fn metric_names() {
        for ok in [
            "setup_s",
            "sim.run_s.warmup",
            "a",
            "9-lives",
            &"x".repeat(64),
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ü", "a:b", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
