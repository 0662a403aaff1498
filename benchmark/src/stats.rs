//! Order statistics the benchmark reports: medians, nearest-rank
//! percentiles, the "highest percentile the sample supports" rule, and the
//! quartile spread the acceptance check is written in.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty slice.
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

/// Nearest-rank percentile (`p` in 1..=100) of `values`; 0 for an empty
/// slice.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n)
}

/// The highest percentile of `ladder` with at least [`TAIL_SUPPORT`]
/// samples beyond it among `n` samples, if any.
pub fn supported_percentile(n: usize, ladder: &[u32]) -> Option<u32> {
    ladder
        .iter()
        .copied()
        .filter(|&p| n > 0 && n - rank(n, p) >= TAIL_SUPPORT)
        .max()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; needs at least two values.
fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the acceptance rule compares with a bound. A
/// single value has no spread.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1).abs() / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 95), 95.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[7.0], 95), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ladder = [50, 90, 95, 99];
        // 8 batch ops support nothing, not even the median.
        assert_eq!(supported_percentile(8, &ladder), None);
        assert_eq!(supported_percentile(20, &ladder), Some(50));
        assert_eq!(supported_percentile(100, &ladder), Some(90));
        // p95 of 199 is rank 190: nine beyond. Of 200 it is rank 190: ten.
        assert_eq!(supported_percentile(199, &ladder), Some(90));
        assert_eq!(supported_percentile(200, &ladder), Some(95));
        assert_eq!(supported_percentile(999, &ladder), Some(95));
        assert_eq!(supported_percentile(1000, &ladder), Some(99));
        assert_eq!(supported_percentile(0, &ladder), None);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }
}
