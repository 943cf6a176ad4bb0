//! Order statistics shared by the run report and the steadiness report.

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so the steadiness report reads
/// the same spread as a script computing it from the printed values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        n => {
            // Python's formula verbatim: one-based position (n + 1) * k / 4,
            // index clamped to 1..n-1, weight taken after the clamp.
            let at = |k: usize| {
                let m = (n + 1) * k;
                let j = (m / 4).clamp(1, n - 1);
                let delta = m as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            let mid = if n % 2 == 1 {
                v[n / 2]
            } else {
                (v[n / 2 - 1] + v[n / 2]) / 2.0
            };
            (at(1), mid, at(3))
        }
    }
}

/// Nearest-rank quantile `q` of an ascending `sorted` slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), q)]
}

/// Zero-based nearest-rank index of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The tail quantiles offered, highest last: 0.5, then one more nine at a
/// time.
const TAIL_LADDER: [f64; 6] = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999];

/// Samples that must lie beyond a reported tail quantile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest quantile on the ladder with at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond its nearest-rank index,
/// or `None` when even the median has fewer.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&q| n > 0 && n - 1 - rank(n, q) >= TAIL_MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn tail_picker_returns_highest_quantile_with_ten_beyond() {
        // 20 samples: p50 has 10 beyond (index 9 of 0..20), p90 has 2.
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(19), None);
        // 100 samples: p90 has index 89, 10 beyond; p99 has 1.
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(20_000), Some(0.999));
        // The chosen quantile really leaves >= 10 samples beyond it, and
        // the next one up does not.
        for n in [20, 57, 100, 999, 1000, 1009, 5000, 123_456] {
            let q = tail_quantile(n).unwrap();
            assert!(n - 1 - rank(n, q) >= TAIL_MIN_BEYOND, "n={n} q={q}");
            if let Some(&next) = TAIL_LADDER.iter().find(|&&x| x > q) {
                assert!(n - 1 - rank(n, next) < TAIL_MIN_BEYOND, "n={n} next={next}");
            }
        }
    }

    #[test]
    fn nearest_rank_quantile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
    }
}
