//! Order statistics over timing samples.

/// The percentiles a tail may be reported at, lowest first.
const TAIL_LEVELS: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// The nearest rank (1-based) of quantile `q` among `n` samples. The small
/// slack keeps `0.99 × 1000` at rank 990 despite rounding in `0.99`.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Value at quantile `q` of `sorted` (nearest rank), or `None` when empty.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(q, sorted.len()) - 1])
}

/// Sort a copy of `samples`.
#[must_use]
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (0 when empty).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5).unwrap_or(0.0)
}

/// The highest reportable tail percentile for `n` samples: the highest of
/// p50, p90, p99, p99.9 and p99.99 that leaves at least ten samples beyond
/// it. `None` when even the median has fewer than ten samples above it.
#[must_use]
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LEVELS
        .iter()
        .copied()
        .rev()
        .find(|&q| n >= 10 && n - rank(q, n) >= 10)
}

/// Median, p90, p99 and the highest reportable tail of one sample set.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile; `None` when fewer than ten samples lie beyond it.
    pub p90: Option<f64>,
    /// 99th percentile; `None` when fewer than ten samples lie beyond it.
    pub p99: Option<f64>,
    /// The highest tail percentile level with ten samples beyond it, and its
    /// value.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise `samples`.
    #[must_use]
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        let level = tail_level(s.len()).unwrap_or(0.0);
        let upto = |q: f64| (level >= q).then(|| quantile(&s, q)).flatten();
        Summary {
            n: s.len(),
            p50: quantile(&s, 0.5).unwrap_or(0.0),
            p90: upto(0.9),
            p99: upto(0.99),
            tail: quantile(&s, level)
                .filter(|_| level > 0.0)
                .map(|v| (level, v)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_level_needs_ten_samples_beyond_it() {
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(0.5));
        assert_eq!(tail_level(99), Some(0.5));
        assert_eq!(tail_level(100), Some(0.9));
        assert_eq!(tail_level(999), Some(0.9));
        assert_eq!(tail_level(1000), Some(0.99));
        assert_eq!(tail_level(9_999), Some(0.99));
        assert_eq!(tail_level(10_000), Some(0.999));
        assert_eq!(tail_level(100_000), Some(0.9999));
        assert_eq!(tail_level(10_000_000), Some(0.9999));
    }

    #[test]
    fn summary_reports_p99_only_when_it_is_supported() {
        let small: Vec<f64> = (1..=500).map(f64::from).collect();
        let s = Summary::of(&small);
        assert_eq!(s.p90, Some(450.0));
        assert_eq!(s.p99, None);
        assert_eq!(s.tail, Some((0.9, 450.0)));
        let large: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&large);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p99, Some(990.0));
        assert_eq!(s.tail, Some((0.99, 990.0)));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), Some(2.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
