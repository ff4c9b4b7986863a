//! The one percentile rule every latency metric uses, plus small
//! summary helpers.

use std::time::Duration;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to count as a tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The tail percentile for `n` samples: the highest rung of the ladder
/// with at least [`TAIL_MIN_BEYOND`] samples beyond it. Below 20
/// samples no rung qualifies and the median stands in.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n - rank(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0)
}

/// A latency distribution summarised by the rule above.
#[derive(Clone, Copy, Debug)]
pub struct Latency {
    pub p50_ms: f64,
    pub tail_ms: f64,
    /// Which percentile `tail_ms` is.
    pub tail_pct: f64,
    pub samples: usize,
}

impl Latency {
    pub fn of(samples: &[Duration]) -> Latency {
        let mut ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(ms.len());
        Latency {
            p50_ms: percentile(&ms, 50.0),
            tail_ms: percentile(&ms, tail_pct),
            tail_pct,
            samples: ms.len(),
        }
    }
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(400), 97.5);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(20_000), 99.9);
        assert_eq!(tail_percentile(12), 50.0);
        for n in [20, 57, 100, 399, 1_000, 2_345] {
            let p = tail_percentile(n);
            assert!(n - rank(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
