//! Order statistics for the benchmark's reported figures.
//!
//! Percentiles use the nearest-rank definition: the p-th percentile of
//! `n` sorted samples is the sample at rank `ceil(p/100 · n)` (1-based).
//! A tail percentile is reported only when at least [`MIN_TAIL`]
//! samples lie strictly beyond its rank, so p90 needs 100 samples.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL: usize = 10;

/// Median (mean of the two middle samples for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank rank (1-based) of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p <= 100) together with the number
/// of samples beyond it. `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    let sorted = sorted(samples);
    let r = rank(p, sorted.len());
    Some((sorted[r - 1], sorted.len() - r))
}

/// Percentile `p`, but only when at least [`MIN_TAIL`] samples lie
/// beyond it; otherwise the sample is too small to support it.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    percentile(samples, p).and_then(|(v, beyond)| (beyond >= MIN_TAIL).then_some(v))
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n so sorting is exercised.
        (0..n).map(|i| ((i * 37) % n + 1) as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), Some((50.0, 50)));
        assert_eq!(percentile(&s, 90.0), Some((90.0, 10)));
        assert_eq!(percentile(&[7.0], 90.0), Some((7.0, 0)));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 samples: rank 90, exactly 10 beyond — reported.
        assert_eq!(tail_percentile(&ramp(100), 90.0), Some(90.0));
        // 99 samples: rank 90, only 9 beyond — withheld.
        assert_eq!(tail_percentile(&ramp(99), 90.0), None);
        assert_eq!(tail_percentile(&ramp(20), 90.0), None);
        // The median of 20 samples has 10 beyond it.
        assert_eq!(tail_percentile(&ramp(20), 50.0), Some(10.0));
        // Ties do not change the rule: the count is by rank.
        let flat = vec![1.0; 100];
        assert_eq!(tail_percentile(&flat, 90.0), Some(1.0));
    }
}
