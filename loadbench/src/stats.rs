//! Order statistics for latency samples.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0..=1`) of `sorted` (ascending), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    if sorted.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of a small set (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&ramp(1000), 0.9), Some(900.0));
        assert_eq!(percentile(&[], 0.9), None);
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
