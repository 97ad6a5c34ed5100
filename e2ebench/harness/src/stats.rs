//! Order statistics shared by every workload: one timing summary routine, so
//! every reported median and tail is computed the same way.

/// Median of `samples` (mean of the two middle values for an even count);
/// `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The tail of `samples`: the 90th percentile when at least ten samples lie
/// beyond it, else the highest percentile that still has ten beyond it,
/// else (fewer than 11 samples) the maximum. Capping at p90 keeps ten times
/// more samples beyond the tail at the seed's sample counts, so it reads the
/// same from run to run on a noisy host. Returns `(value, percentile)`;
/// `(0.0, 0.0)` for no samples.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let sorted = sorted(samples);
    let n = sorted.len();
    if n < 11 {
        return (sorted[n - 1], 100.0);
    }
    // 1-based nearest rank of p90, but never fewer than ten samples beyond.
    let rank = ((0.9 * n as f64).ceil() as usize).min(n - 10);
    (sorted[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// The `q`-quantile (`0.0..=1.0`) by nearest rank; `0.0` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
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
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_p90_with_at_least_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&samples), (90.0, 90.0));
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&big), (900.0, 90.0));
        let small: Vec<f64> = (1..=50).map(f64::from).collect();
        let (value, pct) = tail(&small);
        assert_eq!(small.iter().filter(|&&s| s > value).count(), 10);
        assert_eq!(pct, 80.0);
        assert_eq!(tail(&[5.0, 1.0]), (5.0, 100.0));
    }

    #[test]
    fn quantile_by_nearest_rank() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), 5.0);
        assert_eq!(quantile(&samples, 0.99), 10.0);
    }
}
