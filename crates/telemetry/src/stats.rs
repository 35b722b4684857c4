//! Summary statistics used throughout the detectors and evaluation harness.

/// Arithmetic mean of a slice. Returns 0.0 for an empty slice so callers in
/// hot monitoring loops don't have to branch on emptiness.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (biased, `1/n`). Detectors compare variances of the
/// same window length, so the bias term cancels.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Percentile via linear interpolation on a sorted copy.
///
/// `p` is in `[0, 100]`. Used for the 99th-percentile rule when shrinking a
/// non-tunable buffer knob during maintenance windows (§4).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = p.clamp(0.0, 100.0) / 100.0;
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_and_variance_match_hand_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((stddev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_of_unsorted_input() {
        let xs = [9.0, 1.0, 5.0];
        assert!((percentile(&xs, 50.0) - 5.0).abs() < 1e-12);
    }
}
