//! Order statistics over timing samples.

/// Fewest samples a p90 may be taken from: with 100 samples, ten lie
/// beyond it.
pub const MIN_P90_SAMPLES: usize = 100;

/// Median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The `p`-th percentile by linear interpolation between closest ranks
/// (rank `p/100 · (n − 1)`). `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// The 90th percentile, refused from fewer than [`MIN_P90_SAMPLES`]
/// samples: fewer than ten samples would lie beyond it.
pub fn p90(values: &[f64]) -> Result<f64, String> {
    if values.len() < MIN_P90_SAMPLES {
        return Err(format!("p90 needs at least {MIN_P90_SAMPLES} samples, got {}", values.len()));
    }
    Ok(percentile(values, 90.0).expect("non-empty"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_over_rounds_ignores_one_outlier_round() {
        let rounds = [1.00, 1.02, 0.99, 9.0, 1.01];
        assert_eq!(median(&rounds), Some(1.01));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), Some(0.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&[1.0, 2.0], 90.0), Some(1.9));
    }

    #[test]
    fn p90_refuses_fewer_than_100_samples() {
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(p90(&v).is_err());
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = p90(&v).unwrap();
        assert!((p - 90.1).abs() < 1e-9, "{p}");
    }
}
