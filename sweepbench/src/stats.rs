//! Order statistics for the sweep timings, and the sample-count rule.

/// Fewest timed sweeps for which a p90 is reported: ten samples must lie
/// beyond it.
pub const P90_MIN_SWEEPS: usize = 100;

/// Linear-interpolation percentile (`q` in `[0, 1]`) of unsorted samples.
///
/// # Panics
///
/// Panics when `samples` is empty or holds a NaN.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The p90 of the sweep times, or `None` when fewer than
/// [`P90_MIN_SWEEPS`] sweeps were timed.
pub fn sweep_p90(samples: &[f64]) -> Option<f64> {
    (samples.len() >= P90_MIN_SWEEPS).then(|| percentile(samples, 0.9))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert!((percentile(&[0.0, 1.0], 0.25) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&a, 0.9), percentile(&b, 0.9));
    }

    #[test]
    fn p90_needs_one_hundred_sweeps() {
        let short: Vec<f64> = (0..P90_MIN_SWEEPS - 1).map(|i| i as f64).collect();
        assert_eq!(sweep_p90(&short), None);
        let enough: Vec<f64> = (0..P90_MIN_SWEEPS).map(|i| i as f64).collect();
        let p90 = sweep_p90(&enough).expect("100 sweeps are enough");
        assert!((p90 - 89.1).abs() < 1e-9);
        // Ten samples lie strictly beyond it.
        assert_eq!(enough.iter().filter(|&&x| x > p90).count(), 10);
    }

    #[test]
    #[should_panic(expected = "percentile of no samples")]
    fn percentile_rejects_empty_input() {
        percentile(&[], 0.5);
    }
}
