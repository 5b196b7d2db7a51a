//! Prediction-accuracy and descriptive statistics used by the Fig. 3
//! reproduction and the EXPERIMENTS.md reporting.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Root-mean-square error between two equal-length series.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn rmse(actual: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(actual.len(), predicted.len(), "rmse: length mismatch");
    if actual.is_empty() {
        return 0.0;
    }
    (actual
        .iter()
        .zip(predicted)
        .map(|(a, p)| (a - p).powi(2))
        .sum::<f64>()
        / actual.len() as f64)
        .sqrt()
}

/// Mean absolute percentage error (%), skipping points where
/// `|actual| < floor` to avoid division blow-ups on near-zero workload.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mape(actual: &[f64], predicted: &[f64], floor: f64) -> f64 {
    assert_eq!(actual.len(), predicted.len(), "mape: length mismatch");
    let mut total = 0.0;
    let mut count = 0usize;
    for (a, p) in actual.iter().zip(predicted) {
        if a.abs() >= floor {
            total += ((a - p) / a).abs();
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        100.0 * total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_and_nonempty() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn rmse_of_identical_series_is_zero() {
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(rmse(&[], &[]), 0.0);
    }

    #[test]
    fn rmse_matches_hand_computation() {
        // Errors 3 and 4 → RMSE = sqrt((9+16)/2).
        let v = rmse(&[0.0, 0.0], &[3.0, 4.0]);
        assert!((v - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mape_skips_near_zero_actuals() {
        let v = mape(&[0.0, 100.0], &[50.0, 110.0], 1.0);
        assert!((v - 10.0).abs() < 1e-12);
    }

    #[test]
    fn mape_of_perfect_prediction_is_zero() {
        assert_eq!(mape(&[10.0, 20.0], &[10.0, 20.0], 1.0), 0.0);
        assert_eq!(mape(&[0.0], &[5.0], 1.0), 0.0); // all skipped
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rmse_validates_lengths() {
        rmse(&[1.0], &[1.0, 2.0]);
    }
}
