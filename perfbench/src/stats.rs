//! Order statistics over latency samples.

/// A tail percentile is reported only when at least this many samples
/// were taken, so that ten samples lie beyond the 90th percentile.
pub const P90_MIN_SAMPLES: usize = 100;

/// Refusal to report a percentile from too few samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples taken.
    pub have: usize,
    /// Samples the percentile needs.
    pub need: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; 0 for no samples (a layer the workload never calls).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The 90th percentile by nearest rank, refused below
/// [`P90_MIN_SAMPLES`] samples.
pub fn p90(values: &[f64]) -> Result<f64, TooFewSamples> {
    if values.len() < P90_MIN_SAMPLES {
        return Err(TooFewSamples {
            have: values.len(),
            need: P90_MIN_SAMPLES,
        });
    }
    let v = sorted(values);
    let rank = (0.9 * v.len() as f64).ceil() as usize;
    Ok(v[rank - 1])
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_refuses_fewer_than_one_hundred_samples() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(
            p90(&few),
            Err(TooFewSamples {
                have: 99,
                need: 100
            })
        );
        let enough: Vec<f64> = (0..100).map(f64::from).collect();
        // Nearest rank 90 of 100: ten samples lie beyond it.
        assert_eq!(p90(&enough), Ok(89.0));
        assert_eq!(enough.iter().filter(|&&x| x > 89.0).count(), 10);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
