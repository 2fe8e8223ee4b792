//! Order statistics with the percentile rule the benchmark holds itself
//! to: a percentile is reported only when at least [`MIN_TAIL`] samples
//! lie beyond it, so a tail figure never rests on one or two outliers.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Sorts a copy of `xs` (total order, so NaN cannot scramble it).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for even counts).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `q` (in `(0, 1)`) of `xs`, refused with an
/// explanation when fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(xs: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q < 1.0, "percentile rank must lie in (0, 1)");
    let n = xs.len();
    // Nearest rank: the smallest sample with at least q·n samples at or
    // below it.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_TAIL {
        return Err(format!(
            "p{:.0} needs at least {MIN_TAIL} samples beyond it; {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    Ok(sorted(xs)[rank - 1])
}

/// Geometric mean of strictly positive values; `None` when empty or
/// when any value is not positive and finite.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| !(x > 0.0 && x.is_finite())) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 samples: rank 90, ten samples (91..=100) above it.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Ok(90.0));
        // 99 samples: rank ceil(89.1) = 90 leaves only nine beyond.
        let err = percentile(&xs[..99], 0.9).unwrap_err();
        assert!(err.contains("leave 9"), "{err}");
        // Far too few samples are refused, never reported.
        assert!(percentile(&[1.0, 2.0, 3.0], 0.9).is_err());
        assert!(percentile(&[], 0.9).is_err());
    }

    #[test]
    fn p50_follows_the_same_rule() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Ok(10.0));
        assert!(percentile(&xs[..19], 0.5).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        xs.reverse();
        assert_eq!(percentile(&xs, 0.9), Ok(180.0));
    }

    #[test]
    fn geomean_weights_every_value_equally() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }
}
