//! The metric arithmetic: medians, geometric means and shares, kept apart
//! from the measuring code so it can be tested on fixed numbers.

/// The median of `values` (the mean of the two middle values for an even
/// count). Panics on an empty slice: every metric has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The geometric mean of strictly positive `values`, so that one slow
/// benchmark does not drown the small ones.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no samples");
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geometric mean needs positive samples: {values:?}"
    );
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// `part / whole`, or `empty` when nothing was attempted.
pub fn ratio(part: u64, whole: u64, empty: f64) -> f64 {
    if whole == 0 {
        empty
    } else {
        part as f64 / whole as f64
    }
}

/// The share of attempted benchmarks that were solved *and* validated.
/// A known-red benchmark that ends `no_solution` is an expected outcome
/// but still counts against the share.
pub fn solved_share(solved_and_validated: usize, attempted: usize) -> f64 {
    assert!(attempted > 0, "solved share of no attempts");
    solved_and_validated as f64 / attempted as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn geomean_is_scale_invariant_and_ignores_order() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[100.0, 1.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        // Doubling every sample doubles the mean.
        let base = geomean(&[0.01, 0.5, 16.0]);
        assert!((geomean(&[0.02, 1.0, 32.0]) - 2.0 * base).abs() < 1e-12);
    }

    #[test]
    fn geomean_weighs_small_benchmarks_equally() {
        // A 10x speed-up of the one small benchmark moves the geometric
        // mean as much as a 10x speed-up of the one large benchmark.
        let small_faster = geomean(&[0.001, 10.0]);
        let large_faster = geomean(&[0.01, 1.0]);
        assert!((small_faster - large_faster).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero_samples() {
        geomean(&[0.0, 1.0]);
    }

    #[test]
    fn solved_share_counts_known_red_as_unsolved() {
        // vc-frontier: two solvable benchmarks plus the known-red pair.
        assert_eq!(solved_share(2, 4), 0.5);
        assert_eq!(solved_share(12, 12), 1.0);
        // Three passes over the same four benchmarks.
        assert_eq!(solved_share(6, 12), 0.5);
    }

    #[test]
    fn ratio_falls_back_on_an_empty_base() {
        assert_eq!(ratio(3, 4, 0.0), 0.75);
        assert_eq!(ratio(0, 0, 1.0), 1.0);
    }
}
