//! Percentiles and the replicate estimators (best / median of identical
//! replicates), plus the spread figures the report prints next to them.

/// Which direction is good for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of an ascending slice, by linear
/// interpolation between the two nearest order statistics.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 0.5)
}

/// The best replicate. The noise on a shared box comes in bursts that only
/// ever add time, so the fastest of identical replicates is the least
/// disturbed one. Every timing is folded this way, over the smallest unit
/// that is replayed identically (a query, a capture item, a set-up call); the
/// median window is kept as a layer metric so the distance between the two
/// stays visible.
pub fn best(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "best of no replicates");
    let pick = |a: f64, b: f64| match better {
        Better::Lower => a.min(b),
        Better::Higher => a.max(b),
    };
    values.iter().copied().reduce(pick).expect("non-empty")
}

/// Interquartile range over the median: the run's own view of how far its
/// replicates disagree.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let s = sorted(values);
    let med = percentile_sorted(&s, 0.5);
    if med == 0.0 {
        return 0.0;
    }
    (percentile_sorted(&s, 0.75) - percentile_sorted(&s, 0.25)) / med
}

/// The samples ranked within `±band` of quantile `p`. `samples` is
/// `(latency, tag)`; it is sorted in place.
pub fn quantile_band<T>(samples: &mut [(f64, T)], p: f64, band: f64) -> &[(f64, T)] {
    if samples.is_empty() {
        return samples;
    }
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = samples.len() as f64;
    let lo = ((p - band).max(0.0) * (n - 1.0)).floor() as usize;
    let hi = (((p + band).min(1.0) * (n - 1.0)).ceil() as usize).min(samples.len() - 1);
    &samples[lo..=hi]
}

/// Share of the samples ranked within `±band` of quantile `p` for which
/// `intended` holds.
pub fn class_purity<T: Copy>(
    samples: &mut [(f64, T)],
    p: f64,
    band: f64,
    intended: impl Fn(T) -> bool,
) -> f64 {
    let window = quantile_band(samples, p, band);
    if window.is_empty() {
        return 0.0;
    }
    window.iter().filter(|s| intended(s.1)).count() as f64 / window.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&s, 0.5), 3.0);
        assert_eq!(percentile_sorted(&s, 1.0), 5.0);
        assert_eq!(percentile_sorted(&s, 0.95), 4.8);
        assert_eq!(percentile_sorted(&[7.0], 0.95), 7.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn best_and_median_replicate() {
        let times = [5.0, 3.0, 9.0, 4.0];
        assert_eq!(best(&times, Better::Lower), 3.0);
        assert_eq!(best(&times, Better::Higher), 9.0);
        assert_eq!(median(&times), 4.5);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        // Quartiles of 1..=9 are 3 and 7, median 5.
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(iqr_over_median(&v), 0.8);
        assert_eq!(iqr_over_median(&[2.0]), 0.0);
    }

    #[test]
    fn purity_counts_the_intended_class_around_the_quantile() {
        // 90 fast narrow samples, 10 slow wide ones: p95 sits mid-plateau.
        let mut samples: Vec<(f64, bool)> =
            (0..90).map(|i| (1.0 + i as f64 * 0.001, false)).collect();
        samples.extend((0..10).map(|i| (50.0 + i as f64, true)));
        assert_eq!(class_purity(&mut samples, 0.95, 0.03, |wide| wide), 1.0);
        assert_eq!(class_purity(&mut samples, 0.50, 0.03, |wide| !wide), 1.0);
        // At p90 the band straddles the class boundary.
        let p = class_purity(&mut samples, 0.90, 0.03, |wide| wide);
        assert!(p > 0.3 && p < 0.7, "{p}");
    }
}
