//! Order statistics over latency samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` sorted samples is the sample at 1-based rank `ceil(p/100 · n)`. A
//! tail percentile is only reported when at least ten samples lie beyond
//! it, so a single outlier can never be the reported value.

/// Fewest samples strictly above a reported percentile.
pub const TAIL_SUPPORT: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending), `p` in `(0, 100]`.
/// `None` on an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank percentile, withheld unless at least [`TAIL_SUPPORT`]
/// samples lie beyond its rank. For p99 that means 1000 samples or more.
pub fn supported_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    if sorted.len().saturating_sub(rank) < TAIL_SUPPORT {
        return None;
    }
    nearest_rank(sorted, p)
}

/// Median by nearest rank (the lower middle sample for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50.0)
}

/// Sorted copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let five = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&five, 5.0), Some(15.0));
        assert_eq!(nearest_rank(&five, 30.0), Some(20.0));
        assert_eq!(nearest_rank(&five, 40.0), Some(20.0));
        assert_eq!(nearest_rank(&five, 50.0), Some(35.0));
        assert_eq!(nearest_rank(&five, 100.0), Some(50.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 999 samples: rank 990, nine beyond — withheld.
        assert_eq!(supported_percentile(&ramp(999), 99.0), None);
        // 1000 samples: rank 990, exactly ten beyond — reported.
        assert_eq!(supported_percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(supported_percentile(&ramp(5000), 99.0), Some(4950.0));
        // The median of a small run is always supported.
        assert_eq!(supported_percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(supported_percentile(&ramp(19), 50.0), None);
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
