//! Order statistics for timing samples.

/// Percentiles tried for the tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it may be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let s = sorted(samples);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// A tail percentile: its value, which percentile it is and how many
/// samples it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `90.0`.
    pub percentile: f64,
    /// The nearest-rank sample at that percentile.
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
    /// Total samples.
    pub count: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, or `None` when even the median
/// has fewer (under 20 samples). Nearest-rank: the `p`-th percentile is
/// the sample at rank `ceil(p/100 · n)`.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let s = sorted(samples);
    let n = s.len();
    TAIL_LADDER.iter().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let beyond = n.checked_sub(rank)?;
        (rank >= 1 && beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: s[rank - 1],
            beyond,
            count: n,
        })
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn no_tail_below_twenty_samples() {
        let xs: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
    }

    #[test]
    fn twenty_samples_give_the_median_with_ten_beyond() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&xs).expect("20 samples qualify for p50");
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.value, 10.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.count, 20);
    }

    #[test]
    fn tail_climbs_the_ladder_with_more_samples() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs).expect("100 samples qualify");
        assert_eq!((t.percentile, t.value, t.beyond, t.count), (90.0, 90.0, 10, 100));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).expect("1000 samples qualify");
        assert_eq!((t.percentile, t.beyond), (99.0, 10));
    }

    #[test]
    fn every_reported_tail_has_ten_samples_beyond() {
        for n in 1..400 {
            let xs: Vec<f64> = (0..n).map(|i| f64::from(i * 7 % 13)).collect();
            if let Some(t) = tail(&xs) {
                let s = sorted(&xs);
                let rank = ((t.percentile / 100.0) * n as f64).ceil() as usize;
                assert_eq!(s[rank - 1], t.value);
                assert!(n as usize - rank >= TAIL_MIN_BEYOND, "n={n}: {t:?}");
                assert_eq!(t.count, n as usize);
            } else {
                assert!(n < 20, "n={n} should qualify for at least p50");
            }
        }
    }
}
