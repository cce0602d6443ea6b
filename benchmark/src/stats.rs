//! Statistics helpers: medians and quartiles of per-segment rates,
//! tail percentiles that are only reported when enough samples lie
//! beyond them, and regression bounds with absolute floors.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), so a spread printed here matches one computed from the
/// printed values. A single sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let s = sorted(values);
    if s.len() == 1 {
        return (s[0], s[0]);
    }
    let m = s.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median (0 for one sample).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The 90th percentile (nearest rank) of per-segment rates: the rate the
/// code sustains while the host leaves it alone. On a shared host the
/// slow segments measure neighbours, so the upper decile varies far less
/// between runs than the median does. With fewer than ten segments this
/// is the fastest one.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn p90(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "p90 of no samples");
    let s = sorted(values);
    let rank = (0.9 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The 10th percentile (nearest rank) of repeated timings, the mirror of
/// [`p90`] for times: the fastest decile of set-ups. With fewer than ten
/// samples this is the fastest one.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn p10(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "p10 of no samples");
    let s = sorted(values);
    let rank = (0.1 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Samples that must lie strictly above a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (nearest rank) of ascending `sorted`, or `None`
/// when fewer than [`TAIL_SAMPLES`] samples lie beyond it: a p99 of 200
/// samples rests on two values and is not reported.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let rank = rank.min(sorted.len());
    (sorted.len() - rank >= TAIL_SAMPLES).then(|| sorted[rank - 1])
}

/// The highest of `p`, 95, 90, 75 and 50 that [`percentile`] supports
/// for `sorted`, with its value; `None` below 20 samples.
pub fn tail(sorted: &[u64], p: f64) -> Option<(f64, u64)> {
    [p, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .filter(|&q| q <= p)
        .find_map(|q| percentile(sorted, q).map(|v| (q, v)))
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (rates).
    Higher,
}

/// How far a metric may worsen before it counts as a regression: a share
/// of the baseline, or an absolute floor when that is larger (so a 40 ms
/// set-up may move by the floor, not by 4 ms).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    /// Allowed worsening as a share of the baseline value.
    pub rel: f64,
    /// Allowed worsening in the metric's own unit, whatever the baseline.
    pub floor: f64,
}

impl Bound {
    /// The worsening `current` shows against `base`, in the metric's unit
    /// (negative when it improved).
    pub fn worsening(better: Better, base: f64, current: f64) -> f64 {
        match better {
            Better::Lower => current - base,
            Better::Higher => base - current,
        }
    }

    /// Whether `current` is within this bound of `base`.
    pub fn holds(&self, better: Better, base: f64, current: f64) -> bool {
        let allowed = (self.rel * base.abs()).max(self.floor);
        Self::worsening(better, base, current) <= allowed
    }
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
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), (15.0, 45.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates beyond the data.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn spread_of_segment_rates() {
        let rates = [
            100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0,
        ];
        let s = spread(&rates);
        assert!(s > 0.0 && s < 0.05, "{s}");
        assert_eq!(spread(&[5.0; 4]), 0.0);
    }

    #[test]
    fn p90_of_segment_rates() {
        let rates: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p90(&rates), 90.0);
        assert_eq!(
            p90(&[3.0, 9.0, 1.0, 4.0, 5.0]),
            9.0,
            "few segments: the fastest"
        );
        assert_eq!(p90(&[2.0]), 2.0);
        assert_eq!(p10(&rates), 10.0);
        assert_eq!(p10(&[3.0, 9.0, 1.0]), 1.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 90.0), Some(90), "exactly ten beyond");
        assert_eq!(percentile(&v, 95.0), None, "only five beyond");
        assert_eq!(percentile(&v, 99.0), None);
        let big: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&big, 99.0), Some(990));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&v, 99.0), Some((90.0, 90)));
        let big: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&big, 99.0), Some((99.0, 990)));
        assert_eq!(tail(&(1..=15).collect::<Vec<u64>>(), 99.0), None);
    }

    #[test]
    fn bounds_are_relative_with_absolute_floors() {
        // setup_s: +10% or +0.05 s, whichever is larger.
        let setup = Bound {
            rel: 0.10,
            floor: 0.05,
        };
        assert!(setup.holds(Better::Lower, 0.80, 0.87));
        assert!(!setup.holds(Better::Lower, 0.80, 0.89));
        assert!(setup.holds(Better::Lower, 0.01, 0.055), "floor applies");
        assert!(!setup.holds(Better::Lower, 0.01, 0.07));
        assert!(setup.holds(Better::Lower, 0.80, 0.10), "improvement");
        // steps_per_s: -10%, no floor.
        let rate = Bound {
            rel: 0.10,
            floor: 0.0,
        };
        assert!(rate.holds(Better::Higher, 1000.0, 905.0));
        assert!(!rate.holds(Better::Higher, 1000.0, 899.0));
        assert!(rate.holds(Better::Higher, 1000.0, 5000.0));
        assert_eq!(Bound::worsening(Better::Higher, 10.0, 8.0), 2.0);
    }
}
