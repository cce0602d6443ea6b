//! The one way the experiments time a ratio.
//!
//! K configurations (configuration 0 is the base) are sampled in rounds:
//! one warm-up round that is thrown away, then rounds in order 0..K on
//! even rounds and K..0 on odd ones, so that no configuration always
//! runs first or last after another. Each configuration's row is its
//! median rate and the median of its per-round ratio to configuration 0,
//! with that ratio's interquartile range. A drift in host speed slows
//! every configuration of a round alike and cancels in the ratio; a
//! burst of load that spoils a few rounds is outvoted by the median.
//!
//! Long-lived systems (engines, nets) are sampled as their rate over one
//! short slice of wall-clock time ([`slice_rate`]); a search is sampled
//! as the rate of one whole search.

use std::time::{Duration, Instant};

/// One configuration's summary over the rounds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timed {
    /// Median rate.
    pub rate: f64,
    /// Median of the per-round ratio to configuration 0's rate.
    pub ratio: f64,
    /// Interquartile range of that per-round ratio.
    pub iqr: f64,
}

impl Timed {
    /// The cost over configuration 0 in percent: `(1 - ratio) · 100`.
    pub fn overhead_pct(&self) -> f64 {
        (1.0 - self.ratio) * 100.0
    }
}

/// Time `k` configurations over `rounds` rounds after one warm-up round;
/// `sample(c)` returns configuration `c`'s rate.
pub fn alternate(k: usize, rounds: usize, mut sample: impl FnMut(usize) -> f64) -> Vec<Timed> {
    summarize(&sample_rounds(k, rounds, &mut sample))
}

/// The timing loop of [`alternate`]: per round, every configuration's
/// rate, indexed by configuration.
fn sample_rounds(k: usize, rounds: usize, sample: &mut impl FnMut(usize) -> f64) -> Vec<Vec<f64>> {
    for c in 0..k {
        sample(c);
    }
    (0..rounds)
        .map(|r| {
            let mut rates = vec![0.0; k];
            for i in 0..k {
                let c = if r % 2 == 0 { i } else { k - 1 - i };
                rates[c] = sample(c);
            }
            rates
        })
        .collect()
}

/// The summary step of [`alternate`]: per configuration, the median rate
/// and the median and interquartile range of its per-round ratio to
/// configuration 0.
fn summarize(rounds: &[Vec<f64>]) -> Vec<Timed> {
    let k = rounds.first().map_or(0, Vec::len);
    (0..k)
        .map(|c| {
            let rates: Vec<f64> = rounds.iter().map(|r| r[c]).collect();
            let ratios: Vec<f64> = rounds.iter().map(|r| r[c] / r[0]).collect();
            Timed {
                rate: quantile(&rates, 0.5),
                ratio: quantile(&ratios, 0.5),
                iqr: quantile(&ratios, 0.75) - quantile(&ratios, 0.25),
            }
        })
        .collect()
}

/// The `q`-quantile of `xs`, interpolating linearly between order
/// statistics (so the median of an even count is the mean of the middle
/// two).
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Steps per chunk of a [`slice_rate`] sample.
const CHUNK: u64 = 100;

/// Steps/sec over one `slice` of a long-lived system that `step(n)`
/// advances by `n` steps: chunks of `CHUNK` steps until `slice` has
/// elapsed (always at least one chunk).
pub fn slice_rate<R>(slice: Duration, mut step: impl FnMut(u64) -> R) -> f64 {
    let start = Instant::now();
    let mut steps = 0u64;
    loop {
        step(CHUNK);
        steps += CHUNK;
        let elapsed = start.elapsed();
        if elapsed >= slice {
            return steps as f64 / elapsed.as_secs_f64();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_warm_up_round_precedes_alternating_rounds() {
        let mut calls = Vec::new();
        let rounds = sample_rounds(3, 4, &mut |c| {
            calls.push(c);
            1.0
        });
        assert_eq!(
            calls,
            [0, 1, 2, /* warm-up */ 0, 1, 2, 2, 1, 0, 0, 1, 2, 2, 1, 0]
        );
        assert_eq!(rounds, vec![vec![1.0; 3]; 4]);
    }

    #[test]
    fn summary_is_exact_on_fixed_rates() {
        // Base 100 in every round; the other configuration reads 90, 80,
        // 100, 50 and 95: ratios 0.9, 0.8, 1.0, 0.5 and 0.95.
        let rounds: Vec<Vec<f64>> = [90.0, 80.0, 100.0, 50.0, 95.0]
            .iter()
            .map(|&x| vec![100.0, x])
            .collect();
        let [base, other] = summarize(&rounds)[..] else {
            panic!("two configurations")
        };
        assert_eq!(
            base,
            Timed {
                rate: 100.0,
                ratio: 1.0,
                iqr: 0.0
            }
        );
        assert_eq!(other.rate, 90.0);
        assert_eq!(other.ratio, 0.9);
        // Sorted ratios 0.5, 0.8, 0.9, 0.95, 1.0: quartiles 0.8 and 0.95.
        assert!((other.iqr - 0.15).abs() < 1e-12, "{}", other.iqr);
        assert!((other.overhead_pct() - 10.0).abs() < 1e-12);
        // An even count interpolates: the median of 1, 2, 3, 4 is 2.5.
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.25), 1.75);
    }

    #[test]
    fn a_common_per_round_factor_cancels() {
        // The host's speed swings by up to 8x from round to round; a
        // configuration that always runs at 0.9x of the base reads 0.9
        // exactly, with no spread. The factors are powers of two, so every
        // product is exact; any other factor moves a ratio by an ulp.
        let drift = [1.0, 0.5, 4.0, 0.25, 2.0, 0.125, 8.0];
        let rounds: Vec<Vec<f64>> = drift.iter().map(|&d| vec![1000.0 * d, 900.0 * d]).collect();
        let timed = summarize(&rounds);
        assert_eq!(timed[1].ratio, 0.9);
        assert_eq!(timed[1].iqr, 0.0);
        assert_eq!(timed[0].rate, 1000.0);
        let drift = [1.0, 0.7, 3.0, 0.3, 1.7, 0.37, 2.2];
        let rounds: Vec<Vec<f64>> = drift.iter().map(|&d| vec![1000.0 * d, 900.0 * d]).collect();
        let timed = summarize(&rounds);
        assert!((timed[1].ratio - 0.9).abs() < 1e-15 && timed[1].iqr < 1e-15);
    }
}
