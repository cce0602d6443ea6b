//! Shared experiment scaffolding: topology families, scales, seeds.

use diners_sim::graph::Topology;

/// Experiment scale. `quick` shrinks sweeps and horizons so the full
/// suite can run inside integration tests; `full` is what the reported
/// numbers in EXPERIMENTS.md use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Random seeds per configuration.
    pub seeds: u64,
    /// Step horizon for convergence searches.
    pub horizon: u64,
    /// Steps to let the system settle before measurement windows.
    pub settle: u64,
    /// Measurement window length.
    pub window: u64,
    /// System sizes swept.
    pub sizes: &'static [usize],
    /// Whether this is the reduced test/CI scale; experiments whose
    /// sweeps are not expressed in the fields above shrink on this flag.
    pub quick: bool,
}

impl Scale {
    /// The scale used for the reported experiment tables.
    pub fn full() -> Self {
        Scale {
            seeds: 5,
            horizon: 150_000,
            settle: 30_000,
            window: 60_000,
            sizes: &[8, 16, 32, 64],
            quick: false,
        }
    }

    /// A reduced scale for tests (~seconds).
    pub fn quick() -> Self {
        Scale {
            seeds: 2,
            horizon: 120_000,
            settle: 8_000,
            window: 20_000,
            sizes: &[8, 16],
            quick: true,
        }
    }
}

/// The experiment topology families at a given size.
///
/// The grid uses the closest `w x h` factorization of `n`; the random
/// family is a connected Erdős–Rényi-style graph.
pub fn families(n: usize, seed: u64) -> Vec<Topology> {
    vec![
        Topology::ring(n.max(3)),
        Topology::line(n),
        grid_for(n),
        Topology::random_connected(n, 4.0 / n as f64, seed),
    ]
}

/// The closest-to-square grid with at least `n` processes.
pub fn grid_for(n: usize) -> Topology {
    let mut w = (n as f64).sqrt().floor() as usize;
    w = w.max(1);
    let h = n.div_ceil(w);
    Topology::grid(w, h)
}

/// Median of a (small) sample of optional measurements; `None` entries
/// (no convergence) sort to the end, and the median is `None` when more
/// than half the runs failed to converge.
pub fn median_opt(samples: &mut [Option<u64>]) -> Option<u64> {
    samples.sort_by_key(|s| match s {
        Some(v) => (0u8, *v),
        None => (1, 0),
    });
    samples.get(samples.len() / 2).copied().flatten()
}

/// Maximum of optional samples, treating `None` as failure (yields
/// `None` when any run failed to converge).
pub fn max_opt(samples: &[Option<u64>]) -> Option<u64> {
    let mut best = 0;
    for s in samples {
        match s {
            Some(v) => best = best.max(*v),
            None => return None,
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_differ() {
        assert!(Scale::full().horizon > Scale::quick().horizon);
        assert!(Scale::full().seeds >= Scale::quick().seeds);
    }

    #[test]
    fn families_have_requested_size() {
        for t in families(16, 1) {
            assert!(t.len() >= 16, "{} too small", t.name());
        }
    }

    #[test]
    fn grid_for_covers_n() {
        assert_eq!(grid_for(16).len(), 16);
        assert!(grid_for(15).len() >= 15);
        assert_eq!(grid_for(1).len(), 1);
    }

    #[test]
    fn median_and_max_handle_failures() {
        let mut s = vec![Some(3), None, Some(1)];
        assert_eq!(median_opt(&mut s), Some(3));
        let mut all_fail = vec![None, None, Some(1)];
        assert_eq!(median_opt(&mut all_fail), None);
        assert_eq!(max_opt(&[Some(1), Some(9)]), Some(9));
        assert_eq!(max_opt(&[Some(1), None]), None);
    }
}
