//! T1 — Theorem 1: stabilization to the invariant `I = NC ∧ ST ∧ E`
//! from fully arbitrary states.
//!
//! For each topology family and size, start from a corrupted state (all
//! variables arbitrary) and measure the first step from which `I` held
//! continuously through the horizon.
//!
//! **Reproduction finding.** Theorem 1 as stated is reproducible only
//! with a *corrected* cycle-evidence bound. The paper tests
//! `depth > D` (diameter), but the longest simple priority chain can
//! exceed `D` on anything denser than a line, so live processes keep
//! depth-exiting and the invariant is not even *closed*: a meal exit can
//! hand a depth-0 process a new descendant while its live ancestor chain
//! `l` exceeds `D`, falsifying `SH` (the gap is in Lemma 2's case e'',
//! which silently assumes `l:r ≤ D`). Under continuous dining the system
//! churns forever: measured convergence points sit at the end of any
//! horizon (the invariant only holds during momentary lulls), and on a
//! complete graph (every acyclic tournament has a Hamiltonian path,
//! `D = 1`) it never holds at all. With the bound corrected to `n`
//! ([`diners_core::DepthBound::LongestPath`]) — a true upper bound on
//! simple paths, still exceeded by every cycle's unbounded depth growth —
//! stabilization is genuine and fast (tens of steps) on every topology.
//!
//! The churn under the paper's bound is *benign* (a spurious exit merely
//! yields priority), so the safety/locality theorems are unaffected —
//! only the stated invariant fails to stabilize.

use diners_core::harness::stabilization_steps;
use diners_core::{MaliciousCrashDiners, Variant};
use diners_sim::graph::Topology;
use diners_sim::rng::subseed;
use diners_sim::table::{fmt_opt, Table};

use super::Report;
use crate::common::{grid_for, max_opt, median_opt, Scale};

fn samples_for(
    alg: MaliciousCrashDiners,
    topo: &Topology,
    scale: &Scale,
    horizon: u64,
) -> Vec<Option<u64>> {
    (0..scale.seeds)
        .map(|seed| {
            stabilization_steps(alg, topo.clone(), subseed(seed, topo.len() as u64), horizon)
        })
        .collect()
}

fn main_families(n: usize) -> Vec<Topology> {
    vec![
        Topology::ring(n.max(3)),
        Topology::line(n),
        grid_for(n),
        Topology::binary_tree(n),
    ]
}

/// A convergence point counts as *stable* only if it precedes the last
/// fifth of the horizon; otherwise the invariant merely happened to hold
/// during a final lull of the churn.
fn stable(sample: Option<u64>, horizon: u64) -> Option<u64> {
    sample.filter(|&s| s < horizon - horizon / 5)
}

/// Run the main sweep (T1) and the dense-graph finding (T1b).
pub fn run(scale: &Scale) -> Report {
    Report::of([main_sweep(scale), dense(scale)])
}

fn main_sweep(scale: &Scale) -> Table {
    let mut t = Table::new(
        "T1: stabilization to I from arbitrary states (median / max over seeds)",
        [
            "topology",
            "n",
            "D",
            "corrected med",
            "corrected max",
            "paper-bound stable",
            "no-depth stable",
        ],
    );
    for &n in scale.sizes {
        for topo in main_families(n) {
            let mut corrected: Vec<Option<u64>> = samples_for(
                MaliciousCrashDiners::corrected(),
                &topo,
                scale,
                scale.horizon,
            )
            .into_iter()
            .map(|s| stable(s, scale.horizon))
            .collect();
            let cmax = max_opt(&corrected);
            let cmed = median_opt(&mut corrected);

            let paper_stable = samples_for(
                MaliciousCrashDiners::paper(),
                &topo,
                scale,
                scale.horizon / 2,
            )
            .into_iter()
            .filter(|&s| stable(s, scale.horizon / 2).is_some())
            .count();

            let nodepth_stable = samples_for(
                MaliciousCrashDiners::with_variant(Variant::without_cycle_breaking()),
                &topo,
                scale,
                scale.horizon / 2,
            )
            .into_iter()
            .filter(|&s| stable(s, scale.horizon / 2).is_some())
            .count();

            t.row([
                topo.name().to_string(),
                topo.len().to_string(),
                topo.diameter().to_string(),
                fmt_opt(cmed),
                fmt_opt(cmax),
                format!("{paper_stable}/{}", scale.seeds),
                format!("{nodepth_stable}/{}", scale.seeds),
            ]);
        }
    }
    t
}

/// T1b: the depth-bound finding on dense topologies.
fn dense(scale: &Scale) -> Table {
    let mut t = Table::new(
        "T1b: dense graphs — paper's depth>D churns forever; corrected n bound stabilizes",
        [
            "topology",
            "D",
            "paper (D bound) stable",
            "corrected (n) med",
            "corrected (n) max",
        ],
    );
    let dense = vec![
        Topology::complete(6),
        Topology::complete(8),
        Topology::random_connected(12, 0.5, 7),
    ];
    for topo in dense {
        let paper_stable = samples_for(
            MaliciousCrashDiners::paper(),
            &topo,
            scale,
            scale.horizon / 2,
        )
        .into_iter()
        .filter(|&s| stable(s, scale.horizon / 2).is_some())
        .count();
        let mut corrected: Vec<Option<u64>> = samples_for(
            MaliciousCrashDiners::corrected(),
            &topo,
            scale,
            scale.horizon,
        )
        .into_iter()
        .map(|s| stable(s, scale.horizon))
        .collect();
        let cmax = max_opt(&corrected);
        t.row([
            topo.name().to_string(),
            topo.diameter().to_string(),
            format!("{paper_stable}/{}", scale.seeds),
            fmt_opt(median_opt(&mut corrected)),
            fmt_opt(cmax),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrected_bound_stabilizes_fast_everywhere() {
        let scale = Scale {
            sizes: &[8],
            ..Scale::quick()
        };
        for topo in main_families(8) {
            let samples = samples_for(MaliciousCrashDiners::corrected(), &topo, &scale, 100_000);
            for s in &samples {
                let at = s.expect("corrected bound must stabilize");
                assert!(at < 20_000, "{}: late convergence at {at}", topo.name());
            }
        }
    }

    #[test]
    fn paper_bound_is_stable_on_lines_but_churns_on_rings() {
        let scale = Scale::quick();
        let line = samples_for(
            MaliciousCrashDiners::paper(),
            &Topology::line(8),
            &scale,
            100_000,
        );
        for s in &line {
            assert!(
                stable(*s, 100_000).is_some(),
                "line(8) should stabilize under the paper bound: {line:?}"
            );
        }
        let ring = samples_for(
            MaliciousCrashDiners::paper(),
            &Topology::ring(8),
            &scale,
            100_000,
        );
        for s in &ring {
            assert!(
                stable(*s, 100_000).is_none(),
                "ring(8) under the paper bound should churn: {ring:?}"
            );
        }
    }

    #[test]
    fn dense_graphs_need_the_corrected_bound() {
        let scale = Scale::quick();
        let topo = Topology::complete(6);
        let paper = samples_for(MaliciousCrashDiners::paper(), &topo, &scale, 60_000);
        assert!(
            paper.iter().all(|s| stable(*s, 60_000).is_none()),
            "expected perpetual churn on the complete graph: {paper:?}"
        );
        let corrected = samples_for(MaliciousCrashDiners::corrected(), &topo, &scale, 120_000);
        assert!(
            corrected.iter().all(|s| stable(*s, 120_000).is_some()),
            "corrected bound failed: {corrected:?}"
        );
    }
}
