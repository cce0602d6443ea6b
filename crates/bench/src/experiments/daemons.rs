//! T8 — daemon robustness: what survives outside the paper's model?
//!
//! The paper's computation model is the *serial* central daemon with
//! composite atomicity (§2). This experiment runs every algorithm under
//! a **synchronous** daemon — all guards evaluated against the same
//! pre-state, all selected commands applied together — which models
//! naive concurrent execution (and is the hazard the §4 handshake
//! exists to rule out).
//!
//! Finding: the paper's exclusion is *incidentally daemon-robust*. For
//! any edge, the descendant may enter only if the edge's ancestor is
//! thinking, and the ancestor may enter only while hungry — mutually
//! exclusive conditions on the same pre-state, so two neighbors can
//! never enter in the same round. Fork-based exclusion (hygienic) is
//! likewise structural. A naive "no neighbor eating" guard, by
//! contrast, is safe under the serial daemon but breaks immediately
//! under the synchronous one.

use diners_baselines::{GreedyDiners, HygienicDiners};
use diners_core::MaliciousCrashDiners;
use diners_sim::algorithm::DinerAlgorithm;
use diners_sim::graph::Topology;
use diners_sim::sync::SyncEngine;
use diners_sim::table::Table;
use diners_sim::toy::ToyDiners;

use super::Report;
use crate::common::Scale;

fn measure<A: DinerAlgorithm>(alg: A, topo: Topology, rounds: u64, seed: u64) -> (u64, u64) {
    let mut e = SyncEngine::new(alg, topo, seed);
    e.run(rounds);
    let meals: u64 = e.topology().processes().map(|p| e.meals_of(p)).sum();
    (e.violation_rounds(), meals)
}

/// Run the sweep and produce the result table.
pub fn run(scale: &Scale) -> Report {
    let rounds = scale.window;
    let n = scale.sizes[scale.sizes.len() / 2];
    let mut t = Table::new(
        format!("T8: synchronous daemon over {rounds} rounds, ring(n = {n})"),
        ["algorithm", "violation rounds", "total meals"],
    );
    let topo = Topology::ring(n);
    let mut seeds_total = |name: &str, f: &mut dyn FnMut(u64) -> (u64, u64)| {
        let mut violations = 0;
        let mut meals = 0;
        for seed in 0..scale.seeds {
            let (v, m) = f(seed);
            violations += v;
            meals += m;
        }
        t.row([name.to_string(), violations.to_string(), meals.to_string()]);
    };
    seeds_total("nesterenko-arora", &mut |s| {
        measure(MaliciousCrashDiners::paper(), topo.clone(), rounds, s)
    });
    seeds_total("corrected-bound", &mut |s| {
        measure(MaliciousCrashDiners::corrected(), topo.clone(), rounds, s)
    });
    seeds_total("hygienic", &mut |s| {
        measure(HygienicDiners, topo.clone(), rounds, s)
    });
    seeds_total("toy-id-priority", &mut |s| {
        measure(ToyDiners, topo.clone(), rounds, s)
    });
    seeds_total("greedy (naive guard)", &mut |s| {
        measure(GreedyDiners, topo.clone(), rounds, s)
    });
    Report::of([t])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_exclusion_is_daemon_robust_but_greedy_is_not() {
        let topo = Topology::ring(8);
        let (paper_v, paper_m) = measure(MaliciousCrashDiners::paper(), topo.clone(), 10_000, 1);
        assert_eq!(paper_v, 0, "the priority antisymmetry protects exclusion");
        assert!(paper_m > 0, "the system still makes progress");

        let (hyg_v, _) = measure(HygienicDiners, topo.clone(), 10_000, 1);
        assert_eq!(hyg_v, 0, "fork tokens are structural");

        let (greedy_v, _) = measure(GreedyDiners, topo, 10_000, 1);
        assert!(
            greedy_v > 0,
            "the naive guard must break under the synchronous daemon"
        );
    }
}
