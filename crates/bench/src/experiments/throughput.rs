//! T5 — fault-free service quality: throughput, response time,
//! fairness, for the paper's algorithm against every baseline.
//!
//! Expected shape: greedy is the throughput ceiling (no coordination);
//! the paper's algorithm pays for its guarantees with threshold yielding
//! and depth churn but stays within a small factor and keeps service
//! even (high fairness index); exclusion violations are zero everywhere.

use diners_baselines::{GreedyDiners, HygienicDiners};
use diners_core::harness::{service_stats, ServiceStats};
use diners_core::{MaliciousCrashDiners, Variant};
use diners_sim::algorithm::DinerAlgorithm;
use diners_sim::engine::Engine;
use diners_sim::graph::Topology;
use diners_sim::scheduler::RandomScheduler;
use diners_sim::table::{fmt_f64, Table};
use diners_sim::toy::ToyDiners;

use super::Report;
use crate::common::{families, Scale};

fn stats_for<A: DinerAlgorithm>(alg: A, topo: Topology, steps: u64, seed: u64) -> ServiceStats {
    let mut engine = Engine::builder(alg, topo)
        .scheduler(RandomScheduler::new(seed))
        .seed(seed)
        .build();
    service_stats(&mut engine, steps)
}

fn push_row(t: &mut Table, name: &str, topo: &Topology, steps: u64, s: ServiceStats) {
    let per_kproc = s.total_eats as f64 * 1_000.0 / (steps as f64 * topo.len() as f64);
    t.row([
        name.to_string(),
        topo.name().to_string(),
        fmt_f64(per_kproc, 2),
        s.min_eats.to_string(),
        s.max_response.to_string(),
        s.mean_response
            .map(|x| fmt_f64(x, 1))
            .unwrap_or_else(|| "-".into()),
        s.fairness
            .map(|x| fmt_f64(x, 3))
            .unwrap_or_else(|| "-".into()),
        s.violation_steps.to_string(),
    ]);
}

/// Run the sweep and produce the result table.
pub fn run(scale: &Scale) -> Report {
    let steps = scale.window;
    let n = scale.sizes[scale.sizes.len() / 2];
    let mut t = Table::new(
        format!("T5: fault-free service over {steps} steps (n = {n})"),
        [
            "algorithm",
            "topology",
            "meals/proc/1k",
            "min meals",
            "max resp",
            "mean resp",
            "fairness",
            "violations",
        ],
    );
    for topo in families(n, 42) {
        push_row(
            &mut t,
            "nesterenko-arora",
            &topo,
            steps,
            stats_for(MaliciousCrashDiners::paper(), topo.clone(), steps, 1),
        );
        push_row(
            &mut t,
            "no-threshold",
            &topo,
            steps,
            stats_for(
                MaliciousCrashDiners::with_variant(Variant::without_threshold()),
                topo.clone(),
                steps,
                1,
            ),
        );
        push_row(
            &mut t,
            "no-cycle-breaking",
            &topo,
            steps,
            stats_for(
                MaliciousCrashDiners::with_variant(Variant::without_cycle_breaking()),
                topo.clone(),
                steps,
                1,
            ),
        );
        push_row(
            &mut t,
            "greedy",
            &topo,
            steps,
            stats_for(GreedyDiners, topo.clone(), steps, 1),
        );
        push_row(
            &mut t,
            "hygienic",
            &topo,
            steps,
            stats_for(HygienicDiners, topo.clone(), steps, 1),
        );
        push_row(
            &mut t,
            "toy-id-priority",
            &topo,
            steps,
            stats_for(ToyDiners, topo.clone(), steps, 1),
        );
    }
    Report::of([t])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_serves_everyone_without_violations() {
        let s = stats_for(MaliciousCrashDiners::paper(), Topology::ring(8), 30_000, 3);
        assert!(s.min_eats > 0, "{s:?}");
        assert_eq!(s.violation_steps, 0);
        assert!(s.fairness.unwrap() > 0.8, "service skew too high: {s:?}");
    }

    #[test]
    fn greedy_is_the_throughput_ceiling_on_a_ring() {
        let paper = stats_for(MaliciousCrashDiners::paper(), Topology::ring(8), 30_000, 3);
        let greedy = stats_for(GreedyDiners, Topology::ring(8), 30_000, 3);
        assert!(
            greedy.total_eats >= paper.total_eats,
            "greedy {} < paper {}",
            greedy.total_eats,
            paper.total_eats
        );
    }
}
