//! T2 — Theorems 2+3: crash failure locality.
//!
//! Worst case for a chain of waiters: a line topology whose lowest
//! process dies *while eating* (it is the priority ancestor of the whole
//! initial chain). We measure, per algorithm:
//!
//! * the **behavioral radius** — max distance from a starved live
//!   process to the dead one over a long window, and
//! * for the paper's state types, the **analytic radius** — the paper's
//!   own red/green fixpoint.
//!
//! Expected shape: the paper's algorithm is flat at ≤ 2 regardless of
//! `n`; the no-threshold ablation blocks the entire hungry chain, so its
//! radius grows with `n`. The greedy baseline only starves direct
//! neighbors (it has no waiting chains at all — and none of the paper's
//! fairness or stabilization properties).

use diners_baselines::{GreedyDiners, HygienicDiners};
use diners_core::locality::measure_window;
use diners_core::redgreen::affected_radius;
use diners_core::{MaliciousCrashDiners, Variant};
use diners_sim::algorithm::{Phase, SystemState};
use diners_sim::engine::Engine;
use diners_sim::fault::FaultPlan;
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::scheduler::RandomScheduler;
use diners_sim::table::Table;

use super::Report;
use crate::common::Scale;

const VICTIM: ProcessId = ProcessId(0);

fn fmt_radius(r: Option<u32>) -> String {
    r.map(|v| v.to_string()).unwrap_or_else(|| "-".into())
}

/// Behavioral radius for a paper-family variant on `line(n)` with the
/// victim dead while eating. Returns `(behavioral, analytic)` maxima
/// over seeds.
fn paper_family(variant: MaliciousCrashDiners, n: usize, scale: &Scale) -> (u32, u32) {
    let mut worst_behavioral = 0;
    let mut worst_analytic = 0;
    for seed in 0..scale.seeds {
        let topo = Topology::line(n);
        let mut state = SystemState::initial(&variant, &topo);
        // Worst case: the whole chain is already hungry when the ancestor
        // dies eating (otherwise interleaved meals reshuffle priorities
        // and dissolve the chain before it can block).
        for p in topo.processes() {
            state.local_mut(p).phase = Phase::Hungry;
        }
        state.local_mut(VICTIM).phase = Phase::Eating;
        let mut engine = Engine::builder(variant, topo)
            .initial_state(state)
            .scheduler(RandomScheduler::new(seed))
            .faults(FaultPlan::new().initially_dead(VICTIM.index()))
            .seed(seed)
            .build();
        engine.run(scale.settle);
        let report = measure_window(&mut engine, scale.window);
        worst_behavioral = worst_behavioral.max(report.behavioral_radius.unwrap_or(0));
        worst_analytic = worst_analytic.max(affected_radius(&engine.snapshot()).unwrap_or(0));
    }
    (worst_behavioral, worst_analytic)
}

/// Behavioral radius for the greedy baseline under the same scenario.
fn greedy(n: usize, scale: &Scale) -> u32 {
    let mut worst = 0;
    for seed in 0..scale.seeds {
        let topo = Topology::line(n);
        let mut state = SystemState::initial(&GreedyDiners, &topo);
        for p in topo.processes() {
            *state.local_mut(p) = Phase::Hungry;
        }
        *state.local_mut(VICTIM) = Phase::Eating;
        let mut engine = Engine::builder(GreedyDiners, topo)
            .initial_state(state)
            .scheduler(RandomScheduler::new(seed))
            .faults(FaultPlan::new().initially_dead(VICTIM.index()))
            .seed(seed)
            .build();
        engine.run(scale.settle);
        let report = measure_window(&mut engine, scale.window);
        worst = worst.max(report.behavioral_radius.unwrap_or(0));
    }
    worst
}

/// Behavioral radius for the hygienic baseline: the victim dies eating
/// while holding every incident fork.
fn hygienic(n: usize, scale: &Scale) -> u32 {
    let mut worst = 0;
    for seed in 0..scale.seeds {
        let topo = Topology::line(n);
        let mut state = SystemState::initial(&HygienicDiners, &topo);
        for p in topo.processes() {
            *state.local_mut(p) = Phase::Hungry;
        }
        *state.local_mut(VICTIM) = Phase::Eating;
        for &e in topo.incident_edges(VICTIM) {
            state.edge_mut(e).fork_at = VICTIM;
            state.edge_mut(e).dirty = true;
        }
        let mut engine = Engine::builder(HygienicDiners, topo)
            .initial_state(state)
            .scheduler(RandomScheduler::new(seed))
            .faults(FaultPlan::new().initially_dead(VICTIM.index()))
            .seed(seed)
            .build();
        engine.run(scale.settle);
        let report = measure_window(&mut engine, scale.window);
        worst = worst.max(report.behavioral_radius.unwrap_or(0));
    }
    worst
}

/// Run the sweep and produce the result table.
pub fn run(scale: &Scale) -> Report {
    let mut t = Table::new(
        "T2: failure locality — radius of starvation around a crashed eater, line(n)",
        [
            "n",
            "paper behavioral",
            "paper analytic",
            "no-threshold behavioral",
            "greedy behavioral",
            "hygienic behavioral",
        ],
    );
    for &n in scale.sizes {
        let (pb, pa) = paper_family(MaliciousCrashDiners::paper(), n, scale);
        let (nb, _na) = paper_family(
            MaliciousCrashDiners::with_variant(Variant::without_threshold()),
            n,
            scale,
        );
        let gb = greedy(n, scale);
        let hb = hygienic(n, scale);
        t.row([
            n.to_string(),
            fmt_radius(Some(pb)),
            fmt_radius(Some(pa)),
            fmt_radius(Some(nb)),
            fmt_radius(Some(gb)),
            fmt_radius(Some(hb)),
        ]);
    }
    Report::of([t])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_radius_is_at_most_two_and_ablation_blows_up() {
        let scale = Scale {
            sizes: &[12],
            ..Scale::quick()
        };
        let (pb, pa) = paper_family(MaliciousCrashDiners::paper(), 12, &scale);
        assert!(pb <= 2, "paper behavioral radius {pb} > 2");
        assert!(pa <= 2, "paper analytic radius {pa} > 2");
        let (nb, _) = paper_family(
            MaliciousCrashDiners::with_variant(Variant::without_threshold()),
            12,
            &scale,
        );
        assert!(
            nb >= 6,
            "no-threshold radius {nb} should grow along the chain"
        );
    }
}
