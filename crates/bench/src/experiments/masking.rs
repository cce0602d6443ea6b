//! T6 — masking of benign crashes outside the locality (§3 remark:
//! "our program masks benign crashes outside of crash failure locality",
//! i.e. processes beyond distance 2 keep operating correctly *during*
//! the crash, not just eventually).
//!
//! A mid-line process crashes while eating; for each surviving process
//! we compare its meal rate in the window right after the crash against
//! its rate in an equally long window before it. Far processes
//! (distance ≥ 3) should see no interruption (ratio ≈ 1).

use diners_core::MaliciousCrashDiners;
use diners_sim::algorithm::{Phase, SystemState};
use diners_sim::engine::Engine;
use diners_sim::fault::FaultPlan;
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::scheduler::RandomScheduler;
use diners_sim::table::{fmt_f64, Table};

use super::Report;
use crate::common::Scale;

/// Per-distance service ratio (after-crash rate / before-crash rate).
pub fn service_ratios(n: usize, seed: u64, window: u64) -> Vec<(u32, f64)> {
    let topo = Topology::line(n);
    let victim = ProcessId(n / 2);
    // The victim is eating from the start and crashes benignly at the
    // window boundary; before that boundary it is a live, legitimate
    // eater that simply never exits (the paper's liveness assumes no
    // process eats indefinitely, so the "before" window measures
    // neighbors already waiting on it — the fair comparison is eating
    // vs crashed-eating, isolating the *crash* effect).
    let mut state = SystemState::initial(&MaliciousCrashDiners::paper(), &topo);
    state.local_mut(victim).phase = Phase::Eating;
    let mut engine = Engine::builder(MaliciousCrashDiners::paper(), topo.clone())
        .initial_state(state)
        .scheduler(RandomScheduler::new(seed))
        .faults(FaultPlan::new().crash(window, victim.index()))
        .seed(seed)
        .build();
    engine.run(window); // "before" window: victim alive (eating)
    let meals_before = engine.metrics().eats().to_vec();
    engine.run(window); // "after" window: victim crashed
    let to_victim = topo.distances_from(&[victim]);
    let mut out = Vec::new();
    for p in topo.processes() {
        if p == victim {
            continue;
        }
        let before = meals_before[p.index()] as f64;
        let after = (engine.metrics().eats_of(p) - meals_before[p.index()]) as f64;
        let ratio = if before == 0.0 {
            if after == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            after / before
        };
        out.push((to_victim[p.index()], ratio));
    }
    out
}

/// Run the experiment and produce the result table.
pub fn run(scale: &Scale) -> Report {
    let n = *scale.sizes.last().unwrap_or(&32);
    let mut t = Table::new(
        format!("T6: masking — service ratio after/before a benign crash, line({n})"),
        ["distance to crash", "min ratio", "mean ratio", "processes"],
    );
    let mut by_distance: std::collections::BTreeMap<u32, Vec<f64>> = Default::default();
    for seed in 0..scale.seeds {
        for (d, r) in service_ratios(n, seed, scale.window) {
            by_distance.entry(d).or_default().push(r);
        }
    }
    for (d, ratios) in by_distance {
        let finite: Vec<f64> = ratios.iter().copied().filter(|r| r.is_finite()).collect();
        let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
        let mean = finite.iter().sum::<f64>() / finite.len().max(1) as f64;
        t.row([
            d.to_string(),
            if min.is_finite() {
                fmt_f64(min, 2)
            } else {
                "-".into()
            },
            fmt_f64(mean, 2),
            ratios.len().to_string(),
        ]);
    }
    Report::of([t])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn far_processes_are_not_interrupted() {
        for seed in 0..2 {
            for (d, ratio) in service_ratios(16, seed, 30_000) {
                if d >= 3 {
                    assert!(
                        ratio > 0.5,
                        "distance-{d} process lost service (ratio {ratio:.2})"
                    );
                }
            }
        }
    }
}
