//! T7 — the §4 message-passing transformation preserves the guarantees.
//!
//! Three scenarios on the deterministic [`SimNet`]: legitimate start
//! (exclusion exact, everyone eats), arbitrary start (violations stop —
//! stabilization), and a malicious crash (distant nodes keep eating).
//! Plus a smoke row from the real thread-per-node runtime.

use std::time::Duration;

use diners_mp::{AdversaryPlan, SimNet, ThreadRuntime};
use diners_sim::fault::FaultPlan;
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::table::Table;

use super::Report;
use crate::common::Scale;

/// Outcome of one SimNet scenario.
#[derive(Clone, Debug)]
pub struct MpOutcome {
    /// Nodes that never ate in the final window.
    pub starved: Vec<ProcessId>,
    /// Max distance of a starved live node to the nearest dead node.
    pub radius: Option<u32>,
    /// Step of the last exclusion violation, if any.
    pub last_violation: Option<u64>,
    /// Total events executed.
    pub total_steps: u64,
}

/// Run a SimNet scenario: `steps` total, with the final `window` used as
/// the starvation measurement window.
pub fn scenario(
    topo: Topology,
    faults: FaultPlan,
    seed: u64,
    steps: u64,
    window: u64,
) -> MpOutcome {
    let mut net = SimNet::new(topo, faults, seed);
    net.run(steps.saturating_sub(window));
    let since = net.step_count();
    net.run(window);
    let dead = net.dead_processes();
    let starved: Vec<ProcessId> = net
        .topology()
        .processes()
        .filter(|&p| !net.is_dead(p))
        .filter(|&p| net.last_meal(p) < Some(since))
        .collect();
    let radius = if dead.is_empty() {
        None
    } else {
        let to_dead = net.topology().distances_from(&dead);
        Some(
            starved
                .iter()
                .map(|&p| to_dead[p.index()])
                .max()
                .unwrap_or(0),
        )
    };
    MpOutcome {
        starved,
        radius,
        last_violation: net.last_violation(),
        total_steps: net.step_count(),
    }
}

/// Run the suite and produce the result table.
pub fn run(scale: &Scale) -> Report {
    let mut t = Table::new(
        "T7: message-passing transformation (SimNet + thread runtime)",
        [
            "scenario",
            "topology",
            "starved (live)",
            "radius",
            "last violation step",
        ],
    );
    let n = scale.sizes[0].max(8);
    let steps = scale.settle + scale.window;
    for topo in [Topology::ring(n), Topology::line(n)] {
        let legit = scenario(topo.clone(), FaultPlan::none(), 1, steps, scale.window);
        t.row([
            "legitimate start".to_string(),
            topo.name().to_string(),
            legit.starved.len().to_string(),
            "-".to_string(),
            legit
                .last_violation
                .map(|v| v.to_string())
                .unwrap_or_else(|| "none".into()),
        ]);
        let arb = scenario(
            topo.clone(),
            FaultPlan::new().from_arbitrary_state(),
            2,
            steps,
            scale.window,
        );
        t.row([
            "arbitrary start".to_string(),
            topo.name().to_string(),
            arb.starved.len().to_string(),
            "-".to_string(),
            arb.last_violation
                .map(|v| v.to_string())
                .unwrap_or_else(|| "none".into()),
        ]);
        let mal = scenario(
            topo.clone(),
            FaultPlan::new().malicious_crash(1_000, 0, 8),
            3,
            steps,
            scale.window,
        );
        t.row([
            "malicious crash (k=8)".to_string(),
            topo.name().to_string(),
            mal.starved.len().to_string(),
            mal.radius
                .map(|r| r.to_string())
                .unwrap_or_else(|| "-".into()),
            mal.last_violation
                .map(|v| v.to_string())
                .unwrap_or_else(|| "none".into()),
        ]);
    }

    // Thread-runtime smoke: real concurrency, sampled exclusion.
    let rt = ThreadRuntime::spawn(
        Topology::ring(6),
        Duration::from_micros(200),
        AdversaryPlan::none(),
        5,
    );
    let violations = rt.observe(Duration::from_millis(300), Duration::from_micros(100));
    let starved = rt
        .topology()
        .processes()
        .filter(|&p| rt.meals_of(p) == 0)
        .count();
    rt.shutdown();
    t.row([
        "thread runtime (300ms)".to_string(),
        "ring(n=6)".to_string(),
        starved.to_string(),
        "-".to_string(),
        if violations == 0 {
            "none".to_string()
        } else {
            format!("{violations} sampled")
        },
    ]);
    Report::of([t])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legit_start_has_no_violations_and_no_starvation() {
        let out = scenario(Topology::ring(8), FaultPlan::none(), 7, 60_000, 20_000);
        assert!(out.starved.is_empty(), "starved: {:?}", out.starved);
        assert_eq!(out.last_violation, None);
    }

    #[test]
    fn malicious_crash_radius_is_small() {
        let out = scenario(
            Topology::line(8),
            FaultPlan::new().malicious_crash(500, 0, 8),
            9,
            90_000,
            30_000,
        );
        assert!(
            out.radius.unwrap_or(0) <= 2,
            "radius {:?} too large (starved {:?})",
            out.radius,
            out.starved
        );
    }
}
