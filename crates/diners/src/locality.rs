//! Failure-locality measurement.
//!
//! Two complementary measures of how far a crash's damage reaches:
//!
//! * **Analytic** — the paper's own red/green fixpoint
//!   ([`crate::redgreen::affected_radius`]): the maximum distance from a
//!   live red process to the nearest dead process.
//! * **Behavioral** — run the system and observe which processes actually
//!   starve: live processes that (under a continuously-hungry workload)
//!   complete no meal during a measurement window.
//!
//! The paper claims both are bounded by 2 for its algorithm (`m = 2`,
//! optimal per Choy & Singh); the no-threshold baseline exhibits radii
//! that grow with the topology.

use diners_sim::algorithm::DinerAlgorithm;
use diners_sim::engine::Engine;
use diners_sim::graph::ProcessId;

/// Live processes that completed no meal at steps in `[since, now)`.
///
/// Meaningful under a workload where every live process continuously
/// wants to eat (e.g. `AlwaysHungry`); under sparser workloads a
/// non-starved process may simply not have been hungry.
pub fn starved_since<A: DinerAlgorithm>(engine: &Engine<A>, since: u64) -> Vec<ProcessId> {
    engine
        .topology()
        .processes()
        .filter(|&p| !engine.is_dead(p))
        .filter(|&p| engine.metrics().last_eat_of(p) < Some(since))
        .collect()
}

/// The behavioral failure-locality radius: the maximum distance from a
/// starved live process to the nearest dead process.
///
/// Returns `None` when no process is dead (there is no crash to localize)
/// and `Some(0)` when nothing live starved.
pub fn starvation_radius<A: DinerAlgorithm>(engine: &Engine<A>, since: u64) -> Option<u32> {
    let dead = engine.dead_processes();
    if dead.is_empty() {
        return None;
    }
    let to_dead = engine.topology().distances_from(&dead);
    Some(
        starved_since(engine, since)
            .into_iter()
            .map(|p| to_dead[p.index()])
            .max()
            .unwrap_or(0),
    )
}

/// A combined locality measurement for reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalityReport {
    /// Dead processes at measurement time.
    pub dead: Vec<ProcessId>,
    /// Live processes that starved during the window.
    pub starved: Vec<ProcessId>,
    /// Behavioral radius (max distance starved → nearest dead).
    pub behavioral_radius: Option<u32>,
}

/// Measure behavioral locality over a window: runs `engine` for `window`
/// further steps and reports who starved in that window.
pub fn measure_window<A: DinerAlgorithm>(engine: &mut Engine<A>, window: u64) -> LocalityReport {
    let since = engine.step_count();
    engine.run(window);
    let starved = starved_since(engine, since);
    let behavioral_radius = starvation_radius(engine, since);
    LocalityReport {
        dead: engine.dead_processes(),
        starved,
        behavioral_radius,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diners_sim::fault::FaultPlan;
    use diners_sim::graph::Topology;
    use diners_sim::scheduler::RandomScheduler;

    use crate::algorithm::MaliciousCrashDiners;

    fn engine(topo: Topology, faults: FaultPlan, seed: u64) -> Engine<MaliciousCrashDiners> {
        Engine::builder(MaliciousCrashDiners::paper(), topo)
            .scheduler(RandomScheduler::new(seed))
            .faults(faults)
            .seed(seed)
            .build()
    }

    #[test]
    fn no_dead_no_radius() {
        let mut e = engine(Topology::ring(6), FaultPlan::none(), 1);
        let r = measure_window(&mut e, 4_000);
        assert_eq!(r.behavioral_radius, None);
        assert!(r.dead.is_empty());
        assert!(r.starved.is_empty(), "fault-free ring: everyone eats");
    }

    #[test]
    fn crash_while_thinking_starves_nobody_far_away() {
        // Crash p0 at step 0 (it dies thinking): no one should starve.
        let mut e = engine(Topology::line(8), FaultPlan::new().crash(0, 0), 2);
        let rep = measure_window(&mut e, 30_000);
        assert_eq!(rep.dead, vec![ProcessId(0)]);
        assert!(
            rep.behavioral_radius.unwrap() <= 2,
            "radius {:?} exceeds 2 (starved: {:?})",
            rep.behavioral_radius,
            rep.starved
        );
    }

    #[test]
    fn starved_since_reflects_the_last_meal() {
        let mut e = engine(Topology::line(3), FaultPlan::none(), 3);
        e.run(2_000);
        // Everyone has eaten at least once by now.
        assert!(starved_since(&e, 0).is_empty());
        // Nobody ate "in the future".
        let now = e.step_count();
        let all: Vec<ProcessId> = e.topology().processes().collect();
        assert_eq!(starved_since(&e, now), all);
    }
}
