//! The malicious-crash tolerance problem `MCA` (paper §1).
//!
//! Given a problem `A` (here: diners) and a locality constant `m`, a
//! program solves `MCA` if, for any set of crashed processes, the
//! properties of `A` are eventually satisfied for the processes far enough
//! from the crashes. Proposition 1 reduces this to: starting from an
//! arbitrary state and arbitrary set of initially dead processes, the
//! program eventually satisfies `A` for those processes.
//!
//! We use the Choy–Singh convention throughout: failure locality `m`
//! means a crash affects only processes within distance `<= m`, so the
//! *protected* set is `{ p live : dist(p, every dead) > m }`. (The paper's
//! Figure 2 narration — "the effect of a's crash is contained within the
//! distance of 2" — uses the same inclusive reading: distance-2 processes
//! may be affected, distance-3 processes may not.)
//!
//! [`McaChecker`] runs a settle phase and then a measurement window and
//! checks, for the protected set:
//!
//! * **liveness** — every protected process (continuously hungry by
//!   workload) completes a meal in the window;
//! * **safety** — no step in the window has two live neighbors eating.

use diners_sim::algorithm::DinerAlgorithm;
use diners_sim::engine::Engine;
use diners_sim::graph::ProcessId;

/// Configuration for an MCA conformance check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct McaChecker {
    /// Locality constant; the paper's algorithm claims `m = 2`.
    pub m: u32,
    /// Steps to run before measuring (stabilization + crash absorption).
    pub settle: u64,
    /// Measurement window length in steps.
    pub window: u64,
}

impl Default for McaChecker {
    fn default() -> Self {
        McaChecker {
            m: 2,
            settle: 20_000,
            window: 30_000,
        }
    }
}

/// Result of an MCA conformance check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct McaReport {
    /// The locality constant checked against.
    pub m: u32,
    /// Processes protected by the locality guarantee
    /// (live, distance `> m` from every dead process).
    pub protected: Vec<ProcessId>,
    /// Protected processes that failed liveness (no meal in the window).
    pub starved_protected: Vec<ProcessId>,
    /// Steps in the window at which two live neighbors ate simultaneously.
    pub safety_violation_steps: u64,
    /// Whether both MCA properties held for the protected set.
    pub satisfied: bool,
}

impl McaChecker {
    /// Run the check on a prepared engine (faults already scheduled in its
    /// plan; they should all strike before the window for the guarantee to
    /// apply).
    pub fn run<A: DinerAlgorithm>(&self, engine: &mut Engine<A>) -> McaReport {
        engine.run(self.settle);
        let window_start = engine.step_count();
        let violations_before = engine.metrics().violation_step_count();
        engine.run(self.window);

        let topo = engine.topology();
        let to_dead = topo.distances_from(&engine.dead_processes());
        let protected: Vec<ProcessId> = topo
            .processes()
            .filter(|&p| !engine.is_dead(p) && to_dead[p.index()] > self.m)
            .collect();
        let starved_protected: Vec<ProcessId> = protected
            .iter()
            .copied()
            .filter(|&p| engine.metrics().last_eat_of(p) < Some(window_start))
            .collect();
        let safety_violation_steps = engine.metrics().violation_step_count() - violations_before;
        let satisfied = starved_protected.is_empty() && safety_violation_steps == 0;
        McaReport {
            m: self.m,
            protected,
            starved_protected,
            safety_violation_steps,
            satisfied,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diners_sim::fault::FaultPlan;
    use diners_sim::graph::Topology;
    use diners_sim::scheduler::RandomScheduler;

    use crate::algorithm::MaliciousCrashDiners;

    fn engine(faults: FaultPlan, seed: u64) -> Engine<MaliciousCrashDiners> {
        Engine::builder(MaliciousCrashDiners::paper(), Topology::line(8))
            .scheduler(RandomScheduler::new(seed))
            .faults(faults)
            .seed(seed)
            .build()
    }

    #[test]
    fn fault_free_run_protects_everyone() {
        let checker = McaChecker {
            m: 2,
            settle: 1_000,
            window: 20_000,
        };
        let mut e = engine(FaultPlan::none(), 5);
        let rep = checker.run(&mut e);
        assert_eq!(rep.protected.len(), 8, "no dead: all protected");
        assert!(rep.satisfied, "starved: {:?}", rep.starved_protected);
    }

    #[test]
    fn crash_leaves_distant_processes_protected() {
        let checker = McaChecker {
            m: 2,
            settle: 5_000,
            window: 40_000,
        };
        let mut e = engine(FaultPlan::new().malicious_crash(100, 0, 8), 6);
        let rep = checker.run(&mut e);
        // Protected: distance > 2 from p0 => p3..p7.
        assert_eq!(rep.protected, (3..8).map(ProcessId).collect::<Vec<_>>());
        assert!(
            rep.satisfied,
            "starved: {:?}, safety violations: {}",
            rep.starved_protected, rep.safety_violation_steps
        );
    }
}
