//! T3 — malicious crash tolerance (the MCA problem, Proposition 1).
//!
//! Start from a *fully arbitrary* state, let a victim maliciously crash
//! (k arbitrary capability-restricted steps, then an undetectable halt),
//! and check the MCA properties for the protected set (distance > 2 from
//! the victim): every protected process keeps eating, and no step after
//! the fault window has two live neighbors eating.

use diners_core::mca::{McaChecker, McaReport};
use diners_core::MaliciousCrashDiners;
use diners_sim::engine::Engine;
use diners_sim::fault::FaultPlan;
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::rng::subseed;
use diners_sim::scheduler::RandomScheduler;
use diners_sim::table::Table;

use super::Report;
use crate::common::{grid_for, Scale};

/// The malicious-step budgets swept.
pub const BUDGETS: [u32; 4] = [1, 4, 16, 64];

fn one(topo: Topology, k: u32, seed: u64, scale: &Scale) -> McaReport {
    let victim = ProcessId(topo.len() / 2);
    let mut engine = Engine::builder(MaliciousCrashDiners::paper(), topo)
        .scheduler(RandomScheduler::new(seed))
        .faults(
            FaultPlan::new()
                .from_arbitrary_state()
                .malicious_crash(1_000, victim.index(), k),
        )
        .seed(seed)
        .build();
    McaChecker {
        m: 2,
        settle: scale.settle,
        window: scale.window,
    }
    .run(&mut engine)
}

/// Run the sweep and produce the result table.
pub fn run(scale: &Scale) -> Report {
    let mut t = Table::new(
        "T3: malicious crashes from arbitrary states — MCA(m=2) conformance",
        [
            "topology",
            "k (malicious steps)",
            "protected",
            "starved protected",
            "post-window violations",
            "MCA satisfied",
        ],
    );
    for &n in scale.sizes {
        for topo in [Topology::ring(n.max(3)), grid_for(n)] {
            for &k in &BUDGETS {
                let mut starved = 0usize;
                let mut violations = 0u64;
                let mut protected = 0usize;
                let mut ok = true;
                for seed in 0..scale.seeds {
                    let rep = one(topo.clone(), k, subseed(seed, u64::from(k)), scale);
                    starved += rep.starved_protected.len();
                    violations += rep.safety_violation_steps;
                    protected = rep.protected.len();
                    ok &= rep.satisfied;
                }
                t.row([
                    topo.name().to_string(),
                    k.to_string(),
                    protected.to_string(),
                    starved.to_string(),
                    violations.to_string(),
                    if ok { "yes".into() } else { "NO".to_string() },
                ]);
            }
        }
    }
    Report::of([t])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mca_holds_on_a_small_ring() {
        let scale = Scale::quick();
        for seed in 0..2 {
            let rep = one(Topology::ring(12), 8, seed, &scale);
            assert!(
                rep.satisfied,
                "seed {seed}: starved {:?}, violations {}",
                rep.starved_protected, rep.safety_violation_steps
            );
            assert!(!rep.protected.is_empty());
        }
    }
}
