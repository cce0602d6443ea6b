//! A greedy diner: eat whenever no neighbor is eating.
//!
//! The weakest interesting baseline. Under the serial (composite-atomicity)
//! daemon its `enter` guard makes it safe — two neighbors can never pass
//! the guard in the same state — and it is trivially "stabilizing" for
//! safety (any illegal double-eating pair drains through `exit`). What it
//! lacks is *fairness*: with no priority structure, an unlucky process can
//! be overtaken forever by its neighbors under an adversarial daemon, and
//! there is no bound on service skew. It is also maximally parallel and
//! cheap, so it upper-bounds throughput in the fault-free comparison.

use rand::rngs::StdRng;
use rand::Rng;

use diners_sim::algorithm::{ActionId, ActionKind, Algorithm, DinerAlgorithm, Phase, View, Write};
use diners_sim::codec::{phase_from_bits, phase_to_bits, StateCodec};
use diners_sim::graph::{EdgeId, ProcessId, Topology};

/// The greedy no-priority diner; see the module docs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GreedyDiners;

/// Action kind index of `join`.
pub const GREEDY_JOIN: usize = 0;
/// Action kind index of `enter`.
pub const GREEDY_ENTER: usize = 1;
/// Action kind index of `exit`.
pub const GREEDY_EXIT: usize = 2;

const KINDS: &[ActionKind] = &[
    ActionKind {
        name: "join",
        per_neighbor: false,
    },
    ActionKind {
        name: "enter",
        per_neighbor: false,
    },
    ActionKind {
        name: "exit",
        per_neighbor: false,
    },
];

impl Algorithm for GreedyDiners {
    type Local = Phase;
    type Edge = ();

    fn name(&self) -> &str {
        "greedy"
    }

    fn kinds(&self) -> &[ActionKind] {
        KINDS
    }

    fn init_local(&self, _topo: &Topology, _p: ProcessId) -> Phase {
        Phase::Thinking
    }

    fn init_edge(&self, _topo: &Topology, _e: EdgeId) {}

    fn enabled(&self, view: &View<'_, Self>, action: ActionId) -> bool {
        let me = *view.local();
        match action.kind {
            GREEDY_JOIN => me == Phase::Thinking && view.needs(),
            GREEDY_ENTER => {
                me == Phase::Hungry
                    && view
                        .neighbors()
                        .iter()
                        .all(|&q| *view.neighbor_local(q) != Phase::Eating)
            }
            GREEDY_EXIT => me == Phase::Eating,
            _ => false,
        }
    }

    fn execute(&self, _view: &View<'_, Self>, action: ActionId) -> Vec<Write<Self>> {
        let next = match action.kind {
            GREEDY_JOIN => Phase::Hungry,
            GREEDY_ENTER => Phase::Eating,
            GREEDY_EXIT => Phase::Thinking,
            _ => unreachable!("unknown greedy action {action:?}"),
        };
        vec![Write::Local(next)]
    }

    fn corrupt_local(&self, rng: &mut StdRng, _topo: &Topology, _p: ProcessId) -> Phase {
        match rng.gen_range(0..3) {
            0 => Phase::Thinking,
            1 => Phase::Hungry,
            _ => Phase::Eating,
        }
    }

    fn corrupt_edge(&self, _rng: &mut StdRng, _topo: &Topology, _e: EdgeId) {}
}

impl DinerAlgorithm for GreedyDiners {
    fn phase(&self, local: &Phase) -> Phase {
        *local
    }
}

/// 2 bits per process (the phase), nothing per edge. Greedy's guards
/// mention only neighbor phases — no process ids at all — so it is
/// equivariant and safe to explore with symmetry reduction.
impl StateCodec for GreedyDiners {
    fn local_bits(&self, _topo: &Topology) -> u32 {
        2
    }

    fn edge_bits(&self, _topo: &Topology) -> u32 {
        0
    }

    fn encode_local(&self, _topo: &Topology, _p: ProcessId, local: &Phase) -> u64 {
        phase_to_bits(*local)
    }

    fn decode_local(&self, _topo: &Topology, _p: ProcessId, bits: u64) -> Phase {
        phase_from_bits(bits)
    }

    fn encode_edge(&self, _topo: &Topology, _e: EdgeId, _value: &()) -> u64 {
        0
    }

    fn decode_edge(&self, _topo: &Topology, _e: EdgeId, _bits: u64) {}

    fn respects_symmetry(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diners_sim::engine::Engine;
    use diners_sim::fault::FaultPlan;
    use diners_sim::graph::Topology;
    use diners_sim::scheduler::{AdversarialScheduler, Adversary, RandomScheduler};

    #[test]
    fn exclusion_holds_under_serial_daemon() {
        let mut e = Engine::builder(GreedyDiners, Topology::ring(7))
            .scheduler(RandomScheduler::new(4))
            .faults(FaultPlan::new().from_arbitrary_state())
            .seed(4)
            .build();
        e.run(20_000);
        // From an arbitrary state, initial double-eating pairs drain and
        // no new ones form.
        let (_, live_pairs) = e.eating_pairs();
        assert_eq!(live_pairs, 0);
    }

    #[test]
    fn service_is_unfair_under_hostile_daemon() {
        // Starve process 2: the adversary only schedules it when forced.
        let mut e = Engine::builder(GreedyDiners, Topology::line(5))
            .scheduler(AdversarialScheduler::new(
                Adversary::StarveProcess(ProcessId(2)),
                64,
                0,
            ))
            .seed(0)
            .build();
        e.run(30_000);
        let victim = e.metrics().eats_of(ProcessId(2));
        let max = e.metrics().eats().iter().copied().max().unwrap();
        assert!(
            victim * 4 < max,
            "victim {victim} vs max {max}: greedy has no fairness mechanism"
        );
    }

    #[test]
    fn crash_while_eating_starves_neighbors_only() {
        // Greedy's locality for a single crash is 1: only direct
        // neighbors of the dead eater block.
        let mut e = Engine::builder(GreedyDiners, Topology::line(6))
            .scheduler(RandomScheduler::new(9))
            .faults(FaultPlan::new().malicious_crash(50, 2, 4))
            .seed(9)
            .build();
        e.run(5_000);
        let since = e.step_count();
        e.run(20_000);
        let to_crash = e.topology().distances_from(&[ProcessId(2)]);
        for p in e.topology().processes() {
            if e.is_dead(p) || to_crash[p.index()] <= 1 {
                continue;
            }
            assert!(
                e.metrics().last_eat_of(p) >= Some(since),
                "{p} starved though not adjacent to the crash"
            );
        }
    }
}
