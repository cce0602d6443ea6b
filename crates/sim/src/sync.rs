//! A synchronous (maximally concurrent) daemon — the model the paper's
//! algorithm is *not* designed for.
//!
//! The paper's computation model executes one enabled action at a time
//! with its guard and command atomic (composite atomicity, central
//! daemon). [`SyncEngine`] instead runs *rounds*: every live process
//! evaluates its guards against the same pre-state, each picks one
//! enabled action, and all commands are applied together. This breaks
//! the atomicity assumption — two hungry neighbors can both observe
//! "ancestor thinking / descendant not eating" and `enter`
//! simultaneously — and is exactly why the message-passing
//! transformation of §4 needs a synchronization handshake rather than a
//! naive translation. The T8 experiment uses this engine to show which
//! algorithms are robust to the daemon (token/fork-based exclusion) and
//! which are not (state-reading guards).
//!
//! Write conflicts on shared edge variables (both endpoints writing the
//! same edge in one round) are resolved in favor of the lower process
//! id, deterministically.

use rand::rngs::StdRng;
use rand::Rng;

use crate::algorithm::{
    enabled_actions, ActionId, DinerAlgorithm, Move, Phase, SystemState, View, Write,
};
use crate::graph::{ProcessId, Topology};
use crate::rng;

/// A synchronous-rounds executor; see the module docs.
pub struct SyncEngine<A: DinerAlgorithm> {
    alg: A,
    topo: Topology,
    state: SystemState<A>,
    rng: StdRng,
    round: u64,
    meals: Vec<u64>,
    /// Rounds in which at least one pair of neighbors was simultaneously
    /// eating.
    violation_rounds: u64,
}

impl<A: DinerAlgorithm> SyncEngine<A> {
    /// A synchronous engine on the algorithm's legitimate initial state
    /// with an always-hungry workload.
    pub fn new(alg: A, topo: Topology, seed: u64) -> Self {
        let state = SystemState::initial(&alg, &topo);
        SyncEngine {
            meals: vec![0; topo.len()],
            alg,
            state,
            rng: rng::rng(rng::subseed(seed, 0x5CCE)),
            round: 0,
            violation_rounds: 0,
            topo,
        }
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Rounds executed.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// Meals completed by `p`.
    pub fn meals_of(&self, p: ProcessId) -> u64 {
        self.meals[p.index()]
    }

    /// Rounds with two neighbors simultaneously eating.
    pub fn violation_rounds(&self) -> u64 {
        self.violation_rounds
    }

    /// The current phase of `p`.
    pub fn phase_of(&self, p: ProcessId) -> Phase {
        self.alg.phase(self.state.local(p))
    }

    /// Execute one synchronous round: all guards against the pre-state,
    /// one action per process, all commands applied together.
    pub fn round(&mut self) {
        // Select one enabled move per process against the frozen state.
        let mut selected: Vec<Move> = Vec::new();
        for p in self.topo.processes() {
            let view = View::new(&self.topo, &self.state, p, true);
            let enabled: Vec<ActionId> = enabled_actions(&self.alg, &view).collect();
            if !enabled.is_empty() {
                let action = enabled[self.rng.gen_range(0..enabled.len())];
                selected.push(Move { pid: p, action });
            }
        }

        // Compute all writes against the pre-state, then apply: locals
        // first (each process writes only its own), then edges with the
        // lower-id writer winning conflicts.
        let mut local_writes: Vec<(ProcessId, A::Local)> = Vec::new();
        let mut edge_writes: Vec<(ProcessId, ProcessId, A::Edge)> = Vec::new();
        for mv in &selected {
            let view = View::new(&self.topo, &self.state, mv.pid, true);
            for w in self.alg.execute(&view, mv.action) {
                match w {
                    Write::Local(l) => local_writes.push((mv.pid, l)),
                    Write::Edge { neighbor, value } => edge_writes.push((mv.pid, neighbor, value)),
                }
            }
        }
        let before: Vec<Phase> = self
            .topo
            .processes()
            .map(|p| self.alg.phase(self.state.local(p)))
            .collect();
        for (p, l) in local_writes {
            *self.state.local_mut(p) = l;
        }
        // Higher-id writes first so lower-id writes land last (and win).
        edge_writes.sort_by_key(|(writer, _, _)| std::cmp::Reverse(*writer));
        for (writer, neighbor, value) in edge_writes {
            let e = self
                .topo
                .edge_between(writer, neighbor)
                .expect("edge write to neighbor");
            *self.state.edge_mut(e) = value;
        }

        // Bookkeeping.
        for p in self.topo.processes() {
            let now = self.alg.phase(self.state.local(p));
            if now == Phase::Eating && before[p.index()] != Phase::Eating {
                self.meals[p.index()] += 1;
            }
        }
        let violated = self.topo.edges().iter().any(|&(a, b)| {
            self.alg.phase(self.state.local(a)) == Phase::Eating
                && self.alg.phase(self.state.local(b)) == Phase::Eating
        });
        if violated {
            self.violation_rounds += 1;
        }
        self.round += 1;
    }

    /// Execute `rounds` synchronous rounds.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.round();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{ActionKind, Algorithm, DinerAlgorithm};
    use crate::graph::{EdgeId, Topology};
    use crate::toy::ToyDiners;

    /// A deliberately daemon-naive diner: enter whenever no neighbor is
    /// eating, with no tie-break whatsoever — safe under the serial
    /// daemon, broken under the synchronous one.
    #[derive(Clone, Copy, Debug)]
    struct NaiveDiners;

    const NAIVE_KINDS: &[ActionKind] = &[
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

    impl Algorithm for NaiveDiners {
        type Local = Phase;
        type Edge = ();
        fn name(&self) -> &str {
            "naive"
        }
        fn kinds(&self) -> &[ActionKind] {
            NAIVE_KINDS
        }
        fn init_local(&self, _t: &Topology, _p: ProcessId) -> Phase {
            Phase::Thinking
        }
        fn init_edge(&self, _t: &Topology, _e: EdgeId) {}
        fn enabled(&self, view: &View<'_, Self>, a: ActionId) -> bool {
            let me = *view.local();
            match a.kind {
                0 => me == Phase::Thinking && view.needs(),
                1 => {
                    me == Phase::Hungry
                        && view
                            .neighbors()
                            .iter()
                            .all(|&q| *view.neighbor_local(q) != Phase::Eating)
                }
                2 => me == Phase::Eating,
                _ => false,
            }
        }
        fn execute(&self, _v: &View<'_, Self>, a: ActionId) -> Vec<Write<Self>> {
            vec![Write::Local(match a.kind {
                0 => Phase::Hungry,
                1 => Phase::Eating,
                _ => Phase::Thinking,
            })]
        }
        fn corrupt_local(&self, _r: &mut StdRng, _t: &Topology, _p: ProcessId) -> Phase {
            Phase::Thinking
        }
        fn corrupt_edge(&self, _r: &mut StdRng, _t: &Topology, _e: EdgeId) {}
    }

    impl DinerAlgorithm for NaiveDiners {
        fn phase(&self, l: &Phase) -> Phase {
            *l
        }
    }

    #[test]
    fn naive_guards_break_under_the_synchronous_daemon() {
        let mut e = SyncEngine::new(NaiveDiners, Topology::ring(6), 0);
        e.run(2_000);
        assert!(
            e.violation_rounds() > 0,
            "two hungry neighbors must eventually enter in the same round"
        );
    }

    #[test]
    fn id_tie_break_protects_toy_diners_even_under_sync() {
        // ToyDiners' enter defers to hungry lower-id neighbors; for any
        // adjacent pair one is lower, so simultaneous enters of
        // neighbors are impossible even with stale concurrent guards.
        let mut e = SyncEngine::new(ToyDiners, Topology::ring(6), 0);
        e.run(5_000);
        assert_eq!(e.violation_rounds(), 0);
    }

    #[test]
    fn rounds_and_meals_are_counted() {
        let mut e = SyncEngine::new(ToyDiners, Topology::line(4), 1);
        e.run(500);
        assert_eq!(e.rounds(), 500);
        let total: u64 = e.topology().processes().map(|p| e.meals_of(p)).sum();
        assert!(total > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut e = SyncEngine::new(ToyDiners, Topology::ring(5), seed);
            e.run(1_000);
            (
                e.violation_rounds(),
                e.topology()
                    .processes()
                    .map(|p| e.meals_of(p))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(3), run(3));
    }
}
