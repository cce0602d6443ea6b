//! A hygienic (Chandy–Misra style) diner in the shared-memory model.
//!
//! The classic fork-based solution [Chandy & Misra 1984], restated with
//! one shared variable per edge holding the fork position, its
//! cleanliness, and the position of the request token:
//!
//! * a hungry process that lacks a fork and holds the request token sends
//!   the request (moves the token to the holder);
//! * a process holding a *dirty* requested fork and not eating cleans it
//!   and hands it over (dirty forks must be yielded — this is the
//!   fairness mechanism);
//! * *clean* forks are never yielded;
//! * a hungry process holding all its forks eats, dirtying them.
//!
//! Properties, for contrast with the paper's algorithm:
//!
//! * **Exclusion is structural** (a fork is in one place), even from
//!   arbitrary states.
//! * **Not stabilizing for liveness**: corrupted fork/token states can
//!   deadlock forever (e.g. a cycle of clean forks with misplaced request
//!   tokens) — see `deadlock_from_corrupted_state`.
//! * **Failure locality is not bounded by a constant**: a process stuck
//!   hungry behind a crash holds its *clean* forks forever, starving
//!   neighbors transitively along waiting chains.

use rand::rngs::StdRng;
use rand::Rng;

use diners_sim::algorithm::{ActionId, ActionKind, Algorithm, DinerAlgorithm, Phase, View, Write};
use diners_sim::codec::{phase_from_bits, phase_to_bits, StateCodec};
use diners_sim::graph::{EdgeId, ProcessId, Topology};
use diners_sim::symmetry::Perm;

/// The shared per-edge variable: fork position, cleanliness, request
/// token position.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ForkVar {
    /// Which endpoint currently holds the fork.
    pub fork_at: ProcessId,
    /// Whether the fork has been used since it last moved.
    pub dirty: bool,
    /// Which endpoint currently holds the request token.
    pub req_at: ProcessId,
}

/// Action kind index of `join`.
pub const HY_JOIN: usize = 0;
/// Action kind index of `request` (per-neighbor).
pub const HY_REQUEST: usize = 1;
/// Action kind index of `grant` (per-neighbor).
pub const HY_GRANT: usize = 2;
/// Action kind index of `enter`.
pub const HY_ENTER: usize = 3;
/// Action kind index of `exit`.
pub const HY_EXIT: usize = 4;

const KINDS: &[ActionKind] = &[
    ActionKind {
        name: "join",
        per_neighbor: false,
    },
    ActionKind {
        name: "request",
        per_neighbor: true,
    },
    ActionKind {
        name: "grant",
        per_neighbor: true,
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

/// The hygienic diner; see the module docs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HygienicDiners;

impl HygienicDiners {
    fn holds_all_forks(&self, view: &View<'_, Self>) -> bool {
        view.neighbors()
            .iter()
            .all(|&q| view.edge_to(q).fork_at == view.pid())
    }
}

impl Algorithm for HygienicDiners {
    type Local = Phase;
    type Edge = ForkVar;

    fn name(&self) -> &str {
        "hygienic"
    }

    fn kinds(&self) -> &[ActionKind] {
        KINDS
    }

    fn init_local(&self, _topo: &Topology, _p: ProcessId) -> Phase {
        Phase::Thinking
    }

    fn init_edge(&self, topo: &Topology, e: EdgeId) -> ForkVar {
        // Standard initialization: all forks dirty, placed so the
        // precedence order is the (acyclic) id order; request tokens at
        // the opposite endpoints.
        let (lo, hi) = topo.endpoints(e);
        ForkVar {
            fork_at: lo,
            dirty: true,
            req_at: hi,
        }
    }

    fn enabled(&self, view: &View<'_, Self>, action: ActionId) -> bool {
        let me = *view.local();
        let pid = view.pid();
        match action.kind {
            HY_JOIN => me == Phase::Thinking && view.needs(),
            HY_REQUEST => {
                let Some(slot) = action.slot else {
                    return false;
                };
                if slot >= view.neighbors().len() {
                    return false;
                }
                let q = view.neighbor_at(slot);
                let edge = view.edge_to(q);
                me == Phase::Hungry && edge.req_at == pid && edge.fork_at == q
            }
            HY_GRANT => {
                let Some(slot) = action.slot else {
                    return false;
                };
                if slot >= view.neighbors().len() {
                    return false;
                }
                let q = view.neighbor_at(slot);
                let edge = view.edge_to(q);
                me != Phase::Eating && edge.fork_at == pid && edge.req_at == pid && edge.dirty
            }
            HY_ENTER => me == Phase::Hungry && self.holds_all_forks(view),
            HY_EXIT => me == Phase::Eating,
            _ => false,
        }
    }

    fn execute(&self, view: &View<'_, Self>, action: ActionId) -> Vec<Write<Self>> {
        let pid = view.pid();
        match action.kind {
            HY_JOIN => vec![Write::Local(Phase::Hungry)],
            HY_REQUEST => {
                let q = view.neighbor_at(action.slot.expect("request is per-neighbor"));
                let mut edge = *view.edge_to(q);
                edge.req_at = q;
                vec![Write::Edge {
                    neighbor: q,
                    value: edge,
                }]
            }
            HY_GRANT => {
                let q = view.neighbor_at(action.slot.expect("grant is per-neighbor"));
                let mut edge = *view.edge_to(q);
                edge.fork_at = q;
                edge.dirty = false;
                vec![Write::Edge {
                    neighbor: q,
                    value: edge,
                }]
            }
            HY_ENTER => {
                // Eat and dirty every fork (they are all here).
                let mut writes: Vec<Write<Self>> = vec![Write::Local(Phase::Eating)];
                for &q in view.neighbors() {
                    let mut edge = *view.edge_to(q);
                    edge.dirty = true;
                    debug_assert_eq!(edge.fork_at, pid);
                    writes.push(Write::Edge {
                        neighbor: q,
                        value: edge,
                    });
                }
                writes
            }
            HY_EXIT => vec![Write::Local(Phase::Thinking)],
            _ => unreachable!("unknown hygienic action {action:?}"),
        }
    }

    fn corrupt_local(&self, rng: &mut StdRng, _topo: &Topology, _p: ProcessId) -> Phase {
        match rng.gen_range(0..3) {
            0 => Phase::Thinking,
            1 => Phase::Hungry,
            _ => Phase::Eating,
        }
    }

    fn corrupt_edge(&self, rng: &mut StdRng, topo: &Topology, e: EdgeId) -> ForkVar {
        let (a, b) = topo.endpoints(e);
        ForkVar {
            fork_at: if rng.gen_bool(0.5) { a } else { b },
            dirty: rng.gen_bool(0.5),
            req_at: if rng.gen_bool(0.5) { a } else { b },
        }
    }
}

impl DinerAlgorithm for HygienicDiners {
    fn phase(&self, local: &Phase) -> Phase {
        *local
    }
}

/// 2 bits per process (the phase), 3 bits per edge: which endpoint holds
/// the fork (0 = lower id, 1 = higher), `dirty`, and which endpoint holds
/// the request token. A ring(12) state packs into a single `u64`
/// (24 + 36 = 60 bits) instead of ~340 cloned heap bytes.
///
/// Hygienic's guards are all relative (fork/token at me vs at you), so the
/// program itself is equivariant and `respects_symmetry` is `true`; the
/// endpoint ids stored inside [`ForkVar`] are rewritten by `permute_edge`.
impl StateCodec for HygienicDiners {
    fn local_bits(&self, _topo: &Topology) -> u32 {
        2
    }

    fn edge_bits(&self, _topo: &Topology) -> u32 {
        3
    }

    fn encode_local(&self, _topo: &Topology, _p: ProcessId, local: &Phase) -> u64 {
        phase_to_bits(*local)
    }

    fn decode_local(&self, _topo: &Topology, _p: ProcessId, bits: u64) -> Phase {
        phase_from_bits(bits)
    }

    fn encode_edge(&self, topo: &Topology, e: EdgeId, value: &ForkVar) -> u64 {
        let (lo, hi) = topo.endpoints(e);
        debug_assert!(value.fork_at == lo || value.fork_at == hi);
        debug_assert!(value.req_at == lo || value.req_at == hi);
        (value.fork_at == hi) as u64
            | ((value.dirty as u64) << 1)
            | (((value.req_at == hi) as u64) << 2)
    }

    fn decode_edge(&self, topo: &Topology, e: EdgeId, bits: u64) -> ForkVar {
        let (lo, hi) = topo.endpoints(e);
        ForkVar {
            fork_at: if bits & 1 == 0 { lo } else { hi },
            dirty: bits & 0b10 != 0,
            req_at: if bits & 0b100 == 0 { lo } else { hi },
        }
    }

    fn respects_symmetry(&self) -> bool {
        true
    }

    fn permute_edge(&self, _topo: &Topology, perm: &Perm, _e: EdgeId, value: &ForkVar) -> ForkVar {
        ForkVar {
            fork_at: perm.apply(value.fork_at),
            dirty: value.dirty,
            req_at: perm.apply(value.req_at),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diners_sim::algorithm::SystemState;
    use diners_sim::engine::Engine;
    use diners_sim::fault::FaultPlan;
    use diners_sim::graph::Topology;
    use diners_sim::scheduler::RandomScheduler;

    fn engine(topo: Topology, faults: FaultPlan, seed: u64) -> Engine<HygienicDiners> {
        Engine::builder(HygienicDiners, topo)
            .scheduler(RandomScheduler::new(seed))
            .faults(faults)
            .seed(seed)
            .build()
    }

    #[test]
    fn everyone_eats_from_legitimate_states() {
        let mut e = engine(Topology::ring(6), FaultPlan::none(), 2);
        e.run(30_000);
        for p in e.topology().processes() {
            assert!(e.metrics().eats_of(p) > 0, "{p} never ate");
        }
        assert_eq!(e.metrics().violation_step_count(), 0);
    }

    #[test]
    fn exclusion_is_structural_even_from_corrupted_edges() {
        for seed in 0..5 {
            let mut e = engine(
                Topology::ring(5),
                FaultPlan::new().from_arbitrary_state(),
                seed,
            );
            e.run(15_000);
            let (_, live) = e.eating_pairs();
            assert_eq!(live, 0, "seed {seed}");
        }
    }

    #[test]
    fn deadlock_from_corrupted_state() {
        // A cycle of clean forks with every request token resting at the
        // fork holder: nobody can request, nobody will grant (clean), so
        // every hungry process is stuck forever. This is why the baseline
        // is not stabilizing.
        let t = Topology::ring(4);
        let mut s: SystemState<HygienicDiners> = SystemState::initial(&HygienicDiners, &t);
        for i in 0..4 {
            let q = (i + 1) % 4;
            let e = t
                .edge_between(ProcessId(i), ProcessId(q))
                .expect("ring edge");
            // Fork held by i, clean, request token also at i.
            *s.edge_mut(e) = ForkVar {
                fork_at: ProcessId(i),
                dirty: false,
                req_at: ProcessId(i),
            };
            *s.local_mut(ProcessId(i)) = Phase::Hungry;
        }
        let mut e = Engine::builder(HygienicDiners, t)
            .scheduler(RandomScheduler::new(3))
            .initial_state(s)
            .seed(3)
            .build();
        e.run(20_000);
        assert_eq!(
            e.metrics().total_eats(),
            0,
            "the corrupted configuration deadlocks; hygienic diners cannot recover"
        );
    }

    #[test]
    fn exclusion_recovers_after_the_malicious_window() {
        // During its malicious phase a process may claim `Eating` without
        // holding forks, so exclusion can break *while* the fault is
        // active; once it halts, no live pair may eat again.
        let mut e = engine(
            Topology::line(5),
            FaultPlan::new().malicious_crash(200, 2, 2),
            4,
        );
        e.run(3_000); // crash struck and completed long ago
        let violations_at_settle = e.metrics().violation_step_count();
        e.run(25_000);
        assert!(e.is_dead(ProcessId(2)));
        assert_eq!(
            e.metrics().violation_step_count(),
            violations_at_settle,
            "no new exclusion violations after the malicious window"
        );
    }

    #[test]
    fn initial_edges_follow_id_order() {
        let t = Topology::line(3);
        let s: SystemState<HygienicDiners> = SystemState::initial(&HygienicDiners, &t);
        for i in 0..t.edge_count() {
            let e = diners_sim::graph::EdgeId(i);
            let (lo, hi) = t.endpoints(e);
            let v = s.edge(e);
            assert_eq!(v.fork_at, lo);
            assert_eq!(v.req_at, hi);
            assert!(v.dirty);
        }
    }

    #[test]
    fn grant_cleans_and_moves_the_fork() {
        let t = Topology::line(2);
        let mut s: SystemState<HygienicDiners> = SystemState::initial(&HygienicDiners, &t);
        *s.local_mut(ProcessId(1)) = Phase::Hungry;
        // p1 requests: token moves to p0.
        {
            let v = diners_sim::algorithm::View::new(&t, &s, ProcessId(1), true);
            let slot = t.slot_of(ProcessId(1), ProcessId(0));
            assert!(HygienicDiners.enabled(&v, ActionId::at_slot(HY_REQUEST, slot)));
            let w = HygienicDiners.execute(&v, ActionId::at_slot(HY_REQUEST, slot));
            s.apply(&t, ProcessId(1), w);
        }
        let e = t.edge_between(ProcessId(0), ProcessId(1)).unwrap();
        assert_eq!(s.edge(e).req_at, ProcessId(0));
        // p0 grants: fork moves, cleaned.
        {
            let v = diners_sim::algorithm::View::new(&t, &s, ProcessId(0), false);
            let slot = t.slot_of(ProcessId(0), ProcessId(1));
            assert!(HygienicDiners.enabled(&v, ActionId::at_slot(HY_GRANT, slot)));
            let w = HygienicDiners.execute(&v, ActionId::at_slot(HY_GRANT, slot));
            s.apply(&t, ProcessId(0), w);
        }
        assert_eq!(s.edge(e).fork_at, ProcessId(1));
        assert!(!s.edge(e).dirty);
        // A clean fork is not granted back.
        *s.local_mut(ProcessId(0)) = Phase::Hungry;
        let v = diners_sim::algorithm::View::new(&t, &s, ProcessId(1), true);
        let slot = t.slot_of(ProcessId(1), ProcessId(0));
        assert!(!HygienicDiners.enabled(&v, ActionId::at_slot(HY_GRANT, slot)));
    }
}
