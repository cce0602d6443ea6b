//! Exhaustive paper-property checks on small conflict graphs.
//!
//! Where the experiment suite samples, this suite *enumerates*:
//!
//! * **Convergence** — for every state in a perturbation lattice (all
//!   phase × depth × edge-orientation combinations), the deterministic
//!   round-robin daemon run from that state reaches the invariant `I`.
//!   The daemon is weakly fair and memoryless given its cursor, so each
//!   `(state, cursor)` pair has exactly one successor and the whole
//!   lattice is checked by memoized trajectory walking — a cycle that
//!   avoids `I` would be found, not sampled around. Convergence times
//!   land in a telemetry histogram whose max is the *measured* bound.
//! * **Closure** — every `I`-state encountered is checked against every
//!   enabled move: `I` stays true. This is exhaustive over moves, not
//!   just over the daemon's choice.
//! * **Failure locality** — for every single-crash scenario (every site,
//!   benign and malicious) the measured disturbance radius in meal
//!   shortfall is ≤ 2, the paper's Theorem 2/3 bound.
//!
//! Depth lattices: on `line(3)` the *full* corruption domain
//! (`0..=2·bound+8`, matching `corrupt_local`) is enumerated; on the
//! larger graphs a sub-lattice crossing the cycle-evidence threshold
//! (`0..=bound+1`) keeps the product tractable while still exercising
//! the depth-exit path from both sides.

use std::collections::HashMap;

use diners_core::harness::{crash_disturbance, service_shortfall};
use diners_core::predicates::Invariant;
use diners_core::MaliciousCrashDiners;
use diners_sim::algorithm::{enabled_actions, Algorithm, Phase, SystemState, View};
use diners_sim::fault::{FaultKind, Health};
use diners_sim::graph::{EdgeId, ProcessId, Topology};
use diners_sim::predicate::{Snapshot, StatePredicate};
use diners_sim::telemetry::Histogram;

/// Depth values are encoded in this radix; trajectories may push depth
/// a few steps past the enumerated lattice (fixdepth chains) but must
/// stay under this.
const DEPTH_RADIX: u64 = 64;

/// Memo sentinel: the key is on the current trajectory.
const IN_PROGRESS: u32 = u32::MAX;

fn phase_index(p: Phase) -> u64 {
    match p {
        Phase::Thinking => 0,
        Phase::Hungry => 1,
        Phase::Eating => 2,
    }
}

fn phase_of(i: u64) -> Phase {
    match i {
        0 => Phase::Thinking,
        1 => Phase::Hungry,
        _ => Phase::Eating,
    }
}

/// Exact encoding of a system state (locals then edge orientations),
/// used as the memo key. Panics if a depth outgrows [`DEPTH_RADIX`].
fn encode(topo: &Topology, state: &SystemState<MaliciousCrashDiners>) -> u64 {
    let mut key = 0u64;
    for l in state.locals() {
        assert!(
            (l.depth as u64) < DEPTH_RADIX,
            "depth {} outgrew the encoding radix",
            l.depth
        );
        key = key * (3 * DEPTH_RADIX) + phase_index(l.phase) * DEPTH_RADIX + l.depth as u64;
    }
    for e in 0..topo.edge_count() {
        let (a, b) = topo.endpoints(EdgeId(e));
        let anc = state.edge(EdgeId(e)).ancestor;
        assert!(anc == a || anc == b, "ancestor {anc} not an endpoint");
        key = key * 2 + u64::from(anc == b);
    }
    key
}

/// The deterministic round-robin central daemon: starting at `cursor`,
/// the first process (in wrap-around order) with an enabled action takes
/// its first enabled action (`needs` is always true — the heaviest
/// workload). Returns the executing process, or `None` if the system is
/// quiescent.
fn rr_successor(
    alg: &MaliciousCrashDiners,
    topo: &Topology,
    state: &mut SystemState<MaliciousCrashDiners>,
    cursor: usize,
) -> Option<usize> {
    let n = topo.len();
    for off in 0..n {
        let pid = ProcessId((cursor + off) % n);
        let view = View::new(topo, state, pid, true);
        let fire = enabled_actions(alg, &view)
            .next()
            .map(|a| alg.execute(&view, a));
        if let Some(writes) = fire {
            state.apply(topo, pid, writes);
            return Some(pid.index());
        }
    }
    None
}

/// Check `I`-closure at `state` exhaustively: every enabled move of
/// every process leaves `I` true.
fn assert_closed(
    alg: &MaliciousCrashDiners,
    topo: &Topology,
    state: &SystemState<MaliciousCrashDiners>,
    invariant: &Invariant,
    health: &[Health],
) {
    for pid in topo.processes() {
        let view = View::new(topo, state, pid, true);
        for a in enabled_actions(alg, &view) {
            let mut next = state.clone();
            next.apply(topo, pid, alg.execute(&view, a));
            assert!(
                invariant.holds(&Snapshot::new(topo, &next, health)),
                "I not closed under {a:?} at {pid} from locals {:?}",
                state.locals()
            );
        }
    }
}

/// Walk the trajectory from `(start, cursor 0)` with memoization,
/// returning steps to the first `I`-state. Detects cycles (states from
/// which the fair daemon never reaches `I`) and quiescent deadlocks.
fn steps_to_invariant(
    alg: &MaliciousCrashDiners,
    topo: &Topology,
    invariant: &Invariant,
    health: &[Health],
    start: SystemState<MaliciousCrashDiners>,
    memo: &mut HashMap<u64, u32>,
) -> u32 {
    let n = topo.len() as u64;
    let mut state = start;
    let mut cursor = 0usize;
    let mut path: Vec<u64> = Vec::new();
    let base = loop {
        let key = encode(topo, &state) * n + cursor as u64;
        match memo.get(&key) {
            Some(&IN_PROGRESS) => panic!(
                "cycle avoiding I from locals {:?} edges {:?} (cursor {cursor})",
                state.locals(),
                state.edges()
            ),
            Some(&v) => break v,
            None => {}
        }
        if invariant.holds(&Snapshot::new(topo, &state, health)) {
            assert_closed(alg, topo, &state, invariant, health);
            memo.insert(key, 0);
            break 0;
        }
        memo.insert(key, IN_PROGRESS);
        path.push(key);
        let fired = rr_successor(alg, topo, &mut state, cursor);
        match fired {
            Some(pid) => cursor = (pid + 1) % topo.len(),
            None => panic!(
                "quiescent non-I state: locals {:?} edges {:?}",
                state.locals(),
                state.edges()
            ),
        }
    };
    let mut steps = base;
    for key in path.into_iter().rev() {
        steps += 1;
        memo.insert(key, steps);
    }
    steps
}

/// Enumerate the full perturbation lattice (every phase × depth in
/// `0..=depth_max` per process, every orientation per edge) and verify
/// convergence from each state. Returns the telemetry histogram of
/// convergence times.
fn exhaustive_convergence(alg: MaliciousCrashDiners, topo: &Topology, depth_max: u32) -> Histogram {
    let n = topo.len();
    let edges = topo.edge_count();
    let invariant = Invariant::for_algorithm(&alg);
    let health = vec![Health::Live; n];
    let per_local = 3 * (depth_max as u64 + 1);
    let total: u64 = per_local.pow(n as u32) * 2u64.pow(edges as u32);

    let mut hist = Histogram::pow2();
    let mut memo: HashMap<u64, u32> = HashMap::new();
    let template = SystemState::initial(&alg, topo);
    for idx in 0..total {
        let mut state = template.clone();
        let mut rest = idx;
        for p in 0..n {
            let v = rest % per_local;
            rest /= per_local;
            let local = state.local_mut(ProcessId(p));
            local.phase = phase_of(v / (depth_max as u64 + 1));
            local.depth = (v % (depth_max as u64 + 1)) as u32;
        }
        for e in 0..edges {
            let bit = rest % 2;
            rest /= 2;
            let (a, b) = topo.endpoints(EdgeId(e));
            state.edge_mut(EdgeId(e)).ancestor = if bit == 1 { b } else { a };
        }
        let steps = steps_to_invariant(&alg, topo, &invariant, &health, state, &mut memo);
        hist.record(steps as u64);
    }
    assert_eq!(
        hist.count(),
        total,
        "{}: lattice not fully swept",
        topo.name()
    );
    hist
}

#[test]
fn every_perturbed_state_converges_on_line3() {
    // line(3): the full corruption domain of `corrupt_local`
    // (0..=2·bound+8), both variants. The paper's own bound (diameter)
    // is sound on trees, so it must pass here too.
    let topo = Topology::line(3);
    for (alg, bound) in [
        (MaliciousCrashDiners::paper(), topo.diameter()),
        (MaliciousCrashDiners::corrected(), topo.len() as u32),
    ] {
        let name = alg.name().to_string();
        let hist = exhaustive_convergence(alg, &topo, 2 * bound + 8);
        let max = hist.max().expect("non-empty sweep");
        assert!(
            max <= 200,
            "{name}: measured convergence bound {max} is implausibly large"
        );
    }
}

#[test]
fn every_perturbed_state_converges_on_ring4() {
    // ring(4): corrected variant (the paper's diameter bound is the
    // T1 soundness gap on cyclic graphs); depth sub-lattice crossing
    // the cycle-evidence threshold n=4 from both sides.
    let topo = Topology::ring(4);
    let bound = topo.len() as u32;
    let hist = exhaustive_convergence(MaliciousCrashDiners::corrected(), &topo, bound + 1);
    let max = hist.max().expect("non-empty sweep");
    assert!(
        max <= 200,
        "measured convergence bound {max} implausibly large"
    );
}

#[test]
fn every_perturbed_state_converges_on_star4() {
    // star(4): hub contention, both variants (a star is a tree, so the
    // paper's diameter bound applies); threshold-crossing sub-lattices.
    let topo = Topology::star(4);
    for (alg, bound) in [
        (MaliciousCrashDiners::paper(), topo.diameter()),
        (MaliciousCrashDiners::corrected(), topo.len() as u32),
    ] {
        let name = alg.name().to_string();
        let hist = exhaustive_convergence(alg, &topo, bound + 1);
        let max = hist.max().expect("non-empty sweep");
        assert!(
            max <= 200,
            "{name}: measured convergence bound {max} is implausibly large"
        );
    }
}

/// Drive the round-robin daemon from the initial state until the
/// invariant first holds, yielding a legitimate configuration to plant
/// resurrection scenarios in.
fn legitimate_base(
    alg: &MaliciousCrashDiners,
    topo: &Topology,
) -> SystemState<MaliciousCrashDiners> {
    let invariant = Invariant::for_algorithm(alg);
    let health = vec![Health::Live; topo.len()];
    let mut state = SystemState::initial(alg, topo);
    let mut cursor = 0usize;
    for _ in 0..10_000 {
        if invariant.holds(&Snapshot::new(topo, &state, &health)) {
            return state;
        }
        match rr_successor(alg, topo, &mut state, cursor) {
            Some(pid) => cursor = (pid + 1) % topo.len(),
            None => break,
        }
    }
    panic!("{}: no legitimate base state reached", topo.name());
}

#[test]
fn arbitrary_resurrection_always_reconverges() {
    // Snapshot/resurrect semantics, exhaustively: a node reborn with
    // *arbitrary* local state (every phase × the full `corrupt_local`
    // depth domain) and arbitrary orientations on its incident edges,
    // planted in an otherwise legitimate configuration, always
    // reconverges to `I` under the memoized round-robin daemon. This is
    // the state-space counterpart of `Resurrection::Arbitrary` in the
    // engine and SimNet: stabilization makes restart-from-garbage sound.
    for topo in [Topology::line(4), Topology::ring(4), Topology::star(4)] {
        let is_tree = topo.edge_count() + 1 == topo.len();
        let mut variants = vec![(MaliciousCrashDiners::corrected(), 2 * topo.len() as u32 + 8)];
        if is_tree {
            variants.push((MaliciousCrashDiners::paper(), 2 * topo.diameter() + 8));
        }
        for (alg, depth_max) in variants {
            let name = alg.name().to_string();
            let invariant = Invariant::for_algorithm(&alg);
            let health = vec![Health::Live; topo.len()];
            let base = legitimate_base(&alg, &topo);
            let per_local = 3 * (depth_max as u64 + 1);
            let mut memo: HashMap<u64, u32> = HashMap::new();
            let mut hist = Histogram::pow2();
            for victim in topo.processes() {
                let incident: Vec<EdgeId> = (0..topo.edge_count())
                    .map(EdgeId)
                    .filter(|&e| {
                        let (a, b) = topo.endpoints(e);
                        a == victim || b == victim
                    })
                    .collect();
                let total = per_local * 2u64.pow(incident.len() as u32);
                for idx in 0..total {
                    let mut state = base.clone();
                    let mut rest = idx;
                    let v = rest % per_local;
                    rest /= per_local;
                    let local = state.local_mut(victim);
                    local.phase = phase_of(v / (depth_max as u64 + 1));
                    local.depth = (v % (depth_max as u64 + 1)) as u32;
                    for &e in &incident {
                        let bit = rest % 2;
                        rest /= 2;
                        let (a, b) = topo.endpoints(e);
                        state.edge_mut(e).ancestor = if bit == 1 { b } else { a };
                    }
                    let steps =
                        steps_to_invariant(&alg, &topo, &invariant, &health, state, &mut memo);
                    hist.record(steps as u64);
                }
            }
            let max = hist.max().expect("non-empty resurrection sweep");
            assert!(
                max <= 200,
                "{} {name}: resurrection reconvergence bound {max} implausibly large",
                topo.name()
            );
        }
    }
}

#[test]
fn disturbance_radius_at_most_two_for_every_single_crash() {
    // Every crash site × fault kind on the exhaustive graphs plus two
    // larger instances where distances > 2 actually exist (on a 4-cycle
    // every process is within distance 2 of everything).
    let steps = 3_000u64;
    let slack = steps / 256;
    let topos = [
        Topology::line(3),
        Topology::ring(4),
        Topology::star(4),
        Topology::line(6),
        Topology::ring(8),
    ];
    for topo in topos {
        for kind in [FaultKind::Crash, FaultKind::MaliciousCrash { steps: 4 }] {
            for site in topo.processes() {
                let report = crash_disturbance(
                    MaliciousCrashDiners::corrected(),
                    &topo,
                    site,
                    kind,
                    300,
                    steps,
                    &service_shortfall(slack),
                    7,
                );
                assert!(
                    report.radius <= 2,
                    "{} {kind} at {site}: radius {} (deviating {:?})",
                    topo.name(),
                    report.radius,
                    report.deviating
                );
            }
        }
    }
}
