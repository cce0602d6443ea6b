//! Exhaustive *liveness* certification of the paper's convergence claims.
//!
//! `paper_properties.rs` proves convergence under one specific weakly
//! fair daemon (deterministic round-robin): every lattice state's unique
//! rr-trajectory reaches `I`. That argument says nothing about the other
//! weakly fair daemons — a scheduler-dependent livelock would slip
//! through. This suite upgrades the claim to *all* weakly fair
//! executions: [`check_liveness_multi`] seeds the packed state graph
//! with every state of a perturbation lattice at once and searches the
//! `¬I` subgraph for a weakly fair lasso (or a `¬I` deadlock). A
//! [`certified`](LivenessReport::certified) result is a proof over the
//! complete reachable graph: no weakly fair schedule whatsoever can
//! avoid `I` from any lattice state.
//!
//! # Lattice scope
//!
//! On the trees (`line(3)`, `star(4)`) the full orientation lattice is
//! used, exactly as in `paper_properties.rs`: a tree admits no directed
//! priority cycle, so `fixdepth` chains are bounded and the closure of
//! the lattice under *all* interleavings is finite.
//!
//! On `ring(4)` the threshold sub-lattice is restricted to the 14
//! *acyclic* edge orientations (out of 16). This is not a convenience
//! cut — the 2 cyclic orientations genuinely cannot be certified by
//! finite graph search under process-level weak fairness:
//!
//! * `exit` is the only action that writes orientations, and it always
//!   makes the exiting process a sink, so an acyclic orientation stays
//!   acyclic forever (machine-checked below by
//!   [`exit_preserves_acyclicity_from_every_sublattice_root`]); the
//!   acyclic sub-lattice is closed and its sweep is exhaustive.
//! * From a cyclic orientation, every move either strictly increases a
//!   depth, strictly advances a phase toward `Eating`, or is an `exit`
//!   into the acyclic region (machine-checked below by
//!   [`cyclic_orientations_admit_no_cycle_before_an_exit`]). Hence no
//!   lasso exists *inside* the cyclic region at all — but the region's
//!   closure is infinite (a rotating `fixdepth` pump raises depths
//!   forever, each process moving infinitely often, which process-level
//!   weak fairness permits). The paper's convergence argument for
//!   priority cycles relies on the stronger action-level fairness that
//!   eventually fires the enabled depth-`exit`; a finite lasso search
//!   cannot (and honestly does not) certify the cyclic slice.

use diners_core::predicates::Invariant;
use diners_core::MaliciousCrashDiners;
use diners_sim::algorithm::{
    enabled_actions, Algorithm, Phase, SystemState, View, Write as AlgWrite,
};
use diners_sim::engine::Engine;
use diners_sim::explore::{Limits, Reduction};
use diners_sim::fault::Health;
use diners_sim::graph::{EdgeId, ProcessId, Topology};
use diners_sim::liveness::{check_liveness_multi, LivenessConfig, LivenessReport};
use diners_sim::predicate::{Snapshot, StatePredicate};
use diners_sim::scheduler::ScriptedScheduler;
use diners_sim::workload::AlwaysHungry;

fn phase_of(i: u64) -> Phase {
    match i {
        0 => Phase::Thinking,
        1 => Phase::Hungry,
        _ => Phase::Eating,
    }
}

/// Whether the priority orientation of `state` has a directed cycle
/// (edge direction: descendant → ancestor), by Kahn peeling.
fn orientation_is_cyclic(topo: &Topology, state: &SystemState<MaliciousCrashDiners>) -> bool {
    let n = topo.len();
    // out-degree of v = number of incident edges whose ancestor is the
    // other endpoint (v points at its ancestors).
    let mut out = vec![0usize; n];
    for e in 0..topo.edge_count() {
        let (a, b) = topo.endpoints(EdgeId(e));
        let anc = state.edge(EdgeId(e)).ancestor;
        let desc = if anc == a { b } else { a };
        out[desc.index()] += 1;
    }
    let mut removed = vec![false; n];
    while let Some(v) = (0..n).find(|&v| !removed[v] && out[v] == 0) {
        removed[v] = true;
        for e in 0..topo.edge_count() {
            let (a, b) = topo.endpoints(EdgeId(e));
            let anc = state.edge(EdgeId(e)).ancestor;
            if anc.index() == v {
                let desc = if anc == a { b } else { a };
                if !removed[desc.index()] {
                    out[desc.index()] -= 1;
                }
            }
        }
    }
    removed.iter().any(|&r| !r)
}

/// All states of the perturbation lattice: every phase × depth in
/// `0..=depth_max` per process, every orientation per edge (same
/// enumeration as `paper_properties.rs`), optionally restricted to
/// acyclic orientations.
fn lattice(
    alg: &MaliciousCrashDiners,
    topo: &Topology,
    depth_max: u32,
    acyclic_only: bool,
) -> Vec<SystemState<MaliciousCrashDiners>> {
    let n = topo.len();
    let edges = topo.edge_count();
    let per_local = 3 * (depth_max as u64 + 1);
    let total: u64 = per_local.pow(n as u32) * 2u64.pow(edges as u32);
    let template = SystemState::initial(alg, topo);
    let mut out = Vec::new();
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
        if acyclic_only && orientation_is_cyclic(topo, &state) {
            continue;
        }
        out.push(state);
    }
    out
}

/// Run the fairness-aware lasso search over the whole lattice and
/// require certification.
fn certify(
    alg: MaliciousCrashDiners,
    topo: &Topology,
    depth_max: u32,
    acyclic_only: bool,
    reduction: Reduction,
) -> LivenessReport {
    let n = topo.len();
    let invariant = Invariant::for_algorithm(&alg);
    let health = vec![Health::Live; n];
    let needs = vec![true; n];
    let report = check_liveness_multi(
        &alg,
        topo,
        lattice(&alg, topo, depth_max, acyclic_only),
        &health,
        &needs,
        &[|snap: &Snapshot<'_, MaliciousCrashDiners>| invariant.holds(snap)],
        LivenessConfig {
            limits: Limits {
                max_states: 30_000_000,
            },
            reduction,
        },
    )
    .remove(0);
    assert!(
        report.certified(),
        "{} {}: livelock={:?} stuck={:?} truncated={}",
        topo.name(),
        alg.name(),
        report.livelock,
        report.stuck,
        report.truncated,
    );
    assert!(report.bad_states > 0, "lattice contains ¬I states");
    assert_eq!(
        report.stuck_states, 0,
        "no reachable quiescent state may violate I"
    );
    report
}

#[test]
fn no_fair_schedule_avoids_invariant_on_line3_full_lattice() {
    // line(3): the full corruption domain of `corrupt_local`
    // (0..=2·bound+8), both variants — the liveness upgrade of
    // `every_perturbed_state_converges_on_line3`. Every weakly fair
    // daemon, not just round-robin, converges from every lattice state.
    let topo = Topology::line(3);
    for (alg, bound) in [
        (MaliciousCrashDiners::paper(), topo.diameter()),
        (MaliciousCrashDiners::corrected(), topo.len() as u32),
    ] {
        let report = certify(alg, &topo, 2 * bound + 8, false, Reduction::Packed);
        // The daemon-free graph subsumes the rr-trajectory sweep: every
        // lattice state is a root and every enabled move is an edge.
        assert!(report.roots > 1_000);
        assert!(report.transitions > report.states as u64);
    }
}

#[test]
fn no_fair_schedule_avoids_invariant_on_ring4_sublattice() {
    // ring(4): corrected variant only (the paper's diameter bound is
    // the known T1 soundness gap on cycles); depth sub-lattice crossing
    // the cycle-evidence threshold n=4 from both sides, acyclic
    // orientations (see the module docs for why the 2 cyclic
    // orientations are out of finite-search scope), under the dihedral
    // symmetry of the ring.
    let topo = Topology::ring(4);
    let bound = topo.len() as u32;
    let report = certify(
        MaliciousCrashDiners::corrected(),
        &topo,
        bound + 1,
        true,
        Reduction::Symmetry,
    );
    assert_eq!(
        report.group_order, 8,
        "ring(4) reduces under its dihedral group"
    );
    // Orbit dedup must actually bite: the raw root sub-lattice has
    // 18^4 · 14 states; the canonical root set must be far smaller.
    let raw_roots = 18u64.pow(4) * 14;
    assert!(
        (report.roots as u64) < raw_roots / 4,
        "symmetry saved only {} of {} roots",
        raw_roots - report.roots as u64,
        raw_roots
    );
}

#[test]
fn no_fair_schedule_avoids_invariant_on_star4_sublattice() {
    // star(4): hub contention, both variants (a star is a tree, so the
    // paper's diameter bound applies); threshold-crossing sub-lattices
    // under the leaf-permutation symmetry.
    let topo = Topology::star(4);
    for (alg, bound) in [
        (MaliciousCrashDiners::paper(), topo.diameter()),
        (MaliciousCrashDiners::corrected(), topo.len() as u32),
    ] {
        let report = certify(alg, &topo, bound + 1, false, Reduction::Symmetry);
        assert_eq!(
            report.group_order, 6,
            "star(4) reduces under S3 on its leaves"
        );
    }
}

#[test]
fn symmetry_and_packed_sweeps_agree_on_certification() {
    // Same sub-lattice, both reductions: the quotient must certify iff
    // the exact graph does. (Counts differ — the quotient is smaller —
    // but the verdict and the absence of stuck states are
    // representation-independent.)
    let topo = Topology::ring(4);
    let packed = certify(
        MaliciousCrashDiners::corrected(),
        &topo,
        1,
        true,
        Reduction::Packed,
    );
    let sym = certify(
        MaliciousCrashDiners::corrected(),
        &topo,
        1,
        true,
        Reduction::Symmetry,
    );
    assert_eq!(packed.group_order, 1);
    assert_eq!(sym.group_order, 8);
    assert!(
        packed.states > sym.states,
        "the quotient is strictly smaller"
    );
}

/// Machine-checked closure lemma: from every root of the certified
/// acyclic sub-lattice, every enabled move yields a state whose
/// orientation is still acyclic — the sub-lattice sweep really is
/// exhaustive over its own closure, with no escape hatch into the
/// uncertifiable cyclic region.
#[test]
fn exit_preserves_acyclicity_from_every_sublattice_root() {
    let topo = Topology::ring(4);
    let alg = MaliciousCrashDiners::corrected();
    let bound = topo.len() as u32;
    for state in lattice(&alg, &topo, bound + 1, true) {
        for pid in topo.processes() {
            let view = View::new(&topo, &state, pid, true);
            for a in enabled_actions(&alg, &view) {
                let mut next = state.clone();
                next.apply(&topo, pid, alg.execute(&view, a));
                assert!(
                    !orientation_is_cyclic(&topo, &next),
                    "{pid} {a:?} left the acyclic region from locals {:?}",
                    state.locals()
                );
            }
        }
    }
}

/// Machine-checked structure lemma for the cyclic slice: from every
/// cyclic-orientation state of the threshold sub-lattice, every enabled
/// move either (a) writes edges — and then lands in the acyclic region
/// (only `exit` writes edges, and it yields every incident edge), or
/// (b) strictly *increases* the mover's depth (fixdepth never shrinks),
/// or (c) touches only the mover's phase. So the cyclic region is never
/// re-entered, depths there never decrease, and the only way an
/// execution confined to the region can revisit a state is a pure
/// phase-rotation cycle — which exists and is weakly fair; see
/// [`checker_finds_fair_phase_rotation_livelock_on_cyclic_ring`].
#[test]
fn cyclic_orientation_moves_are_exit_deepen_or_phase_only() {
    let topo = Topology::ring(4);
    let alg = MaliciousCrashDiners::corrected();
    let bound = topo.len() as u32;
    let full = lattice(&alg, &topo, bound + 1, false);
    let mut cyclic_roots = 0usize;
    for state in full {
        if !orientation_is_cyclic(&topo, &state) {
            continue;
        }
        cyclic_roots += 1;
        for pid in topo.processes() {
            let view = View::new(&topo, &state, pid, true);
            for a in enabled_actions(&alg, &view) {
                let writes = alg.execute(&view, a);
                let wrote_edges = writes.iter().any(|w| matches!(w, AlgWrite::Edge { .. }));
                let mut next = state.clone();
                next.apply(&topo, pid, writes);
                let before = state.local(pid);
                let after = next.local(pid);
                if wrote_edges {
                    // (a) the only edge-writing action is exit, and it
                    // must land in the acyclic region.
                    assert!(
                        !orientation_is_cyclic(&topo, &next),
                        "edge-writing move {a:?} at {pid} kept a cyclic orientation"
                    );
                } else if after.depth != before.depth {
                    // (b) depth moves only go up.
                    assert!(
                        after.depth > before.depth,
                        "{a:?} at {pid} decreased depth without exiting"
                    );
                } else {
                    // (c) everything else is phase-only.
                    assert!(
                        after.phase != before.phase,
                        "{a:?} at {pid} was enabled but wrote nothing"
                    );
                }
            }
        }
    }
    // ring(4) has exactly two cyclic orientations.
    let per_local = 3 * (bound as u64 + 2);
    assert_eq!(cyclic_roots as u64, per_local.pow(4) * 2);
}

/// The cyclic slice genuinely diverges under *process-level* weak
/// fairness, and the checker proves it constructively: from a cyclic
/// orientation with everyone thinking, the hungry-threshold `leave`
/// action (corrected variant) lets joins and leaves rotate around the
/// ring forever — every process moves infinitely often, so the
/// execution is weakly fair, yet the orientation (and hence `¬I`) is
/// frozen. The checker finds that lasso inside the truncated fragment
/// (the region's full closure is infinite: fixdepth pumps depths
/// without bound), and the witness replays concretely, never leaving
/// the cyclic region. This is exactly why the ring(4) certification
/// above scopes itself to acyclic orientations: the paper's convergence
/// argument for priority cycles needs the stronger action-level
/// fairness that eventually fires the continuously-enabled depth-exit.
#[test]
fn checker_finds_fair_phase_rotation_livelock_on_cyclic_ring() {
    use diners_sim::liveness::check_liveness;

    let topo = Topology::ring(4);
    let alg = MaliciousCrashDiners::corrected();
    let invariant = Invariant::for_algorithm(&alg);
    let health = vec![Health::Live; 4];
    let needs = vec![true; 4];
    // All thinking, depths 0, orientation a directed 4-cycle.
    let mut root = SystemState::initial(&alg, &topo);
    for e in 0..topo.edge_count() {
        let (a, b) = topo.endpoints(EdgeId(e));
        // Point every edge at its higher endpoint except the closing
        // edge, which already points 0→3: ancestor = successor mod 4.
        let anc = if (a.index() + 1) % 4 == b.index() {
            b
        } else {
            a
        };
        root.edge_mut(EdgeId(e)).ancestor = anc;
    }
    assert!(orientation_is_cyclic(&topo, &root));

    let report = check_liveness(
        &alg,
        &topo,
        root.clone(),
        &health,
        &needs,
        |snap| invariant.holds(snap),
        LivenessConfig {
            limits: Limits {
                max_states: 150_000,
            },
            reduction: Reduction::Packed,
        },
    );
    assert!(report.truncated, "the cyclic region's closure is infinite");
    assert!(!report.certified());
    let lasso = report.livelock.as_ref().expect("fair rotation livelock");
    assert!(!lasso.cycle.is_empty());

    // Replay concretely: valid moves throughout, the cycle closes, and
    // every cycle state keeps the frozen cyclic orientation.
    let mut state = root;
    for &mv in &lasso.stem {
        state = step_checked(&alg, &topo, state, mv);
    }
    let entry = state.clone();
    for &mv in &lasso.cycle {
        assert!(orientation_is_cyclic(&topo, &state));
        state = step_checked(&alg, &topo, state, mv);
    }
    assert_eq!(state.locals(), entry.locals());
    for e in 0..topo.edge_count() {
        assert_eq!(
            state.edge(EdgeId(e)).ancestor,
            entry.edge(EdgeId(e)).ancestor
        );
    }
}

/// Apply one move after asserting it is enabled.
fn step_checked(
    alg: &MaliciousCrashDiners,
    topo: &Topology,
    mut state: SystemState<MaliciousCrashDiners>,
    mv: diners_sim::algorithm::Move,
) -> SystemState<MaliciousCrashDiners> {
    let writes = {
        let view = View::new(topo, &state, mv.pid, true);
        assert!(alg.enabled(&view, mv.action), "replayed move not enabled");
        alg.execute(&view, mv.action)
    };
    state.apply(topo, mv.pid, writes);
    state
}

// ---------------------------------------------------------------------
// The paper's `depth > D` exit on graphs that are not trees.
// ---------------------------------------------------------------------

/// The lasso searches for "p eats", for each p of `victims`, from the
/// initial state, every process live and always hungry, over the exact
/// (unreduced) graph, which one call builds once for every victim.
fn serve(alg: &MaliciousCrashDiners, topo: &Topology, victims: &[usize]) -> Vec<LivenessReport> {
    let n = topo.len();
    let targets: Vec<_> = victims
        .iter()
        .map(|&p| {
            move |snap: &Snapshot<'_, MaliciousCrashDiners>| {
                snap.state.local(ProcessId(p)).phase == Phase::Eating
            }
        })
        .collect();
    check_liveness_multi(
        alg,
        topo,
        std::iter::once(SystemState::initial(alg, topo)),
        &vec![Health::Live; n],
        &vec![true; n],
        &targets,
        LivenessConfig {
            limits: Limits::default(),
            reduction: Reduction::Packed,
        },
    )
}

/// Replay a lasso's stem and `laps` laps of its cycle on a real engine,
/// every process always hungry, under a strict scripted daemon (which
/// panics on a scripted move that is not enabled). Returns the engine
/// after every scripted move has fired.
fn replay_laps(
    alg: &MaliciousCrashDiners,
    topo: &Topology,
    lasso: &diners_sim::liveness::Lasso,
    laps: usize,
) -> Engine<MaliciousCrashDiners> {
    let mut script = lasso.stem.clone();
    for _ in 0..laps {
        script.extend_from_slice(&lasso.cycle);
    }
    let steps = script.len() as u64;
    let mut engine = Engine::builder(*alg, topo.clone())
        .workload(AlwaysHungry)
        .scheduler(ScriptedScheduler::new(script))
        .build();
    let summary = engine.run(steps);
    assert_eq!(summary.executed, steps, "every scripted move must fire");
    engine
}

/// On ring(4) the paper's bound (`D` = 2) starves p0 with no fault at
/// all: p0 joins, `fixdepth` carries depth 3 > `D` along the acyclic
/// chain p2 → p1 → p0, p0 exits while hungry, and the other three eat.
/// The search is complete, the lasso is weakly fair, and 100 laps on a
/// real engine give p0 no meal while every other process eats once per
/// lap.
#[test]
fn paper_bound_starves_p0_on_ring4_without_a_fault() {
    let topo = Topology::ring(4);
    let alg = MaliciousCrashDiners::paper();
    let report = &serve(&alg, &topo, &[0])[0];
    assert!(!report.truncated);
    assert_eq!(report.states, 19_264);
    assert_eq!(report.transitions, 92_720);
    assert_eq!(report.sccs, 13);
    assert!(report.stuck.is_none());
    let lasso = report.livelock.as_ref().expect("a starvation lasso");
    assert_eq!(
        (lasso.root, lasso.stem.len(), lasso.cycle.len()),
        (0, 0, 15)
    );

    let engine = replay_laps(&alg, &topo, lasso, 100);
    assert_eq!(engine.step_count(), 1_500);
    assert_eq!(engine.metrics().eats_of(ProcessId(0)), 0);
    for p in 1..4 {
        assert_eq!(engine.metrics().eats_of(ProcessId(p)), 100, "p{p}");
    }
    assert_eq!(engine.metrics().violation_step_count(), 0);
}

/// On complete(4) the paper's bound (`D` = 1) starves every process in
/// turn: depth 2 > `D` is enough. One complete search answers every
/// victim, each with a lasso that replays for 100 laps with the victim
/// never eating.
#[test]
fn paper_bound_starves_every_process_on_complete4_without_a_fault() {
    let topo = Topology::complete(4);
    let alg = MaliciousCrashDiners::paper();
    for (p, report) in serve(&alg, &topo, &[0, 1, 2, 3]).iter().enumerate() {
        let victim = ProcessId(p);
        assert!(!report.truncated, "p{p}");
        assert_eq!(report.states, 27_648, "p{p}");
        assert_eq!(report.transitions, 160_320, "p{p}");
        assert_eq!(report.sccs, 1, "p{p}");
        assert!(report.stuck.is_none(), "p{p}");
        let lasso = report.livelock.as_ref().expect("a starvation lasso");
        assert_eq!(lasso.cycle.len(), if p < 3 { 13 } else { 15 }, "p{p}");

        let engine = replay_laps(&alg, &topo, lasso, 100);
        assert_eq!(engine.metrics().eats_of(victim), 0, "p{p}");
        assert_eq!(engine.metrics().violation_step_count(), 0, "p{p}");
    }
}

/// The corrected bound (`n`) certifies the same queries: from the
/// initial state every weakly fair execution feeds p0 on ring(4) and
/// every process on complete(4).
#[test]
fn corrected_bound_certifies_ring4_and_complete4_without_a_fault() {
    let alg = MaliciousCrashDiners::corrected();
    let ring = Topology::ring(4);
    let report = &serve(&alg, &ring, &[0])[0];
    assert!(report.certified(), "ring(4) p0: {:?}", report.livelock);
    assert_eq!(
        (report.states, report.transitions, report.sccs),
        (19_264, 88_848, 424)
    );
    let complete = Topology::complete(4);
    for (p, report) in serve(&alg, &complete, &[0, 1, 2, 3]).iter().enumerate() {
        assert!(
            report.certified(),
            "complete(4) p{p}: {:?}",
            report.livelock
        );
        assert_eq!(
            (report.states, report.transitions, report.sccs),
            (27_648, 141_120, 184),
            "p{p}"
        );
    }
}
