//! Differential verification of the explorer's state representations.
//!
//! [`Reduction::Packed`] is a pure representation change: the packed
//! search must produce a **bit-identical report** (states, transitions,
//! deadlocks, layers, dedup, violation trace, truncation point) to a
//! plain FIFO search over cloned states ([`reference_bfs`]), on every
//! algorithm × topology family. The suites here sweep that equivalence,
//! plus codec round-trips from randomly corrupted states.
//!
//! [`Reduction::Symmetry`] changes the *quotient* that is explored, so
//! only verdicts are comparable: verified / violation-found / truncated
//! and deadlock-freedom must agree with the unreduced search, state
//! counts must shrink by roughly the stabilized group order, and any
//! counterexample trace must be a *valid concrete trace of the original
//! system* — replayed here move by move against the guards.

use diners_core::MaliciousCrashDiners;
use diners_sim::algorithm::{Algorithm, Move, Phase, SystemState, View, Write};
use diners_sim::codec::{Codec, StateCodec};
use diners_sim::explore::{explore_with, ExplorationReport, ExploreConfig, Limits, Reduction};
use diners_sim::fault::Health;
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::predicate::Snapshot;
use diners_sim::toy::ToyDiners;

#[path = "support/reference_bfs.rs"]
mod reference_bfs;
use reference_bfs::{assert_bit_identical, reference_bfs};

fn live(n: usize) -> Vec<Health> {
    vec![Health::Live; n]
}

#[allow(clippy::too_many_arguments)]
fn run<A, F>(
    alg: &A,
    topo: &Topology,
    initial: SystemState<A>,
    health: &[Health],
    needs: &[bool],
    safety: F,
    limits: Limits,
    reduction: Reduction,
) -> ExplorationReport
where
    A: StateCodec + Sync,
    A::Local: Send + Sync,
    A::Edge: Send + Sync,
    F: Fn(&Snapshot<'_, A>) -> bool,
{
    explore_with(
        alg,
        topo,
        initial,
        health,
        needs,
        safety,
        ExploreConfig {
            limits,
            reduction,
            threads: 1,
        },
    )
}

fn sweep_topologies() -> Vec<Topology> {
    vec![
        Topology::line(3),
        Topology::line(4),
        Topology::ring(4),
        Topology::ring(5),
        Topology::star(4),
        Topology::star(5),
        Topology::grid(2, 3),
    ]
}

fn toy_exclusion(snap: &Snapshot<'_, ToyDiners>) -> bool {
    snap.topo.edges().iter().all(|&(a, b)| {
        !(*snap.state.local(a) == Phase::Eating && *snap.state.local(b) == Phase::Eating)
    })
}

fn toy_nobody_eats(snap: &Snapshot<'_, ToyDiners>) -> bool {
    snap.topo
        .processes()
        .all(|p| *snap.state.local(p) != Phase::Eating)
}

#[test]
fn packed_is_bit_identical_to_cloned_for_toy_everywhere() {
    // Exclusion holds on every swept topology; "nobody eats" is violated,
    // so line(4) also compares the counterexample traces.
    type Safety = fn(&Snapshot<'_, ToyDiners>) -> bool;
    let cases: Vec<(Topology, Safety, bool)> = sweep_topologies()
        .into_iter()
        .map(|topo| (topo, toy_exclusion as Safety, true))
        .chain([(Topology::line(4), toy_nobody_eats as Safety, false)])
        .collect();
    for (topo, safety, holds) in cases {
        let n = topo.len();
        let initial = SystemState::initial(&ToyDiners, &topo);
        let cloned = reference_bfs(
            &ToyDiners,
            &topo,
            initial.clone(),
            &live(n),
            &vec![true; n],
            safety,
            Limits::default(),
        );
        let packed = run(
            &ToyDiners,
            &topo,
            initial,
            &live(n),
            &vec![true; n],
            safety,
            Limits::default(),
            Reduction::Packed,
        );
        assert_eq!(cloned.verified(), holds, "{}: {cloned:?}", topo.name());
        assert_eq!(cloned.violation.is_some(), !holds, "{}", topo.name());
        assert_bit_identical(&cloned, &packed, topo.name());
        assert!(
            packed.bytes_interned * 4 <= cloned.bytes_interned,
            "{}: packed {} vs cloned {} bytes",
            topo.name(),
            packed.bytes_interned,
            cloned.bytes_interned
        );
    }
}

#[test]
fn packed_is_bit_identical_to_cloned_for_the_paper_algorithm() {
    let alg = MaliciousCrashDiners::paper();
    for topo in [Topology::line(3), Topology::ring(3), Topology::ring(4)] {
        let n = topo.len();
        let initial = SystemState::initial(&alg, &topo);
        let cloned = reference_bfs(
            &alg,
            &topo,
            initial.clone(),
            &live(n),
            &vec![true; n],
            |_| true,
            Limits::default(),
        );
        let packed = run(
            &alg,
            &topo,
            initial,
            &live(n),
            &vec![true; n],
            |_| true,
            Limits::default(),
            Reduction::Packed,
        );
        assert_bit_identical(&cloned, &packed, topo.name());
    }
}

#[test]
fn packed_agrees_on_truncation_points() {
    let alg = MaliciousCrashDiners::paper();
    let topo = Topology::ring(4);
    let initial = SystemState::initial(&alg, &topo);
    let limits = Limits { max_states: 500 };
    let cloned = reference_bfs(
        &alg,
        &topo,
        initial.clone(),
        &live(4),
        &[true; 4],
        |_| true,
        limits,
    );
    let packed = run(
        &alg,
        &topo,
        initial,
        &live(4),
        &[true; 4],
        |_| true,
        limits,
        Reduction::Packed,
    );
    assert!(cloned.truncated);
    assert_eq!(cloned.states, 500);
    assert_bit_identical(&cloned, &packed, "truncated ring(4)");
}

#[test]
fn packed_agrees_with_a_dead_eater_in_the_mix() {
    // The health vector gates which processes move; a dead eater prunes
    // the space asymmetrically and must not perturb the equivalence.
    let alg = MaliciousCrashDiners::paper();
    let topo = Topology::line(4);
    let mut initial = SystemState::initial(&alg, &topo);
    for p in topo.processes() {
        initial.local_mut(p).phase = Phase::Hungry;
    }
    initial.local_mut(ProcessId(0)).phase = Phase::Eating;
    let mut health = live(4);
    health[0] = Health::Dead;
    let cloned = reference_bfs(
        &alg,
        &topo,
        initial.clone(),
        &health,
        &[true; 4],
        |_| true,
        Limits::default(),
    );
    let packed = run(
        &alg,
        &topo,
        initial,
        &health,
        &[true; 4],
        |_| true,
        Limits::default(),
        Reduction::Packed,
    );
    assert_bit_identical(&cloned, &packed, "dead eater line(4)");
}

/// Verdict-level agreement for the symmetry quotient: same
/// verified/violated/truncated outcome and the same deadlock-freedom
/// boolean (counts legitimately differ — one representative per orbit).
fn assert_same_verdict(full: &ExplorationReport, sym: &ExplorationReport, ctx: &str) {
    assert_eq!(
        full.violation.is_some(),
        sym.violation.is_some(),
        "{ctx}: violation presence"
    );
    assert_eq!(full.truncated, sym.truncated, "{ctx}: truncated");
    assert_eq!(
        full.deadlocks == 0,
        sym.deadlocks == 0,
        "{ctx}: deadlock freedom"
    );
    assert!(
        sym.states <= full.states,
        "{ctx}: a quotient cannot be larger"
    );
}

#[test]
fn symmetry_verdicts_agree_and_rings_shrink_by_at_least_half_n() {
    // The paper's algorithm is equivariant; on a ring with uniform needs
    // and health the stabilized group is the full dihedral group of
    // order 2n, so the orbit quotient must cut the state count by at
    // least n/2 (most orbits have the full 2n elements).
    let alg = MaliciousCrashDiners::paper();
    for n in [3usize, 4] {
        let topo = Topology::ring(n);
        let initial = SystemState::initial(&alg, &topo);
        let full = run(
            &alg,
            &topo,
            initial.clone(),
            &live(n),
            &vec![true; n],
            |_| true,
            Limits::default(),
            Reduction::Packed,
        );
        let sym = run(
            &alg,
            &topo,
            initial,
            &live(n),
            &vec![true; n],
            |_| true,
            Limits::default(),
            Reduction::Symmetry,
        );
        assert_same_verdict(&full, &sym, topo.name());
        assert!(
            sym.states * (n / 2).max(2) <= full.states,
            "ring({n}): {} symmetry states vs {} full — reduction below n/2",
            sym.states,
            full.states
        );
    }
}

#[test]
fn symmetry_verdicts_agree_on_lines_and_stars() {
    let alg = MaliciousCrashDiners::paper();
    for topo in [Topology::line(3), Topology::line(4), Topology::star(4)] {
        let n = topo.len();
        let initial = SystemState::initial(&alg, &topo);
        let full = run(
            &alg,
            &topo,
            initial.clone(),
            &live(n),
            &vec![true; n],
            |_| true,
            Limits::default(),
            Reduction::Packed,
        );
        let sym = run(
            &alg,
            &topo,
            initial,
            &live(n),
            &vec![true; n],
            |_| true,
            Limits::default(),
            Reduction::Symmetry,
        );
        assert_same_verdict(&full, &sym, topo.name());
        assert!(
            sym.states < full.states,
            "{}: expected a strict reduction, got {} vs {}",
            topo.name(),
            sym.states,
            full.states
        );
    }
}

#[test]
fn asymmetric_health_shrinks_the_stabilizer_soundly() {
    // A dead process breaks most of the ring's symmetry: the stabilizer
    // keeps only automorphisms fixing the health vector. Verdicts must
    // still agree with the unreduced search.
    let alg = MaliciousCrashDiners::paper();
    let topo = Topology::ring(4);
    let mut initial = SystemState::initial(&alg, &topo);
    for p in topo.processes() {
        initial.local_mut(p).phase = Phase::Hungry;
    }
    initial.local_mut(ProcessId(0)).phase = Phase::Eating;
    let mut health = live(4);
    health[0] = Health::Dead;
    let full = run(
        &alg,
        &topo,
        initial.clone(),
        &health,
        &[true; 4],
        |_| true,
        Limits::default(),
        Reduction::Packed,
    );
    let sym = run(
        &alg,
        &topo,
        initial,
        &health,
        &[true; 4],
        |_| true,
        Limits::default(),
        Reduction::Symmetry,
    );
    // The reflection fixing p0 survives (it maps the dead process to
    // itself), so some reduction remains — and never an unsound merge.
    assert_same_verdict(&full, &sym, "ring(4) dead eater");
}

#[test]
fn symmetry_truncates_where_the_full_space_is_infinite() {
    // Seeded priority cycle on ring(3): depths pump without bound, so
    // both the full and the quotient search must hit the state cap.
    let alg = MaliciousCrashDiners::paper();
    let topo = Topology::ring(3);
    let mut initial = SystemState::initial(&alg, &topo);
    for i in 0..3 {
        let a = ProcessId(i);
        let b = ProcessId((i + 1) % 3);
        let e = topo.edge_between(a, b).unwrap();
        initial.edge_mut(e).ancestor = a;
        initial.local_mut(a).phase = Phase::Hungry;
    }
    let limits = Limits { max_states: 20_000 };
    let full = run(
        &alg,
        &topo,
        initial.clone(),
        &live(3),
        &[true; 3],
        |_| true,
        limits,
        Reduction::Packed,
    );
    let sym = run(
        &alg,
        &topo,
        initial,
        &live(3),
        &[true; 3],
        |_| true,
        limits,
        Reduction::Symmetry,
    );
    assert!(full.truncated && sym.truncated);
}

/// Replay a move sequence against the real guards: every move must be
/// enabled in the state it fires from. Returns the final state.
fn replay<A: Algorithm>(
    alg: &A,
    topo: &Topology,
    mut state: SystemState<A>,
    needs: &[bool],
    trace: &[Move],
) -> SystemState<A> {
    for (i, mv) in trace.iter().enumerate() {
        let writes: Vec<Write<A>> = {
            let view = View::new(topo, &state, mv.pid, needs[mv.pid.index()]);
            assert!(
                alg.enabled(&view, mv.action),
                "trace step {i}: {mv:?} not enabled"
            );
            alg.execute(&view, mv.action)
        };
        state.apply(topo, mv.pid, writes);
    }
    state
}

#[test]
fn rehydrated_symmetry_traces_replay_on_the_original_system() {
    // Force a violation with a *symmetric* predicate ("nobody ever
    // eats") and check the rehydrated counterexample is a real trace of
    // the unpermuted system: every move enabled, final state violating.
    let alg = MaliciousCrashDiners::paper();
    let nobody_eats = |snap: &Snapshot<'_, MaliciousCrashDiners>| {
        snap.topo
            .processes()
            .all(|p| snap.state.local(p).phase != Phase::Eating)
    };
    for topo in [
        Topology::ring(4),
        Topology::ring(5),
        Topology::line(4),
        Topology::star(4),
    ] {
        let n = topo.len();
        let initial = SystemState::initial(&alg, &topo);
        let needs = vec![true; n];
        let sym = run(
            &alg,
            &topo,
            initial.clone(),
            &live(n),
            &needs,
            nobody_eats,
            Limits::default(),
            Reduction::Symmetry,
        );
        let trace = sym.violation.expect("someone must eventually eat");
        assert!(!trace.is_empty());
        let end = replay(&alg, &topo, initial.clone(), &needs, &trace);
        assert!(
            !nobody_eats(&Snapshot::new(&topo, &end, &live(n))),
            "{}: rehydrated trace does not end in a violation",
            topo.name()
        );
        // The unreduced search must find a violation at the same depth
        // (BFS depth is orbit-invariant).
        let full = run(
            &alg,
            &topo,
            initial,
            &live(n),
            &needs,
            nobody_eats,
            Limits::default(),
            Reduction::Packed,
        );
        assert_eq!(
            full.violation.expect("full search agrees").len(),
            trace.len(),
            "{}: shortest-counterexample depth differs",
            topo.name()
        );
    }
}

#[test]
fn toy_codec_round_trips_from_random_corrupted_states() {
    let mut rng = diners_sim::rng::rng(7);
    for topo in sweep_topologies() {
        let codec = Codec::new(&ToyDiners, &topo);
        for _ in 0..50 {
            let mut s = SystemState::initial(&ToyDiners, &topo);
            s.corrupt_all(&ToyDiners, &topo, &mut rng);
            let packed = codec.encode(&s);
            assert_eq!(codec.decode(&packed), s, "{}", topo.name());
        }
    }
}

#[test]
fn parallel_packed_and_symmetry_match_their_sequential_runs() {
    let alg = MaliciousCrashDiners::paper();
    let topo = Topology::ring(4);
    let initial = SystemState::initial(&alg, &topo);
    for reduction in [Reduction::Packed, Reduction::Symmetry] {
        let seq = run(
            &alg,
            &topo,
            initial.clone(),
            &live(4),
            &[true; 4],
            |_| true,
            Limits::default(),
            reduction,
        );
        let par = explore_with(
            &alg,
            &topo,
            initial.clone(),
            &live(4),
            &[true; 4],
            |_| true,
            ExploreConfig {
                limits: Limits::default(),
                reduction,
                threads: 4,
            },
        );
        assert_bit_identical(&seq, &par, &format!("{reduction:?} parallel"));
    }
}

// ---------------------------------------------------------------------
// Negative symmetry: topologies with no modeled automorphisms.
// ---------------------------------------------------------------------

/// [`SymmetryGroup::for_topology`] only models the ring/line/star
/// families; everything else — grids, trees, random graphs, cliques —
/// must *truthfully* claim the trivial group. Claiming no symmetry is
/// always sound (it just forgoes reduction); claiming a spurious
/// permutation would merge distinct orbits and break verification, so
/// this is the side that must never be wrong.
#[test]
fn unmodeled_topologies_report_the_trivial_group() {
    use diners_sim::symmetry::SymmetryGroup;
    for topo in [
        Topology::grid(2, 3),
        Topology::grid(3, 3),
        Topology::binary_tree(6),
        Topology::complete(4),
        Topology::random_connected(6, 0.4, 11),
        Topology::random_connected(7, 0.2, 99),
    ] {
        let g = SymmetryGroup::for_topology(&topo);
        assert!(g.is_trivial(), "{}: order {}", topo.name(), g.order());
        assert_eq!(g.order(), 1);
        assert!(g.perms()[0].is_identity());
        // The stabilizer of a trivial group is trivial too.
        let n = topo.len();
        let stab = g.stabilizing(&vec![true; n], &vec![Health::Live; n]);
        assert_eq!(stab.order(), 1);
    }
}

/// Requesting [`Reduction::Symmetry`] on an unmodeled topology must
/// degrade to exactly the packed search: same canonicalization (the
/// identity), hence a **bit-identical report** — states, transitions,
/// layers, dedup, violation trace, everything.
#[test]
fn symmetry_on_unmodeled_topologies_is_bit_identical_to_packed() {
    let alg = MaliciousCrashDiners::paper();
    for topo in [
        Topology::grid(2, 2),
        Topology::binary_tree(5),
        Topology::random_connected(5, 0.35, 7),
    ] {
        let n = topo.len();
        let nobody_eats = |snap: &Snapshot<'_, MaliciousCrashDiners>| {
            snap.topo
                .processes()
                .all(|p| snap.state.local(p).phase != Phase::Eating)
        };
        let reports: Vec<ExplorationReport> = [Reduction::Packed, Reduction::Symmetry]
            .into_iter()
            .map(|reduction| {
                run(
                    &alg,
                    &topo,
                    SystemState::initial(&alg, &topo),
                    &live(n),
                    &vec![true; n],
                    nobody_eats,
                    Limits { max_states: 50_000 },
                    reduction,
                )
            })
            .collect();
        assert_bit_identical(&reports[0], &reports[1], topo.name());
    }
}

/// The liveness checker routes through the same `effective_group`
/// plumbing: on an unmodeled topology a `Symmetry` lasso search runs
/// with the identity group and reports the same graph counts and
/// verdict as `Packed`.
#[test]
fn liveness_symmetry_on_unmodeled_topologies_degrades_to_packed() {
    use diners_sim::liveness::{check_liveness, LivenessConfig};
    let alg = MaliciousCrashDiners::paper();
    let topo = Topology::grid(2, 2);
    let n = topo.len();
    let reports: Vec<_> = [Reduction::Packed, Reduction::Symmetry]
        .into_iter()
        .map(|reduction| {
            check_liveness(
                &alg,
                &topo,
                SystemState::initial(&alg, &topo),
                &live(n),
                &vec![true; n],
                |snap: &Snapshot<'_, MaliciousCrashDiners>| {
                    snap.topo
                        .processes()
                        .any(|p| snap.state.local(p).phase == Phase::Eating)
                },
                LivenessConfig {
                    reduction,
                    ..Default::default()
                },
            )
        })
        .collect();
    assert_eq!(reports[1].group_order, 1, "grid must degrade to identity");
    assert_eq!(reports[0].states, reports[1].states);
    assert_eq!(reports[0].transitions, reports[1].transitions);
    assert_eq!(reports[0].sccs, reports[1].sccs);
    assert_eq!(reports[0].certified(), reports[1].certified());
    assert_eq!(reports[0].livelock.is_some(), reports[1].livelock.is_some());
}
