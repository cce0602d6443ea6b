//! Exhaustive (model-checking) verification of the paper's algorithm on
//! small systems: every reachable state under every daemon, not sampled
//! schedules.
//!
//! Verified here, over the complete reachable state space from the
//! legitimate initial state:
//!
//! * **exclusion** — no two live neighbors eating (Lemma 4's `E`);
//! * **acyclicity** — `NC` is preserved (Lemma 1's closure);
//! * **no deadlock** — an always-hungry live system always has a move;
//! * **locality** — with a dead eater present, the red-set radius stays
//!   ≤ 2 and no process beyond distance 2 is ever red, in *every*
//!   reachable state.

use diners_core::predicates::{e_holds, nc_holds};
use diners_core::redgreen::{affected_radius, Colors};
use diners_core::{MaliciousCrashDiners, PriorityVar};
use diners_sim::algorithm::{Phase, SystemState};
use diners_sim::explore::{explore_with, ExplorationReport, ExploreConfig, Limits};
use diners_sim::fault::Health;
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::predicate::Snapshot;

fn big() -> Limits {
    Limits {
        max_states: 3_000_000,
    }
}

/// Sequential packed search of the paper's algorithm, bounded by `limits`.
fn search(
    alg: &MaliciousCrashDiners,
    topo: &Topology,
    initial: SystemState<MaliciousCrashDiners>,
    health: &[Health],
    needs: &[bool],
    safety: impl Fn(&Snapshot<'_, MaliciousCrashDiners>) -> bool,
    limits: Limits,
) -> ExplorationReport {
    let config = ExploreConfig {
        limits,
        ..ExploreConfig::default()
    };
    explore_with(alg, topo, initial, health, needs, safety, config)
}

#[test]
fn exclusion_and_acyclicity_verified_on_small_topologies() {
    for (topo, alg) in [
        (Topology::line(3), MaliciousCrashDiners::paper()),
        (Topology::line(4), MaliciousCrashDiners::paper()),
        (Topology::ring(3), MaliciousCrashDiners::paper()),
        (Topology::ring(4), MaliciousCrashDiners::paper()),
        (Topology::star(4), MaliciousCrashDiners::paper()),
        (Topology::ring(3), MaliciousCrashDiners::corrected()),
    ] {
        let n = topo.len();
        let initial = SystemState::initial(&alg, &topo);
        let health = vec![Health::Live; n];
        let report = search(
            &alg,
            &topo,
            initial,
            &health,
            &vec![true; n],
            |snap| e_holds(snap) && nc_holds(snap),
            big(),
        );
        assert!(
            report.verified(),
            "{} ({}): {:?}",
            topo.name(),
            diners_sim::algorithm::Algorithm::name(&alg),
            report
        );
        assert_eq!(
            report.deadlocks,
            0,
            "{}: an always-hungry system must never deadlock",
            topo.name()
        );
    }
}

#[test]
fn locality_radius_verified_exhaustively_with_a_dead_eater() {
    // line(5): p0 dead while eating at the head of an all-hungry chain
    // with the initial lo->hi priorities. In EVERY reachable state the
    // red set stays within distance 2 of the corpse.
    let topo = Topology::line(5);
    let alg = MaliciousCrashDiners::paper();
    let mut initial = SystemState::initial(&alg, &topo);
    for p in topo.processes() {
        initial.local_mut(p).phase = Phase::Hungry;
    }
    initial.local_mut(ProcessId(0)).phase = Phase::Eating;
    let mut health = vec![Health::Live; 5];
    health[0] = Health::Dead;

    let report = search(
        &alg,
        &topo,
        initial,
        &health,
        &[true; 5],
        |snap| {
            if !e_holds(snap) {
                return false;
            }
            match affected_radius(snap) {
                Some(r) => r <= 2,
                None => true,
            }
        },
        big(),
    );
    assert!(report.verified(), "{report:?}");
    assert_eq!(report.deadlocks, 0);
}

#[test]
fn far_processes_are_never_red_in_any_reachable_state() {
    // Same scenario on line(6): p4 and p5 (distance >= 4) must be green
    // in every reachable state — the strongest form of the containment
    // claim for this instance.
    let topo = Topology::line(6);
    let alg = MaliciousCrashDiners::paper();
    let mut initial = SystemState::initial(&alg, &topo);
    for p in topo.processes() {
        initial.local_mut(p).phase = Phase::Hungry;
    }
    initial.local_mut(ProcessId(0)).phase = Phase::Eating;
    let mut health = vec![Health::Live; 6];
    health[0] = Health::Dead;

    let report = search(
        &alg,
        &topo,
        initial,
        &health,
        &[true; 6],
        |snap| {
            let colors = Colors::compute(snap);
            colors.is_green(ProcessId(4)) && colors.is_green(ProcessId(5))
        },
        big(),
    );
    assert!(report.verified(), "{report:?}");
}

#[test]
fn seeded_cycle_bounded_search_finds_no_violation() {
    // Start from the T4 scenario (full priority cycle, everyone hungry)
    // on ring(3). This state space is *infinite*: along unfair branches
    // the cycle pumps depths without bound before any exit fires, so a
    // complete search is impossible — we bound it and assert that no
    // exclusion violation and no deadlock exists within the bound.
    let topo = Topology::ring(3);
    let alg = MaliciousCrashDiners::paper();
    let mut initial = SystemState::initial(&alg, &topo);
    for i in 0..3 {
        let a = ProcessId(i);
        let b = ProcessId((i + 1) % 3);
        let e = topo.edge_between(a, b).unwrap();
        *initial.edge_mut(e) = PriorityVar::ancestor_is(a);
        initial.local_mut(a).phase = Phase::Hungry;
    }
    let health = vec![Health::Live; 3];
    let report = search(
        &alg,
        &topo,
        initial,
        &health,
        &[true; 3],
        e_holds,
        Limits {
            max_states: 200_000,
        },
    );
    assert!(report.violation.is_none(), "{report:?}");
    assert_eq!(report.deadlocks, 0);
    assert!(report.truncated, "the cycle state space should be infinite");
}
