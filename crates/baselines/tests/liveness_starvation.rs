//! The greedy baseline's planted livelock, found and replayed.
//!
//! `GreedyDiners` is deliberately unfair: it has no priority structure,
//! so a weakly fair daemon can starve a process forever by letting its
//! neighbor monopolize the table. The liveness checker must *find* that
//! divergence as a concrete stem+loop counterexample — and the
//! counterexample must replay move-for-move on a real [`Engine`] driven
//! by a strict [`ScriptedScheduler`], with the victim never eating.
//!
//! This is the negative control for the certification suites in
//! `diners-core`: the same checker that certifies the paper's algorithm
//! convergent proves the unfair baseline divergent.

use diners_baselines::greedy::GreedyDiners;
use diners_sim::algorithm::{Phase, SystemState};
use diners_sim::engine::Engine;
use diners_sim::explore::Reduction;
use diners_sim::fault::Health;
use diners_sim::graph::{ProcessId, Topology};
use std::time::Duration;

use diners_sim::liveness::{check_liveness, check_liveness_multi, LivenessConfig, LivenessReport};
use diners_sim::predicate::Snapshot;
use diners_sim::scheduler::ScriptedScheduler;

/// `I` = "the victim eats" is avoidable forever on a line(2) under weak
/// fairness: the neighbor loops join→enter→exit, and the victim —
/// disabled whenever the neighbor eats — is never continuously enabled,
/// so fairness never forces it forward. The predicate singles out one
/// process, so it is *not* symmetric: this must run under
/// [`Reduction::Packed`].
#[test]
fn greedy_starves_a_victim_under_weak_fairness() {
    let topo = Topology::line(2);
    let victim = ProcessId(1);
    let initial = SystemState::initial(&GreedyDiners, &topo);
    let report = check_liveness(
        &GreedyDiners,
        &topo,
        initial.clone(),
        &[Health::Live; 2],
        &[true, true],
        |snap| *snap.state.local(victim) == Phase::Eating,
        LivenessConfig {
            reduction: Reduction::Packed,
            ..Default::default()
        },
    );
    assert!(
        !report.certified(),
        "greedy must not certify victim service"
    );
    assert!(!report.truncated, "line(2) greedy graph is tiny");
    let lasso = report.livelock.as_ref().expect("starvation lasso");
    assert!(!lasso.cycle.is_empty());
    assert!(
        lasso.cycle.iter().all(|m| m.pid != victim),
        "the victim must not move in its own starvation cycle"
    );

    // Replay stem + 3 laps of the cycle on a real engine with a strict
    // scripted daemon: every scripted move must be enabled exactly when
    // scheduled, and the victim must never reach Eating.
    let mut script = lasso.stem.clone();
    for _ in 0..3 {
        script.extend_from_slice(&lasso.cycle);
    }
    let steps = script.len() as u64;
    let mut engine = Engine::builder(GreedyDiners, topo)
        .scheduler(ScriptedScheduler::new(script))
        .build();
    let summary = engine.run(steps);
    assert_eq!(summary.executed, steps, "every scripted move must fire");
    assert_eq!(
        engine.metrics().eats_of(victim),
        0,
        "victim never eats along the counterexample"
    );
    assert_eq!(engine.metrics().violation_step_count(), 0);
}

/// The flip side, certified: "someone eats" *is* reached by every
/// weakly fair greedy execution — below `I` the phases only move
/// Thinking→Hungry, so the `¬I` region is a DAG with all exits into
/// `I`, and the checker proves it (no fair cycle, no stuck state). This
/// predicate is symmetric, so the symmetry quotient must agree with the
/// exact search.
#[test]
fn greedy_certifies_service_for_somebody() {
    let topo = Topology::line(2);
    for reduction in [Reduction::Packed, Reduction::Symmetry] {
        let initial = SystemState::initial(&GreedyDiners, &topo);
        let report = check_liveness(
            &GreedyDiners,
            &topo,
            initial,
            &[Health::Live; 2],
            &[true, true],
            |snap| snap.state.locals().contains(&Phase::Eating),
            LivenessConfig {
                reduction,
                ..Default::default()
            },
        );
        assert!(
            report.certified(),
            "{reduction:?}: livelock={:?} stuck={:?}",
            report.livelock,
            report.stuck
        );
        assert!(report.bad_states > 0);
        if reduction == Reduction::Symmetry {
            assert_eq!(report.group_order, 2, "line(2) has the swap symmetry");
        }
    }
}

/// "Every process thinks" is a symmetric target that greedy can avoid
/// forever: once someone is hungry, a weakly fair rotation of join,
/// enter and exit keeps at least one process off `Thinking`. Under
/// [`Reduction::Symmetry`] the quotient's SCC is judged through its
/// |G|-fold cover, so this is the cover path with a non-trivial group:
/// both reductions must find the same lasso, and it must replay on a
/// real engine with the target never holding inside the cycle.
#[test]
fn greedy_keeps_someone_off_thinking_under_both_reductions() {
    // (topology, group order, quotient states, exact states, stem, cycle)
    for (topo, order, sym_states, packed_states, stem, cycle) in [
        (Topology::line(2), 2, 5, 8, 1, 6),
        (Topology::ring(3), 6, 7, 20, 1, 9),
    ] {
        let n = topo.len();
        let all_think = |locals: &[Phase]| locals.iter().all(|&p| p == Phase::Thinking);
        for (reduction, states) in [
            (Reduction::Symmetry, sym_states),
            (Reduction::Packed, packed_states),
        ] {
            let label = format!("{} {reduction:?}", topo.name());
            let report = check_liveness(
                &GreedyDiners,
                &topo,
                SystemState::initial(&GreedyDiners, &topo),
                &vec![Health::Live; n],
                &vec![true; n],
                |snap| all_think(snap.state.locals()),
                LivenessConfig {
                    reduction,
                    ..Default::default()
                },
            );
            let expected_order = if reduction == Reduction::Symmetry {
                order
            } else {
                1
            };
            assert_eq!(report.group_order, expected_order, "{label}");
            assert_eq!(report.states, states, "{label}");
            assert!(!report.truncated, "{label}");
            let lasso = report.livelock.as_ref().expect("a lasso");
            assert_eq!(
                (lasso.stem.len(), lasso.cycle.len()),
                (stem, cycle),
                "{label}"
            );

            // Stem + 3 laps under a strict scripted daemon: every move
            // fires, and no state inside the cycle has everyone thinking.
            let mut script = lasso.stem.clone();
            for _ in 0..3 {
                script.extend_from_slice(&lasso.cycle);
            }
            let mut engine = Engine::builder(GreedyDiners, topo.clone())
                .scheduler(ScriptedScheduler::new(script.clone()))
                .build();
            assert_eq!(engine.run(stem as u64).executed, stem as u64, "{label}");
            for _ in stem..script.len() {
                assert!(!all_think(engine.state().locals()), "{label}");
                assert_eq!(engine.run(1).executed, 1, "{label}");
            }
        }
    }
}

/// One `check_liveness_multi` call answers several targets on one graph,
/// and each answer is the single-target call's, field for field except
/// `elapsed`. On ring(3) under its dihedral group (|G| = 6), "every
/// process thinks" has a fair lasso found through the cover, and
/// "someone eats" is certified; asked together, then one at a time.
#[test]
fn two_targets_in_one_call_match_two_single_target_calls_under_symmetry() {
    let topo = Topology::ring(3);
    let n = topo.len();
    let targets: [fn(&Snapshot<'_, GreedyDiners>) -> bool; 2] = [
        |snap| snap.state.locals().iter().all(|&p| p == Phase::Thinking),
        |snap| snap.state.locals().contains(&Phase::Eating),
    ];
    let (health, needs) = (vec![Health::Live; n], vec![true; n]);
    let initial = SystemState::initial(&GreedyDiners, &topo);
    let config = LivenessConfig {
        reduction: Reduction::Symmetry,
        ..Default::default()
    };
    let together = check_liveness_multi(
        &GreedyDiners,
        &topo,
        [initial.clone()],
        &health,
        &needs,
        &targets,
        config,
    );
    assert_eq!(together.len(), 2);
    for (&target, multi) in targets.iter().zip(&together) {
        let single = check_liveness(
            &GreedyDiners,
            &topo,
            initial.clone(),
            &health,
            &needs,
            target,
            config,
        );
        assert_eq!(without_elapsed(multi), without_elapsed(&single));
    }
    assert_eq!(together[0].group_order, 6);
    assert!(together[0].livelock.is_some());
    assert!(together[1].certified(), "{:?}", together[1]);
}

/// Every field of `report` but `elapsed`, as text.
fn without_elapsed(report: &LivenessReport) -> String {
    format!(
        "{:?}",
        LivenessReport {
            elapsed: Duration::ZERO,
            ..report.clone()
        }
    )
}
