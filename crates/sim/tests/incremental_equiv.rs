//! Differential tests for the two performance-critical production paths,
//! each checked against a reference in test support:
//!
//! * **engine** — `Engine::step` (dirty-set re-enumeration into the
//!   enabled index, rank picks, running eating-pair counters) must match
//!   the from-scratch reference of `support/reference_engine.rs` at every
//!   step: the same move fired, `needs` bit and `(move, age)` offer, and
//!   eating-pair counters equal to the edge scan; a bare twin with no
//!   observer must step in lockstep and end with the same state, health
//!   and metrics. The sweep covers topology families, seeds, all four
//!   daemons, workloads, and the full fault taxonomy including restarts;
//! * **explorer** — the parallel frontier-sharded search must produce
//!   the same report as the sequential search, including violation
//!   traces and truncation points.
//!
//! These run on the paper's actual algorithm (`MaliciousCrashDiners`),
//! not just the toy one, so malicious pseudo-moves, per-neighbor action
//! slots, and priority edge variables are all exercised.

#[path = "support/reference_engine.rs"]
mod reference_engine;

use diners_core::predicates::{e_holds, nc_holds};
use diners_core::MaliciousCrashDiners;
use diners_sim::algorithm::{Phase, SystemState};
use diners_sim::engine::Engine;
use diners_sim::explore::{explore_with, ExplorationReport, ExploreConfig, Limits};
use diners_sim::fault::{FaultPlan, Health};
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::scheduler::{
    AdversarialScheduler, Adversary, LeastRecentScheduler, RandomScheduler, RoundRobinScheduler,
    Scheduler,
};
use diners_sim::toy::ToyDiners;
use diners_sim::workload::{AlwaysHungry, BernoulliWorkload, QuotaWorkload};
use reference_engine::assert_matches_reference;

/// Fault plans covering the paper's whole taxonomy plus restarts, scaled
/// to `n` processes.
fn fault_plans(n: usize) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::none()),
        ("crash", FaultPlan::new().crash(40, 1 % n)),
        ("malicious", FaultPlan::new().malicious_crash(30, 2 % n, 5)),
        (
            "transient",
            FaultPlan::new().transient_local(25, 0).transient_global(60),
        ),
        ("arbitrary-start", FaultPlan::new().from_arbitrary_state()),
        (
            "dead+crash",
            FaultPlan::new().initially_dead(0).crash(50, n - 1),
        ),
        // Two neighbors dead from an arbitrary start (so often both
        // eating), one revived fresh and one arbitrary; a malicious crash
        // revived from a checkpoint taken before it struck.
        (
            "restarts",
            FaultPlan::new()
                .from_arbitrary_state()
                .initially_dead(0)
                .initially_dead(1)
                .restart_fresh(30, 0)
                .malicious_crash(40, 2 % n, 4)
                .restart_snapshot(90, 2 % n, 60)
                .restart_arbitrary(120, 1, 5)
                .crash(140, n - 1)
                .restart_fresh(170, n - 1),
        ),
    ]
}

/// The daemons the engine sweep runs under: random picks by rank from
/// the enabled index, the others from the slice the index materialises.
const SCHEDULERS: [&str; 4] = ["least-recent", "random", "round-robin", "adversarial"];

fn scheduler(name: &str, seed: u64) -> Box<dyn Scheduler> {
    match name {
        "least-recent" => Box::new(LeastRecentScheduler::new()),
        "random" => Box::new(RandomScheduler::new(seed ^ 0xabc)),
        "round-robin" => Box::new(RoundRobinScheduler::new()),
        "adversarial" => Box::new(AdversarialScheduler::new(Adversary::Newest, 32, seed)),
        other => unreachable!("unknown scheduler {other}"),
    }
}

fn families() -> Vec<Topology> {
    vec![
        Topology::ring(9),
        Topology::line(8),
        Topology::grid(3, 3),
        Topology::star(8),
        Topology::random_connected(10, 0.3, 7),
    ]
}

#[test]
fn mca_matches_the_reference_across_topologies_seeds_schedulers_and_faults() {
    for topo in families() {
        for seed in 0..8u64 {
            for sched in SCHEDULERS {
                for (fname, plan) in fault_plans(topo.len()) {
                    let label = format!("{} seed={seed} {sched} faults={fname}", topo.name());
                    assert_matches_reference(
                        || {
                            Engine::builder(MaliciousCrashDiners::paper(), topo.clone())
                                .faults(plan.clone())
                                .seed(seed.wrapping_mul(1000) + 17)
                        },
                        MaliciousCrashDiners::paper(),
                        || AlwaysHungry,
                        || scheduler(sched, seed),
                        200,
                        &label,
                    );
                }
            }
        }
    }
}

#[test]
fn reference_agrees_on_large_topologies() {
    // Hundreds of processes, so the upper levels of the enabled index's
    // Fenwick tree take part in every rank lookup.
    for topo in [
        Topology::ring(1000),
        Topology::random_connected(300, 4.0 / 300.0, 5),
    ] {
        for sched in ["random", "round-robin"] {
            for (fname, plan) in fault_plans(topo.len()) {
                let label = format!("{} {sched} faults={fname}", topo.name());
                assert_matches_reference(
                    || {
                        Engine::builder(MaliciousCrashDiners::paper(), topo.clone())
                            .faults(plan.clone())
                            .seed(23)
                    },
                    MaliciousCrashDiners::paper(),
                    || AlwaysHungry,
                    || scheduler(sched, 23),
                    2_000,
                    &label,
                );
            }
        }
    }
}

#[test]
fn reference_agrees_with_a_step_dependent_workload() {
    // Bernoulli keeps `step_dependent() == true`, forcing the engine
    // through its per-step needs rescan.
    for seed in 0..8u64 {
        assert_matches_reference(
            || {
                Engine::builder(MaliciousCrashDiners::paper(), Topology::ring(7))
                    .faults(FaultPlan::new().malicious_crash(35, 3, 4).crash(80, 0))
                    .seed(seed)
            },
            MaliciousCrashDiners::paper(),
            || BernoulliWorkload::new(seed, 1, 3),
            || RandomScheduler::new(seed),
            300,
            &format!("bernoulli seed={seed}"),
        );
    }
}

#[test]
fn reference_agrees_with_a_quota_workload_through_quiescence() {
    // Quota opts out of the per-step rescan; its `needs` flips exactly
    // at `note_eat`, and the run ends quiescent once everyone is sated —
    // covering both the meal-driven invalidation and Quiescent outcomes.
    for seed in 0..8u64 {
        assert_matches_reference(
            || Engine::builder(ToyDiners, Topology::ring(6)).seed(seed),
            ToyDiners,
            || QuotaWorkload::uniform(6, 3),
            || RandomScheduler::new(seed),
            400,
            &format!("quota seed={seed}"),
        );
    }
}

#[test]
fn ages_match_the_reference_move_for_move() {
    // The dense age table against the reference's `HashMap` ages: the
    // engine offers identical (move, age) lists at every step.
    assert_matches_reference(
        || Engine::builder(ToyDiners, Topology::line(4)).seed(9),
        ToyDiners,
        || AlwaysHungry,
        || RandomScheduler::new(9),
        300,
        "toy line(4)",
    );
}

#[test]
fn reference_agrees_on_a_faulty_run() {
    assert_matches_reference(
        || {
            Engine::builder(ToyDiners, Topology::ring(5))
                .faults(
                    FaultPlan::new()
                        .malicious_crash(15, 2, 4)
                        .crash(40, 0)
                        .transient_global(70),
                )
                .seed(7)
        },
        ToyDiners,
        || AlwaysHungry,
        || RandomScheduler::new(7),
        500,
        "toy ring(5) faults",
    );
}

#[test]
fn reference_agrees_on_a_restart_heavy_run() {
    assert_matches_reference(
        || {
            Engine::builder(ToyDiners, Topology::ring(5))
                .faults(
                    FaultPlan::new()
                        .malicious_crash(15, 2, 4)
                        .restart_fresh(90, 2)
                        .crash(40, 0)
                        .restart_arbitrary(160, 0, 5)
                        .crash(220, 3)
                        .restart_snapshot(300, 3, 100),
                )
                .seed(11)
        },
        ToyDiners,
        || AlwaysHungry,
        || RandomScheduler::new(11),
        600,
        "toy ring(5) restarts",
    );
}

/// Explore the paper's algorithm with `threads` workers.
fn explore_mca<F>(
    topo: &Topology,
    initial: SystemState<MaliciousCrashDiners>,
    health: &[Health],
    needs: &[bool],
    safety: F,
    limits: Limits,
    threads: usize,
) -> ExplorationReport
where
    F: Fn(&diners_sim::predicate::Snapshot<'_, MaliciousCrashDiners>) -> bool,
{
    explore_with(
        &MaliciousCrashDiners::paper(),
        topo,
        initial,
        health,
        needs,
        safety,
        ExploreConfig {
            limits,
            threads,
            ..ExploreConfig::default()
        },
    )
}

fn assert_same_search(a: &ExplorationReport, b: &ExplorationReport, label: &str) {
    assert_eq!(a.states, b.states, "{label}: states");
    assert_eq!(a.transitions, b.transitions, "{label}: transitions");
    assert_eq!(a.deadlocks, b.deadlocks, "{label}: deadlocks");
    assert_eq!(a.violation, b.violation, "{label}: violation trace");
    assert_eq!(a.truncated, b.truncated, "{label}: truncation");
    assert_eq!(a.layers, b.layers, "{label}: layers");
    assert_eq!(a.peak_frontier, b.peak_frontier, "{label}: peak frontier");
    assert_eq!(a.dedup_hits, b.dedup_hits, "{label}: dedup hits");
}

#[test]
fn parallel_explore_matches_sequential_on_mca() {
    let alg = MaliciousCrashDiners::paper();
    for topo in [Topology::line(4), Topology::ring(4)] {
        let n = topo.len();
        let initial = SystemState::initial(&alg, &topo);
        let health = vec![Health::Live; n];
        let needs = vec![true; n];
        let seq = explore_mca(
            &topo,
            initial.clone(),
            &health,
            &needs,
            |snap| e_holds(snap) && nc_holds(snap),
            Limits::default(),
            1,
        );
        assert!(seq.verified(), "{:?}", seq);
        for threads in [2, 4] {
            let par = explore_mca(
                &topo,
                initial.clone(),
                &health,
                &needs,
                |snap| e_holds(snap) && nc_holds(snap),
                Limits::default(),
                threads,
            );
            assert_same_search(&seq, &par, &format!("{} t={threads}", topo.name()));
        }
    }
}

#[test]
fn parallel_explore_matches_sequential_with_a_dead_eater() {
    // The locality scenario: a corpse holding the critical section.
    let alg = MaliciousCrashDiners::paper();
    let topo = Topology::line(5);
    let mut initial = SystemState::initial(&alg, &topo);
    for p in topo.processes() {
        initial.local_mut(p).phase = Phase::Hungry;
    }
    initial.local_mut(ProcessId(0)).phase = Phase::Eating;
    let mut health = vec![Health::Live; 5];
    health[0] = Health::Dead;

    let seq = explore_mca(
        &topo,
        initial.clone(),
        &health,
        &[true; 5],
        e_holds,
        Limits::default(),
        1,
    );
    let par = explore_mca(
        &topo,
        initial,
        &health,
        &[true; 5],
        e_holds,
        Limits::default(),
        4,
    );
    assert!(seq.verified(), "{:?}", seq);
    assert_same_search(&seq, &par, "dead-eater line(5)");
}

#[test]
fn parallel_explore_matches_sequential_on_violations_and_truncation() {
    let alg = MaliciousCrashDiners::paper();
    let topo = Topology::line(4);
    let initial = SystemState::initial(&alg, &topo);
    let health = vec![Health::Live; 4];
    let needs = vec![true; 4];

    // A predicate the algorithm actually violates: "process 0 never
    // eats". The searches must report the identical counterexample.
    let p0_starves = |snap: &diners_sim::predicate::Snapshot<'_, MaliciousCrashDiners>| {
        snap.state.local(ProcessId(0)).phase != Phase::Eating
    };
    let seq = explore_mca(
        &topo,
        initial.clone(),
        &health,
        &needs,
        p0_starves,
        Limits::default(),
        1,
    );
    assert!(seq.violation.is_some(), "p0 must eventually eat");
    let par = explore_mca(
        &topo,
        initial.clone(),
        &health,
        &needs,
        p0_starves,
        Limits::default(),
        3,
    );
    assert_same_search(&seq, &par, "violation");

    // Truncation in mid-layer must stop both searches at the same state.
    let limits = Limits { max_states: 123 };
    let seq = explore_mca(&topo, initial.clone(), &health, &needs, |_| true, limits, 1);
    assert!(seq.truncated);
    let par = explore_mca(&topo, initial, &health, &needs, |_| true, limits, 4);
    assert_same_search(&seq, &par, "truncation");
}
