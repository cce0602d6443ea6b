//! Integration: each theorem of the paper exercised across crates
//! through the umbrella API (reduced scales; the full sweeps live in the
//! `diners-bench` experiments, run by its `exp` driver).

use malicious_diners::baselines;
use malicious_diners::core::harness::stabilization_steps;
use malicious_diners::core::locality::measure_window;
use malicious_diners::core::mca::McaChecker;
use malicious_diners::core::predicates::{self, Invariant};
use malicious_diners::core::{DepthBound, MaliciousCrashDiners, Variant};
use malicious_diners::sim::graph::{ProcessId, Topology};
use malicious_diners::sim::predicate::StatePredicate;
use malicious_diners::sim::scheduler::RandomScheduler;
use malicious_diners::sim::{Algorithm, Engine, FaultPlan, Phase, SystemState};

/// Theorem 1 (with the corrected bound): stabilization from arbitrary
/// states on several topologies.
#[test]
fn theorem1_stabilization() {
    for topo in [
        Topology::ring(10),
        Topology::grid(3, 3),
        Topology::binary_tree(10),
        Topology::complete(5),
    ] {
        for seed in 0..2 {
            let at = stabilization_steps(
                MaliciousCrashDiners::corrected(),
                topo.clone(),
                seed,
                60_000,
            )
            .unwrap_or_else(|| panic!("{}: seed {seed} did not stabilize", topo.name()));
            assert!(at < 20_000, "{}: late convergence {at}", topo.name());
        }
    }
}

/// Theorem 2 (liveness outside the locality) + Theorem 3 (safety): a
/// benign crash of an eater affects at most distance 2.
#[test]
fn theorems_2_and_3_locality_and_safety() {
    let topo = Topology::grid(4, 4);
    let victim = ProcessId(5);
    let mut state = SystemState::initial(&MaliciousCrashDiners::paper(), &topo);
    for p in topo.processes() {
        state.local_mut(p).phase = Phase::Hungry;
    }
    state.local_mut(victim).phase = Phase::Eating;
    let mut engine = Engine::builder(MaliciousCrashDiners::paper(), topo)
        .initial_state(state)
        .scheduler(RandomScheduler::new(3))
        .faults(FaultPlan::new().initially_dead(victim.index()))
        .seed(3)
        .build();
    engine.run(15_000);
    let report = measure_window(&mut engine, 30_000);
    assert!(
        report.behavioral_radius.unwrap() <= 2,
        "radius {:?}, starved {:?}",
        report.behavioral_radius,
        report.starved
    );
    assert_eq!(engine.metrics().violation_step_count(), 0, "safety");
}

/// Proposition 1 / MCA: malicious crash from an arbitrary initial state.
#[test]
fn proposition1_mca_with_malicious_crash() {
    let mut engine = Engine::builder(MaliciousCrashDiners::paper(), Topology::ring(12))
        .scheduler(RandomScheduler::new(8))
        .faults(
            FaultPlan::new()
                .from_arbitrary_state()
                .malicious_crash(500, 4, 16),
        )
        .seed(8)
        .build();
    let report = McaChecker {
        m: 2,
        settle: 15_000,
        window: 30_000,
    }
    .run(&mut engine);
    assert!(
        report.satisfied,
        "starved {:?}, violations {}",
        report.starved_protected, report.safety_violation_steps
    );
}

/// Lemma 4 / E-predicate: two live neighbors never eat simultaneously
/// once stabilized, for the paper algorithm and every baseline.
#[test]
fn exclusion_across_algorithms() {
    let topo = Topology::ring(8);
    macro_rules! check {
        ($alg:expr) => {{
            let mut e = Engine::builder($alg, topo.clone())
                .scheduler(RandomScheduler::new(5))
                .faults(FaultPlan::new().from_arbitrary_state())
                .seed(5)
                .build();
            e.run(30_000);
            let since = e.step_count();
            e.run(10_000);
            let last = e.metrics().last_violation_step();
            assert!(
                last <= Some(since),
                "{} violated exclusion late, at {last:?}",
                e.algorithm().name()
            );
        }};
    }
    check!(MaliciousCrashDiners::paper());
    check!(MaliciousCrashDiners::corrected());
    check!(baselines::no_threshold());
    check!(baselines::GreedyDiners);
    check!(baselines::HygienicDiners);
}

/// The ablations really lose their guarantee (cross-crate sanity).
#[test]
fn ablations_lose_their_guarantees() {
    // no-threshold: a dead eater at the head of an all-hungry chain
    // starves the entire chain.
    let n = 10;
    let topo = Topology::line(n);
    let alg = MaliciousCrashDiners::with_variant(Variant::without_threshold());
    let mut state = SystemState::initial(&alg, &topo);
    for p in topo.processes() {
        state.local_mut(p).phase = Phase::Hungry;
    }
    state.local_mut(ProcessId(0)).phase = Phase::Eating;
    let mut engine = Engine::builder(alg, topo)
        .initial_state(state)
        .scheduler(RandomScheduler::new(2))
        .faults(FaultPlan::new().initially_dead(0))
        .seed(2)
        .build();
    engine.run(10_000);
    let report = measure_window(&mut engine, 30_000);
    assert!(
        report.behavioral_radius.unwrap() >= (n - 2) as u32,
        "expected the whole chain blocked, radius {:?}",
        report.behavioral_radius
    );
}

/// The depth-bound finding: the invariant under the paper's diameter
/// bound is not closed on a ring (it flaps in and out under continuous
/// dining), while the corrected bound is stable.
#[test]
fn invariant_closure_gap_on_rings() {
    let topo = Topology::ring(8);
    let paper_inv = Invariant {
        bound: DepthBound::Diameter,
    };
    let mut engine = Engine::builder(MaliciousCrashDiners::paper(), topo.clone())
        .scheduler(RandomScheduler::new(4))
        .seed(4)
        .build();
    let mut holds = 0u64;
    let mut fails = 0u64;
    let mut entries = 0u64;
    let mut prev = false;
    for _ in 0..30_000 {
        engine.step();
        let now = paper_inv.holds(&engine.snapshot());
        if now {
            holds += 1;
        } else {
            fails += 1;
        }
        if now && !prev {
            entries += 1;
        }
        prev = now;
    }
    assert!(holds > 0 && fails > 0, "expected flapping: {holds}/{fails}");
    assert!(
        entries >= 5,
        "I should be entered and left repeatedly (entries: {entries}) — \
         it is not closed under the paper's diameter bound"
    );

    // Corrected bound: after a short prefix, I holds and never breaks.
    let alg = MaliciousCrashDiners::corrected();
    let inv = Invariant::for_algorithm(&alg);
    let mut engine = Engine::builder(alg, topo)
        .scheduler(RandomScheduler::new(4))
        .seed(4)
        .build();
    engine.run(5_000);
    for _ in 0..20_000 {
        engine.step();
        assert!(
            inv.holds(&engine.snapshot()),
            "corrected-bound invariant broke at step {}",
            engine.step_count()
        );
    }
    // And the E predicate specifically never breaks either way.
    assert!(predicates::e_holds(&engine.snapshot()));
}
