//! Property-style tests: the paper's invariants over randomized
//! topologies, fault plans and schedules.
//!
//! Each property sweeps a deterministic, seeded sample of the
//! configuration space (topology family x scheduler x seed) rather than
//! using an external property-testing framework — the build environment
//! is offline, and seeded sweeps keep every failure exactly reproducible
//! from the printed case description alone.

use rand::Rng;

use malicious_diners::core::predicates::{self, Invariant, NoLiveCycles};
use malicious_diners::core::redgreen::{affected_radius, Colors};
use malicious_diners::core::MaliciousCrashDiners;
use malicious_diners::sim::graph::Topology;
use malicious_diners::sim::predicate::StatePredicate;
use malicious_diners::sim::rng;
use malicious_diners::sim::scheduler::{
    AdversarialScheduler, Adversary, LeastRecentScheduler, RandomScheduler, RoundRobinScheduler,
    Scheduler,
};
use malicious_diners::sim::{Engine, FaultPlan};

/// Cases per property (mirrors the old proptest `cases: 24`).
const CASES: u64 = 24;

/// A deterministically sampled topology, labeled for failure messages.
fn sample_topology(r: &mut rand::rngs::StdRng) -> Topology {
    let n = r.gen_range(4usize..12);
    let seed = r.gen::<u64>();
    match r.gen_range(0..4) {
        0 => Topology::ring(n),
        1 => Topology::line(n),
        2 => Topology::binary_tree(n),
        _ => Topology::random_connected(n, 0.25, seed),
    }
}

/// A deterministically sampled scheduler.
fn sample_scheduler(r: &mut rand::rngs::StdRng) -> Box<dyn Scheduler> {
    let seed = r.gen::<u64>();
    match r.gen_range(0..4) {
        0 => Box::new(RandomScheduler::new(seed)),
        1 => Box::new(LeastRecentScheduler::new()),
        2 => Box::new(RoundRobinScheduler::new()),
        _ => Box::new(AdversarialScheduler::new(Adversary::Newest, 32, seed)),
    }
}

/// The red set never reaches beyond distance 2 of the dead set, in any
/// state whatsoever (arbitrary corruption, arbitrary deaths).
#[test]
fn red_radius_at_most_two_in_any_state() {
    for case in 0..CASES {
        let mut r = rng::rng(rng::subseed(0xA1, case));
        let topo = sample_topology(&mut r);
        let seed = r.gen::<u64>();
        let mut plan = FaultPlan::new().from_arbitrary_state();
        for _ in 0..r.gen_range(0..3) {
            plan = plan.initially_dead(r.gen_range(0..topo.len()));
        }
        let engine = Engine::builder(MaliciousCrashDiners::paper(), topo.clone())
            .faults(plan)
            .seed(seed)
            .build();
        if let Some(rad) = affected_radius(&engine.snapshot()) {
            assert!(rad <= 2, "case {case} ({}): red radius {rad}", topo.name());
        }
    }
}

/// From an arbitrary state, under any daemon, the corrected-bound
/// invariant is reached and two live neighbors never eat afterwards.
#[test]
fn stabilization_under_every_daemon() {
    for case in 0..CASES {
        let mut r = rng::rng(rng::subseed(0xA2, case));
        let topo = sample_topology(&mut r);
        let sched = Boxed(sample_scheduler(&mut r));
        let seed = r.gen::<u64>();
        let desc = format!("case {case} ({}, {})", topo.name(), sched.name());
        let alg = MaliciousCrashDiners::corrected();
        let inv = Invariant::for_algorithm(&alg);
        let mut engine = Engine::builder(alg, topo)
            .scheduler(sched)
            .faults(FaultPlan::new().from_arbitrary_state())
            .seed(seed)
            .build();
        let converged = engine.convergence_step(&inv, 60_000);
        assert!(converged.is_some(), "{desc}: no convergence");
        let since = engine.step_count();
        engine.run(5_000);
        let late = engine
            .metrics()
            .violation_steps()
            .iter()
            .filter(|&&s| s >= since)
            .count();
        assert_eq!(late, 0, "{desc}: {late} violations after convergence");
    }
}

/// NC is closed: once the live priority graph is acyclic it stays so
/// (exits only ever direct all edges toward the exiting process).
#[test]
fn nc_is_closed() {
    for case in 0..CASES {
        let mut r = rng::rng(rng::subseed(0xA3, case));
        let topo = sample_topology(&mut r);
        let seed = r.gen::<u64>();
        let desc = format!("case {case} ({})", topo.name());
        let mut engine = Engine::builder(MaliciousCrashDiners::paper(), topo)
            .scheduler(RandomScheduler::new(seed))
            .faults(FaultPlan::new().from_arbitrary_state())
            .seed(seed)
            .build();
        let mut was_acyclic = false;
        for _ in 0..4_000 {
            engine.step();
            let acyclic = NoLiveCycles.holds(&engine.snapshot());
            if was_acyclic {
                assert!(acyclic, "{desc}: NC was violated after holding");
            }
            was_acyclic = acyclic;
        }
    }
}

/// The E predicate converges: the number of live eating pairs never
/// increases, and hits zero.
#[test]
fn eating_pairs_drain_monotonically() {
    for case in 0..CASES {
        let mut r = rng::rng(rng::subseed(0xA4, case));
        let topo = sample_topology(&mut r);
        let seed = r.gen::<u64>();
        let desc = format!("case {case} ({})", topo.name());
        let mut engine = Engine::builder(MaliciousCrashDiners::paper(), topo)
            .scheduler(RandomScheduler::new(seed))
            .faults(FaultPlan::new().from_arbitrary_state())
            .seed(seed)
            .build();
        let (mut prev, _) = engine.eating_pairs();
        for _ in 0..4_000 {
            engine.step();
            let (now, _) = engine.eating_pairs();
            assert!(
                now <= prev,
                "{desc}: eating pairs increased {prev} -> {now}"
            );
            prev = now;
        }
        assert_eq!(prev, 0, "{desc}: eating pairs never drained");
    }
}

/// Green processes are exactly the ones that keep eating; red ones never
/// eat (after the system settles with some processes dead).
#[test]
fn colors_predict_service() {
    for case in 0..CASES {
        let mut r = rng::rng(rng::subseed(0xA5, case));
        let seed = r.gen::<u64>();
        let victim = r.gen_range(0usize..10);
        let desc = format!("case {case} (victim {victim})");
        let topo = Topology::ring(10);
        let mut engine = Engine::builder(MaliciousCrashDiners::paper(), topo)
            .scheduler(RandomScheduler::new(seed))
            .faults(FaultPlan::new().malicious_crash(200, victim, 8))
            .seed(seed)
            .build();
        engine.run(20_000);
        let since = engine.step_count();
        engine.run(30_000);
        let colors = Colors::compute(&engine.snapshot());
        for p in engine.topology().processes() {
            if engine.is_dead(p) {
                continue;
            }
            let meals = engine
                .metrics()
                .eats_in_window(p, since, engine.step_count());
            if colors.is_red(p) {
                assert_eq!(meals, 0, "{desc}: red {p} ate");
            } else {
                assert!(meals > 0, "{desc}: green {p} starved");
            }
        }
        // Safety after the malicious window, always.
        let snap = engine.snapshot();
        assert!(predicates::e_holds(&snap), "{desc}: E violated at the end");
    }
}

// -- helpers ---------------------------------------------------------------

/// Adapter letting a sampled `Box<dyn Scheduler>` be installed through
/// the builder's `impl Scheduler` parameter.
struct Boxed(Box<dyn Scheduler>);

impl Scheduler for Boxed {
    fn pick(
        &mut self,
        step: u64,
        enabled: &[malicious_diners::sim::scheduler::EnabledMove],
    ) -> usize {
        self.0.pick(step, enabled)
    }
    fn pick_from(
        &mut self,
        step: u64,
        enabled: &mut malicious_diners::sim::enabled::EnabledView<'_>,
    ) -> usize {
        self.0.pick_from(step, enabled)
    }
    fn name(&self) -> &str {
        self.0.name()
    }
}
