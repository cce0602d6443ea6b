//! Differential suite for the flight recorder and deterministic replay.
//!
//! Three guarantees, each checked across topology × scheduler ×
//! fault-plan sweeps:
//!
//! 1. **Observer effect is zero** — an engine with the recorder (and the
//!    causal tracer) attached runs step-for-step identically to a bare
//!    one: same outcomes, state, health, metrics and trace. The recorded
//!    engines are also checked step by step against the from-scratch
//!    reference of `support/reference_engine.rs`.
//! 2. **Round trip is exact** — serialize → parse reproduces the
//!    `Recording` value and the byte stream (the CI format-drift gate).
//! 3. **Replay is bit-identical** — driving a *fresh* engine with the
//!    recorded decisions reproduces the live run's final state, health,
//!    violation trace and metric counters exactly, and every digest
//!    checkpoint verifies.

#[path = "support/reference_engine.rs"]
mod reference_engine;

use diners_sim::algorithm::{DinerAlgorithm, Phase};
use diners_sim::engine::Engine;
use diners_sim::fault::FaultPlan;
use diners_sim::graph::Topology;
use diners_sim::record::{FlightRecorder, Recording, Replayer};
use diners_sim::scheduler::{
    LeastRecentScheduler, RandomScheduler, RoundRobinScheduler, Scheduler,
};
use diners_sim::toy::ToyDiners;
use diners_sim::trace::Trace;
use diners_sim::tracing::CausalTracer;
use diners_sim::workload::AlwaysHungry;
use diners_sim::ProcessId;
use reference_engine::ReferenceEngine;

/// The trace attached to `e`.
fn trace<A: DinerAlgorithm>(e: &Engine<A>) -> &Trace {
    e.observer::<Trace>().expect("trace attached")
}

fn topologies() -> Vec<Topology> {
    vec![
        Topology::ring(6),
        Topology::line(5),
        Topology::star(5),
        Topology::grid(3, 3),
    ]
}

fn schedulers(seed: u64) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(RandomScheduler::new(seed)),
        Box::new(LeastRecentScheduler::new()),
        Box::new(RoundRobinScheduler::new()),
    ]
}

fn fault_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::none()),
        ("crash", FaultPlan::new().crash(40, 1)),
        ("malicious", FaultPlan::new().malicious_crash(30, 2, 8)),
        (
            "combo",
            FaultPlan::new()
                .initially_dead(0)
                .malicious_crash(25, 3, 4)
                .transient_local(60, 2)
                .transient_global(90)
                .crash(120, 1),
        ),
        ("arbitrary", FaultPlan::new().from_arbitrary_state()),
    ]
}

/// Scheduler factory keyed by index, so both engines of a pair get an
/// identically-seeded fresh instance.
fn scheduler_at(i: usize, seed: u64) -> Box<dyn Scheduler> {
    schedulers(seed).swap_remove(i)
}

/// A from-scratch reference for a toy engine under `AlwaysHungry` and
/// scheduler `i`, and the engine's scheduler wrapped to report to it.
fn reference(i: usize, seed: u64) -> (ReferenceEngine<ToyDiners>, impl Scheduler) {
    ReferenceEngine::new(
        ToyDiners,
        AlwaysHungry,
        scheduler_at(i, seed),
        scheduler_at(i, seed),
    )
}

#[test]
fn recorder_and_tracer_have_zero_observer_effect() {
    for topo in topologies() {
        for si in 0..schedulers(0).len() {
            for (plan_name, plan) in fault_plans() {
                let ctx = format!("{} sched{si} {plan_name}", topo.name());
                let base = || {
                    Engine::builder(ToyDiners, topo.clone())
                        .workload(AlwaysHungry)
                        .faults(plan.clone())
                        .seed(11)
                        .observe(Trace::new())
                };
                let mut a = base().scheduler(scheduler_at(si, 11)).build();
                let (reference, sched) = reference(si, 11);
                let mut b = base()
                    .scheduler(sched)
                    .observe(FlightRecorder::new("toy"))
                    .observe(CausalTracer::default())
                    .observe(reference)
                    .build();
                for step in 0..400u64 {
                    assert_eq!(a.step(), b.step(), "{ctx}: diverged at step {step}");
                }
                assert_eq!(a.state(), b.state(), "{ctx}: state");
                assert_eq!(a.health(), b.health(), "{ctx}: health");
                assert_eq!(a.metrics(), b.metrics(), "{ctx}: metrics");
                assert_eq!(trace(&a), trace(&b), "{ctx}: trace");
            }
        }
    }
}

#[test]
fn record_serialize_parse_replay_is_bit_identical() {
    for topo in topologies() {
        for si in 0..schedulers(0).len() {
            for (plan_name, plan) in fault_plans() {
                let ctx = format!("{} sched{si} {plan_name}", topo.name());
                let (reference, sched) = reference(si, 5);
                let mut live = Engine::builder(ToyDiners, topo.clone())
                    .scheduler(sched)
                    .faults(plan.clone())
                    .seed(5)
                    .observe(Trace::new())
                    .observe(FlightRecorder::new("toy"))
                    .observe(reference)
                    .build();
                live.run(500);

                // Round trip through the JSONL format (CI drift gate).
                let rec = live.recording().expect("recorder attached");
                let text = rec.to_jsonl();
                let back =
                    Recording::parse(&text).unwrap_or_else(|e| panic!("{ctx}: parse failed: {e}"));
                assert_eq!(back, rec, "{ctx}: recording round trip");
                assert_eq!(back.to_jsonl(), text, "{ctx}: serialization stability");

                // Replay the parsed recording on a fresh engine.
                let (replayed, verified) = Replayer::run(&back, ToyDiners, AlwaysHungry)
                    .unwrap_or_else(|e| panic!("{ctx}: replay diverged: {e}"));
                assert_eq!(replayed.step_count(), 500, "{ctx}");
                assert!(verified >= 2, "{ctx}: only {verified} checkpoints");
                assert_eq!(replayed.state(), live.state(), "{ctx}: final state");
                assert_eq!(replayed.health(), live.health(), "{ctx}: health");
                assert_eq!(replayed.metrics(), live.metrics(), "{ctx}: metrics");
                assert_eq!(
                    trace(&replayed),
                    trace(&live),
                    "{ctx}: violation/event traces"
                );
            }
        }
    }
}

#[test]
fn replayer_advance_seeks_to_intermediate_steps() {
    let mut live = Engine::builder(ToyDiners, Topology::ring(6))
        .scheduler(RandomScheduler::new(3))
        .faults(FaultPlan::new().crash(100, 2))
        .seed(3)
        .observe(FlightRecorder::new("toy"))
        .build();
    // Capture an intermediate ground truth mid-run.
    live.run(150);
    let mid_state = live.state().clone();
    let mid_health = live.health().to_vec();
    live.run(150);

    let rec = live.recording().expect("recorder attached");
    let (builder, mut replayer) = Replayer::builder(&rec, ToyDiners, AlwaysHungry);
    let mut engine = builder.build();
    replayer.advance(&mut engine, 150).expect("seek to 150");
    assert_eq!(engine.step_count(), 150);
    assert_eq!(engine.state(), &mid_state);
    assert_eq!(engine.health(), &mid_health[..]);
    // Continue to the end from where we stopped.
    replayer.advance(&mut engine, 300).expect("seek to end");
    assert_eq!(engine.state(), live.state());
}

#[test]
fn traced_engine_blames_neighbor_deviations_on_the_crash() {
    // Structural guarantee on a real run: spans of the crashed process's
    // neighbors, recorded after the crash, must blame the crash within
    // the locality bound (2 happens-before hops), and every parent edge
    // stays within one graph hop.
    //
    // ToyDiners has no crash tolerance: a process that dies *while
    // eating* blocks its neighbors forever, so they would record no
    // post-crash spans at all. Probe a fault-free twin (identical up to
    // the crash step, since faults only act when due) for a step where
    // the victim is thinking, and crash it there — neighbors then keep
    // acting and every one of their spans reads the frozen local.
    let crash_pid = ProcessId(2);
    let crash_step = {
        let mut probe = Engine::builder(ToyDiners, Topology::ring(6))
            .scheduler(RandomScheduler::new(13))
            .seed(13)
            .build();
        let mut found = None;
        while probe.step_count() < 400 {
            probe.step();
            if probe.step_count() >= 40
                && ToyDiners.phase(probe.state().local(crash_pid)) == Phase::Thinking
            {
                found = Some(probe.step_count());
                break;
            }
        }
        found.expect("victim thinks at some step in [40, 400)")
    };
    let mut e = Engine::builder(ToyDiners, Topology::ring(6))
        .scheduler(RandomScheduler::new(13))
        .faults(FaultPlan::new().crash(crash_step, crash_pid))
        .seed(13)
        .observe(CausalTracer::default())
        .build();
    e.run(400);
    // Hop distances between every pair of the ring's six processes.
    let topo = e.topology();
    let rows: Vec<Vec<u32>> = topo
        .processes()
        .map(|p| topo.distances_from(&[p]))
        .collect();
    let distance = |p: ProcessId, q: ProcessId| rows[p.index()][q.index()];
    let tracer = e.take_observer::<CausalTracer>().expect("tracer attached");

    // Parent edges connect closed neighborhoods.
    for s in tracer.spans() {
        for &p in &s.parents {
            let (pid, parent) = (s.event.pid, tracer.span(p).event.pid);
            assert!(
                distance(pid, parent) <= 1,
                "parent edge spans distance {} ({pid} -> {parent})",
                distance(pid, parent),
            );
        }
    }

    let fault_span = tracer
        .fault_spans()
        .next()
        .expect("crash recorded as a span")
        .id;
    let mut rooted = 0;
    for s in tracer.spans() {
        let ev = s.event;
        if ev.kind.is_fault() || ev.step <= crash_step {
            continue;
        }
        if distance(ev.pid, crash_pid) == 1 {
            // A neighbor's post-crash span reads the frozen local
            // directly or through its own prior span: blame must land
            // within 2 hops, on the crash.
            if let Some(chain) = tracer.blame_within(s.id, 2) {
                assert_eq!(chain.root(), fault_span);
                assert!(chain.hops() <= 2);
                rooted += 1;
            }
        }
        // Universally: any chain found within 2 hops points at a fault
        // no farther than graph distance 2.
        if let Some(chain) = tracer.blame_within(s.id, 2) {
            let root = tracer.span(chain.root()).event;
            assert!(root.kind.is_fault());
            assert!(
                distance(ev.pid, root.pid) <= 2,
                "blame chain escaped the locality bound"
            );
        }
    }
    assert!(rooted > 0, "no neighbor span ever blamed the crash");
}

#[test]
fn quiescent_runs_replay_too() {
    // never-hungry system: every step is quiescent, faults still fire.
    let mut live = Engine::builder(ToyDiners, Topology::line(3))
        .workload(diners_sim::workload::NeverHungry)
        .faults(FaultPlan::new().crash(5, 1))
        .observe(FlightRecorder::new("toy"))
        .build();
    live.run(20);
    let rec = live.recording().expect("recorder attached");
    assert_eq!(rec.decisions.len(), 20);
    let (replayed, _) = Replayer::run(&rec, ToyDiners, diners_sim::workload::NeverHungry)
        .expect("quiescent replay verifies");
    assert_eq!(replayed.state(), live.state());
    assert_eq!(replayed.health(), live.health());
}
