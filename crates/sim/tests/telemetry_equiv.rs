//! Observer-effect tests for the engine's observer seam: attaching
//! telemetry (or any other `StepObserver`) must not change a run in any
//! observable way, the counters telemetry keeps must agree with the
//! ground-truth trace, an observer defined outside `diners-sim` must see
//! every fault and move in order, and the four built-in observers must
//! render exactly the bytes pinned in `tests/golden/`.
//!
//! Observers never touch the engine's RNG, scheduler, or state, so
//! equality here is *bit-identical*, step for step — the same bar the
//! from-scratch reference (`support/reference_engine.rs`) sets, which
//! watches alongside telemetry here.

#[path = "support/reference_engine.rs"]
mod reference_engine;

use diners_core::MaliciousCrashDiners;
use diners_sim::algorithm::{Algorithm, DinerAlgorithm};
use diners_sim::engine::{Engine, EngineBuilder, StepOutcome};
use diners_sim::fault::FaultPlan;
use diners_sim::graph::Topology;
use diners_sim::observe::{EventKind, StepEvent, StepObserver};
use diners_sim::predicate::Snapshot;
use diners_sim::record::{FlightRecorder, Recording, Replayer};
use diners_sim::scheduler::{LeastRecentScheduler, RandomScheduler};
use diners_sim::telemetry::{RingSink, Telemetry};
use diners_sim::toy::ToyDiners;
use diners_sim::trace::Trace;
use diners_sim::tracing::CausalTracer;
use diners_sim::workload::{AlwaysHungry, BernoulliWorkload, QuotaWorkload};
use reference_engine::ReferenceEngine;

type Builder = EngineBuilder<MaliciousCrashDiners>;

/// A workout that exercises every telemetry emission site: arbitrary
/// initial state (convergence), a benign crash, a malicious crash
/// (malicious pseudo-moves + fault events), and a transient burst.
fn stress_plan() -> FaultPlan {
    FaultPlan::new()
        .from_arbitrary_state()
        .crash(120, 1)
        .malicious_crash(200, 3, 6)
        .transient_local(320, 0)
}

fn build(attach: impl FnOnce(Builder) -> Builder) -> Engine<MaliciousCrashDiners> {
    let b = Engine::builder(MaliciousCrashDiners::paper(), Topology::ring(6))
        .workload(BernoulliWorkload::new(5, 1, 3))
        .scheduler(RandomScheduler::new(5))
        .faults(stress_plan())
        .seed(5);
    attach(b).build()
}

/// `b` with its scheduler replaced by one that reports to a from-scratch
/// reference, which is attached too.
fn checked(b: Builder) -> Builder {
    let (reference, sched) = ReferenceEngine::new(
        MaliciousCrashDiners::paper(),
        BernoulliWorkload::new(5, 1, 3),
        RandomScheduler::new(5),
        RandomScheduler::new(5),
    );
    b.scheduler(sched).observe(reference)
}

/// Step `a` and `b` in lockstep and demand identical runs; returns the
/// step outcomes and `b` for inspection.
fn assert_lockstep(
    mut a: Engine<MaliciousCrashDiners>,
    mut b: Engine<MaliciousCrashDiners>,
    steps: u64,
    label: &str,
) -> (Vec<StepOutcome>, Engine<MaliciousCrashDiners>) {
    let mut outcomes = Vec::new();
    for s in 0..steps {
        let out = b.step();
        assert_eq!(a.step(), out, "{label}: outcome diverged at step {s}");
        outcomes.push(out);
    }
    assert_eq!(a.state().locals(), b.state().locals(), "{label}: locals");
    assert_eq!(a.state().edges(), b.state().edges(), "{label}: edges");
    assert_eq!(a.health(), b.health(), "{label}: health");
    assert_eq!(a.metrics(), b.metrics(), "{label}: metrics");
    (outcomes, b)
}

#[test]
fn telemetry_never_perturbs_the_run() {
    // With vs without telemetry.
    assert_lockstep(
        build(|b| b),
        build(|b| b.observe(Telemetry::new())),
        600,
        "bare vs telemetry",
    );
    // Telemetry next to the from-scratch reference, which checks every
    // step of the observed run, against a bare engine.
    assert_lockstep(
        build(|b| checked(b).observe(Telemetry::new())),
        build(|b| b),
        600,
        "reference+telemetry vs bare",
    );
    // A sink that records every event is still invisible to the run.
    assert_lockstep(
        build(|b| b),
        build(|b| b.observe(Telemetry::with_sink(RingSink::new(1 << 16)))),
        600,
        "bare vs ring sink",
    );
}

#[test]
fn telemetry_counters_agree_with_the_trace() {
    // The trace is the ground truth the rest of the suite trusts; the
    // telemetry action counters must say exactly the same thing.
    let mut engine = build(|b| b.observe(Telemetry::new()).observe(Trace::new()));
    engine.run(800);
    let counts = engine
        .observer::<Trace>()
        .expect("trace attached")
        .action_counts();
    assert!(!counts.is_empty(), "stress plan fired no actions");
    let tele = engine
        .take_observer::<Telemetry>()
        .expect("telemetry attached");
    let reg = tele.registry();
    for (name, count) in counts {
        assert_eq!(
            reg.counter_value(&format!("engine.action.{name}")),
            Some(count),
            "counter for {name}"
        );
    }
    // Fault injections were counted too (crash + malicious + transient).
    assert_eq!(reg.counter_value("engine.faults"), Some(3));
    assert!(reg.counter_value("engine.malicious_steps").unwrap_or(0) > 0);
}

#[test]
fn lockstep_configs_under_quiet_fault_free_runs_too() {
    // Fault-free + deterministic daemon: the cheapest, most common
    // configuration must also be unperturbed.
    let make = |tele: Option<Telemetry>| {
        let mut b = Engine::builder(MaliciousCrashDiners::corrected(), Topology::line(5))
            .workload(AlwaysHungry)
            .scheduler(LeastRecentScheduler::new())
            .seed(9);
        if let Some(t) = tele {
            b = b.observe(t);
        }
        b.build()
    };
    assert_lockstep(
        make(None),
        make(Some(Telemetry::new())),
        400,
        "fault-free least-recent",
    );
}

/// An observer defined outside `diners-sim`: keeps everything it is fed.
#[derive(Default)]
struct EventLog {
    builds: usize,
    events: Vec<StepEvent>,
    step_ends: Vec<(u64, StepOutcome)>,
}

impl<A: DinerAlgorithm> StepObserver<A> for EventLog {
    fn on_build(&mut self, _alg: &A, _view: &Snapshot<'_, A>) {
        self.builds += 1;
    }

    fn on_event(&mut self, ev: &StepEvent, _view: &Snapshot<'_, A>) {
        self.events.push(*ev);
    }

    fn on_step_end(&mut self, steps: u64, outcome: StepOutcome, _view: &Snapshot<'_, A>) {
        self.step_ends.push((steps, outcome));
    }
}

#[test]
fn an_external_observer_sees_every_fault_and_move_in_order() {
    let steps = 600;
    let (outcomes, mut observed) = assert_lockstep(
        build(|b| b),
        build(|b| b.observe(EventLog::default())),
        steps,
        "bare vs external observer",
    );

    // Expected: at each step, the faults the plan schedules there (in
    // plan order), then the move the step fired, if any.
    let alg = MaliciousCrashDiners::paper();
    let kinds = alg.kinds();
    let plan = stress_plan();
    let mut expected = Vec::new();
    for (s, out) in outcomes.iter().enumerate() {
        let s = s as u64;
        for f in plan.events().iter().filter(|f| f.at_step == s) {
            expected.push((s, f.target, EventKind::Fault(f.kind)));
        }
        if let StepOutcome::Executed(mv) = *out {
            let kind = if mv.action.is_malicious() {
                EventKind::MaliciousStep
            } else {
                EventKind::Action {
                    kind: mv.action.kind,
                    slot: mv.action.slot,
                    name: kinds[mv.action.kind].name,
                }
            };
            expected.push((s, mv.pid, kind));
        }
    }

    let log = observed
        .observer::<EventLog>()
        .expect("observer::<T>() finds an external observer");
    assert_eq!(log.builds, 1);
    let seen: Vec<_> = log.events.iter().map(|e| (e.step, e.pid, e.kind)).collect();
    assert_eq!(seen, expected);
    let ends: Vec<_> = (1..=steps).zip(outcomes.iter().copied()).collect();
    assert_eq!(log.step_ends, ends);

    let log = observed
        .take_observer::<EventLog>()
        .expect("take_observer::<T>() detaches it");
    assert_eq!(log.events.len(), expected.len());
    assert!(observed.observer::<EventLog>().is_none());
    observed.step();
    assert!(observed.take_observer::<EventLog>().is_none());
}

#[test]
fn observer_outputs_match_the_golden_files() {
    // A quota workload quiesces, so the recording carries quiescent
    // steps; the plan fires a malicious crash, a crash, a local
    // transient, a snapshot restart that revives its target and a fresh
    // restart of a live process (a no-op).
    let mut e = Engine::builder(ToyDiners, Topology::ring(4))
        .workload(QuotaWorkload::uniform(4, 2))
        .scheduler(RandomScheduler::new(3))
        .faults(
            FaultPlan::new()
                .malicious_crash(4, 1, 3)
                .crash(9, 2)
                .transient_local(14, 0)
                .restart_snapshot(22, 2, 8)
                .restart_fresh(30, 3),
        )
        .seed(3)
        .observe(Trace::new())
        .observe(Telemetry::with_sink(RingSink::new(1 << 12)))
        .observe(FlightRecorder::new("toy").checkpoint_every(16))
        .observe(CausalTracer::default())
        .build();
    e.run(40);

    let recording = e.recording().expect("recorder attached").to_jsonl();
    assert_eq!(recording, include_str!("golden/observers.recording.jsonl"));
    let golden = Recording::parse(&recording).expect("the golden recording parses");
    Replayer::run(&golden, ToyDiners, QuotaWorkload::uniform(4, 2))
        .expect("the golden recording replays");
    let tracer = e.observer::<CausalTracer>().expect("tracer attached");
    assert_eq!(
        tracer.to_chrome_trace(),
        include_str!("golden/observers.chrome.json")
    );
    let tele = e.observer::<Telemetry>().expect("telemetry attached");
    assert_eq!(
        tele.registry().to_prometheus(),
        include_str!("golden/observers.prom")
    );
    let ring = tele.ring().expect("ring sink");
    let events: String = ring.events().map(|ev| format!("{ev:?}\n")).collect();
    assert_eq!(events, include_str!("golden/observers.events.txt"));
    let trace = e.observer::<Trace>().expect("trace attached");
    assert_eq!(
        trace.render_tail(1000),
        include_str!("golden/observers.trace.txt")
    );
}
