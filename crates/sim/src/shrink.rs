//! Deterministic counterexample shrinking.
//!
//! A fuzz harness that finds a failing scenario — a (topology, fault
//! plan, schedule) triple whose run violates an oracle — usually finds a
//! *large* one: dozens of fault events, hundreds of scheduled moves,
//! most of them irrelevant. This module minimizes such a [`Repro`] while
//! preserving the failure, using classic delta debugging ([`ddmin`]) on
//! the discrete sequences plus domain-specific *weakening* passes
//! (malicious crash → benign crash, fewer byzantine steps, arbitrary
//! restart → fresh restart, smaller topology, shorter run). Every
//! candidate is re-validated by actually executing it on a fresh
//! [`Engine`] — the oracle is the only ground truth — so the output is a
//! scenario that is *known* to still fail, not one assumed to.
//!
//! The endpoint is [`replay_certificate`]: the shrunk repro is executed
//! once more under a flight recorder and the resulting [`Recording`] is
//! immediately re-run through [`Replayer`] with a final state-digest
//! comparison. The artifact handed to a human is therefore a certified
//! bit-identical reproduction, not a "should replay" JSON blob.
//!
//! Everything here is deterministic: candidate order is fixed, engines
//! are seeded from the repro, and no wall-clock feedback steers the
//! search — the same input repro always shrinks to the same output.

use std::hash::Hash;
use std::time::{Duration, Instant};

use crate::algorithm::{DinerAlgorithm, Move};
use crate::engine::Engine;
use crate::fault::{FaultEvent, FaultKind, FaultPlan, Resurrection};
use crate::graph::Topology;
use crate::record::{state_digest, FlightRecorder, Recording, Replayer};
use crate::scheduler::ScriptedScheduler;
use crate::workload::Workload;

/// A shrinkable, buildable topology description. [`Topology`] itself is
/// an arbitrary edge set; the shrinker needs to know the *family* so it
/// can propose smaller members of the same family (a ring shrinks to a
/// smaller ring, not to an arbitrary subgraph).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopoSpec {
    /// Cycle of `n` processes (n ≥ 3).
    Ring(usize),
    /// Path of `n` processes (n ≥ 2).
    Line(usize),
    /// Hub plus `n − 1` leaves (n ≥ 3).
    Star(usize),
    /// `w × h` grid (w, h ≥ 2).
    Grid(usize, usize),
    /// Clique of `n` processes (n ≥ 2).
    Complete(usize),
}

impl TopoSpec {
    /// Materialize the topology.
    pub fn build(&self) -> Topology {
        match *self {
            TopoSpec::Ring(n) => Topology::ring(n),
            TopoSpec::Line(n) => Topology::line(n),
            TopoSpec::Star(n) => Topology::star(n),
            TopoSpec::Grid(w, h) => Topology::grid(w, h),
            TopoSpec::Complete(n) => Topology::complete(n),
        }
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        match *self {
            TopoSpec::Ring(n) | TopoSpec::Line(n) | TopoSpec::Star(n) | TopoSpec::Complete(n) => n,
            TopoSpec::Grid(w, h) => w * h,
        }
    }

    /// Whether the spec describes no processes (never true for valid
    /// specs; present for the conventional `len`/`is_empty` pairing).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The next-smaller members of the same family (empty at the
    /// family's minimum size). One size step at a time keeps every
    /// intermediate candidate oracle-checked.
    pub fn smaller(&self) -> Vec<TopoSpec> {
        match *self {
            TopoSpec::Ring(n) if n > 3 => vec![TopoSpec::Ring(n - 1)],
            TopoSpec::Line(n) if n > 2 => vec![TopoSpec::Line(n - 1)],
            TopoSpec::Star(n) if n > 3 => vec![TopoSpec::Star(n - 1)],
            TopoSpec::Complete(n) if n > 2 => vec![TopoSpec::Complete(n - 1)],
            TopoSpec::Grid(w, h) if w >= h && w > 2 => vec![TopoSpec::Grid(w - 1, h)],
            TopoSpec::Grid(w, h) if h > 2 => vec![TopoSpec::Grid(w, h - 1)],
            _ => Vec::new(),
        }
    }
}

/// A self-contained failing scenario: everything needed to rebuild the
/// engine run that violates the oracle.
#[derive(Clone, Debug)]
pub struct Repro {
    /// The conflict graph, by family (so it can shrink).
    pub topo: TopoSpec,
    /// The fault schedule.
    pub faults: FaultPlan,
    /// The daemon script. Replayed leniently during shrinking (entries
    /// whose move is not enabled are skipped), so delta-debugged
    /// sub-scripts stay executable.
    pub schedule: Vec<Move>,
    /// Engine steps to run before consulting the oracle.
    pub steps: u64,
    /// Engine seed (fault RNG streams, script-exhausted fallback).
    pub seed: u64,
}

/// Budget and phase toggles for [`shrink`].
#[derive(Clone, Copy, Debug)]
pub struct ShrinkConfig {
    /// Hard cap on oracle evaluations (engine runs). The shrinker stops
    /// early — still returning its best-so-far — when exhausted.
    pub max_attempts: usize,
    /// Try smaller topologies of the same family.
    pub shrink_topology: bool,
    /// Try shorter run lengths.
    pub shrink_steps: bool,
}

impl Default for ShrinkConfig {
    fn default() -> Self {
        ShrinkConfig {
            max_attempts: 20_000,
            shrink_topology: true,
            shrink_steps: true,
        }
    }
}

/// What the shrinker did, and how far it got.
#[derive(Clone, Debug)]
pub struct ShrinkReport {
    /// Oracle evaluations (engine runs) spent.
    pub attempts: usize,
    /// Fault events before and after.
    pub fault_events: (usize, usize),
    /// Scheduled moves before and after.
    pub schedule_moves: (usize, usize),
    /// Process count before and after.
    pub processes: (usize, usize),
    /// Run length before and after.
    pub steps: (u64, u64),
    /// Whether the final 1-minimality pass completed and certified that
    /// no single fault event and no single scheduled move can be removed
    /// without losing the failure. `false` if the attempt budget ran out
    /// before certification.
    pub locally_minimal: bool,
    /// Wall-clock time of the whole shrink.
    pub elapsed: Duration,
}

/// Minimize `items` to a subset that still makes `test` return `true`,
/// by Zeller–Hildebrandt delta debugging. `test` must hold on the full
/// input; the result is 1-minimal with respect to `test` *as sampled*
/// (deterministic tests get a deterministic, certified result). `budget`
/// caps test invocations; on exhaustion the best-so-far is returned.
pub fn ddmin<T, F>(items: &[T], mut test: F, budget: &mut usize) -> Vec<T>
where
    T: Clone,
    F: FnMut(&[T]) -> bool,
{
    let mut current: Vec<T> = items.to_vec();
    let mut granularity = 2usize;
    while current.len() >= 2 && granularity <= current.len() {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;
        // Try each complement (drop one chunk).
        let mut start = 0usize;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let candidate: Vec<T> = current[..start]
                .iter()
                .chain(current[end..].iter())
                .cloned()
                .collect();
            if *budget == 0 {
                return current;
            }
            *budget -= 1;
            if !candidate.is_empty() && test(&candidate) {
                current = candidate;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if granularity >= current.len() {
                break;
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    // Allow shrinking all the way to empty.
    if !current.is_empty() && *budget > 0 {
        *budget -= 1;
        if test(&[]) {
            return Vec::new();
        }
    }
    current
}

/// Execute a repro on a fresh engine and consult the oracle. Candidates
/// that reference processes outside the (possibly shrunk) topology are
/// rejected outright.
fn reproduces<A, W, FW, O>(alg: &A, repro: &Repro, workload: &FW, oracle: &O) -> bool
where
    A: DinerAlgorithm + Clone,
    W: Workload + 'static,
    FW: Fn() -> W,
    O: Fn(&Engine<A>) -> bool,
{
    let n = repro.topo.len();
    if repro.schedule.iter().any(|m| m.pid.index() >= n) {
        return false;
    }
    if repro
        .faults
        .events()
        .iter()
        .any(|e| e.target.index() >= n && e.kind != FaultKind::TransientGlobal)
    {
        return false;
    }
    if repro
        .faults
        .initially_dead_processes()
        .iter()
        .any(|p| p.index() >= n)
    {
        return false;
    }
    let mut engine = Engine::builder(alg.clone(), repro.topo.build())
        .workload(workload())
        .scheduler(ScriptedScheduler::lenient(repro.schedule.clone()))
        .faults(repro.faults.clone())
        .seed(repro.seed)
        .build();
    engine.run(repro.steps);
    oracle(&engine)
}

/// Strictly-weaker variants of one fault event, in preference order.
/// "Weaker" = closer to benign: fewer byzantine steps, benign instead of
/// malicious, deterministic fresh restart instead of arbitrary state.
fn weakenings(event: &FaultEvent) -> Vec<FaultEvent> {
    let mut out = Vec::new();
    match event.kind {
        FaultKind::MaliciousCrash { steps } => {
            out.push(FaultEvent {
                kind: FaultKind::Crash,
                ..*event
            });
            let mut s = steps / 2;
            while s > 0 {
                out.push(FaultEvent {
                    kind: FaultKind::MaliciousCrash { steps: s },
                    ..*event
                });
                s /= 2;
            }
        }
        FaultKind::TransientGlobal => {
            out.push(FaultEvent {
                kind: FaultKind::TransientLocal,
                ..*event
            });
        }
        FaultKind::Restart { state } => match state {
            Resurrection::Arbitrary { .. } => {
                out.push(FaultEvent {
                    kind: FaultKind::Restart {
                        state: Resurrection::Fresh,
                    },
                    ..*event
                });
                out.push(FaultEvent {
                    kind: FaultKind::Restart {
                        state: Resurrection::Snapshot { age: 0 },
                    },
                    ..*event
                });
            }
            Resurrection::Snapshot { age } if age > 0 => {
                out.push(FaultEvent {
                    kind: FaultKind::Restart {
                        state: Resurrection::Snapshot { age: 0 },
                    },
                    ..*event
                });
                out.push(FaultEvent {
                    kind: FaultKind::Restart {
                        state: Resurrection::Fresh,
                    },
                    ..*event
                });
            }
            _ => {}
        },
        FaultKind::Crash | FaultKind::TransientLocal => {}
    }
    out
}

/// Minimize a failing repro while preserving the failure, re-validating
/// every candidate by execution. `workload` is a factory because each
/// candidate run needs a fresh workload instance; `oracle(&engine)`
/// returns `true` iff the failure is (still) present after the run.
///
/// Phases, in order: (1) delta-debug the fault events, (2) weaken the
/// surviving fault kinds, (3) delta-debug the daemon script, (4) shrink
/// the topology within its family, (5) shorten the run, (6) certify
/// 1-minimality (every single fault event and scheduled move is
/// load-bearing). Phases 4–5 honor [`ShrinkConfig`] toggles.
///
/// # Panics
///
/// Panics if the *input* repro does not reproduce — shrinking a passing
/// scenario is always a caller bug, and silently returning it would
/// launder a non-failure into a "minimized counterexample".
pub fn shrink<A, W, FW, O>(
    alg: &A,
    repro: &Repro,
    workload: FW,
    oracle: O,
    config: ShrinkConfig,
) -> (Repro, ShrinkReport)
where
    A: DinerAlgorithm + Clone,
    W: Workload + 'static,
    FW: Fn() -> W,
    O: Fn(&Engine<A>) -> bool,
{
    let start = Instant::now();
    let mut budget = config.max_attempts;
    assert!(budget > 0, "shrink budget must be positive");
    budget -= 1;
    assert!(
        reproduces(alg, repro, &workload, &oracle),
        "shrink() requires a repro that actually fails its oracle"
    );

    let original = repro.clone();
    let mut best = repro.clone();

    // Phase 1: drop fault events.
    {
        let events = best.faults.events().to_vec();
        let kept = ddmin(
            &events,
            |cand| {
                let mut trial = best.clone();
                trial.faults = rebuild_faults(&best.faults, cand);
                reproduces(alg, &trial, &workload, &oracle)
            },
            &mut budget,
        );
        best.faults = rebuild_faults(&best.faults, &kept);
    }

    // Phase 2: weaken surviving fault kinds, one event at a time, to
    // fixpoint (a weakening can enable another).
    loop {
        let mut improved = false;
        let events = best.faults.events().to_vec();
        'events: for (i, event) in events.iter().enumerate() {
            for weaker in weakenings(event) {
                if budget == 0 {
                    break 'events;
                }
                budget -= 1;
                let mut cand = events.clone();
                cand[i] = weaker;
                let mut trial = best.clone();
                trial.faults = rebuild_faults(&best.faults, &cand);
                if reproduces(alg, &trial, &workload, &oracle) {
                    best.faults = trial.faults;
                    improved = true;
                    break 'events;
                }
            }
        }
        if !improved || budget == 0 {
            break;
        }
    }

    // Phase 3: delta-debug the daemon script.
    {
        let kept = ddmin(
            &best.schedule.clone(),
            |cand| {
                let mut trial = best.clone();
                trial.schedule = cand.to_vec();
                reproduces(alg, &trial, &workload, &oracle)
            },
            &mut budget,
        );
        best.schedule = kept;
    }

    // Phase 4: shrink the topology within its family.
    if config.shrink_topology {
        loop {
            let mut advanced = false;
            for smaller in best.topo.smaller() {
                if budget == 0 {
                    break;
                }
                budget -= 1;
                let mut trial = best.clone();
                trial.topo = smaller;
                if reproduces(alg, &trial, &workload, &oracle) {
                    best.topo = smaller;
                    advanced = true;
                    break;
                }
            }
            if !advanced || budget == 0 {
                break;
            }
        }
    }

    // Phase 5: shorten the run by repeated halving. Deterministic and
    // monotone-safe: each accepted length re-reproduced the failure.
    if config.shrink_steps {
        let mut lo = best.steps;
        let mut probe = best.steps / 2;
        while probe > 0 && budget > 0 {
            budget -= 1;
            let mut trial = best.clone();
            trial.steps = probe;
            if reproduces(alg, &trial, &workload, &oracle) {
                lo = probe;
                probe /= 2;
            } else {
                break;
            }
        }
        best.steps = lo;
    }

    // Phase 6: certify 1-minimality.
    let mut locally_minimal = true;
    {
        let events = best.faults.events().to_vec();
        for i in 0..events.len() {
            if budget == 0 {
                locally_minimal = false;
                break;
            }
            budget -= 1;
            let mut cand = events.clone();
            cand.remove(i);
            let mut trial = best.clone();
            trial.faults = rebuild_faults(&best.faults, &cand);
            if reproduces(alg, &trial, &workload, &oracle) {
                // ddmin missed a drop (possible when later phases opened
                // it up); take it and keep certifying.
                best.faults = trial.faults;
                return finish(
                    alg, &original, best, workload, oracle, config, budget, start,
                );
            }
        }
        for i in 0..best.schedule.len() {
            if budget == 0 {
                locally_minimal = false;
                break;
            }
            budget -= 1;
            let mut cand = best.schedule.clone();
            cand.remove(i);
            let mut trial = best.clone();
            trial.schedule = cand;
            if reproduces(alg, &trial, &workload, &oracle) {
                best.schedule = trial.schedule;
                return finish(
                    alg, &original, best, workload, oracle, config, budget, start,
                );
            }
        }
    }

    let report = ShrinkReport {
        attempts: config.max_attempts - budget,
        fault_events: (original.faults.events().len(), best.faults.events().len()),
        schedule_moves: (original.schedule.len(), best.schedule.len()),
        processes: (original.topo.len(), best.topo.len()),
        steps: (original.steps, best.steps),
        locally_minimal,
        elapsed: start.elapsed(),
    };
    (best, report)
}

/// Re-run the phase pipeline after a 1-minimality pass found a missed
/// reduction, preserving the consumed budget and the original baseline.
#[allow(clippy::too_many_arguments)]
fn finish<A, W, FW, O>(
    alg: &A,
    original: &Repro,
    best: Repro,
    workload: FW,
    oracle: O,
    config: ShrinkConfig,
    budget: usize,
    start: Instant,
) -> (Repro, ShrinkReport)
where
    A: DinerAlgorithm + Clone,
    W: Workload + 'static,
    FW: Fn() -> W,
    O: Fn(&Engine<A>) -> bool,
{
    let spent_so_far = config.max_attempts - budget;
    let rerun_config = ShrinkConfig {
        max_attempts: budget.max(1),
        ..config
    };
    let (shrunk, inner) = shrink(alg, &best, workload, oracle, rerun_config);
    let report = ShrinkReport {
        attempts: spent_so_far + inner.attempts,
        fault_events: (original.faults.events().len(), shrunk.faults.events().len()),
        schedule_moves: (original.schedule.len(), shrunk.schedule.len()),
        processes: (original.topo.len(), shrunk.topo.len()),
        steps: (original.steps, shrunk.steps),
        locally_minimal: inner.locally_minimal,
        elapsed: start.elapsed(),
    };
    (shrunk, report)
}

/// Rebuild a fault plan with a different event set but the same
/// initially-dead list and arbitrary-initial-state flag.
fn rebuild_faults(template: &FaultPlan, events: &[FaultEvent]) -> FaultPlan {
    let mut plan = FaultPlan::from_events(events.iter().copied());
    for &p in template.initially_dead_processes() {
        plan = plan.initially_dead(p);
    }
    if template.starts_arbitrary() {
        plan = plan.from_arbitrary_state();
    }
    plan
}

/// Execute a (typically shrunk) repro under a flight recorder and
/// certify the resulting recording by immediately replaying it: the
/// replayed engine must match the recorded run decision-for-decision
/// (checked by [`Replayer`]) *and* end in a state with the same
/// [`state_digest`]. Returns the certified [`Recording`] and the final
/// digest.
///
/// # Errors
///
/// Returns the replay divergence description if the recording does not
/// replay bit-identically — which would indicate an engine determinism
/// bug, not a property of the repro.
pub fn replay_certificate<A, W, FW>(
    alg: &A,
    repro: &Repro,
    workload: FW,
    label: &str,
) -> Result<(Recording, u64), String>
where
    A: DinerAlgorithm + Clone,
    A::Local: Hash,
    A::Edge: Hash,
    W: Workload + 'static,
    FW: Fn() -> W,
{
    let mut engine = Engine::builder(alg.clone(), repro.topo.build())
        .workload(workload())
        .scheduler(ScriptedScheduler::lenient(repro.schedule.clone()))
        .faults(repro.faults.clone())
        .seed(repro.seed)
        .observe(FlightRecorder::new(label))
        .build();
    engine.run(repro.steps);
    let digest = state_digest(engine.state(), engine.health());
    let recording = engine
        .recording()
        .expect("flight recorder was attached above");

    // Round-trip through the wire format, then replay.
    let parsed = Recording::parse(&recording.to_jsonl())?;
    let (replayed, _) = Replayer::run(&parsed, alg.clone(), workload())?;
    let replayed_digest = state_digest(replayed.state(), replayed.health());
    if replayed_digest != digest {
        return Err(format!(
            "replayed final digest {replayed_digest:#x} != recorded {digest:#x}"
        ));
    }
    Ok((parsed, digest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Phase;
    use crate::graph::ProcessId;
    use crate::scheduler::mv;
    use crate::toy::{ToyDiners, TOY_ENTER, TOY_EXIT, TOY_JOIN};
    use crate::workload::AlwaysHungry;

    #[test]
    fn ddmin_finds_singleton_cause() {
        let items: Vec<u32> = (0..64).collect();
        let mut budget = 10_000;
        let kept = ddmin(&items, |c| c.contains(&37), &mut budget);
        assert_eq!(kept, vec![37]);
        assert!(budget > 0);
    }

    #[test]
    fn ddmin_finds_pair_cause() {
        let items: Vec<u32> = (0..32).collect();
        let mut budget = 10_000;
        let kept = ddmin(&items, |c| c.contains(&3) && c.contains(&29), &mut budget);
        assert_eq!(kept, vec![3, 29]);
    }

    #[test]
    fn ddmin_respects_budget() {
        let items: Vec<u32> = (0..1024).collect();
        let mut budget = 3;
        let kept = ddmin(&items, |c| c.contains(&500), &mut budget);
        assert_eq!(budget, 0);
        assert!(kept.contains(&500));
    }

    #[test]
    fn ddmin_can_reach_empty() {
        let items: Vec<u32> = (0..8).collect();
        let mut budget = 1_000;
        let kept = ddmin(&items, |_| true, &mut budget);
        assert!(kept.is_empty());
    }

    #[test]
    fn topo_spec_shrinks_within_family_to_floor() {
        let mut t = TopoSpec::Ring(6);
        let mut sizes = vec![t.len()];
        while let Some(&s) = t.smaller().first() {
            t = s;
            sizes.push(t.len());
        }
        assert_eq!(sizes, vec![6, 5, 4, 3]);
        assert!(matches!(t, TopoSpec::Ring(3)));
        assert!(TopoSpec::Line(2).smaller().is_empty());
        assert_eq!(TopoSpec::Grid(3, 3).smaller(), vec![TopoSpec::Grid(2, 3)]);
    }

    /// Planted scenario: the oracle fires iff process 0 is dead at the
    /// end. Among three faults (two decoy transients and the real
    /// crash), the shrinker must isolate the crash, weaken it from
    /// malicious to benign, and cut the decoy-heavy schedule.
    #[test]
    fn shrink_isolates_and_weakens_the_killing_fault() {
        let repro = Repro {
            topo: TopoSpec::Ring(5),
            faults: FaultPlan::new()
                .transient_local(2, 3)
                .malicious_crash(5, 0, 2)
                .transient_global(9),
            schedule: vec![
                mv(1, TOY_JOIN),
                mv(2, TOY_JOIN),
                mv(1, TOY_ENTER),
                mv(1, TOY_EXIT),
                mv(4, TOY_JOIN),
            ],
            steps: 40,
            seed: 11,
        };
        let oracle = |engine: &Engine<ToyDiners>| engine.is_dead(ProcessId(0));
        let (shrunk, report) = shrink(
            &ToyDiners,
            &repro,
            || AlwaysHungry,
            oracle,
            ShrinkConfig::default(),
        );
        assert!(report.locally_minimal);
        assert_eq!(shrunk.faults.events().len(), 1, "only the crash survives");
        let survivor = shrunk.faults.events()[0];
        assert_eq!(survivor.target, ProcessId(0));
        assert_eq!(
            survivor.kind,
            FaultKind::Crash,
            "malicious crash weakens to a benign one"
        );
        assert!(shrunk.schedule.is_empty(), "no schedule entry is needed");
        assert!(shrunk.steps <= repro.steps);
        assert_eq!(
            shrunk.topo.len(),
            3,
            "a ring shrinks to its family floor when the oracle is local"
        );
        assert_eq!(report.fault_events, (3, 1));
    }

    /// A behavioural oracle that needs specific schedule entries: the
    /// failure is "process 1 is eating after only three steps", which is
    /// too fast for the script-exhausted fallback daemon to produce on
    /// its own (it round-robins joins first), so p1's join and enter
    /// must be scheduled explicitly. Shrinking must delta-debug the
    /// decoys away and keep exactly the two load-bearing moves.
    #[test]
    fn shrink_keeps_load_bearing_schedule_moves() {
        let repro = Repro {
            topo: TopoSpec::Line(3),
            faults: FaultPlan::none(),
            schedule: vec![
                mv(2, TOY_JOIN),
                mv(1, TOY_JOIN),
                mv(1, TOY_ENTER),
                mv(2, TOY_JOIN),
            ],
            steps: 3,
            seed: 5,
        };
        let oracle = |engine: &Engine<ToyDiners>| engine.phase_of(ProcessId(1)) == Phase::Eating;
        let (shrunk, report) = shrink(
            &ToyDiners,
            &repro,
            || AlwaysHungry,
            oracle,
            ShrinkConfig {
                shrink_steps: false,
                ..Default::default()
            },
        );
        assert!(report.locally_minimal);
        assert_eq!(
            shrunk.schedule,
            vec![mv(1, TOY_JOIN), mv(1, TOY_ENTER)],
            "exactly p1's join and enter are load-bearing"
        );
        assert_eq!(report.schedule_moves, (4, 2));
        assert_eq!(
            shrunk.topo,
            TopoSpec::Line(2),
            "the third process is not needed for p1 to eat"
        );
        for i in 0..shrunk.schedule.len() {
            let mut cand = shrunk.clone();
            cand.schedule.remove(i);
            let mut engine = Engine::builder(ToyDiners, cand.topo.build())
                .workload(AlwaysHungry)
                .scheduler(ScriptedScheduler::lenient(cand.schedule.clone()))
                .faults(cand.faults.clone())
                .seed(cand.seed)
                .build();
            engine.run(cand.steps);
            assert!(
                !oracle(&engine),
                "dropping entry {i} should lose the failure"
            );
        }
    }

    #[test]
    #[should_panic(expected = "actually fails its oracle")]
    fn shrink_rejects_passing_repros() {
        let repro = Repro {
            topo: TopoSpec::Ring(4),
            faults: FaultPlan::none(),
            schedule: Vec::new(),
            steps: 10,
            seed: 1,
        };
        let _ = shrink(
            &ToyDiners,
            &repro,
            || AlwaysHungry,
            |_| false,
            ShrinkConfig::default(),
        );
    }

    #[test]
    fn replay_certificate_round_trips_bit_identically() {
        let repro = Repro {
            topo: TopoSpec::Ring(4),
            faults: FaultPlan::new().crash(3, 2).restart_fresh(9, 2),
            schedule: vec![mv(0, TOY_JOIN), mv(0, TOY_ENTER), mv(1, TOY_JOIN)],
            steps: 20,
            seed: 77,
        };
        let (recording, digest) =
            replay_certificate::<_, AlwaysHungry, _>(&ToyDiners, &repro, || AlwaysHungry, "toy")
                .expect("certified replay");
        assert_eq!(recording.steps, 20);
        // Replay once more from the parsed artifact: same digest again.
        let (engine, _) = Replayer::run(&recording, ToyDiners, AlwaysHungry).expect("replays");
        assert_eq!(state_digest(engine.state(), engine.health()), digest);
    }
}
