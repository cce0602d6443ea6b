//! Convenience runners shared by tests, examples and the experiment
//! harness.

use diners_sim::algorithm::DinerAlgorithm;
use diners_sim::engine::Engine;
use diners_sim::fault::{FaultKind, FaultPlan, Resurrection};
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::scheduler::{LeastRecentScheduler, RandomScheduler};
use diners_sim::telemetry::Telemetry;
use diners_sim::trace::Trace;

use crate::algorithm::MaliciousCrashDiners;
use crate::predicates::Invariant;

/// An engine for the paper's algorithm with a random daemon — the default
/// experimental setup.
pub fn paper_engine(topo: Topology, seed: u64) -> Engine<MaliciousCrashDiners> {
    Engine::builder(MaliciousCrashDiners::paper(), topo)
        .scheduler(RandomScheduler::new(seed))
        .seed(seed)
        .build()
}

/// Measure the stabilization time of the paper's algorithm (or a variant)
/// from a fully arbitrary state: the first step from which the invariant
/// `I` held continuously through the horizon.
pub fn stabilization_steps(
    alg: MaliciousCrashDiners,
    topo: Topology,
    seed: u64,
    horizon: u64,
) -> Option<u64> {
    let invariant = Invariant::for_algorithm(&alg);
    let mut engine = Engine::builder(alg, topo)
        .scheduler(RandomScheduler::new(seed))
        .faults(FaultPlan::new().from_arbitrary_state())
        .seed(seed)
        .build();
    engine.convergence_step(&invariant, horizon)
}

/// Like [`stabilization_steps`], but with telemetry attached: the run's
/// action-fire counters and hungry→eat latency histogram are collected,
/// and the convergence time is recorded into the
/// `convergence.steps_to_invariant` histogram. Returns the convergence
/// step (if any) plus the telemetry for report rendering.
pub fn stabilization_with_telemetry(
    alg: MaliciousCrashDiners,
    topo: Topology,
    seed: u64,
    horizon: u64,
) -> (Option<u64>, Telemetry) {
    let invariant = Invariant::for_algorithm(&alg);
    let mut engine = Engine::builder(alg, topo)
        .scheduler(RandomScheduler::new(seed))
        .faults(FaultPlan::new().from_arbitrary_state())
        .seed(seed)
        .observe(Telemetry::new())
        .build();
    let converged = engine.convergence_step(&invariant, horizon);
    let mut tele = engine
        .take_observer::<Telemetry>()
        .expect("telemetry was attached");
    let reg = tele.registry_mut();
    let hist = reg.histogram("convergence.steps_to_invariant");
    if let Some(at) = converged {
        reg.record(hist, at);
    }
    let timeouts = reg.counter("convergence.horizon_exhausted");
    if converged.is_none() {
        reg.inc(timeouts);
    }
    (converged, tele)
}

/// Result of comparing a faulty run against its fault-free twin.
#[derive(Clone, Debug)]
pub struct DisturbanceReport {
    /// The crashed process.
    pub crash_site: ProcessId,
    /// Max conflict-graph distance from the crash site at which a
    /// non-faulty process deviated; 0 when nobody but the crash site did.
    pub radius: u32,
    /// Every deviating non-faulty process with its distance to the
    /// crash site.
    pub deviating: Vec<(ProcessId, u32)>,
}

/// What counts as a per-process deviation between the faulty run and
/// its fault-free twin.
///
/// A crash removes its victim from the daemon's pick competition, which
/// shifts the *global* interleaving: under any fair scheduler, every
/// process's raw action sequence eventually drifts from the baseline's,
/// no matter how far it sits from the crash. The paper's locality claim
/// is about *service* — a process outside the containment radius keeps
/// being served — so locality measurements must project the trace down
/// to service events and only count a *shortfall*.
#[derive(Clone, Debug)]
pub enum Deviation {
    /// Compare full per-process action-name sequences: a mismatch
    /// anywhere in the common prefix, or a length drift beyond `slack`
    /// actions, is a deviation. Schedule-sensitive (see above) — useful
    /// for lockstep determinism checks, not for locality measurement.
    Trace {
        /// Tolerated end-of-run action-count drift.
        slack: usize,
    },
    /// Compare per-process counts of the named service actions; a
    /// process deviates only if the faulty run falls short of the
    /// baseline by more than `slack` occurrences. A process that is
    /// served *more* (the crashed process's steps are redistributed)
    /// has not been disturbed in the paper's sense.
    Shortfall {
        /// Action names that constitute service (e.g. the transition
        /// into eating).
        actions: &'static [&'static str],
        /// Tolerated service-count shortfall.
        slack: u64,
    },
}

/// Untimed per-process action projection of a trace: the sequence of
/// action names `pid` executed, ignoring global interleaving.
fn projection(trace: &Trace, pid: ProcessId) -> Vec<&'static str> {
    trace
        .actions_of(pid)
        .into_iter()
        .map(|(_, name)| name)
        .collect()
}

impl Deviation {
    fn deviates(&self, base: &[&'static str], faulty: &[&'static str]) -> bool {
        match *self {
            Deviation::Trace { slack } => {
                let common = base.len().min(faulty.len());
                if base[..common] != faulty[..common] {
                    return true;
                }
                base.len().abs_diff(faulty.len()) > slack
            }
            Deviation::Shortfall { actions, slack } => {
                let count = |names: &[&'static str]| {
                    names.iter().filter(|n| actions.contains(n)).count() as u64
                };
                count(base).saturating_sub(count(faulty)) > slack
            }
        }
    }
}

/// Compute the empirical disturbance radius of a crash at `crash_site`:
/// compare the traces of a faulty run and a fault-free twin (identical
/// topology, workload, scheduler, seed, run for the same number of
/// steps) and report the farthest non-faulty process that deviates under
/// `rule`. The paper's locality-2 theorem predicts radius ≤ 2 under
/// [`Deviation::Shortfall`] over the service actions.
pub fn disturbance_radius(
    topo: &Topology,
    baseline: &Trace,
    faulty: &Trace,
    crash_site: ProcessId,
    rule: &Deviation,
) -> DisturbanceReport {
    let to_site = topo.distances_from(&[crash_site]);
    let mut deviating = Vec::new();
    for p in topo.processes() {
        if p == crash_site {
            continue;
        }
        let base = projection(baseline, p);
        let fault = projection(faulty, p);
        if rule.deviates(&base, &fault) {
            deviating.push((p, to_site[p.index()]));
        }
    }
    let radius = deviating.iter().map(|&(_, d)| d).max().unwrap_or(0);
    DisturbanceReport {
        crash_site,
        radius,
        deviating,
    }
}

/// The action names that constitute *service* for the diners algorithms:
/// the transition into eating. Used as the projection for
/// [`Deviation::Shortfall`] locality measurements.
pub const SERVICE_ACTIONS: &[&str] = &["enter"];

/// The default deviation rule for diner locality measurements: a process
/// is disturbed only if the crash costs it more than `slack` meals
/// relative to the fault-free twin run.
pub fn service_shortfall(slack: u64) -> Deviation {
    Deviation::Shortfall {
        actions: SERVICE_ACTIONS,
        slack,
    }
}

/// Measure the empirical disturbance radius of one crash: run the
/// algorithm twice under the deterministic least-recent daemon — once
/// fault-free, once with `kind` striking `crash_site` at `crash_step` —
/// and compare per-process action projections under `rule` (see
/// [`disturbance_radius`]).
///
/// Use [`service_shortfall`] as the rule for locality claims: the
/// paper's failure-locality-2 theorem predicts a radius ≤ 2 in meal
/// shortfall, while raw trace comparison registers the global schedule
/// shift the crash induces and over-reports.
///
/// # Panics
///
/// Panics if `kind` is not a crash fault (transient faults have no
/// crash site to measure from).
#[allow(clippy::too_many_arguments)]
pub fn crash_disturbance<A: DinerAlgorithm + Clone>(
    alg: A,
    topo: &Topology,
    crash_site: ProcessId,
    kind: FaultKind,
    crash_step: u64,
    steps: u64,
    rule: &Deviation,
    seed: u64,
) -> DisturbanceReport {
    let faults = match kind {
        FaultKind::Crash => FaultPlan::new().crash(crash_step, crash_site),
        FaultKind::MaliciousCrash { steps } => {
            FaultPlan::new().malicious_crash(crash_step, crash_site, steps)
        }
        other => panic!("crash_disturbance measures crash locality, got {other}"),
    };
    plan_disturbance(alg, topo, crash_site, faults, steps, rule, seed)
}

/// Measure the empirical disturbance radius of an arbitrary fault plan
/// around `site`: the same fault-free-twin comparison as
/// [`crash_disturbance`], but the faulty run executes `faults` verbatim
/// — so a crash *and its restart* count as one incident, and the radius
/// reflects the whole crash→recovery episode. Use [`service_shortfall`]
/// as the rule for locality claims.
pub fn plan_disturbance<A: DinerAlgorithm + Clone>(
    alg: A,
    topo: &Topology,
    site: ProcessId,
    faults: FaultPlan,
    steps: u64,
    rule: &Deviation,
    seed: u64,
) -> DisturbanceReport {
    let run = |plan: FaultPlan| {
        let mut engine = Engine::builder(alg.clone(), topo.clone())
            .scheduler(LeastRecentScheduler::new())
            .faults(plan)
            .seed(seed)
            .observe(Trace::new())
            .build();
        engine.run(steps);
        engine.take_observer::<Trace>().expect("trace attached")
    };
    disturbance_radius(topo, &run(FaultPlan::none()), &run(faults), site, rule)
}

/// One crash→restart incident, measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryIncident {
    /// The step at which the restart fired.
    pub restart_step: u64,
    /// First step (absolute) from which the invariant `I` held
    /// continuously through the horizon, if it reconverged.
    pub reconverged_at: Option<u64>,
    /// Mean-time-to-reconverge for this incident: steps from the restart
    /// until the invariant held for good. `None` if the horizon ran out.
    pub mttr: Option<u64>,
}

/// Run one crash→restart incident and measure its recovery time: crash
/// `site` at `crash_step`, resurrect it at `restart_step` with `state`,
/// then report when the system reconverges to the invariant `I` (checked
/// continuously through `horizon` further steps).
///
/// Stabilization is what makes this well-defined for *every*
/// [`Resurrection`] mode — even a node reborn with arbitrary garbage is
/// just one more transient the algorithm recovers from.
#[allow(clippy::too_many_arguments)]
pub fn recovery_incident(
    alg: MaliciousCrashDiners,
    topo: Topology,
    site: ProcessId,
    crash_step: u64,
    restart_step: u64,
    state: Resurrection,
    horizon: u64,
    seed: u64,
) -> RecoveryIncident {
    let invariant = Invariant::for_algorithm(&alg);
    let mut engine = Engine::builder(alg, topo)
        .scheduler(RandomScheduler::new(seed))
        .faults(
            FaultPlan::new()
                .crash(crash_step, site)
                .restart(restart_step, site, state),
        )
        .seed(seed)
        .build();
    // The restart applies during the step numbered `restart_step`.
    engine.run(restart_step + 1);
    debug_assert!(!engine.is_dead(site), "restart did not land");
    let reconverged_at = engine.convergence_step(&invariant, horizon);
    RecoveryIncident {
        restart_step,
        reconverged_at,
        mttr: reconverged_at.map(|at| at.saturating_sub(restart_step)),
    }
}

/// Fault-free service statistics over a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceStats {
    /// Total meals completed.
    pub total_eats: u64,
    /// Minimum meals by any single process.
    pub min_eats: u64,
    /// Maximum meals by any single process.
    pub max_eats: u64,
    /// Mean hungry-to-eating latency (steps), if any wait completed.
    pub mean_response: Option<f64>,
    /// Worst hungry-to-eating latency (steps).
    pub max_response: u64,
    /// Steps at which two live neighbors ate simultaneously.
    pub violation_steps: u64,
    /// Jain's fairness index over per-process meal counts.
    pub fairness: Option<f64>,
}

/// Run `steps` steps and summarize service quality.
pub fn service_stats<A: DinerAlgorithm>(engine: &mut Engine<A>, steps: u64) -> ServiceStats {
    engine.run(steps);
    let m = engine.metrics();
    let eats = m.eats();
    ServiceStats {
        total_eats: m.total_eats(),
        min_eats: eats.iter().copied().min().unwrap_or(0),
        max_eats: eats.iter().copied().max().unwrap_or(0),
        mean_response: m.mean_response(),
        max_response: m.max_response_overall(),
        violation_steps: m.violation_step_count(),
        fairness: m.fairness_index(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diners_sim::graph::Topology;
    use diners_sim::observe::EventKind;
    use diners_sim::trace::Event;

    #[test]
    fn disturbance_radius_localizes_to_deviating_processes() {
        let topo = Topology::line(5);
        let mut base = Trace::new();
        let mut fault = Trace::new();
        let action = |step: u64, p: usize, name: &'static str| Event {
            step,
            pid: ProcessId(p),
            kind: EventKind::Action {
                kind: 0,
                slot: None,
                name,
            },
        };
        // Everyone does join,enter in both runs...
        for step in 0..2u64 {
            for p in 0..5 {
                let name = if step == 0 { "join" } else { "enter" };
                base.record(action(step, p, name));
                fault.record(action(step, p, name));
            }
        }
        // ...but in the faulty run p1 (distance 1 from crash at p0)
        // diverges in content and p2 (distance 2) stalls hard.
        base.record(action(2, 1, "exit"));
        fault.record(action(2, 1, "leave"));
        for step in 3..10u64 {
            base.record(action(step, 2, "enter"));
        }
        let rule = Deviation::Trace { slack: 2 };
        let report = disturbance_radius(&topo, &base, &fault, ProcessId(0), &rule);
        assert_eq!(report.radius, 2);
        let pids: Vec<usize> = report.deviating.iter().map(|&(p, _)| p.index()).collect();
        assert_eq!(pids, [1, 2]);

        // Slack swallows small length drift: with slack 8 the stall at p2
        // is within tolerance and only the content mismatch at p1 counts.
        let rule = Deviation::Trace { slack: 8 };
        let report = disturbance_radius(&topo, &base, &fault, ProcessId(0), &rule);
        assert_eq!(report.radius, 1);
        assert_eq!(report.deviating.len(), 1);

        // Service shortfall only sees p2's lost meals: p1's content swap
        // (exit vs leave) does not touch the "enter" count, and a
        // generous slack swallows the stall too.
        let rule = Deviation::Shortfall {
            actions: &["enter"],
            slack: 2,
        };
        let report = disturbance_radius(&topo, &base, &fault, ProcessId(0), &rule);
        assert_eq!(report.radius, 2);
        assert_eq!(report.deviating.len(), 1);
        let rule = Deviation::Shortfall {
            actions: &["enter"],
            slack: 16,
        };
        let report = disturbance_radius(&topo, &base, &fault, ProcessId(0), &rule);
        assert_eq!(report.radius, 0);
    }

    #[test]
    fn paper_engine_serves_everyone() {
        let mut e = paper_engine(Topology::ring(6), 9);
        let stats = service_stats(&mut e, 20_000);
        assert!(stats.min_eats > 0, "every process eats: {stats:?}");
        assert_eq!(stats.violation_steps, 0);
        assert!(stats.fairness.unwrap() > 0.5);
    }

    #[test]
    fn recovery_incident_reconverges_for_every_resurrection_mode() {
        for state in [
            Resurrection::Fresh,
            Resurrection::Snapshot { age: 200 },
            Resurrection::Arbitrary { seed: 0xBAD },
        ] {
            let inc = recovery_incident(
                MaliciousCrashDiners::paper(),
                Topology::line(6),
                ProcessId(2),
                1_000,
                3_000,
                state,
                60_000,
                7,
            );
            let at = inc
                .reconverged_at
                .unwrap_or_else(|| panic!("{state:?}: no reconvergence"));
            assert!(at >= inc.restart_step, "{state:?}: converged at {at}");
            assert_eq!(inc.mttr, Some(at - inc.restart_step));
        }
    }

    #[test]
    fn crash_restart_incident_stays_local() {
        // A full crash→recovery episode still has failure locality 2 in
        // meal shortfall: everything at distance > 2 from the incident is
        // undisturbed.
        let steps = 4_000u64;
        let site = ProcessId(4);
        let plan = FaultPlan::new()
            .crash(300, site)
            .restart(1_500, site, Resurrection::Fresh);
        let report = plan_disturbance(
            MaliciousCrashDiners::corrected(),
            &Topology::line(9),
            site,
            plan,
            steps,
            &service_shortfall(steps / 256),
            11,
        );
        assert!(
            report.radius <= 2,
            "crash+restart incident radius {} > 2",
            report.radius
        );
    }

    #[test]
    fn stabilization_from_arbitrary_states() {
        // Paper bound: genuinely stable on a line (D = n-1 there).
        for seed in 0..3 {
            let steps = stabilization_steps(
                MaliciousCrashDiners::paper(),
                Topology::line(8),
                seed,
                50_000,
            );
            assert!(steps.is_some(), "line seed {seed}: did not stabilize");
        }
        // Corrected bound: stable on every topology (see the T1 finding).
        for seed in 0..3 {
            let steps = stabilization_steps(
                MaliciousCrashDiners::corrected(),
                Topology::ring(8),
                seed,
                50_000,
            );
            let at = steps.expect("corrected bound stabilizes on rings");
            assert!(at < 20_000, "seed {seed}: late convergence at {at}");
        }
    }
}
