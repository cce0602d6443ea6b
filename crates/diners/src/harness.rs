//! Convenience runners shared by tests, examples and the experiment
//! harness.

use diners_sim::algorithm::DinerAlgorithm;
use diners_sim::engine::Engine;
use diners_sim::fault::{FaultEvent, FaultKind, FaultPlan, Resurrection};
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::scheduler::{LeastRecentScheduler, RandomScheduler};
use diners_sim::telemetry::Telemetry;

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
    /// non-faulty process was disturbed; 0 when nobody but the crash
    /// site was.
    pub radius: u32,
    /// Every disturbed non-faulty process with its distance to the
    /// crash site.
    pub deviating: Vec<(ProcessId, u32)>,
}

/// The disturbance a fault leaves, measured in meals: a process other
/// than `site` is disturbed when it ate more than `slack` fewer meals
/// in the faulty run than in the fault-free one.
///
/// The paper's locality claim is about *service*: a process outside the
/// containment radius keeps being served. Raw action sequences are no
/// measure of that, because a crash removes its victim from the daemon's
/// competition and so shifts every process's interleaving, however far
/// it sits from the crash; and a process served *more* (the crashed
/// process's steps are redistributed) has not been disturbed.
fn meal_shortfall(
    topo: &Topology,
    site: ProcessId,
    base: &[u64],
    faulty: &[u64],
    slack: u64,
) -> DisturbanceReport {
    let to_site = topo.distances_from(&[site]);
    let deviating: Vec<(ProcessId, u32)> = topo
        .processes()
        .filter(|&p| p != site && base[p.index()].saturating_sub(faulty[p.index()]) > slack)
        .map(|p| (p, to_site[p.index()]))
        .collect();
    let radius = deviating.iter().map(|&(_, d)| d).max().unwrap_or(0);
    DisturbanceReport {
        crash_site: site,
        radius,
        deviating,
    }
}

/// Measure the empirical disturbance radius of one crash: run the
/// algorithm twice under the deterministic least-recent daemon — once
/// fault-free, once with `crash` — and report the farthest process that
/// lost more than `slack` meals (see [`plan_disturbance`]). The paper's
/// failure-locality-2 theorem predicts a radius ≤ 2.
///
/// # Panics
///
/// Panics if `crash` is not a crash fault (transient faults have no
/// crash site to measure from).
pub fn crash_disturbance<A: DinerAlgorithm + Clone>(
    alg: A,
    topo: &Topology,
    crash: FaultEvent,
    steps: u64,
    slack: u64,
    seed: u64,
) -> DisturbanceReport {
    assert!(
        matches!(
            crash.kind,
            FaultKind::Crash | FaultKind::MaliciousCrash { .. }
        ),
        "crash_disturbance measures crash locality, got {}",
        crash.kind
    );
    let faults = FaultPlan::from_events([crash]);
    plan_disturbance(alg, topo, crash.target, faults, steps, slack, seed)
}

/// Measure the empirical disturbance radius of an arbitrary fault plan
/// around `site`: run the algorithm for `steps` steps under the
/// deterministic least-recent daemon once fault-free and once executing
/// `faults` verbatim (identical topology, workload, scheduler and seed),
/// and report every process other than `site` that ate more than `slack`
/// fewer meals in the faulty run. A crash *and its restart* count as one
/// incident, so the radius reflects the whole crash→recovery episode.
pub fn plan_disturbance<A: DinerAlgorithm + Clone>(
    alg: A,
    topo: &Topology,
    site: ProcessId,
    faults: FaultPlan,
    steps: u64,
    slack: u64,
    seed: u64,
) -> DisturbanceReport {
    let meals = |plan: FaultPlan| {
        let mut engine = Engine::builder(alg.clone(), topo.clone())
            .scheduler(LeastRecentScheduler::new())
            .faults(plan)
            .seed(seed)
            .build();
        engine.run(steps);
        engine.metrics().eats().to_vec()
    };
    let base = meals(FaultPlan::none());
    meal_shortfall(topo, site, &base, &meals(faults), slack)
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

    #[test]
    fn meal_shortfall_localizes_to_starved_processes() {
        let topo = Topology::line(5);
        let base = [10, 10, 10, 10, 10];
        // The crash site p0 starves, p1 (distance 1) loses 3 meals, p2
        // (distance 2) loses 7 and p4 eats more than in the base run.
        let faulty = [0, 7, 3, 10, 14];
        let report = meal_shortfall(&topo, ProcessId(0), &base, &faulty, 2);
        assert_eq!(report.radius, 2);
        assert_eq!(report.deviating, [(ProcessId(1), 1), (ProcessId(2), 2)]);

        // Slack swallows small shortfalls: with slack 3 only p2 counts.
        let report = meal_shortfall(&topo, ProcessId(0), &base, &faulty, 3);
        assert_eq!(report.deviating, [(ProcessId(2), 2)]);
        let report = meal_shortfall(&topo, ProcessId(0), &base, &faulty, 16);
        assert_eq!(report.radius, 0);
        assert!(report.deviating.is_empty());
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
            steps / 256,
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
