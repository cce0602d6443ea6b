//! The message-passing workload `simnet-ring256`: the message-passing
//! diner on a ring of 256 over a lossy, duplicating, delaying and
//! reordering network, supervised and monitored, with a crash and a
//! malicious crash every 200,000 steps from step 100,000.
//!
//! Time is cut into periods of 100,000 steps: faults strike at the start
//! of every odd period and every even period is quiet. In a quiet period
//! no two live neighbours eat together and every live node eats; a run
//! always ends with a quiet period. Periods are timed in segments of
//! 10,000 steps.

use std::time::{Duration, Instant};

use diners_mp::{AdversaryPlan, MonitorSetup, RestartPolicy, SimNet};
use diners_sim::fault::FaultPlan;
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::rng::hash2;
use diners_sim::telemetry::AlertKind;

use crate::harness::{ratio, repeated_setup, Budget, Opts};
use crate::probes::adversary_apply_ns;
use crate::report::{rss_mb, Outcome};
use crate::service::{self, GrantTracker};
use crate::spans::SharedSpans;
use crate::stats;

/// Workload name.
pub const NAME: &str = "simnet-ring256";

const N: usize = 256;
const PERIOD: u64 = 100_000;
const SEGMENT: u64 = 10_000;
const PREFIX_PERIODS: u64 = 11;
const QUICK_PERIODS: u64 = 3;
/// Faults are planned this far; the plan is rescanned every step, so it
/// covers no more than a long run needs.
const MAX_PERIODS: u64 = 41;
const MALICIOUS_TURNS: u32 = 20;
const SLO: u64 = 32_768;
const RAW_STEPS: u64 = 10_000;

fn adversary() -> AdversaryPlan {
    AdversaryPlan::new()
        .loss(100)
        .duplication(50)
        .delay(100, 3)
        .reorder(50)
}

/// The seeded faults: a crash and a malicious crash on two nodes at the
/// start of every odd period.
struct Plan {
    faults: FaultPlan,
    /// `(step, node)` for every node struck, in step order.
    struck: Vec<(u64, usize)>,
    /// The crashed and the maliciously crashing node of each odd period,
    /// by period.
    by_period: Vec<Option<[usize; 2]>>,
    digest: u64,
}

fn fault_plan(seed: u64) -> Plan {
    let mut faults = FaultPlan::new();
    let mut struck = Vec::new();
    let mut by_period = vec![None; MAX_PERIODS as usize];
    let mut digest = seed;
    for k in 0..MAX_PERIODS / 2 {
        let period = 2 * k + 1;
        let at = period * PERIOD;
        let a = (hash2(seed, 2 * k) % N as u64) as usize;
        let b = (a + 1 + (hash2(seed, 2 * k + 1) % (N as u64 - 1)) as usize) % N;
        faults = faults.crash(at, a).malicious_crash(at, b, MALICIOUS_TURNS);
        struck.extend([(at, a), (at, b)]);
        by_period[period as usize] = Some([a, b]);
        digest = hash2(digest ^ a as u64, b as u64);
    }
    Plan {
        faults,
        struck,
        by_period,
        digest,
    }
}

/// The monitor's hunger limit is the workload's own: at the default
/// 20,000 steps a wait far from any fault, which this lossy ring produces
/// now and then, is reported as a locality breach.
fn monitor_setup() -> MonitorSetup {
    MonitorSetup {
        slo_wait: SLO,
        ..MonitorSetup::default()
    }
}

fn build(seed: u64, plan: &FaultPlan, supervise: bool, monitor: bool) -> SimNet {
    let mut net = SimNet::with_adversary(Topology::ring(N), plan.clone(), adversary(), seed);
    if supervise {
        net.supervise(RestartPolicy::default());
    }
    if monitor {
        net.enable_monitor(monitor_setup());
    }
    net.step();
    net
}

fn meals(net: &SimNet) -> Vec<u64> {
    (0..N).map(|p| net.meals_of(ProcessId(p))).collect()
}

/// Run `simnet-ring256`; with `spans`, the traced variant.
pub fn run(opts: &Opts, spans: Option<SharedSpans>) -> Outcome {
    let mut out = Outcome::default();
    let prefix_periods = if opts.quick {
        QUICK_PERIODS
    } else {
        PREFIX_PERIODS
    };
    let per_period = PERIOD / SEGMENT;
    let prefix = prefix_periods * per_period;
    let plan = fault_plan(opts.seed);
    let (mut net, setup_s, reps) = repeated_setup(opts.quick || spans.is_some(), || {
        build(opts.seed, &plan.faults, true, true)
    });
    out.set(
        "setup_s",
        setup_s,
        format!("fastest decile of {reps}: topology, net, supervisor, monitor, first step"),
    );

    let step_layer = spans
        .as_ref()
        .map(|s| s.borrow_mut().layer_id("simnet.step"));
    let mut budget = Budget::new(prefix, MAX_PERIODS * per_period, opts);
    let mut rates = Vec::new();
    let mut busy_total = Duration::ZERO;
    let mut quiet_violations = 0u64;
    let mut starved = Vec::new();
    let mut period_start = (net.violation_steps(), meals(&net));
    let mut segments = 0u64;
    let mut at_prefix = None;
    // A run may end only where a quiet period ends.
    while budget.next_segment(segments, (segments * SEGMENT) % (2 * PERIOD) == PERIOD) {
        let end = (segments + 1) * SEGMENT;
        let start = net.step_count();
        let t = Instant::now();
        match (&spans, step_layer) {
            (Some(sp), Some(layer)) => {
                while net.step_count() < end {
                    sp.borrow_mut().enter(layer);
                    net.step();
                    let mut sp = sp.borrow_mut();
                    sp.exit();
                    if net.step_count() == RAW_STEPS {
                        sp.stop_raw();
                    }
                }
            }
            _ => net.run(end - start),
        }
        let busy = t.elapsed();
        busy_total += busy;
        rates.push((end - start) as f64 / busy.as_secs_f64());
        segments += 1;
        if end.is_multiple_of(PERIOD) {
            if (end / PERIOD) % 2 == 1 {
                // The period that just ended was quiet.
                let (violations0, meals0) = &period_start;
                quiet_violations += net.violation_steps() - violations0;
                let after = meals(&net);
                starved.extend(
                    (0..N).filter(|&p| !net.is_dead(ProcessId(p)) && after[p] == meals0[p]),
                );
            }
            period_start = (net.violation_steps(), meals(&net));
        }
        if segments == prefix {
            at_prefix = Some(counts(&net));
            out.set("peak_rss_mb", rss_mb().0, "VmHWM after the fixed prefix");
        }
    }
    let c = at_prefix.expect("prefix ran");
    let prefix_steps = prefix * SEGMENT;

    out.set(
        "steps_per_s",
        stats::p90(&rates),
        format!(
            "p90 of {} segments of {SEGMENT} steps (median {:.0}, IQR {:.1}% of it)",
            rates.len(),
            stats::median(&rates),
            100.0 * stats::spread(&rates)
        ),
    );
    // Until it halts a maliciously crashing node sends arbitrary messages,
    // and a node the supervisor restarts fresh claims the forks it starts
    // with, so in a fault period a struck node or a neighbour may eat
    // beside an eating neighbour; the monitor rightly reports that. Any
    // other hard alert is a failure.
    let unexplained: Vec<String> = net
        .monitor()
        .map(|m| m.alerts())
        .unwrap_or_default()
        .iter()
        .filter(|a| match a.kind {
            AlertKind::SloBreach { .. } => false,
            AlertKind::NeighborsEating { a: x, b: y } => plan.by_period[(a.step / PERIOD) as usize]
                .is_none_or(|struck| {
                    struck
                        .iter()
                        .all(|&s| ring_distance(x.index(), s).min(ring_distance(y.index(), s)) > 1)
                }),
            _ => true,
        })
        .map(|a| format!("{} at step {} on {}", a.kind.label(), a.step, a.pid))
        .collect();
    out.check(
        format!(
            "every hard alert is neighbours eating next to a node struck in that period ({})",
            if unexplained.is_empty() {
                "none unexplained".to_string()
            } else {
                unexplained.join(", ")
            }
        ),
        unexplained.is_empty(),
    );
    out.check(
        format!("no exclusion violation in a quiet period (saw {quiet_violations} steps)"),
        quiet_violations == 0,
    );
    out.check(
        format!(
            "every live node eats in every quiet period ({} did not)",
            starved.len()
        ),
        starved.is_empty(),
    );
    for (name, v) in &c {
        out.count(name, *v);
    }
    out.count("fault_plan_digest", plan.digest);

    // Grant latency from an untimed replay that polls every node's phase.
    let slo = if opts.quick {
        SLO.min(prefix_steps / 4)
    } else {
        SLO
    };
    let (summary, replay_meals) = replay(opts.seed, &plan, prefix_steps, slo);
    let prefix_meals = c.iter().find(|(n, _)| *n == "meals").map_or(0, |m| m.1);
    out.check(
        format!("replay is step-identical ({replay_meals} meals, run {prefix_meals})"),
        replay_meals == prefix_meals,
    );
    service::record(
        &mut out,
        &summary,
        slo,
        meals(&net).iter().sum(),
        net.step_count(),
        busy_total.as_secs_f64(),
    );

    if let Some(spans) = spans {
        let step = spans.borrow().layer("simnet.step");
        out.set(
            "simnet.step_ns",
            step.mean_ns(),
            format!("{} steps", step.count),
        );
        let get = |name: &str| c.iter().find(|(n, _)| *n == name).map_or(0, |m| m.1) as f64;
        let m = get("meals");
        out.set(
            "adversary.apply_ns",
            adversary_apply_ns(&adversary(), opts.seed, N, 200_000),
            "LinkAdversary::apply on probe sends",
        );
        out.set("adversary.sent_per_meal", ratio(get("sent"), m), "");
        out.set("adversary.dropped_per_meal", ratio(get("dropped"), m), "");
        out.set(
            "adversary.duplicated_per_meal",
            ratio(get("duplicated"), m),
            "",
        );
        out.set("simnet.shed_per_meal", ratio(get("shed"), m), "");
        out.set(
            "node.retransmit_share",
            ratio(get("retransmits"), get("sent")),
            "timer retransmissions among sends",
        );
        out.set("node.resyncs", get("resyncs"), "");
        out.set("monitor.cuts", get("cuts"), "");
        out.set("monitor.aborts", get("aborts"), "");
        out.set("monitor.hard_alerts", get("hard_alerts"), "");
        out.set("supervisor.restarts", get("restarts"), "");
        out.set("supervisor.giveups", get("giveups"), "");
        let (monitor_pct, supervisor_pct, same) = ablations(opts, &plan.faults);
        out.set(
            "monitor.cost_pct",
            monitor_pct,
            "first 100,000 steps, with vs without the monitor",
        );
        out.set(
            "supervisor.cost_pct",
            supervisor_pct,
            "first 100,000 steps, with vs without the supervisor",
        );
        out.check(
            "ablations eat the same meals (monitor and supervisor change no step)",
            same,
        );
    }
    out
}

fn ring_distance(a: usize, b: usize) -> usize {
    let d = a.abs_diff(b);
    d.min(N - d)
}

/// Deterministic counts of a net.
fn counts(net: &SimNet) -> Vec<(&'static str, u64)> {
    let stats = net.net_stats();
    let monitor = net.monitor();
    let supervisor = net.supervisor();
    vec![
        ("steps", net.step_count()),
        ("meals", meals(net).iter().sum()),
        ("violation_steps", net.violation_steps()),
        ("sent", stats.sent),
        ("dropped", stats.dropped),
        ("duplicated", stats.duplicated),
        ("shed", net.shed()),
        ("retransmits", net.retransmits()),
        ("resyncs", net.resyncs()),
        ("cuts", monitor.map_or(0, |m| m.cuts())),
        ("aborts", monitor.map_or(0, |m| m.aborts())),
        ("hard_alerts", monitor.map_or(0, |m| m.hard_alerts())),
        ("restarts", supervisor.map_or(0, |s| s.total_restarts())),
        ("giveups", supervisor.map_or(0, |s| s.total_giveups())),
    ]
}

/// Replay the first `steps` steps and poll every node's phase after each
/// one. Struck nodes are not tracked from the fault until they have
/// halted and the supervisor has brought them back.
fn replay(seed: u64, plan: &Plan, steps: u64, slo: u64) -> (service::ServiceSummary, u64) {
    #[derive(Clone, Copy, PartialEq)]
    enum Node {
        Tracked,
        Struck,
        Halted,
    }
    let mut net = SimNet::with_adversary(Topology::ring(N), plan.faults.clone(), adversary(), seed);
    net.supervise(RestartPolicy::default());
    net.enable_monitor(monitor_setup());
    let struck = &plan.struck;
    let mut tracker = GrantTracker::new((0..N).map(|p| net.phase_of(ProcessId(p))), 0);
    let mut nodes = vec![Node::Tracked; N];
    let mut seen = meals(&net);
    let mut next = 0;
    while net.step_count() < steps {
        let step = net.step_count();
        net.step();
        while struck.get(next).is_some_and(|s| s.0 == step) {
            let p = struck[next].1;
            nodes[p] = Node::Struck;
            tracker.reset(p, None, step);
            next += 1;
        }
        for (p, node) in nodes.iter_mut().enumerate() {
            let pid = ProcessId(p);
            match (*node, net.is_dead(pid)) {
                (Node::Tracked, false) => {
                    // A node can eat and finish within one turn, so a meal
                    // shows in its counter rather than in its phase.
                    let m = net.meals_of(pid);
                    if m > seen[p] {
                        seen[p] = m;
                        tracker.grant(p, step);
                    }
                    tracker.observe(p, net.phase_of(pid), step);
                }
                (Node::Tracked | Node::Struck, true) => {
                    *node = Node::Halted;
                    tracker.reset(p, None, step);
                }
                (Node::Halted, false) => {
                    *node = Node::Tracked;
                    seen[p] = net.meals_of(pid);
                    tracker.reset(p, Some(net.phase_of(pid)), step);
                }
                _ => {}
            }
        }
    }
    let meals = meals(&net).iter().sum();
    (tracker.summary(steps, slo), meals)
}

/// Percent of the full net's time spent in the monitor and in the
/// supervisor, from the fault-free first segment run with and without
/// each; alternated and repeated, medians taken. Also whether every
/// variant ate the same meals.
fn ablations(opts: &Opts, plan: &FaultPlan) -> (f64, f64, bool) {
    let reps = if opts.quick { 1 } else { 3 };
    let steps = if opts.quick { PERIOD / 2 } else { PERIOD } - 1;
    let mut times: [Vec<f64>; 3] = Default::default();
    let mut meal_counts = Vec::new();
    for _ in 0..reps {
        for (i, (supervise, monitor)) in [(true, true), (true, false), (false, true)]
            .into_iter()
            .enumerate()
        {
            let mut net = build(opts.seed, plan, supervise, monitor);
            let t = Instant::now();
            net.run(steps);
            times[i].push(t.elapsed().as_secs_f64());
            meal_counts.push(meals(&net).iter().sum::<u64>());
        }
    }
    let [full, no_monitor, no_supervisor] = times.map(|t| stats::median(&t));
    let same = meal_counts.windows(2).all(|w| w[0] == w[1]);
    (
        100.0 * (full - no_monitor) / full,
        100.0 * (full - no_supervisor) / full,
        same,
    )
}
