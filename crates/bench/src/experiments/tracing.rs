//! T12 — causal tracing, the flight recorder, and deterministic replay.
//!
//! Three guarantees about the forensic layer itself:
//!
//! 1. **Replay is bit-identical** — every recording in a topology ×
//!    scheduler × fault-plan sweep round-trips through the JSONL format
//!    and, driven into a fresh engine, reproduces the live run's final
//!    state, health, metric counters and violation trace exactly, with
//!    every digest checkpoint verifying.
//! 2. **Blame is local** — in single-crash scenarios, every blame chain
//!    the tracer finds within the 2-hop budget is rooted at the crash and
//!    stays within graph distance 2 of it (the per-incident form of the
//!    paper's failure-locality theorem), and such chains actually exist
//!    (the check is not vacuous). The unbounded chain-length distribution
//!    is reported alongside, so the locality bound is visible as a cliff
//!    in real data rather than an assertion.
//! 3. **Recording is cheap** — the flight recorder costs ≤ 5% of engine
//!    throughput on the large incremental configuration, so it can stay
//!    on for any run someone might later want to debug.

use std::time::Duration;

use diners_core::MaliciousCrashDiners;
use diners_sim::algorithm::DinerAlgorithm;
use diners_sim::engine::Engine;
use diners_sim::fault::FaultPlan;
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::record::{FlightRecorder, Recording, Replayer};
use diners_sim::scheduler::{LeastRecentScheduler, RandomScheduler, Scheduler};
use diners_sim::table::{fmt_opt, Table};
use diners_sim::telemetry::Histogram;
use diners_sim::trace::Trace;
use diners_sim::tracing::CausalTracer;
use diners_sim::workload::AlwaysHungry;
use diners_sim::Phase;

use super::perf::bench_engine;
use super::{json_object, json_rows, overhead, Report};
use crate::common::Scale;

mod tool;
pub use tool::{cli, CLI_USAGE};

/// The replay sweep's topology set. Sized so the full sweep still runs in
/// seconds: replay doubles every cell's step count.
fn replay_topologies(quick: bool) -> Vec<Topology> {
    if quick {
        vec![Topology::ring(6), Topology::line(5), Topology::star(5)]
    } else {
        vec![
            Topology::ring(8),
            Topology::line(9),
            Topology::grid(3, 3),
            Topology::star(6),
            Topology::ring(12),
        ]
    }
}

const SCHEDULER_NAMES: [&str; 2] = ["random", "least-recent"];

/// Scheduler factory keyed by index, so the live and replayed engines of
/// a cell can never share mutable scheduler state.
fn scheduler_at(i: usize, seed: u64) -> Box<dyn Scheduler> {
    match i {
        0 => Box::new(RandomScheduler::new(seed)),
        _ => Box::new(LeastRecentScheduler::new()),
    }
}

/// Fault plans for the replay sweep, scaled to the cell's horizon so
/// every fault actually fires. Targets stay below the smallest `n`.
fn fault_plans(steps: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::none()),
        ("crash", FaultPlan::new().crash(steps / 8, 1)),
        (
            "malicious",
            FaultPlan::new().malicious_crash(steps / 10, 2, 8),
        ),
        (
            "combo",
            FaultPlan::new()
                .initially_dead(0)
                .malicious_crash(steps / 12, 3, 4)
                .transient_local(steps / 6, 2)
                .transient_global(steps / 4)
                .crash(steps / 3, 1),
        ),
        ("arbitrary", FaultPlan::new().from_arbitrary_state()),
    ]
}

/// Run one live cell, round-trip the recording through JSONL, replay it
/// on a fresh engine and compare everything observable. Returns the
/// number of verified checkpoints.
fn replay_cell(topo: &Topology, si: usize, plan: &FaultPlan, steps: u64) -> Result<usize, String> {
    let mut live = Engine::builder(MaliciousCrashDiners::corrected(), topo.clone())
        .scheduler(scheduler_at(si, 17))
        .faults(plan.clone())
        .seed(17)
        .observe(Trace::new())
        .observe(FlightRecorder::new("mca-corrected"))
        .build();
    live.run(steps);

    let rec = live.recording().expect("recorder attached");
    let text = rec.to_jsonl();
    let back = Recording::parse(&text).map_err(|e| format!("parse: {e}"))?;
    if back != rec {
        return Err("recording round trip changed the value".into());
    }
    if back.to_jsonl() != text {
        return Err("re-serialization drifted".into());
    }

    let (replayed, verified) =
        Replayer::run(&back, MaliciousCrashDiners::corrected(), AlwaysHungry)
            .map_err(|e| format!("replay: {e}"))?;
    if replayed.state() != live.state() {
        return Err("final state differs".into());
    }
    if replayed.health() != live.health() {
        return Err("final health differs".into());
    }
    if replayed.metrics() != live.metrics() {
        return Err("metric counters differ".into());
    }
    if replayed.observer::<Trace>().map(Trace::events)
        != live.observer::<Trace>().map(Trace::events)
    {
        return Err("violation/event traces differ".into());
    }
    Ok(verified)
}

fn replay_section(quick: bool, json: &mut Vec<String>) -> (Table, usize) {
    let steps: u64 = if quick { 1_500 } else { 6_000 };
    let mut table = Table::new(
        format!("T12: replay verification, corrected variant ({steps} steps/cell)"),
        ["topology", "scheduler", "plan", "checkpoints", "replay"],
    );
    let mut failures = 0usize;
    for topo in replay_topologies(quick) {
        for (si, sname) in SCHEDULER_NAMES.iter().enumerate() {
            for (plan_name, plan) in fault_plans(steps) {
                let (verdict, checkpoints) = match replay_cell(&topo, si, &plan, steps) {
                    Ok(v) => ("bit-identical".to_string(), v),
                    Err(e) => {
                        failures += 1;
                        (format!("FAILED: {e}"), 0)
                    }
                };
                table.row([
                    topo.name().to_string(),
                    sname.to_string(),
                    plan_name.to_string(),
                    checkpoints.to_string(),
                    verdict.clone(),
                ]);
                json.push(format!(
                    concat!(
                        "{{\"topology\":\"{}\",\"scheduler\":\"{}\",\"plan\":\"{}\",",
                        "\"steps\":{},\"checkpoints\":{},\"ok\":{}}}"
                    ),
                    topo.name(),
                    sname,
                    plan_name,
                    steps,
                    checkpoints,
                    verdict == "bit-identical",
                ));
            }
        }
    }
    (table, failures)
}

/// Find a step ≥ `min_step` at which `victim` is thinking, by probing a
/// fault-free twin (identical evolution up to the crash, since faults
/// only act when due). Crashing a thinking process keeps its neighbors
/// serviceable, so the blame section measures live causality rather than
/// a blocked system.
fn thinking_step(
    topo: &Topology,
    victim: ProcessId,
    seed: u64,
    min_step: u64,
    horizon: u64,
) -> Option<u64> {
    let alg = MaliciousCrashDiners::corrected();
    let mut probe = Engine::builder(alg, topo.clone())
        .scheduler(RandomScheduler::new(seed))
        .seed(seed)
        .build();
    while probe.step_count() < horizon {
        probe.step();
        if probe.step_count() >= min_step
            && alg.phase(probe.state().local(victim)) == Phase::Thinking
        {
            return Some(probe.step_count());
        }
    }
    None
}

struct BlameStats {
    rooted: usize,
    max_distance: u32,
    unrooted: usize,
    hops: Histogram,
}

/// One single-crash scenario: crash `victim` while it thinks, trace the
/// rest of the run, and walk blame chains from every post-crash span.
fn blame_scenario(topo: &Topology, victim: ProcessId, steps: u64) -> (u64, BlameStats) {
    let seed = 29;
    let crash_step = thinking_step(topo, victim, seed, 50, steps).unwrap_or(50);
    let mut e = Engine::builder(MaliciousCrashDiners::corrected(), topo.clone())
        .scheduler(RandomScheduler::new(seed))
        .faults(FaultPlan::new().crash(crash_step, victim))
        .seed(seed)
        .observe(CausalTracer::default())
        .build();
    e.run(steps);
    let tracer = e.take_observer::<CausalTracer>().expect("tracer attached");
    let fault_span = tracer
        .fault_spans()
        .next()
        .expect("crash recorded as a span")
        .id;

    let to_victim = topo.distances_from(&[victim]);
    let mut stats = BlameStats {
        rooted: 0,
        max_distance: 0,
        unrooted: 0,
        hops: Histogram::pow2(),
    };
    for s in tracer.spans() {
        if s.kind.is_fault() || s.step <= crash_step {
            continue;
        }
        // The locality witness: a chain found within the 2-hop budget
        // must be rooted at the crash (the only fault) and stay within
        // graph distance 2 of it.
        if let Some(chain) = tracer.blame_within(s.id, 2) {
            debug_assert_eq!(chain.root(), fault_span);
            stats.rooted += 1;
            stats.max_distance = stats.max_distance.max(to_victim[s.pid.index()]);
        }
        // The unbounded depth distribution: how far causality actually
        // reaches, with spans causally independent of the crash counted
        // separately.
        match tracer.blame(s.id) {
            Some(chain) => stats.hops.record(chain.hops() as u64),
            None => stats.unrooted += 1,
        }
    }
    (crash_step, stats)
}

fn blame_section(quick: bool, json: &mut Vec<String>) -> (Table, usize, u32) {
    let steps: u64 = if quick { 1_500 } else { 5_000 };
    let mut table = Table::new(
        format!("T12: blame chains after a single crash ({steps} steps)"),
        [
            "topology",
            "victim",
            "crash",
            "rooted(≤2)",
            "max dist",
            "hops p50",
            "hops max",
            "unrooted",
        ],
    );
    let mut rooted_chains = 0usize;
    let mut max_rooted_distance = 0u32;
    for topo in replay_topologies(quick) {
        let victim = ProcessId(topo.len() / 2);
        let (crash_step, stats) = blame_scenario(&topo, victim, steps);
        rooted_chains += stats.rooted;
        max_rooted_distance = max_rooted_distance.max(stats.max_distance);
        table.row([
            topo.name().to_string(),
            victim.to_string(),
            crash_step.to_string(),
            stats.rooted.to_string(),
            stats.max_distance.to_string(),
            fmt_opt(stats.hops.quantile(0.5)),
            fmt_opt(stats.hops.max()),
            stats.unrooted.to_string(),
        ]);
        json.push(format!(
            concat!(
                "{{\"topology\":\"{}\",\"victim\":{},\"crash_step\":{},",
                "\"rooted_chains\":{},\"max_rooted_distance\":{},",
                "\"hops_p50\":{},\"hops_p90\":{},\"hops_max\":{},\"unrooted\":{}}}"
            ),
            topo.name(),
            victim.index(),
            crash_step,
            stats.rooted,
            stats.max_distance,
            stats.hops.quantile(0.5).unwrap_or(0),
            stats.hops.quantile(0.9).unwrap_or(0),
            stats.hops.max().unwrap_or(0),
            stats.unrooted,
        ));
    }
    (table, rooted_chains, max_rooted_distance)
}

/// Run the T12 sweep. `quick` shrinks topologies, horizons and budgets so
/// the sweep fits in integration tests and CI smoke runs. A replay that
/// is not bit-identical, a vacuous or escaping blame check, or (at full
/// scale) a recorder costing more than 5% fails the experiment.
pub fn run(scale: &Scale) -> Report {
    let quick = scale.quick;
    let mut replay_json = Vec::new();
    let mut blame_json = Vec::new();

    let (replay, replay_failures) = replay_section(quick, &mut replay_json);
    let (blame, rooted_chains, max_rooted_distance) = blame_section(quick, &mut blame_json);
    let topo = Topology::ring(if quick { 64 } else { 256 });
    let recorder = |every| {
        bench_engine(&topo)
            .observe(FlightRecorder::new("mca-paper").checkpoint_every(every))
            .build()
    };
    let (overhead, ovh_json, timed) = overhead(
        "T12: flight-recorder overhead, incremental",
        &topo,
        // A gated row: enough rounds that a few seconds of host noise
        // cannot move its median by a point.
        (240, Duration::from_millis(10)),
        vec![
            ("none attached".into(), bench_engine(&topo).build()),
            ("recorder, checkpoint every 256".into(), recorder(256)),
            ("recorder, checkpoint every 4096".into(), recorder(4096)),
        ],
        Engine::run,
    );
    let (overhead_pct, overhead_iqr) = (timed[1].overhead_pct(), timed[1].iqr * 100.0);

    let json = json_object(&[
        ("replay_failures", replay_failures.to_string()),
        ("rooted_chains", rooted_chains.to_string()),
        ("max_rooted_distance", max_rooted_distance.to_string()),
        ("recorder_overhead_pct", format!("{overhead_pct:.2}")),
        ("recorder_overhead_iqr", format!("{overhead_iqr:.2}")),
        ("replay", json_rows(&replay_json)),
        ("blame", json_rows(&blame_json)),
        ("overhead", ovh_json),
    ]);
    let mut report = Report {
        tables: vec![replay, blame, overhead],
        json: Some(("BENCH_trace.json", json)),
        ..Report::default()
    };
    report.check(replay_failures == 0, || {
        format!("{replay_failures} recordings failed to replay bit-identically")
    });
    report.check(rooted_chains > 0, || {
        "no blame chain within 2 hops: the locality check was vacuous".into()
    });
    report.check(max_rooted_distance <= 2, || {
        format!("a blame chain reached distance {max_rooted_distance}, beyond the bound of 2")
    });
    report.check(quick || overhead_pct <= 5.0, || {
        format!(
            "flight recorder costs {overhead_pct:.2}% (IQR {overhead_iqr:.2} points; budget 5%)"
        )
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::assert_json_has;

    #[test]
    fn quick_sweep_replays_exactly_and_blames_locally() {
        let report = run(&Scale::quick());
        // Bit-identical replay and non-vacuous locality: chains exist,
        // and none escapes distance 2.
        assert!(
            report.failures.is_empty(),
            "{:?}\n{}\n{}",
            report.failures,
            report.tables[0].render(),
            report.tables[1].render()
        );
        for (table, key) in report
            .tables
            .iter()
            .zip(["bit-identical", "ring", "recorder"])
        {
            assert!(table.render().contains(key), "{}", table.render());
        }
        let (_, json) = report.json.expect("trace writes JSON");
        assert!(!json.contains("\"rooted_chains\": 0,"), "{json}");
        assert_json_has(
            &json,
            &[
                "\"replay_failures\": 0",
                "\"rooted_chains\"",
                "\"max_rooted_distance\"",
                "\"recorder_overhead_pct\"",
                "\"recorder_overhead_iqr\"",
                "\"replay\":",
                "\"blame\":",
                "\"overhead\":",
            ],
        );
    }
}
