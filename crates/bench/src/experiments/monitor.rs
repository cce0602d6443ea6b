//! T16 — online monitoring: detection latency, false-positive rate, and
//! snapshot/monitor overhead.
//!
//! Three claims about the observability plane itself:
//!
//! 1. **Violations are detected** — in a deliberately broken run (the
//!    fault injector forces a predicate violation and keeps it standing),
//!    the monitor raises the matching alert within a finite, small number
//!    of net steps. Both predicate families are exercised: safety (two
//!    neighboring eaters) and the liveness SLO (continuous hunger beyond
//!    the threshold).
//! 2. **Legitimate runs are quiet** — across a link-adversary ×
//!    fault-plan × seed sweep of ≥ 100 healthy runs, the monitor raises
//!    zero hard alerts (safety / inconsistent-cut / locality), while
//!    still completing snapshot epochs in every run (the quietness is
//!    not vacuous).
//! 3. **Watching is cheap** — the full plane (vector-clock stamping,
//!    snapshot epochs, cut assembly, predicate evaluation) costs ≤ 5% of
//!    [`SimNet`] throughput on the large ring, so it can stay on.
//!
//! `exp monitor --watch` is the interactive side: a live status line per
//! chunk of a monitored, adversary-ridden ring, optionally served as
//! Prometheus text over HTTP.

use std::time::Duration;

use diners_sim::fault::FaultPlan;
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::table::Table;
use diners_sim::telemetry::AlertKind;
use diners_sim::{MetricsServer, Phase};

use diners_mp::{AdversaryPlan, MonitorSetup, SimNet};

use super::{json_object, json_rows, known_flags, opt, overhead, Report};
use crate::common::Scale;

/// Build one monitored net for the detection section.
fn detection_net(topo: &Topology, plan: AdversaryPlan, slo_wait: u64, seed: u64) -> SimNet {
    let mut net = SimNet::with_adversary(topo.clone(), FaultPlan::none(), plan, seed);
    net.enable_monitor(MonitorSetup {
        epoch_every: 50,
        slo_wait,
        ..MonitorSetup::default()
    });
    net
}

/// Drive an injected safety violation: force both endpoints of edge
/// (0, 1) into `Eating` every step (the node logic would repair a
/// one-shot overwrite, so the injector keeps the violation standing, as
/// a genuinely broken exclusion layer would). Returns the alert latency
/// in net steps, or `None` if the horizon expires unalerted.
fn inject_neighbors_eating(net: &mut SimNet, horizon: u64) -> (u64, Option<u64>) {
    let start = net.step_count();
    let matches_edge = |k: &AlertKind| {
        matches!(
            k,
            AlertKind::NeighborsEating { a, b }
                if (a.index(), b.index()) == (0, 1) || (a.index(), b.index()) == (1, 0)
        )
    };
    for _ in 0..horizon {
        net.inject_phase(ProcessId(0), Phase::Eating);
        net.inject_phase(ProcessId(1), Phase::Eating);
        net.step();
        let hit = net
            .monitor()
            .expect("monitor attached")
            .alerts()
            .iter()
            .find(|a| a.step >= start && matches_edge(&a.kind));
        if let Some(a) = hit {
            return (start, Some(a.step - start));
        }
    }
    (start, None)
}

/// Drive an injected liveness violation: black out every data link
/// (total loss), so fork tokens stop moving and hungry diners starve in
/// place. The shadow marker adversary keeps the plan it was built with,
/// so snapshot epochs still complete and the monitor keeps seeing cuts
/// of the now-starving system. Returns the latency to the first
/// `SloBreach` alert.
fn inject_starvation(net: &mut SimNet, horizon: u64) -> (u64, Option<u64>) {
    let start = net.step_count();
    net.set_loss_per_mille(900); // the adversary's cap: near-total loss
    for _ in 0..horizon {
        net.step();
        let hit = net
            .monitor()
            .expect("monitor attached")
            .alerts()
            .iter()
            .find(|a| a.step >= start && matches!(a.kind, AlertKind::SloBreach { .. }));
        if let Some(a) = hit {
            return (start, Some(a.step - start));
        }
    }
    (start, None)
}

fn detection_section(quick: bool, json: &mut Vec<String>) -> (Table, usize, usize) {
    let topos = if quick {
        vec![Topology::ring(6), Topology::line(5)]
    } else {
        vec![Topology::ring(8), Topology::line(7), Topology::ring(12)]
    };
    let seeds: u64 = if quick { 1 } else { 3 };
    let settle: u64 = if quick { 500 } else { 2_000 };
    let horizon: u64 = 10_000;
    // The SLO threshold for the starvation scenario: far above any wait a
    // healthy clean net produces, far below the horizon.
    let slo_wait = 600;

    let mut table = Table::new(
        format!(
            "T16: detection latency of injected violations (epoch every 50, horizon {horizon})"
        ),
        ["topology", "seed", "violation", "inject @", "latency"],
    );
    let mut injected = 0usize;
    let mut undetected = 0usize;
    let record = |table: &mut Table,
                  json: &mut Vec<String>,
                  topo: &Topology,
                  seed: u64,
                  kind: &str,
                  start: u64,
                  latency: Option<u64>| {
        table.row([
            topo.name().to_string(),
            seed.to_string(),
            kind.to_string(),
            start.to_string(),
            latency.map_or("MISSED".into(), |l| l.to_string()),
        ]);
        json.push(format!(
            concat!(
                "{{\"topology\":\"{}\",\"seed\":{},\"violation\":\"{}\",",
                "\"inject_step\":{},\"latency_steps\":{},\"detected\":{}}}"
            ),
            topo.name(),
            seed,
            kind,
            start,
            latency.map_or("null".into(), |l| l.to_string()),
            latency.is_some(),
        ));
    };

    for topo in &topos {
        for seed in 0..seeds {
            // Safety: a noisy link layer must not delay detection beyond
            // the horizon, let alone hide the violation.
            let noisy = AdversaryPlan::new().loss(100).delay(100, 3);
            let mut net = detection_net(topo, noisy, u64::MAX, 61 + seed);
            net.run(settle);
            let (start, latency) = inject_neighbors_eating(&mut net, horizon);
            injected += 1;
            undetected += usize::from(latency.is_none());
            record(
                &mut table,
                json,
                topo,
                seed,
                "neighbors-eating",
                start,
                latency,
            );

            // Liveness SLO: clean links while settling, so no hunger
            // episode is anywhere near the threshold when the blackout
            // begins to starve the diners.
            let mut net = detection_net(topo, AdversaryPlan::none(), slo_wait, 71 + seed);
            net.run(settle);
            let (start, latency) = inject_starvation(&mut net, horizon);
            injected += 1;
            undetected += usize::from(latency.is_none());
            record(
                &mut table,
                json,
                topo,
                seed,
                "slo-starvation",
                start,
                latency,
            );
        }
    }
    (table, injected, undetected)
}

/// The hostile link plans for the sweep — same vocabulary as the
/// snapshot property suite.
fn link_plans() -> Vec<(&'static str, AdversaryPlan)> {
    vec![
        ("clean", AdversaryPlan::none()),
        ("lossy", AdversaryPlan::new().loss(250)),
        ("duping", AdversaryPlan::new().duplication(300)),
        (
            "reordering",
            AdversaryPlan::new().delay(250, 6).reorder(250),
        ),
        (
            "kitchen-sink",
            AdversaryPlan::new()
                .loss(150)
                .duplication(150)
                .delay(150, 4)
                .reorder(150),
        ),
    ]
}

/// Legitimate process-fault variants, scaled to the run horizon. All of
/// these are *allowed* behaviors — the monitor must stay quiet.
fn fault_variants(steps: u64, quick: bool) -> Vec<(&'static str, FaultPlan)> {
    let mut v = vec![
        ("none", FaultPlan::none()),
        ("crash", FaultPlan::new().crash(steps / 6, 2)),
        (
            "malicious",
            FaultPlan::new().malicious_crash(steps / 5, 4, 6),
        ),
    ];
    if !quick {
        v.push((
            "rebirth",
            FaultPlan::new()
                .crash(steps / 8, 1)
                .restart_fresh(steps / 3, 1),
        ));
        v.push((
            "combo",
            FaultPlan::new()
                .crash(steps / 8, 2)
                .malicious_crash(steps / 5, 4, 6)
                .restart_fresh(steps / 2, 2),
        ));
    }
    v
}

struct SweepCell {
    runs: usize,
    healthy: usize,
    min_cuts: u64,
    soft_alerts: u64,
    hard_alerts: u64,
    false_positives: usize,
    cutless: usize,
}

fn fp_section(quick: bool, json: &mut Vec<String>) -> (Table, usize, usize, usize) {
    let steps: u64 = if quick { 6_000 } else { 12_000 };
    let seeds: u64 = if quick { 1 } else { 5 };
    let mut table = Table::new(
        format!("T16: false-positive sweep, monitored ring(6) ({steps} steps/run, {seeds} seeds)"),
        [
            "links", "faults", "runs", "healthy", "min cuts", "soft", "hard", "FPs",
        ],
    );
    let mut healthy_runs = 0usize;
    let mut false_positives = 0usize;
    let mut cutless_runs = 0usize;
    for (lname, plan) in link_plans() {
        for (fname, faults) in fault_variants(steps, quick) {
            let mut cell = SweepCell {
                runs: 0,
                healthy: 0,
                min_cuts: u64::MAX,
                soft_alerts: 0,
                hard_alerts: 0,
                false_positives: 0,
                cutless: 0,
            };
            for seed in 0..seeds {
                let mut net = SimNet::with_adversary(
                    Topology::ring(6),
                    faults.clone(),
                    plan.clone(),
                    500 + seed,
                );
                net.enable_monitor(MonitorSetup {
                    epoch_every: 100,
                    ..MonitorSetup::default()
                });
                net.run(steps);
                let mon = net.monitor().expect("monitor attached");
                cell.runs += 1;
                cell.min_cuts = cell.min_cuts.min(mon.cuts());
                cell.cutless += usize::from(mon.cuts() == 0);
                cell.hard_alerts += mon.hard_alerts();
                cell.soft_alerts += mon.alerts().len() as u64 - mon.hard_alerts();
                // A run counts toward the false-positive denominator only
                // if it was genuinely violation-free end to end; a hard
                // alert on such a run is a false positive by definition.
                if net.violation_steps() == 0 {
                    cell.healthy += 1;
                    cell.false_positives += usize::from(mon.hard_alerts() > 0);
                }
            }
            healthy_runs += cell.healthy;
            false_positives += cell.false_positives;
            cutless_runs += cell.cutless;
            table.row([
                lname.to_string(),
                fname.to_string(),
                cell.runs.to_string(),
                cell.healthy.to_string(),
                cell.min_cuts.to_string(),
                cell.soft_alerts.to_string(),
                cell.hard_alerts.to_string(),
                cell.false_positives.to_string(),
            ]);
            json.push(format!(
                concat!(
                    "{{\"links\":\"{}\",\"faults\":\"{}\",\"runs\":{},",
                    "\"healthy_runs\":{},\"min_cuts\":{},\"soft_alerts\":{},",
                    "\"hard_alerts\":{},\"false_positives\":{}}}"
                ),
                lname,
                fname,
                cell.runs,
                cell.healthy,
                cell.min_cuts,
                cell.soft_alerts,
                cell.hard_alerts,
                cell.false_positives,
            ));
        }
    }
    (table, healthy_runs, false_positives, cutless_runs)
}

/// Run the T16 sweep. `quick` shrinks topologies, horizons, seed counts
/// and budgets so the sweep fits in integration tests and CI smoke runs.
/// An unalerted injection, a hard alert on a healthy run or a run with
/// no completed epoch fails the experiment; at full scale so do fewer
/// than 100 healthy runs and an operating-cadence overhead above 5%.
pub fn run(scale: &Scale) -> Report {
    let quick = scale.quick;
    let mut det_json = Vec::new();
    let mut fp_json = Vec::new();

    // Overhead first: it is a wall-clock measurement, and running it in
    // a pristine process (before the detection and FP sections churn the
    // heap with hundreds of throwaway nets) keeps the allocator state of
    // the monitored and unmonitored timings representative.
    let topo = Topology::ring(if quick { 64 } else { 256 });
    // Epoch cadences scale with the ring: a full snapshot round costs
    // Θ(n²) (every participant contributes an n-entry clock), so the
    // sane operating point for a large net is a round every ~20 actions
    // per node. The aggressive ~2-actions-per-node cadence is measured
    // and reported alongside so the per-round cost stays visible.
    let n = topo.len() as u64;
    let monitored = |epoch_every| {
        let mut net = SimNet::new(topo.clone(), FaultPlan::none(), 7);
        net.enable_monitor(MonitorSetup {
            epoch_every,
            ..MonitorSetup::default()
        });
        (
            format!(
                "monitored, epoch every {epoch_every} (~{} acts/node)",
                epoch_every / n
            ),
            net,
        )
    };
    let (overhead, ovh_json, timed) = overhead(
        "T16: monitoring overhead",
        &topo,
        // A gated row: enough rounds that a few seconds of host noise
        // cannot move its median by a point.
        (240, Duration::from_millis(10)),
        vec![
            (
                "unmonitored".into(),
                SimNet::new(topo.clone(), FaultPlan::none(), 7),
            ),
            monitored(2 * n),
            monitored(20 * n),
        ],
        SimNet::run,
    );
    let (overhead_pct, overhead_iqr) = (timed[2].overhead_pct(), timed[2].iqr * 100.0);
    let (detection, injected, undetected) = detection_section(quick, &mut det_json);
    let (fp, healthy_runs, false_positives, cutless_runs) = fp_section(quick, &mut fp_json);

    let json = json_object(&[
        ("injected", injected.to_string()),
        ("undetected", undetected.to_string()),
        ("healthy_runs", healthy_runs.to_string()),
        ("false_positives", false_positives.to_string()),
        ("cutless_runs", cutless_runs.to_string()),
        ("monitor_overhead_pct", format!("{overhead_pct:.2}")),
        ("monitor_overhead_iqr", format!("{overhead_iqr:.2}")),
        ("detection", json_rows(&det_json)),
        ("fp_sweep", json_rows(&fp_json)),
        ("overhead", ovh_json),
    ]);
    let mut report = Report {
        tables: vec![detection, fp, overhead],
        json: Some(("BENCH_monitor.json", json)),
        ..Report::default()
    };
    report.check(injected > 0 && undetected == 0, || {
        format!("{undetected} of {injected} injected violations went unalerted")
    });
    report.check(false_positives == 0, || {
        format!("the monitor raised a hard alert on {false_positives} healthy runs")
    });
    report.check(cutless_runs == 0, || {
        format!("{cutless_runs} sweep runs completed no epochs")
    });
    report.check(quick || healthy_runs >= 100, || {
        format!("only {healthy_runs} healthy runs in the sweep (need ≥ 100)")
    });
    report.check(quick || overhead_pct <= 5.0, || {
        format!("monitoring costs {overhead_pct:.2}% (IQR {overhead_iqr:.2} points; budget 5%)")
    });
    report
}

/// The `exp monitor` tool's usage, for the driver's usage text.
pub const CLI_USAGE: &str = "\
exp monitor --watch [--quick] [--chunks N] [--serve ADDR]
                   step a monitored ring(16) under crashes, a malicious crash and a
                   kitchen-sink link adversary, printing a status line per 500-step
                   chunk (default 20, 5 with --quick); --serve also exposes the
                   monitor's metrics as Prometheus text at http://ADDR/metrics";

/// Run the `exp monitor --watch` live dashboard.
pub fn cli(args: &[String]) -> Result<(), String> {
    known_flags(args, &["--watch", "--quick", "--chunks", "--serve"])?;
    if !args.iter().any(|a| a == "--watch" || a == "--serve") {
        return Err("the monitor tool expects --watch".into());
    }
    let chunks: u64 = match opt(args, "--chunks") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--chunks expects an integer, got {v:?}"))?,
        None if args.iter().any(|a| a == "--quick") => 5,
        None => 20,
    };
    let server = match opt(args, "--serve") {
        Some(addr) => {
            let s = MetricsServer::bind(&addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
            println!("serving metrics at http://{}/metrics", s.addr());
            Some(s)
        }
        None => None,
    };
    watch(chunks, server);
    Ok(())
}

/// A ring(16) under the kitchen-sink link adversary with a malicious
/// crash, a benign crash and a rebirth scheduled — enough going on that
/// the status table shows epochs aborting and membership changing.
fn watch_net(seed: u64) -> SimNet {
    let mut net = SimNet::with_adversary(
        Topology::ring(16),
        FaultPlan::new()
            .malicious_crash(3_000, 3, 6)
            .crash(6_000, 9)
            .restart_fresh(12_000, 9),
        AdversaryPlan::new()
            .loss(150)
            .duplication(150)
            .delay(150, 4)
            .reorder(150),
        seed,
    );
    net.enable_monitor(MonitorSetup {
        epoch_every: 200,
        slo_wait: 5_000,
        ..MonitorSetup::default()
    });
    net
}

fn watch(chunks: u64, server: Option<MetricsServer>) {
    let chunk_steps = 500u64;
    let mut net = watch_net(11);
    println!(
        "watching monitored ring(16) under the kitchen-sink adversary \
         ({chunks} chunks × {chunk_steps} steps)\n"
    );
    println!(
        "{:>8}  {:>6}  {:>5}  {:>6}  {:>5}  {:>5}  {:>4}  {:>8}  {:>8}",
        "step", "epoch", "cuts", "aborts", "hard", "soft", "dead", "wait p50", "wait p99"
    );
    for _ in 0..chunks {
        net.run(chunk_steps);
        let mon = net.monitor().expect("monitor attached");
        let waits = mon.cluster_waits();
        let q = |p: f64| waits.quantile(p).map_or("-".into(), |v| v.to_string());
        println!(
            "{:>8}  {:>6}  {:>5}  {:>6}  {:>5}  {:>5}  {:>4}  {:>8}  {:>8}",
            net.step_count(),
            // The epoch of the last completed cut.
            mon.registry().gauge_value("monitor.epoch").unwrap_or(0.0) as u64,
            mon.cuts(),
            mon.aborts(),
            mon.hard_alerts(),
            mon.alerts().len() as u64 - mon.hard_alerts(),
            net.dead_processes().len(),
            q(0.5),
            q(0.99),
        );
        if let Some(s) = &server {
            s.publish(mon.registry());
        }
    }
    let mon = net.monitor().expect("monitor attached");
    println!(
        "\nfinal: {} cuts, {} aborts, alerts:",
        mon.cuts(),
        mon.aborts()
    );
    if mon.alerts().is_empty() {
        println!("  (none)");
    }
    for a in mon.alerts() {
        println!(
            "  step {:>6} epoch {:>4} {}: {:?}",
            a.step, a.epoch, a.pid, a.kind
        );
    }
    if let Some(s) = server {
        s.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::assert_json_has;

    #[test]
    fn quick_sweep_detects_injections_with_no_false_positives() {
        let report = run(&Scale::quick());
        // Detection, quietness and non-vacuity are the report's own checks.
        assert!(
            report.failures.is_empty(),
            "{:?}\n{}\n{}",
            report.failures,
            report.tables[0].render(),
            report.tables[1].render()
        );
        for (table, key) in [
            (&report.tables[0], "neighbors-eating"),
            (&report.tables[0], "slo-starvation"),
            (&report.tables[1], "kitchen-sink"),
            (&report.tables[2], "unmonitored"),
        ] {
            assert!(table.render().contains(key), "{}", table.render());
        }
        let (_, json) = report.json.expect("monitor writes JSON");
        assert!(!json.contains("\"healthy_runs\": 0,"), "{json}");
        assert_json_has(
            &json,
            &[
                "\"undetected\": 0",
                "\"false_positives\": 0",
                "\"monitor_overhead_pct\"",
                "\"monitor_overhead_iqr\"",
                "\"detection\":",
                "\"fp_sweep\":",
                "\"overhead\":",
            ],
        );
    }
}
