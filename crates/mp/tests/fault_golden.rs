//! Golden trajectory of one monitored, supervised `SimNet` run under a
//! hostile network and a fault plan that fires every fault kind.
//!
//! The plan covers an initially dead node, malicious crashes of zero and
//! of several arbitrary turns, benign crashes, local and global
//! transients, and restarts of all three [`Resurrection`] kinds,
//! including a crash and a restart of the same node at the same step, a
//! snapshot restart whose `age` reaches back past step 0, and restarts
//! of live nodes (no-ops). The watchdog restarts from its own sealed
//! checkpoints and runs out of budget for node 5, which the plan
//! revives later.
//!
//! Every 500 steps the run writes one line: per-node health (`D` dead,
//! `-` not), phase and meals; the adversary's verdicts, shed copies,
//! retransmits, resyncs and exclusion-violation steps; the monitor's
//! cuts, aborts and alerts; the watchdog's restarts and give-ups. The
//! file changes if any fault fires at another step, restores another
//! checkpoint, or rebuilds a node another way.

use diners_mp::{AdversaryPlan, MonitorSetup, RestartPolicy, SimNet};
use diners_sim::fault::{FaultPlan, Resurrection};
use diners_sim::graph::Topology;
use diners_sim::Phase;

const STEPS: u64 = 24_000;
const EVERY: u64 = 500;

fn every_fault_kind() -> FaultPlan {
    FaultPlan::new()
        .initially_dead(7)
        // Age 20,000 at step 150: the checkpoint is node 7's state at
        // step 0. The plan fires before the watchdog's probe times out.
        .restart_snapshot(150, 7, 20_000)
        .malicious_crash(1_000, 1, 0)
        .restart_arbitrary(1_050, 1, 99)
        .malicious_crash(2_500, 3, 40)
        .crash(4_000, 5)
        .transient_local(5_500, 2)
        // Same step: the crash fires first, then the snapshot taken
        // before it brings node 0 straight back.
        .crash(7_000, 0)
        .restart_snapshot(7_000, 0, 0)
        .crash(8_000, 5)
        .crash(12_000, 5)
        // Node 4 is live: the restart leaves it alone.
        .restart_fresh(13_000, 4)
        .transient_global(15_000)
        .crash(18_000, 6)
        .restart_snapshot(18_100, 6, 300)
        .crash(20_000, 2)
        .restart_arbitrary(20_000, 2, 5)
        // Node 5 was abandoned by the watchdog; the plan revives it.
        .restart_fresh(21_000, 5)
}

fn hostile() -> AdversaryPlan {
    AdversaryPlan::new()
        .loss(100)
        .duplication(60)
        .delay(120, 4)
        .reorder(80)
        .corrupt_near_byzantine(300)
        .isolate(4, 9_000, 9_600)
        .cut_link(1, 2, 16_000, 16_400)
}

fn policy() -> RestartPolicy {
    RestartPolicy {
        probe_timeout: 150,
        base_backoff: 16,
        max_backoff: 128,
        jitter: 7,
        max_restarts: 2,
        snapshot_every: 100,
        resurrection: Resurrection::Snapshot { age: 0 },
    }
}

fn line(net: &SimNet) -> String {
    let mut health = String::new();
    let mut phase = String::new();
    let mut meals = Vec::new();
    for p in net.topology().processes() {
        health.push(if net.is_dead(p) { 'D' } else { '-' });
        phase.push(match net.phase_of(p) {
            Phase::Thinking => 'T',
            Phase::Hungry => 'H',
            Phase::Eating => 'E',
        });
        meals.push(net.meals_of(p).to_string());
    }
    let s = net.net_stats();
    let monitor = net.monitor().expect("monitor enabled");
    let sup = net.supervisor().expect("supervisor attached");
    format!(
        "{} health={health} phase={phase} meals={} \
         sent={} dropped={} duplicated={} delayed={} reordered={} corrupted={} \
         shed={} retransmits={} resyncs={} violation_steps={} \
         cuts={} aborts={} alerts={} restarts={} giveups={}",
        net.step_count(),
        meals.join(","),
        s.sent,
        s.dropped,
        s.duplicated,
        s.delayed,
        s.reordered,
        s.corrupted,
        net.shed(),
        net.retransmits(),
        net.resyncs(),
        net.violation_steps(),
        monitor.cuts(),
        monitor.aborts(),
        monitor.alerts().len(),
        sup.total_restarts(),
        sup.total_giveups(),
    )
}

#[test]
fn every_fault_kind_drives_the_golden_trajectory() {
    let mut net = SimNet::with_adversary(Topology::ring(8), every_fault_kind(), hostile(), 23);
    net.supervise(policy());
    net.enable_monitor(MonitorSetup {
        epoch_every: 50,
        slo_wait: 500,
        keep_cuts: false,
    });
    let mut trajectory = String::new();
    while net.step_count() < STEPS {
        net.run(EVERY);
        trajectory.push_str(&line(&net));
        trajectory.push('\n');
    }
    assert_eq!(trajectory, include_str!("golden/simnet_faults.txt"));
}
