//! Property suite: every *completed* snapshot epoch yields a
//! vector-clock-consistent cut, no matter what the link adversary or
//! the process-fault plan does — marker loss, duplication, reordering,
//! bounded delay, crashes and rebirths mid-round — on both the
//! deterministic [`SimNet`] and the real [`ThreadRuntime`].

use std::time::Duration;

use diners_sim::fault::{FaultPlan, Resurrection};
use diners_sim::graph::{ProcessId, Topology};

use diners_mp::monitor::GlobalCut;
use diners_mp::{AdversaryPlan, MonitorSetup, SimNet, ThreadRuntime};

/// Re-check a completed cut's consistency directly (independent of the
/// monitor's own verdict): nobody saw more of process `i`'s history
/// than `i` recorded.
fn assert_consistent(cut: &GlobalCut, label: &str) {
    for si in &cut.snaps {
        let own = si.clock.get(si.pid);
        for sj in &cut.snaps {
            assert!(
                sj.clock.get(si.pid) <= own,
                "{label}: epoch {}: {} saw {} of {}, but {} only recorded {}",
                cut.epoch,
                sj.pid,
                sj.clock.get(si.pid),
                si.pid,
                si.pid,
                own
            );
        }
    }
}

fn hostile_plans() -> Vec<(&'static str, AdversaryPlan)> {
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

#[test]
fn simnet_cuts_stay_consistent_under_hostile_links() {
    for (label, plan) in hostile_plans() {
        for seed in 0..3u64 {
            for topo in [Topology::ring(6), Topology::line(5)] {
                let mut net =
                    SimNet::with_adversary(topo, FaultPlan::none(), plan.clone(), 100 + seed);
                net.enable_monitor(MonitorSetup {
                    epoch_every: 100,
                    keep_cuts: true,
                    ..MonitorSetup::default()
                });
                net.run(30_000);
                let cuts = net.cuts();
                assert!(
                    cuts.len() > 10,
                    "{label}/seed {seed}: only {} epochs completed",
                    cuts.len()
                );
                for c in cuts {
                    assert_consistent(c, label);
                }
                // The monitor's own self-check must agree: no
                // inconsistent-cut alerts on a healthy (if noisy) net.
                let mon = net.monitor().expect("monitor attached");
                assert_eq!(
                    mon.hard_alerts(),
                    0,
                    "{label}/seed {seed}: false hard alert: {:?}",
                    mon.alerts()
                );
            }
        }
    }
}

#[test]
fn simnet_mid_round_crash_aborts_then_recovers() {
    // Epochs every 40 steps with STAGGER-spread recording: the crash at
    // step 5_000 has a good chance of landing mid-round; either way the
    // abort machinery and the post-crash epochs are exercised.
    let mut net = SimNet::with_adversary(
        Topology::ring(6),
        FaultPlan::new()
            .crash(5_000, 2)
            .malicious_crash(9_000, 4, 6),
        AdversaryPlan::new().loss(150).delay(150, 4),
        7,
    );
    net.enable_monitor(MonitorSetup {
        epoch_every: 40,
        keep_cuts: true,
        ..MonitorSetup::default()
    });
    net.run(40_000);
    let cuts = net.cuts();
    assert!(cuts.len() > 20, "only {} epochs completed", cuts.len());
    for c in cuts {
        assert_consistent(c, "crash");
        // Dead nodes are excluded from every cut completed after their
        // crash; the two fault targets must eventually vanish.
        for s in &c.snaps {
            assert!(
                !c.dead.contains(&s.pid),
                "epoch {}: dead {} contributed a snapshot",
                c.epoch,
                s.pid
            );
        }
    }
    let last = cuts.last().expect("at least one cut");
    assert!(
        last.dead.contains(&ProcessId(2)) && last.dead.contains(&ProcessId(4)),
        "final cut must exclude both crashed nodes: {:?}",
        last.dead
    );
    assert_eq!(
        net.monitor().unwrap().hard_alerts(),
        0,
        "crashes must not fake a predicate violation: {:?}",
        net.monitor().unwrap().alerts()
    );
}

#[test]
fn simnet_mid_round_rebirth_aborts_and_cuts_resume() {
    let mut net = SimNet::with_adversary(
        Topology::ring(5),
        FaultPlan::new()
            .crash(3_000, 1)
            .restart_fresh(6_000, 1)
            .crash(9_000, 3)
            .restart_arbitrary(12_000, 3, 99),
        // A little delay keeps rounds open longer, so the membership
        // changes land mid-round.
        AdversaryPlan::new().delay(300, 8),
        13,
    );
    // Back-to-back epochs: a round is (almost) always open, so every
    // membership change aborts one (deterministic per seed).
    net.enable_monitor(MonitorSetup {
        epoch_every: 1,
        keep_cuts: true,
        ..MonitorSetup::default()
    });
    net.run(40_000);
    let mon = net.monitor().expect("monitor attached");
    assert!(
        mon.aborts() >= 1,
        "no membership change aborted an open round"
    );
    let cuts = net.cuts();
    assert!(cuts.len() > 20, "only {} epochs completed", cuts.len());
    for c in cuts {
        assert_consistent(c, "rebirth");
    }
    // After the last rebirth the full ring participates again.
    let last = cuts.last().expect("at least one cut");
    assert_eq!(last.snaps.len(), 5, "ring must be whole after rebirths");
    assert!(last.dead.is_empty());
    // Epochs are strictly monotone across aborts (a rerun never reuses
    // an aborted round's number).
    for w in cuts.windows(2) {
        assert!(w[1].epoch > w[0].epoch, "epoch numbers must be monotone");
    }
    assert_eq!(mon.hard_alerts(), 0, "alerts: {:?}", mon.alerts());
}

#[test]
fn thread_runtime_cuts_stay_consistent_under_hostile_links() {
    // Real threads, real races: markers and data cross arbitrarily, the
    // marker adversary loses and delays. Every completed round must
    // still be consistent; incomplete rounds just retry with a bumped
    // epoch (that is the abort path).
    for (label, plan) in [
        ("clean", AdversaryPlan::none()),
        (
            "kitchen-sink",
            AdversaryPlan::new()
                .loss(120)
                .duplication(120)
                .delay(120, 3)
                .reorder(120),
        ),
    ] {
        let rt = ThreadRuntime::spawn(Topology::ring(5), Duration::from_micros(200), plan, 41);
        std::thread::sleep(Duration::from_millis(40));
        let mut done = 0;
        for epoch in 1..=30u64 {
            let Some(snaps) = rt.snapshot_round(epoch, Duration::from_millis(400)) else {
                continue;
            };
            assert_eq!(snaps.len(), 5, "{label}: epoch {epoch} missing nodes");
            let cut = GlobalCut {
                epoch,
                step: epoch,
                snaps,
                dead: Vec::new(),
            };
            assert_consistent(&cut, label);
            done += 1;
            if done >= 6 {
                break;
            }
        }
        assert!(done >= 6, "{label}: only {done}/6 rounds completed");
        rt.shutdown();
    }
}

#[test]
fn thread_runtime_crash_mid_round_fails_cleanly_then_resumes() {
    let rt = ThreadRuntime::spawn(
        Topology::ring(4),
        Duration::from_micros(300),
        AdversaryPlan::none(),
        23,
    );
    std::thread::sleep(Duration::from_millis(40));
    let first = rt
        .snapshot_round(1, Duration::from_millis(800))
        .expect("healthy round completes");
    assert_eq!(first.len(), 4);

    // Kill a node; the next round (which still expects it — the dead
    // flag may not have landed yet) either excludes it or times out.
    rt.crash(ProcessId(2));
    while !rt.is_dead(ProcessId(2)) {
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut degraded = None;
    for epoch in 2..=10u64 {
        if let Some(snaps) = rt.snapshot_round(epoch, Duration::from_millis(400)) {
            degraded = Some(snaps);
            break;
        }
    }
    let snaps = degraded.expect("degraded rounds must eventually complete");
    assert_eq!(snaps.len(), 3, "dead node must be excluded from the cut");
    assert!(snaps.iter().all(|s| s.pid != ProcessId(2)));
    let cut = GlobalCut {
        epoch: 0,
        step: 0,
        snaps,
        dead: vec![ProcessId(2)],
    };
    assert_consistent(&cut, "degraded");

    // Rebirth: the agent aborted its stale round, the clock survived,
    // and full-membership rounds complete again.
    rt.restart(ProcessId(2), Resurrection::Fresh);
    while rt.is_dead(ProcessId(2)) {
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut whole = None;
    for epoch in 11..=25u64 {
        if let Some(snaps) = rt.snapshot_round(epoch, Duration::from_millis(400)) {
            if snaps.len() == 4 {
                whole = Some((epoch, snaps));
                break;
            }
        }
    }
    let (epoch, snaps) = whole.expect("post-rebirth rounds must complete");
    let cut = GlobalCut {
        epoch,
        step: epoch,
        snaps,
        dead: Vec::new(),
    };
    assert_consistent(&cut, "reborn");
    rt.shutdown();
}
