//! Integration: the §4 message-passing transformation, driven through
//! the umbrella API on both runtimes.

use std::time::Duration;

use malicious_diners::mp::{AdversaryPlan, SimNet, ThreadRuntime};
use malicious_diners::sim::graph::{ProcessId, Topology};
use malicious_diners::sim::FaultPlan;

#[test]
fn simnet_serves_everyone_safely() {
    let mut net = SimNet::new(Topology::grid(3, 2), FaultPlan::none(), 11);
    net.run(60_000);
    for p in net.topology().processes() {
        assert!(net.meals_of(p) > 0, "{p} never ate");
    }
    assert_eq!(net.violation_steps(), 0);
}

#[test]
fn simnet_stabilizes_from_arbitrary_states() {
    for seed in 0..3 {
        let mut net = SimNet::new(
            Topology::ring(6),
            FaultPlan::new().from_arbitrary_state(),
            seed,
        );
        net.run(80_000);
        if let Some(last) = net.last_violation() {
            assert!(last < 30_000, "seed {seed}: late violation at {last}");
        }
        let served = net
            .topology()
            .processes()
            .filter(|&p| net.last_meal(p) >= Some(40_000))
            .count();
        assert_eq!(served, 6, "seed {seed}: {served}/6 served after settling");
    }
}

#[test]
fn simnet_contains_malicious_crashes() {
    let mut net = SimNet::new(
        Topology::line(7),
        FaultPlan::new().malicious_crash(1_000, 0, 8),
        4,
    );
    net.run(30_000);
    let since = net.step_count();
    net.run(50_000);
    assert!(net.is_dead(ProcessId(0)));
    for p in 3..7 {
        assert!(
            net.last_meal(ProcessId(p)) >= Some(since),
            "p{p} starved though at distance >= 3"
        );
    }
}

#[test]
fn thread_runtime_agrees_with_simnet() {
    let rt = ThreadRuntime::spawn(
        Topology::ring(5),
        Duration::from_micros(200),
        AdversaryPlan::none(),
        9,
    );
    let violations = rt.observe(Duration::from_millis(300), Duration::from_micros(100));
    assert_eq!(violations, 0, "sampled live-pair eating");
    for p in rt.topology().processes() {
        assert!(rt.meals_of(p) > 0, "{p} starved under threads");
    }
    rt.shutdown();
}

#[test]
fn thread_runtime_survives_benign_crash() {
    let rt = ThreadRuntime::spawn(
        Topology::line(4),
        Duration::from_micros(200),
        AdversaryPlan::none(),
        10,
    );
    std::thread::sleep(Duration::from_millis(50));
    rt.crash(ProcessId(0));
    std::thread::sleep(Duration::from_millis(50));
    let mark = rt.meals_of(ProcessId(3));
    std::thread::sleep(Duration::from_millis(300));
    assert!(rt.is_dead(ProcessId(0)));
    assert!(
        rt.meals_of(ProcessId(3)) > mark,
        "the far end must keep eating after a benign crash"
    );
    rt.shutdown();
}
