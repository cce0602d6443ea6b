//! Network-adversary properties: exclusion is never violated under any
//! combination of link faults, and service resumes once outages heal —
//! on the deterministic SimNet and on the real thread-per-node runtime.
//!
//! The combination sweep is the property-style core: every subset of
//! {loss, duplication, delay, reorder, outages} x 8 seeds, all asserting
//! zero live-pair exclusion violations from a legitimate start. The
//! per-fault tests then exercise each fault alone, with a liveness
//! check, under both runtimes.

use std::time::Duration;

use malicious_diners::mp::{AdversaryPlan, SimNet, ThreadRuntime};
use malicious_diners::sim::graph::{ProcessId, Topology};
use malicious_diners::sim::FaultPlan;

const SEEDS: u64 = 8;

/// Build the plan for one subset of the fault vocabulary.
fn combo_plan(bits: u32) -> AdversaryPlan {
    let mut plan = AdversaryPlan::new();
    if bits & 1 != 0 {
        plan = plan.loss(150);
    }
    if bits & 2 != 0 {
        plan = plan.duplication(200);
    }
    if bits & 4 != 0 {
        plan = plan.delay(300, 12);
    }
    if bits & 8 != 0 {
        plan = plan.reorder(200);
    }
    if bits & 16 != 0 {
        plan = plan
            .cut_link(ProcessId(0), ProcessId(1), 2_000, 5_000)
            .isolate(ProcessId(3), 6_000, 9_000);
    }
    plan
}

#[test]
fn exclusion_holds_under_every_fault_combination() {
    for bits in 0..32u32 {
        let plan = combo_plan(bits);
        for seed in 0..SEEDS {
            let mut net =
                SimNet::with_adversary(Topology::ring(6), FaultPlan::none(), plan.clone(), seed);
            net.run(20_000);
            assert_eq!(
                net.violation_steps(),
                0,
                "combo {bits:#07b} ({}) seed {seed} broke exclusion",
                plan.describe()
            );
        }
    }
}

/// SimNet, one fault at a time: safety over the whole run, and every
/// process served in the final window.
fn simnet_fault_check(plan: AdversaryPlan, seed: u64) {
    let describe = plan.describe();
    let mut net = SimNet::with_adversary(Topology::ring(6), FaultPlan::none(), plan, seed);
    let healed = net.adversary_plan().healed_by();
    net.run(15_000.max(healed));
    let since = net.step_count();
    net.run(15_000);
    assert_eq!(net.violation_steps(), 0, "{describe}: exclusion broken");
    for p in net.topology().processes() {
        assert!(net.last_meal(p) >= Some(since), "{describe}: {p} starved");
    }
}

#[test]
fn simnet_duplication_is_harmless() {
    for seed in 0..SEEDS {
        simnet_fault_check(AdversaryPlan::new().duplication(400), seed);
    }
}

#[test]
fn simnet_bounded_delay_is_harmless() {
    for seed in 0..SEEDS {
        simnet_fault_check(AdversaryPlan::new().delay(1000, 24), seed);
    }
}

#[test]
fn simnet_reordering_is_harmless() {
    for seed in 0..SEEDS {
        simnet_fault_check(AdversaryPlan::new().reorder(400), seed);
    }
}

#[test]
fn simnet_partition_heals() {
    for seed in 0..SEEDS {
        simnet_fault_check(
            AdversaryPlan::new()
                .cut_link(ProcessId(1), ProcessId(2), 0, 8_000)
                .isolate(ProcessId(4), 1_000, 6_000),
            seed,
        );
    }
}

/// ThreadRuntime, one fault at a time: sampled exclusion over the run,
/// and every node served by the end.
fn runtime_fault_check(plan: AdversaryPlan, seed: u64) {
    let describe = plan.describe();
    let rt = ThreadRuntime::spawn(Topology::ring(4), Duration::from_micros(200), plan, seed);
    let violations = rt.observe(Duration::from_millis(500), Duration::from_micros(100));
    assert_eq!(violations, 0, "{describe}: sampled exclusion broken");
    for p in rt.topology().processes() {
        assert!(rt.meals_of(p) > 0, "{describe}: {p} starved under threads");
    }
    rt.shutdown();
}

#[test]
fn runtime_duplication_is_harmless() {
    runtime_fault_check(AdversaryPlan::new().duplication(400), 21);
}

#[test]
fn runtime_bounded_delay_is_harmless() {
    runtime_fault_check(AdversaryPlan::new().delay(500, 6), 22);
}

#[test]
fn runtime_reordering_is_harmless() {
    runtime_fault_check(AdversaryPlan::new().reorder(400), 23);
}

#[test]
fn runtime_partition_heals() {
    // The cut covers each endpoint's first ~150 ticks (~30ms of the
    // 500ms observation), then heals; liveness is asserted at the end.
    runtime_fault_check(
        AdversaryPlan::new().cut_link(ProcessId(0), ProcessId(1), 0, 150),
        24,
    );
}
