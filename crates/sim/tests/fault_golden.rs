//! Golden recording of one engine run under a fault plan that fires
//! every [`FaultKind`](diners_sim::fault::FaultKind).
//!
//! The plan covers an initially dead process, malicious crashes of zero
//! and of several arbitrary steps, a benign crash, local and global
//! transients, and restarts of all three [`Resurrection`] kinds. It also
//! holds the corner cases of the fault clock: a crash and a restart of
//! the same process at the same step, a snapshot restart whose `age`
//! reaches back past step 0, and restarts of live processes (no-ops).
//! A digest checkpoint every 8 steps pins the state each fault leaves,
//! so the file changes if any fault fires at another step, in another
//! order, or restores another checkpoint.

use diners_core::MaliciousCrashDiners;
use diners_sim::engine::Engine;
use diners_sim::fault::{FaultPlan, Resurrection};
use diners_sim::graph::Topology;
use diners_sim::record::{FlightRecorder, Recording, Replayer};
use diners_sim::scheduler::RandomScheduler;
use diners_sim::workload::BernoulliWorkload;

fn every_fault_kind() -> FaultPlan {
    FaultPlan::new()
        .initially_dead(5)
        .malicious_crash(6, 1, 0)
        .malicious_crash(14, 3, 5)
        .crash(22, 0)
        .transient_local(27, 2)
        // Same step: the crash fires first, then the snapshot taken
        // before it brings process 4 straight back.
        .crash(31, 4)
        .restart_snapshot(31, 4, 0)
        // Age 200 at step 40: the checkpoint is the state at step 0.
        .restart_snapshot(40, 0, 200)
        .restart_arbitrary(47, 1, 0xC0FFEE)
        // Process 2 is live: both restarts leave it alone.
        .restart_fresh(52, 2)
        .restart(55, 2, Resurrection::Arbitrary { seed: 7 })
        .restart_fresh(60, 3)
        .restart_snapshot(66, 5, 9)
        .transient_global(73)
        .crash(81, 2)
        .restart_arbitrary(81, 2, 11)
        .malicious_crash(90, 0, 3)
        .restart_snapshot(104, 0, 20)
}

#[test]
fn every_fault_kind_records_the_golden_run() {
    let mut e = Engine::builder(MaliciousCrashDiners::paper(), Topology::ring(6))
        .workload(BernoulliWorkload::new(17, 2, 3))
        .scheduler(RandomScheduler::new(17))
        .faults(every_fault_kind())
        .seed(17)
        .observe(FlightRecorder::new("mca").checkpoint_every(8))
        .build();
    e.run(128);
    let recording = e.recording().expect("recorder attached").to_jsonl();
    assert_eq!(recording, include_str!("golden/faults.recording.jsonl"));
    // The file replays: every decision, fault and checkpoint verifies.
    let golden = Recording::parse(&recording).expect("the golden recording parses");
    Replayer::run(
        &golden,
        MaliciousCrashDiners::paper(),
        BernoulliWorkload::new(17, 2, 3),
    )
    .expect("the golden recording replays");
}
