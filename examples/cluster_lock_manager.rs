//! A resource-allocation scenario: batch jobs on a small cluster.
//!
//! Each process is a job; two jobs conflict (share an edge) when they
//! need the same exclusive resource (a GPU, a table partition, ...).
//! The diners algorithm *is* the lock manager: `Eating` = holding all of
//! the job's locks. Jobs arrive with a quota of work units (meals) and
//! stop asking once done. One worker maliciously crashes mid-run —
//! modeling a node whose lock agent corrupts its lease state while going
//! down — and the remaining jobs outside its distance-2 neighborhood
//! finish unperturbed.
//!
//! ```sh
//! cargo run --release --example cluster_lock_manager
//! ```

use malicious_diners::core::MaliciousCrashDiners;
use malicious_diners::sim::graph::{ProcessId, Topology};
use malicious_diners::sim::scheduler::RandomScheduler;
use malicious_diners::sim::workload::QuotaWorkload;
use malicious_diners::sim::{Engine, FaultPlan};

fn main() {
    // 12 jobs; conflicts from shared resources (hand-built, connected).
    let conflicts = [
        (0, 1),   // gpu-0
        (0, 2),   // gpu-0
        (1, 2),   // scratch disk A
        (2, 3),   // table: users
        (3, 4),   // table: events
        (4, 5),   // gpu-1
        (4, 6),   // gpu-1
        (5, 6),   // scratch disk B
        (6, 7),   // table: sessions
        (7, 8),   // gpu-2
        (8, 9),   // table: metrics
        (9, 10),  // scratch disk C
        (10, 11), // gpu-3
        (3, 7),   // shared cache line
    ];
    let topo = Topology::from_edges(12, conflicts).expect("conflict graph is valid");
    println!(
        "lock manager for 12 jobs, {} conflicts, diameter {}",
        topo.edge_count(),
        topo.diameter()
    );

    let quota = 200u64;
    let victim = 4usize;
    let mut engine = Engine::builder(MaliciousCrashDiners::paper(), topo)
        .workload(QuotaWorkload::uniform(12, quota))
        .scheduler(RandomScheduler::new(9))
        .faults(FaultPlan::new().malicious_crash(5_000, victim, 12))
        .seed(9)
        .build();

    println!("each job needs {quota} critical sections; job {victim} crashes at step 5,000\n");
    engine.run(200_000);

    let to_victim = engine.topology().distances_from(&[ProcessId(victim)]);
    let mut finished = 0;
    for p in engine.topology().processes() {
        let meals = engine.metrics().eats_of(p);
        let dist = to_victim[p.index()];
        let note = if engine.is_dead(p) {
            " [crashed]".to_string()
        } else if meals >= quota {
            finished += 1;
            " done".to_string()
        } else {
            format!(" BLOCKED at {meals} (distance {dist} from crash)")
        };
        println!("  job {p:>3}: {meals:>4}/{quota}{note}");
    }

    println!("\n{finished}/11 surviving jobs finished their quota");
    println!(
        "lock-safety violations: {} steps, last at step {:?} — only while the \
         crashing agent was actively corrupting its lease state",
        engine.metrics().violation_step_count(),
        engine.metrics().last_violation_step(),
    );
    if let Some(last) = engine.metrics().last_violation_step() {
        assert!(
            last < 20_000,
            "violations must not outlive the malicious window"
        );
    }

    // Everything outside distance 2 of the crash must have finished.
    for p in engine.topology().processes() {
        if !engine.is_dead(p) && to_victim[p.index()] > 2 {
            assert!(
                engine.metrics().eats_of(p) >= quota,
                "{p} outside the locality radius did not finish"
            );
        }
    }
    println!("all jobs at distance > 2 from the crash completed. ✓");
}
