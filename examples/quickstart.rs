//! Quickstart: run the paper's algorithm on a ring, inject a malicious
//! crash, and watch the guarantees hold.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use malicious_diners::core::locality::starvation_radius;
use malicious_diners::core::redgreen::Colors;
use malicious_diners::core::MaliciousCrashDiners;
use malicious_diners::sim::graph::Topology;
use malicious_diners::sim::scheduler::RandomScheduler;
use malicious_diners::sim::{Engine, EventKind, FaultPlan, Trace};

fn main() {
    let n = 16;
    let victim = 5;
    let topo = Topology::ring(n);
    println!(
        "{} philosophers on a {} (diameter {})",
        n,
        topo.name(),
        topo.diameter()
    );

    let mut engine = Engine::builder(MaliciousCrashDiners::paper(), topo)
        .scheduler(RandomScheduler::new(42))
        .faults(FaultPlan::new().malicious_crash(2_000, victim, 16))
        .seed(42)
        .observe(Trace::new())
        .build();

    println!("running 50,000 steps; p{victim} maliciously crashes at step 2,000 ...\n");
    engine.run(10_000);
    let after_fault = engine.step_count();
    let violations_at_fault = engine.metrics().violation_step_count();
    engine.run(40_000);

    println!("meals per process (p{victim} crashed):");
    for p in engine.topology().processes() {
        let dead = if engine.is_dead(p) { "  [dead]" } else { "" };
        println!(
            "  {p}: {:5} meals, worst wait {:4} steps{dead}",
            engine.metrics().eats_of(p),
            engine.metrics().max_response(p),
        );
    }

    let trace = engine.observer::<Trace>().expect("trace attached");
    let malicious_steps = trace
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::MaliciousStep)
        .count();
    println!("\ntraced: p{victim} took {malicious_steps} malicious steps, then halted");

    let colors = Colors::compute(&engine.snapshot());
    println!("\nred (blocked) processes: {:?}", colors.red_set());
    println!(
        "starvation radius around the crash: {:?} (paper: <= 2)",
        starvation_radius(&engine, after_fault)
    );
    println!(
        "steps with two live neighbors eating after the fault window: {}",
        engine.metrics().violation_step_count() - violations_at_fault
    );
}
