//! The §4 message-passing transformation running on real OS threads:
//! one thread per philosopher, crossbeam channels as links, the K-state
//! handshake keeping every link alive and exactly-once — under a hostile
//! network (loss, duplication, delay, reordering on every link).
//!
//! ```sh
//! cargo run --release --example message_passing_demo
//! ```

use std::time::Duration;

use malicious_diners::mp::{AdversaryPlan, ThreadRuntime};
use malicious_diners::sim::graph::{ProcessId, Topology};

fn main() {
    let topo = Topology::ring(6);
    let plan = AdversaryPlan::new()
        .loss(100)
        .duplication(100)
        .delay(150, 4)
        .reorder(100);
    println!(
        "spawning {} philosopher threads on a {} behind a network adversary ({}) ...",
        topo.len(),
        topo.name(),
        plan.describe()
    );
    let rt = ThreadRuntime::spawn(topo, Duration::from_micros(200), plan, 1);

    println!("process-fault-free for 300 ms, sampling exclusion every 100 µs ...");
    let violations = rt.observe(Duration::from_millis(300), Duration::from_micros(100));
    let baseline: Vec<u64> = rt.topology().processes().map(|p| rt.meals_of(p)).collect();
    println!("  sampled exclusion violations: {violations}");
    println!("  meals so far: {baseline:?}");

    let victim = ProcessId(2);
    println!("\ninjecting a malicious crash at {victim} (8 arbitrary turns, then halt) ...");
    rt.malicious_crash(victim, 8);
    std::thread::sleep(Duration::from_millis(100));

    let mark: Vec<u64> = rt.topology().processes().map(|p| rt.meals_of(p)).collect();
    std::thread::sleep(Duration::from_millis(400));

    println!("meal progress in the 400 ms after the crash settled:");
    let to_victim = rt.topology().distances_from(&[victim]);
    for p in rt.topology().processes() {
        let delta = rt.meals_of(p) - mark[p.index()];
        let d = to_victim[p.index()];
        let status = if rt.is_dead(p) {
            " [dead]".to_string()
        } else if delta == 0 {
            format!(" starved (distance {d})")
        } else {
            format!(" +{delta} meals (distance {d})")
        };
        println!("  {p}:{status}");
    }

    // Processes at distance >= 3 keep being served.
    for p in rt.topology().processes() {
        if !rt.is_dead(p) && to_victim[p.index()] >= 3 {
            assert!(
                rt.meals_of(p) > mark[p.index()],
                "{p} starved though far from the crash"
            );
        }
    }
    println!("\nall philosophers at distance >= 3 kept eating. ✓");
    rt.shutdown();
}
