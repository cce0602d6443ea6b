//! `dinerlab` — command-line laboratory for the malicious-crash diners.
//!
//! ```text
//! dinerlab run       [--topo ring:16] [--steps 50000] [--seed 42] [--crash 5@2000:16]
//! dinerlab stabilize [--topo grid:4x4] [--seed 1] [--corrected]
//! dinerlab locality  [--n 16] [--no-threshold]
//! ```
//!
//! Argument parsing is intentionally dependency-free. Bad arguments exit
//! 2 with a message. The paper's Figure 2 is `exp fig2`.

use std::process::exit;

use malicious_diners::core::harness::stabilization_steps;
use malicious_diners::core::locality::measure_window;
use malicious_diners::core::redgreen::Colors;
use malicious_diners::core::{MaliciousCrashDiners, Variant};
use malicious_diners::sim::graph::Topology;
use malicious_diners::sim::scheduler::RandomScheduler;
use malicious_diners::sim::{Engine, FaultPlan, Phase, SystemState};

fn usage() -> ! {
    eprintln!(
        "usage: dinerlab <command> [options]\n\
         \n\
         commands:\n\
         \x20 run        simulate with optional malicious crash\n\
         \x20 stabilize  measure convergence from an arbitrary state\n\
         \x20 locality   measure the starvation radius around a crash\n\
         \n\
         options:\n\
         \x20 --topo <ring|line|star|complete|tree>:<n> | grid:<w>x<h>   (default ring:16)\n\
         \x20 --steps <u64>          simulation steps (default 50000)\n\
         \x20 --seed <u64>           RNG seed (default 42)\n\
         \x20 --crash <pid>@<step>:<k>   malicious crash: k arbitrary steps\n\
         \x20 --corrected            use the corrected n cycle-evidence bound\n\
         \x20 --no-threshold         disable the dynamic threshold (ablation)\n\
         \x20 --n <usize>            size for `locality` (default 16)"
    );
    exit(2)
}

/// Exit 2 with `msg`.
fn fail(msg: &str) -> ! {
    eprintln!("dinerlab: {msg}");
    exit(2)
}

struct Opts {
    topo: Topology,
    steps: u64,
    seed: u64,
    crash: Option<(usize, u64, u32)>,
    corrected: bool,
    no_threshold: bool,
    n: usize,
}

fn parse_crash(spec: &str) -> Option<(usize, u64, u32)> {
    let (pid, rest) = spec.split_once('@')?;
    let (step, k) = rest.split_once(':')?;
    Some((pid.parse().ok()?, step.parse().ok()?, k.parse().ok()?))
}

fn parse(args: &[String]) -> Opts {
    let mut o = Opts {
        topo: Topology::ring(16),
        steps: 50_000,
        seed: 42,
        crash: None,
        corrected: false,
        no_threshold: false,
        n: 16,
    };
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| {
            args.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--topo" => {
                o.topo = Topology::from_spec(need(i)).unwrap_or_else(|e| fail(&e.to_string()));
                i += 2;
            }
            "--steps" => {
                o.steps = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--seed" => {
                o.seed = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--crash" => {
                o.crash = Some(parse_crash(need(i)).unwrap_or_else(|| usage()));
                i += 2;
            }
            "--n" => {
                o.n = need(i).parse().unwrap_or_else(|_| usage());
                if o.n == 0 {
                    fail("--n must be at least 1");
                }
                i += 2;
            }
            "--corrected" => {
                o.corrected = true;
                i += 1;
            }
            "--no-threshold" => {
                o.no_threshold = true;
                i += 1;
            }
            _ => usage(),
        }
    }
    o
}

fn algorithm(o: &Opts) -> MaliciousCrashDiners {
    let mut v = if o.corrected {
        Variant::corrected()
    } else {
        Variant::paper()
    };
    if o.no_threshold {
        v.dynamic_threshold = false;
    }
    MaliciousCrashDiners::with_variant(v)
}

fn cmd_run(o: &Opts) {
    let mut faults = FaultPlan::none();
    if let Some((pid, step, k)) = o.crash {
        faults = faults.malicious_crash(step, pid, k);
    }
    if let Err(e) = faults.check_targets(o.topo.len()) {
        fail(&format!("--crash: {e}"));
    }
    let mut engine = Engine::builder(algorithm(o), o.topo.clone())
        .scheduler(RandomScheduler::new(o.seed))
        .faults(faults)
        .seed(o.seed)
        .build();
    engine.run(o.steps);
    println!(
        "{} on {} for {} steps (seed {})",
        malicious_diners::sim::Algorithm::name(engine.algorithm()),
        o.topo.name(),
        o.steps,
        o.seed
    );
    let colors = Colors::compute(&engine.snapshot());
    for p in engine.topology().processes() {
        let status = if engine.is_dead(p) {
            "dead"
        } else if colors.is_red(p) {
            "red"
        } else {
            "green"
        };
        println!(
            "  {p}: {:6} meals, worst wait {:5}, {status}",
            engine.metrics().eats_of(p),
            engine.metrics().max_response(p)
        );
    }
    println!(
        "exclusion violations: {} steps (last {:?})",
        engine.metrics().violation_step_count(),
        engine.metrics().last_violation_step()
    );
}

fn cmd_stabilize(o: &Opts) {
    match stabilization_steps(algorithm(o), o.topo.clone(), o.seed, o.steps) {
        Some(at) => println!(
            "stabilized to I at step {at} (held through the {}-step horizon)",
            o.steps
        ),
        None => {
            println!("did NOT stabilize within {} steps", o.steps);
            exit(1);
        }
    }
}

fn cmd_locality(o: &Opts) {
    let topo = Topology::line(o.n);
    let alg = algorithm(o);
    let mut state = SystemState::initial(&alg, &topo);
    for p in topo.processes() {
        state.local_mut(p).phase = Phase::Hungry;
    }
    state.local_mut(0.into()).phase = Phase::Eating;
    let mut engine = Engine::builder(alg, topo)
        .initial_state(state)
        .scheduler(RandomScheduler::new(o.seed))
        .faults(FaultPlan::new().initially_dead(0))
        .seed(o.seed)
        .build();
    engine.run(o.steps / 2);
    let report = measure_window(&mut engine, o.steps / 2);
    println!(
        "line({}) with p0 dead while eating: starved {:?}, radius {:?}",
        o.n, report.starved, report.behavioral_radius
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let opts = parse(&args[1..]);
    match cmd.as_str() {
        "run" => cmd_run(&opts),
        "stabilize" => cmd_stabilize(&opts),
        "locality" => cmd_locality(&opts),
        _ => usage(),
    }
}
