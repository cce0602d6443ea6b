//! T12 tooling — flight recordings and causal traces from the command
//! line, reached as `exp trace <sub> …` (plain `exp trace` runs the T12
//! experiment).

use diners_core::MaliciousCrashDiners;
use diners_sim::algorithm::DinerAlgorithm;
use diners_sim::engine::Engine;
use diners_sim::fault::FaultPlan;
use diners_sim::graph::Topology;
use diners_sim::observe::EventKind;
use diners_sim::record::{state_digest, FlightRecorder, Recording, Replayer};
use diners_sim::scheduler::RandomScheduler;
use diners_sim::telemetry::Telemetry;
use diners_sim::toy::ToyDiners;
use diners_sim::tracing::{CausalTracer, Span, SpanId};
use diners_sim::workload::AlwaysHungry;

use crate::experiments::{known_flags, opt};

/// The subcommands, for the driver's usage text.
pub const CLI_USAGE: &str = "\
exp trace record [--algo toy|mca-paper|mca-corrected] [--topo ring:8|line:9|grid:3x3|star:8|…]
                 [--plan none|crash|malicious|chaos|arbitrary] [--steps N] [--seed S] [--out FILE]
                   run a live engine and write its recording as JSONL
exp trace verify FILE        check the byte round trip and replay every digest checkpoint
exp trace seek FILE STEP     replay to an intermediate step and dump the state
exp trace blame FILE [SPAN]  walk the blame chain of a span (default: the most recent
                             span with a fault ancestor within the 2-hop locality budget)
exp trace export FILE [--chrome FILE] [--prom FILE]
                             export the causal trace as Chrome trace_event JSON and the
                             metric counters as Prometheus text";

/// Run one `exp trace` subcommand.
pub fn cli(args: &[String]) -> Result<(), String> {
    let path = || {
        args.get(1)
            .map(String::as_str)
            .ok_or_else(|| format!("{} expects a recording path", args[0]))
    };
    match args.first().map(String::as_str) {
        Some("record") => cmd_record(&args[1..]),
        Some("verify") => cmd_verify(path()?),
        Some("seek") => match args.get(2).and_then(|s| s.parse().ok()) {
            Some(step) => cmd_seek(path()?, step),
            None => Err("seek expects a recording path and a step number".into()),
        },
        Some("blame") => cmd_blame(path()?, args.get(2).and_then(|s| s.parse().ok())),
        Some("export") => cmd_export(path()?, &args[2..]),
        Some(other) => Err(format!(
            "unknown subcommand {other:?} (expected record|verify|seek|blame|export)"
        )),
        None => Err("missing subcommand".into()),
    }
}

fn opt_u64(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    match opt(args, flag) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag} expects an integer, got {v:?}")),
        None => Ok(default),
    }
}

/// Fault plans by name, scaled to the horizon so everything fires.
fn parse_plan(name: &str, steps: u64) -> Result<FaultPlan, String> {
    Ok(match name {
        "none" => FaultPlan::none(),
        "crash" => FaultPlan::new().crash(steps / 8, 1),
        "malicious" => FaultPlan::new().malicious_crash(steps / 10, 2, 8),
        "chaos" => FaultPlan::new()
            .initially_dead(0)
            .malicious_crash(steps / 12, 3, 4)
            .transient_local(steps / 6, 2)
            .transient_global(steps / 4)
            .crash(steps / 3, 1),
        "arbitrary" => FaultPlan::new().from_arbitrary_state(),
        other => {
            return Err(format!(
                "unknown plan {other:?} (expected none|crash|malicious|chaos|arbitrary)"
            ))
        }
    })
}

fn load(path: &str) -> Result<(Recording, String), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let rec = Recording::parse(&text).map_err(|e| format!("{path} is not a recording: {e}"))?;
    if rec.workload != "always-hungry" {
        return Err(format!(
            "recording used workload {:?}; this tool only replays always-hungry",
            rec.workload
        ));
    }
    Ok((rec, text))
}

/// Resolve an algorithm label (as stored in a recording header) to a
/// concrete algorithm value and run `$body` with it.
macro_rules! with_algorithm {
    ($label:expr, $alg:ident => $body:block) => {
        match $label {
            "toy" => {
                let $alg = ToyDiners;
                $body
            }
            "mca-paper" => {
                let $alg = MaliciousCrashDiners::paper();
                $body
            }
            "mca-corrected" => {
                let $alg = MaliciousCrashDiners::corrected();
                $body
            }
            other => Err(format!(
                "unknown algorithm label {other:?} (expected toy|mca-paper|mca-corrected)"
            )),
        }
    };
}

fn cmd_record(args: &[String]) -> Result<(), String> {
    known_flags(
        args,
        &["--algo", "--topo", "--steps", "--seed", "--plan", "--out"],
    )?;
    let label = opt(args, "--algo").unwrap_or_else(|| "mca-corrected".into());
    let topo = Topology::from_spec(&opt(args, "--topo").unwrap_or_else(|| "ring:8".into()))
        .map_err(|e| format!("--topo: {e}"))?;
    let steps = opt_u64(args, "--steps", 4_000)?;
    let seed = opt_u64(args, "--seed", 42)?;
    let plan = parse_plan(
        &opt(args, "--plan").unwrap_or_else(|| "chaos".into()),
        steps,
    )?;
    plan.check_targets(topo.len())
        .map_err(|e| format!("--plan on {}: {e}", topo.name()))?;
    let out = opt(args, "--out").unwrap_or_else(|| "recording.jsonl".into());
    with_algorithm!(label.as_str(), alg => {
        let mut e = Engine::builder(alg, topo.clone())
            .workload(AlwaysHungry)
            .scheduler(RandomScheduler::new(seed))
            .faults(plan)
            .seed(seed)
            .observe(FlightRecorder::new(&label))
            .build();
        e.run(steps);
        let rec = e.recording().expect("recorder attached");
        std::fs::write(&out, rec.to_jsonl()).map_err(|e| format!("write {out}: {e}"))?;
        println!(
            "recorded {} steps of {} on {} (seed {}) -> {out}",
            rec.steps, label, topo.name(), seed
        );
        println!(
            "  {} decisions, {} faults, {} checkpoints, final digest {:#018x}",
            rec.decisions.len(),
            rec.fault_log.len(),
            rec.checkpoints.len(),
            rec.checkpoints.last().map(|c| c.digest).unwrap_or(0),
        );
        Ok(())
    })
}

fn cmd_verify(path: &str) -> Result<(), String> {
    let (rec, text) = load(path)?;
    if rec.to_jsonl() != text {
        return Err(format!(
            "{path}: re-serialization drifted from the bytes on disk"
        ));
    }
    with_algorithm!(rec.algorithm.as_str(), alg => {
        let (engine, verified) = Replayer::run(&rec, alg, AlwaysHungry)
            .map_err(|e| format!("{path}: replay diverged: {e}"))?;
        println!(
            "replay OK: {} steps on {}, {} checkpoints verified, final digest {:#018x}",
            engine.step_count(),
            rec.topology().name(),
            verified,
            state_digest(engine.state(), engine.health()),
        );
        Ok(())
    })
}

fn cmd_seek(path: &str, step: u64) -> Result<(), String> {
    let (rec, _) = load(path)?;
    if step > rec.steps {
        return Err(format!(
            "recording has {} steps, cannot seek to {step}",
            rec.steps
        ));
    }
    with_algorithm!(rec.algorithm.as_str(), alg => {
        let (builder, mut replayer) = Replayer::builder(&rec, alg, AlwaysHungry);
        let mut engine = builder.build();
        replayer
            .advance(&mut engine, step)
            .map_err(|e| format!("{path}: replay diverged: {e}"))?;
        println!(
            "state at step {} of {} ({}), digest {:#018x}:",
            engine.step_count(),
            rec.steps,
            rec.topology().name(),
            state_digest(engine.state(), engine.health()),
        );
        for p in engine.topology().processes() {
            println!(
                "  {p}: {:?} {:?} local={:?}",
                engine.health()[p.index()],
                alg.phase(engine.state().local(p)),
                engine.state().local(p),
            );
        }
        Ok(())
    })
}

/// A span's event name, with a per-neighbor action's slot appended as
/// `[slot]`.
fn span_label(s: &Span) -> String {
    match s.event.kind {
        EventKind::Action { slot: Some(q), .. } => format!("{}[{q}]", s.event.kind),
        kind => kind.to_string(),
    }
}

/// Default blame query: the most recent span with a fault ancestor
/// within the locality budget, else the most recent span outright.
fn default_span(tracer: &CausalTracer) -> Option<SpanId> {
    tracer
        .spans()
        .iter()
        .rev()
        .find(|s| !s.event.kind.is_fault() && tracer.blame_within(s.id, 2).is_some())
        .map(|s| s.id)
        .or_else(|| tracer.spans().last().map(|s| s.id))
}

fn cmd_blame(path: &str, span: Option<u32>) -> Result<(), String> {
    let (rec, _) = load(path)?;
    with_algorithm!(rec.algorithm.as_str(), alg => {
        let (builder, mut replayer) = Replayer::builder(&rec, alg, AlwaysHungry);
        let mut engine = builder.observe(CausalTracer::default()).build();
        replayer
            .advance(&mut engine, rec.steps)
            .map_err(|e| format!("{path}: replay diverged: {e}"))?;
        let tracer = engine
            .take_observer::<CausalTracer>()
            .expect("tracing enabled");
        let id = match span {
            Some(raw) if raw as usize >= tracer.spans().len() => {
                return Err(format!(
                    "span {raw} out of range (trace has {} spans)",
                    tracer.spans().len()
                ));
            }
            Some(raw) => SpanId(raw),
            None => default_span(&tracer).ok_or("trace is empty — nothing to blame")?,
        };
        let s = tracer.span(id);
        println!("span {}: {} by {} at step {}", id.0, span_label(s), s.event.pid, s.event.step);
        match tracer.blame_within(id, 2) {
            Some(chain) => {
                let root = tracer.span(chain.root());
                println!(
                    "  caused by {} of {} at step {}, {} hop{} away",
                    span_label(root),
                    root.event.pid,
                    root.event.step,
                    chain.hops(),
                    if chain.hops() == 1 { "" } else { "s" },
                );
                for (i, &hop) in chain.path.iter().enumerate() {
                    let h = tracer.span(hop);
                    println!(
                        "  {} [{}] {} {} @ step {}",
                        if i == 0 { "chain:" } else { "    <-" },
                        hop.0,
                        span_label(h),
                        h.event.pid,
                        h.event.step,
                    );
                }
            }
            None => match tracer.blame(id) {
                Some(chain) => {
                    let root = tracer.span(chain.root());
                    println!(
                        "  no fault within the 2-hop locality budget; nearest is {} of {} at step {}, {} hops away",
                        span_label(root), root.event.pid, root.event.step, chain.hops(),
                    );
                }
                None => println!("  no fault ancestor: this span is causally independent of every fault"),
            },
        }
        Ok(())
    })
}

fn cmd_export(path: &str, args: &[String]) -> Result<(), String> {
    known_flags(args, &["--chrome", "--prom"])?;
    let (rec, _) = load(path)?;
    let chrome = opt(args, "--chrome").unwrap_or_else(|| "trace_chrome.json".into());
    let prom = opt(args, "--prom").unwrap_or_else(|| "metrics.prom".into());
    with_algorithm!(rec.algorithm.as_str(), alg => {
        let (builder, mut replayer) = Replayer::builder(&rec, alg, AlwaysHungry);
        let mut engine = builder
            .observe(CausalTracer::default())
            .observe(Telemetry::new())
            .build();
        replayer
            .advance(&mut engine, rec.steps)
            .map_err(|e| format!("{path}: replay diverged: {e}"))?;
        let tracer = engine
            .take_observer::<CausalTracer>()
            .expect("tracing enabled");
        std::fs::write(&chrome, tracer.to_chrome_trace())
            .map_err(|e| format!("write {chrome}: {e}"))?;
        println!("wrote {chrome} ({} spans)", tracer.spans().len());
        let registry = engine
            .observer::<Telemetry>()
            .expect("telemetry attached")
            .registry();
        std::fs::write(&prom, registry.to_prometheus())
            .map_err(|e| format!("write {prom}: {e}"))?;
        println!("wrote {prom}");
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn record_then_verify_round_trips() {
        let dir = std::env::temp_dir().join(format!("exp-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("run.jsonl").to_string_lossy().into_owned();
        cli(&args(&["record", "--steps", "400", "--out", &file])).unwrap();
        cli(&args(&["verify", &file])).unwrap();
        cli(&args(&["seek", &file, "100"])).unwrap();
        assert!(cli(&args(&["seek", &file, "401"])).is_err());
        // Replays with the tracer and telemetry attached.
        cli(&args(&["blame", &file])).unwrap();
        let chrome = dir.join("chrome.json").to_string_lossy().into_owned();
        let prom = dir.join("run.prom").to_string_lossy().into_owned();
        cli(&args(&[
            "export", &file, "--chrome", &chrome, "--prom", &prom,
        ]))
        .unwrap();
        let chrome = std::fs::read_to_string(&chrome).unwrap();
        assert!(chrome.starts_with("{\"traceEvents\":["), "{chrome}");
        let prom = std::fs::read_to_string(&prom).unwrap();
        assert!(prom.contains("# TYPE engine_faults counter"), "{prom}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_invocations_are_errors_not_panics() {
        assert!(cli(&args(&["replay"])).is_err());
        assert!(cli(&args(&["verify"])).is_err());
        assert!(cli(&args(&["record", "--stepz", "9"])).is_err());
        assert!(cli(&args(&["record", "--topo", "cube:3"])).is_err());
        assert!(cli(&args(&["verify", "/nonexistent/recording.jsonl"])).is_err());

        let dir = std::env::temp_dir().join(format!("exp-trace-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("run.jsonl").to_string_lossy().into_owned();

        // Topologies below their family's minimum size, and named plans
        // whose processes the topology lacks, are errors before any run.
        for (bad, want) in [
            (&["--topo", "ring:2"][..], "ring needs sizes of at least 3"),
            (&["--topo", "grid:0x3"], "grid needs sizes of at least 1"),
            (
                &["--topo", "ring:100000", "--steps", "1"],
                "100000 processes, more than the limit of 16384",
            ),
            (
                &["--topo", "complete:20000", "--steps", "1"],
                "20000 processes, more than the limit of 16384",
            ),
            (
                &["--topo", "ring:3", "--plan", "chaos", "--steps", "40"],
                "targets p3, out of range for 3 processes",
            ),
            (
                &["--topo", "line:1", "--plan", "crash"],
                "targets p1, out of range for 1 processes",
            ),
        ] {
            let record: Vec<&str> = ["record", "--out", &file]
                .into_iter()
                .chain(bad.iter().copied())
                .collect();
            let err = cli(&args(&record)).unwrap_err();
            assert!(err.contains(want), "{bad:?}: {err}");
        }
        assert!(!std::path::Path::new(&file).exists());

        // A hand-edited header naming a process outside the topology is
        // rejected at parse time instead of panicking during replay.
        let plan = ["--topo", "ring:4", "--plan", "chaos", "--steps", "40"];
        let record: Vec<&str> = ["record", "--out", &file].into_iter().chain(plan).collect();
        cli(&args(&record)).unwrap();
        let text = std::fs::read_to_string(&file).unwrap();
        std::fs::write(&file, text.replacen("[1,2]", "[2,7]", 1)).unwrap();
        let err = cli(&args(&["verify", &file])).unwrap_err();
        assert!(
            err.contains("is not a recording: line 1: edge (2,7)"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
