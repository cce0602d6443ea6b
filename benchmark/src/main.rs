//! `diners-benchmark`: the repository's end-to-end benchmark.
//!
//! ```text
//! diners-benchmark all [--seed S] [--seconds T] [--quick] [--out F] [--baseline F]
//! diners-benchmark <workload> [--seed S] [--seconds T] [--quick] [--trace]
//! diners-benchmark --workload <name> --seed S --seconds T --trace 0|1
//! ```
//!
//! A workload run prints every metric with its unit, its deterministic
//! counts and its correctness checks, then one JSON result line, and
//! exits non-zero if a check failed. `all` runs every workload in a child
//! process of its own (so peak memory is per workload), writes the
//! results with their provenance, and optionally compares them against a
//! baseline written the same way. See README.md.

mod affinity;
mod engine;
mod explorer;
mod harness;
mod probes;
mod report;
mod service;
mod simnet;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use harness::Opts;
use report::{Kind, Outcome, DEFS};
use spans::Spans;

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 5] = [
    engine::RING8K.name,
    engine::CHURN64.name,
    explorer::PACKED.name,
    explorer::SYMMETRY.name,
    simnet::NAME,
];

/// Where results and traces are written, relative to the working
/// directory.
const OUT_DIR: &str = "target/benchmark";

struct Args {
    command: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
}

fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        seed: 7,
        seconds: 0.0,
        trace: false,
        quick: false,
        out: None,
        baseline: None,
    };
    let mut argv = argv.peekable();
    while let Some(a) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => args.command = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&args.seconds) {
                    return Err("--seconds must be within 0..3600".into());
                }
            }
            "--trace" => {
                args.trace = true;
                if let Some(v) = argv.next_if(|v| v == "0" || v == "1") {
                    args.trace = v == "1";
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value("--out")?.into()),
            "--baseline" => args.baseline = Some(value("--baseline")?.into()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name if args.command.is_empty() => args.command = name.to_string(),
            extra => return Err(format!("unexpected argument {extra}")),
        }
    }
    if args.command.is_empty() {
        return Err(format!(
            "name `all` or a workload: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run_workload(name: &str, opts: &Opts, spans: Option<spans::SharedSpans>) -> Outcome {
    match name {
        n if n == engine::RING8K.name => engine::run(&engine::RING8K, opts, spans),
        n if n == engine::CHURN64.name => engine::run(&engine::CHURN64, opts, spans),
        n if n == explorer::PACKED.name => explorer::run(&explorer::PACKED, opts, spans),
        n if n == explorer::SYMMETRY.name => explorer::run(&explorer::SYMMETRY, opts, spans),
        n if n == simnet::NAME => simnet::run(opts, spans),
        _ => unreachable!("checked by the caller"),
    }
}

/// A traced run: the untraced measurement first, then the same inputs
/// with spans around every layer call. Deterministic counts must agree.
fn traced(name: &str, opts: &Opts) -> Outcome {
    let half = Opts {
        seconds: opts.seconds / 2.0,
        ..*opts
    };
    let plain = run_workload(name, &half, None);
    let spans = Spans::shared();
    let mut out = run_workload(name, &half, Some(spans.clone()));
    let path = Path::new(OUT_DIR).join(format!("{name}.trace.json"));
    match spans.borrow().write_json(&path, name) {
        Ok(()) => println!("# trace written to {}", path.display()),
        Err(e) => out.check(format!("write {}: {e}", path.display()), false),
    }
    let differing: Vec<String> = plain
        .counts
        .iter()
        .zip(&out.counts)
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("{} {} vs {}", a.0, a.1, b.1))
        .collect();
    out.check(
        format!(
            "traced counts equal untraced ({})",
            if differing.is_empty() {
                "all equal".to_string()
            } else {
                differing.join(", ")
            }
        ),
        differing.is_empty() && plain.counts.len() == out.counts.len(),
    );
    let (u, t) = (
        plain.get("steps_per_s").unwrap_or(0.0),
        out.get("steps_per_s").unwrap_or(0.0),
    );
    out.set(
        "trace.overhead_pct",
        100.0 * harness::ratio(u - t, u),
        format!("untraced {u:.0} vs traced {t:.0} steps/s"),
    );
    for d in DEFS {
        if d.kind == Kind::Layer && out.get(d.name).is_none() {
            if let Some(v) = plain.get(d.name) {
                out.set(d.name, v, "untraced run");
            }
        }
    }
    out.checks.extend(
        plain
            .checks
            .into_iter()
            .filter(|(_, ok)| !ok)
            .map(|(what, ok)| (format!("untraced run: {what}"), ok)),
    );
    out
}

fn single(args: &Args) -> ExitCode {
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
    };
    println!(
        "# workload={} seed={} seconds={} quick={} trace={} nproc={} rev={}",
        args.command,
        args.seed,
        args.seconds,
        args.quick,
        args.trace,
        report::nproc(),
        report::git_revision()
    );
    let out = if args.trace {
        traced(&args.command, &opts)
    } else {
        run_workload(&args.command, &opts, None)
    };
    print!("{}", out.human());
    println!("{}", out.result_line(args.trace));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload in a child process of its own.
fn all(args: &Args) -> ExitCode {
    let out_dir = Path::new(OUT_DIR);
    let out = args.out.clone().unwrap_or_else(|| {
        out_dir.join(if args.quick {
            "results-quick.json"
        } else {
            "results.json"
        })
    });
    if args.quick && !out.starts_with(out_dir) {
        eprintln!("--quick results are written under {OUT_DIR}/ only");
        return ExitCode::from(2);
    }
    let baseline = match &args.baseline {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(text) => Some(text),
            Err(e) => {
                eprintln!("--baseline {}: {e}", p.display());
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut ok = true;
    let mut results = Vec::new();
    for name in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .stdout(Stdio::piped());
        if args.quick {
            cmd.arg("--quick");
        }
        if args.trace {
            cmd.args(["--trace", "1"]);
        }
        let child = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{name}: cannot start: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&child.stdout);
        print!("{stdout}");
        let line = stdout.lines().last().unwrap_or("").to_string();
        if !child.status.success() {
            println!("# {name}: FAILED ({})", child.status);
            ok = false;
        }
        results.push((name, child.status.code().unwrap_or(-1), line));
    }
    let body: Vec<String> = results
        .iter()
        .map(|(name, code, line)| {
            let result = if line.starts_with('{') { line } else { "null" };
            format!("    \"{name}\": {{\"exit\": {code}, \"result\": {result}}}")
        })
        .collect();
    let json = format!(
        "{{\n  \"quick\": {},\n  \"nproc\": {},\n  \"rev\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        args.quick,
        report::nproc(),
        report::git_revision(),
        args.seed,
        args.seconds,
        body.join(",\n")
    );
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&out, json));
    match written {
        Ok(()) => println!("# results written to {}", out.display()),
        Err(e) => {
            eprintln!("{}: {e}", out.display());
            ok = false;
        }
    }
    if let Some(base) = baseline {
        ok &= compare(&base, &results);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Compare fresh results against a results file with each end-to-end
/// metric's bound; print one verdict per (workload, metric). Returns
/// whether nothing regressed.
fn compare(baseline: &str, results: &[(&str, i32, String)]) -> bool {
    let mut clean = true;
    println!("# against baseline:");
    for (name, _, line) in results {
        // Each workload's result sits on the line that names it.
        let base_line = baseline
            .lines()
            .find(|l| l.contains(&format!("\"{name}\"")))
            .unwrap_or("");
        let base = report::parse_metrics(base_line);
        for (metric, value) in report::parse_metrics(line) {
            let def = report::def(&metric);
            let Kind::EndToEnd(bound) = def.kind else {
                continue;
            };
            let Some(&(_, b)) = base.iter().find(|(m, _)| *m == metric) else {
                println!("{name} {metric}: no baseline");
                continue;
            };
            let holds = bound.holds(def.better, b, value);
            clean &= holds;
            println!(
                "{name} {metric}: {b} -> {value} {} ({})",
                def.unit,
                if holds { "ok" } else { "REGRESSED" }
            );
        }
    }
    clean
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("diners-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match args.command.as_str() {
        "all" => all(&args),
        w if WORKLOADS.contains(&w) => single(&args),
        other => {
            eprintln!(
                "diners-benchmark: unknown workload {other}; the workloads are {}",
                WORKLOADS.join(", ")
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn benchmark_json_names_these_workloads() {
        let listed: Vec<String> = report::tests::benchmark_json("workloads")
            .iter()
            .map(|l| l.split('"').nth(3).expect("name").to_string())
            .collect();
        assert_eq!(listed, WORKLOADS);
    }

    #[test]
    fn parses_both_command_lines() {
        let a = args("--workload engine-ring8k --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.command.as_str(), a.seed, a.seconds, a.trace),
            ("engine-ring8k", 3, 10.0, true)
        );
        let a = args("--workload x --trace 0").unwrap();
        assert!(!a.trace);
        let a = args("simnet-ring256 --trace --quick").unwrap();
        assert!(a.trace && a.quick);
        assert!(args("all --bogus").is_err());
        assert!(args("all --seed").is_err());
        assert!(args("all extra").is_err());
        assert!(args("").is_err());
    }
}
