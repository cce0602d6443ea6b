//! `exp` — the experiment driver.
//!
//! ```text
//! exp <name>|all [--quick] [--out DIR] [--check]
//! exp trace record|verify|seek|blame|export …
//! exp monitor --watch …
//! ```
//!
//! Runs experiments from the registry, prints their tables, writes their
//! `BENCH_*.json` (with provenance) and artifacts to the output directory,
//! and exits 1 if any acceptance check failed. A full run writes to the
//! working directory, which holds the committed baselines; a quick run
//! writes to `target/exp/` unless `--out` is given. `--check` also gates
//! each run against its committed baseline, read before anything is
//! written. Bad arguments, tool errors and I/O errors exit 2.

use std::path::PathBuf;
use std::process::ExitCode;

use diners_bench::experiments::{find, Experiment, Report, Tool, REGISTRY};
use diners_bench::Scale;

/// The driver's flags; anything else after a tool's name goes to the tool.
const DRIVER_FLAGS: [&str; 3] = ["--quick", "--out", "--check"];

/// One batch of experiments to run.
struct Run {
    experiments: Vec<&'static Experiment>,
    quick: bool,
    out: PathBuf,
    check: bool,
}

/// A parsed command line.
enum Invocation {
    Run(Run),
    Tool(Tool, Vec<String>),
}

fn parse(args: &[String]) -> Result<Invocation, String> {
    let (name, rest) = args.split_first().ok_or("missing experiment name")?;
    let experiments = if name == "all" {
        REGISTRY.iter().collect()
    } else {
        let e = find(name).ok_or_else(|| format!("unknown experiment {name:?}"))?;
        if let (Some((_, tool)), Some(first)) = (e.cli, rest.first()) {
            if !DRIVER_FLAGS.contains(&first.as_str()) {
                return Ok(Invocation::Tool(tool, rest.to_vec()));
            }
        }
        vec![e]
    };
    let (mut quick, mut out, mut check) = (false, None, false);
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out expects a directory")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    // Full runs refresh the committed baselines; quick runs never do.
    let out = out.unwrap_or_else(|| PathBuf::from(if quick { "target/exp" } else { "." }));
    Ok(Invocation::Run(Run {
        experiments,
        quick,
        out,
        check,
    }))
}

fn usage() -> String {
    let mut s = String::from(
        "usage: exp <name>|all [--quick] [--out DIR] [--check]\n\
         \x20 --quick    test scale; writes to target/exp/ unless --out is given\n\
         \x20 --out DIR  where BENCH_*.json files and artifacts go (full runs: .)\n\
         \x20 --check    also gate each run against its committed baseline in .\n\n\
         experiments:\n",
    );
    for e in REGISTRY {
        s.push_str(&format!("  {:<5} {}\n", e.id, e.name));
    }
    s.push_str("\ntools:\n");
    for (usage, _) in REGISTRY.iter().filter_map(|e| e.cli) {
        s.push_str(usage);
        s.push('\n');
    }
    s
}

/// Prefix a report's JSON object with where and how it was produced.
fn with_provenance(body: &str, quick: bool, cores: usize, rev: &str) -> String {
    let fields = body
        .strip_prefix("{\n")
        .expect("report JSON is a multi-line object");
    format!(
        "{{\n  \"quick\": {quick},\n  \"available_parallelism\": {cores},\n  \"git_rev\": \"{rev}\",\n{fields}"
    )
}

/// `git rev-parse HEAD`, or `"unknown"` outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Run every experiment of `run`; returns the failed checks.
fn execute(run: &Run) -> Result<Vec<String>, String> {
    let scale = if run.quick {
        Scale::quick()
    } else {
        Scale::full()
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rev = git_rev();
    std::fs::create_dir_all(&run.out)
        .map_err(|e| format!("cannot create {}: {e}", run.out.display()))?;
    let mut failures = Vec::new();
    for e in &run.experiments {
        let mut report = (e.run)(&scale);
        let mut files = std::mem::take(&mut report.artifacts);
        if let Some((file, body)) = &report.json {
            let body = with_provenance(body, run.quick, cores, &rev);
            if let (true, Some(gate)) = (run.check, e.baseline) {
                let gated = match std::fs::read_to_string(file) {
                    Ok(committed) => gate(&body, &committed),
                    Err(err) => Report {
                        failures: vec![format!("cannot read baseline {file}: {err}")],
                        ..Report::default()
                    },
                };
                report.tables.extend(gated.tables);
                report.failures.extend(gated.failures);
            }
            files.insert(0, (file.to_string(), body));
        }
        for t in &report.tables {
            println!("{t}");
        }
        for (file, body) in files {
            let path = run.out.join(file);
            std::fs::write(&path, body)
                .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
            println!("wrote {}", path.display());
        }
        for f in report.failures {
            eprintln!("{} {}: FAILED: {f}", e.id, e.name);
            failures.push(format!("{} {}: {f}", e.id, e.name));
        }
    }
    Ok(failures)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse(&args) {
        Err(e) => {
            eprintln!("exp: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
        Ok(Invocation::Tool(tool, args)) => tool(&args).map(|()| Vec::new()),
        Ok(Invocation::Run(run)) => execute(&run),
    };
    match result {
        Ok(failures) if failures.is_empty() => ExitCode::SUCCESS,
        Ok(failures) => {
            eprintln!("\n{} failed check(s):", failures.len());
            for f in &failures {
                eprintln!("  {f}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("exp: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(words: &[&str]) -> Result<Invocation, String> {
        parse(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    fn run_of(words: &[&str]) -> Run {
        match parsed(words) {
            Ok(Invocation::Run(run)) => run,
            Ok(Invocation::Tool(..)) => panic!("{words:?} dispatched to a tool"),
            Err(e) => panic!("{words:?} rejected: {e}"),
        }
    }

    #[test]
    fn unknown_flags_and_names_are_rejected() {
        for bad in [
            &[][..],
            &["nosuch"],
            &["perf", "--qiuck"],
            &["all", "--dump", "x"],
            &["all", "--out"],
            &["fig2", "extra"],
            &["perf", "record"],
        ] {
            assert!(parsed(bad).is_err(), "{bad:?} accepted");
        }
        assert!(usage().contains("T17   analyze"));
    }

    #[test]
    fn quick_runs_without_out_stay_under_target() {
        for e in REGISTRY {
            let run = run_of(&[e.name, "--quick", "--check"]);
            assert!(run.out.starts_with("target"), "{}: {:?}", e.name, run.out);
        }
        assert!(run_of(&["all", "--quick"]).out.starts_with("target"));
        assert_eq!(run_of(&["all"]).out, PathBuf::from("."));
        assert_eq!(run_of(&["all"]).experiments.len(), REGISTRY.len());
        let explicit = run_of(&["codec", "--quick", "--out", "/tmp/x"]);
        assert_eq!(explicit.out, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn tool_arguments_go_to_the_tool() {
        assert!(matches!(
            parsed(&["trace", "verify", "f.jsonl"]),
            Ok(Invocation::Tool(..))
        ));
        assert!(matches!(
            parsed(&["monitor", "--watch", "--quick"]),
            Ok(Invocation::Tool(..))
        ));
        assert!(run_of(&["trace", "--quick"]).quick);
        assert!(run_of(&["monitor"]).experiments[0].name == "monitor");
    }

    #[test]
    fn provenance_leads_the_json_object() {
        let body = "{\n  \"rows\": []\n}\n";
        let json = with_provenance(body, true, 2, "abc123");
        assert_eq!(
            json,
            "{\n  \"quick\": true,\n  \"available_parallelism\": 2,\n  \"git_rev\": \"abc123\",\n  \"rows\": []\n}\n"
        );
    }
}
