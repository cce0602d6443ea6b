//! Runs the benchmark binary at test scale (`--quick`): every workload
//! runs and passes its checks, equal seeds give equal deterministic
//! counts, traced runs count what untraced runs count, and every metric
//! `BENCHMARK.json` names is printed.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 5] = [
    "engine-ring8k",
    "engine-churn64",
    "explore-packed",
    "explore-symmetry",
    "simnet-ring256",
];

/// Run the benchmark in a temporary directory; return (success, stdout).
fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_diners-benchmark"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark binary");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// `count name=value` lines per workload, keyed by the `# workload=`
/// header that precedes them.
fn counts(stdout: &str) -> BTreeMap<String, Vec<String>> {
    let mut by_workload: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut current = String::new();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("# workload=") {
            current = rest.split_whitespace().next().unwrap_or("").to_string();
        } else if let Some(c) = line.strip_prefix("count ") {
            by_workload
                .entry(current.clone())
                .or_default()
                .push(c.to_string());
        }
    }
    by_workload
}

/// Metric names listed under `section` in `BENCHMARK.json`.
fn benchmark_names(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted name")].to_string())
        .collect()
}

#[test]
fn quick_runs_are_deterministic_and_traced_runs_agree() {
    let (ok, all) = bench(&["all", "--quick"]);
    assert!(ok, "all --quick failed:\n{all}");
    for name in benchmark_names("end_to_end") {
        let printed = all.matches(&format!("metric {name} = ")).count();
        assert_eq!(
            printed,
            WORKLOADS.len(),
            "{name} not printed for every workload"
        );
    }
    let results =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join("target/benchmark/results-quick.json");
    let results = std::fs::read_to_string(results).expect("results written");
    assert!(results.contains("\"quick\": true") && results.contains("\"nproc\""));
    let plain = counts(&all);
    assert_eq!(plain.len(), WORKLOADS.len());

    let layer_names = benchmark_names("per_layer");
    for w in WORKLOADS {
        let (ok, traced) = bench(&[w, "--quick", "--trace"]);
        assert!(ok, "{w} --trace failed:\n{traced}");
        assert!(traced.contains("check ok: traced counts equal untraced"));
        // A second run with the same seed counts exactly what `all` did.
        assert_eq!(
            counts(&traced)[w],
            plain[w],
            "{w}: counts differ between runs"
        );
        let result = traced.lines().last().expect("result line");
        for name in &layer_names {
            assert!(
                result.contains(&format!("\"{name}\":{{\"value\":")),
                "{w}: {name} missing"
            );
        }
        let trace =
            Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("target/benchmark/{w}.trace.json"));
        assert!(trace.exists(), "{w}: no trace file");
    }
}

#[test]
fn a_different_seed_changes_the_fault_plan() {
    let digest = |seed: &str| {
        let (ok, out) = bench(&["engine-churn64", "--quick", "--seed", seed]);
        assert!(ok, "{out}");
        counts(&out)["engine-churn64"]
            .iter()
            .find(|c| c.starts_with("fault_plan_digest="))
            .cloned()
            .expect("digest printed")
    };
    assert_ne!(digest("7"), digest("8"));
}

#[test]
fn quick_results_stay_under_target() {
    let (ok, _) = bench(&["all", "--quick", "--out", "elsewhere.json"]);
    assert!(!ok, "a quick run must not write outside target/benchmark");
    let (ok, _) = bench(&["no-such-workload"]);
    assert!(!ok);
}
