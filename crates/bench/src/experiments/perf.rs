//! T10 — substrate performance: engine step throughput (naive vs
//! incremental enumeration) and explorer state throughput (sequential vs
//! parallel frontier expansion).
//!
//! Unlike T1–T9 this measures the *reproduction infrastructure*, not the
//! paper's claims: the incremental engine and the parallel explorer are
//! proven bit-identical to their naive counterparts by the differential
//! suite (`crates/sim/tests/incremental_equiv.rs`), so the only question
//! left is how much faster they are. Results are also emitted as
//! machine-readable JSON (`BENCH_engine.json`) so CI can archive them.
//!
//! Measurement is adaptive: each configuration runs in fixed-size step
//! chunks until a minimum wall-clock budget is spent, then reports the
//! observed rate — robust to machines of very different speeds without
//! hardcoded iteration counts.

use std::time::{Duration, Instant};

use diners_core::MaliciousCrashDiners;
use diners_sim::algorithm::{DinerAlgorithm, SystemState};
use diners_sim::codec::StateCodec;
use diners_sim::engine::{Engine, EnumerationMode};
use diners_sim::explore::{explore_with, ExplorationReport, ExploreConfig};
use diners_sim::fault::Health;
use diners_sim::graph::Topology;
use diners_sim::predicate::Snapshot;
use diners_sim::scheduler::RandomScheduler;
use diners_sim::table::{fmt_f64, Table};
use diners_sim::toy::ToyDiners;
use diners_sim::workload::AlwaysHungry;

use crate::common::families;

/// Everything T10 produces: human tables plus the JSON blob for CI.
pub struct PerfReport {
    /// Engine steps/sec per family × size × enumeration mode.
    pub engine: Table,
    /// Explorer states/sec, sequential vs parallel.
    pub explore: Table,
    /// The same numbers as machine-readable JSON (`BENCH_engine.json`).
    pub json: String,
}

/// Topology family label: the `name()` prefix before the parameters,
/// e.g. `"ring(16)"` → `"ring"`.
fn family_of(topo: &Topology) -> &str {
    topo.name().split('(').next().unwrap_or("?")
}

/// Steps/sec of `engine`, measured adaptively: chunks of `CHUNK` steps
/// until at least `budget` wall-clock has elapsed (always ≥ 1 chunk).
pub(crate) fn steps_per_sec<A: DinerAlgorithm>(
    engine: &mut Engine<A>,
    budget: Duration,
) -> (f64, u64) {
    const CHUNK: u64 = 1_000;
    engine.run(CHUNK); // warmup: populate caches, fault state, branch predictors
    let start = Instant::now();
    let mut steps = 0u64;
    loop {
        engine.run(CHUNK);
        steps += CHUNK;
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return (steps as f64 / elapsed.as_secs_f64(), steps);
        }
    }
}

fn engine_for(topo: &Topology, mode: EnumerationMode) -> Engine<MaliciousCrashDiners> {
    Engine::builder(MaliciousCrashDiners::paper(), topo.clone())
        .workload(AlwaysHungry)
        .scheduler(RandomScheduler::new(7))
        .seed(7)
        .enumeration(mode)
        .build()
}

/// Full search of `alg` on `topo` from the initial state, everyone live
/// and hungry, with `threads` workers.
fn explore_initial<A>(alg: &A, topo: &Topology, threads: usize) -> ExplorationReport
where
    A: StateCodec + Sync,
    A::Local: Send + Sync,
    A::Edge: Send + Sync,
{
    let n = topo.len();
    explore_with(
        alg,
        topo,
        SystemState::initial(alg, topo),
        &vec![Health::Live; n],
        &vec![true; n],
        |_: &Snapshot<'_, A>| true,
        ExploreConfig {
            threads,
            ..ExploreConfig::default()
        },
    )
}

/// Run the T10 sweep. `quick` shrinks sizes and time budgets so the
/// sweep fits in integration tests and CI smoke runs.
pub fn run(quick: bool) -> PerfReport {
    let budget = if quick {
        Duration::from_millis(100)
    } else {
        Duration::from_millis(500)
    };
    let sizes: &[usize] = if quick { &[16, 64] } else { &[16, 64, 256] };
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);

    let mut engine_table = Table::new(
        format!("T10: engine steps/sec, naive vs incremental (budget {budget:?}/cell)"),
        ["family", "n", "naive st/s", "incr st/s", "speedup"],
    );
    let mut json_engine = Vec::new();

    for &n in sizes {
        for topo in families(n, 42) {
            let (naive_rate, naive_steps) =
                steps_per_sec(&mut engine_for(&topo, EnumerationMode::Naive), budget);
            let (incr_rate, incr_steps) =
                steps_per_sec(&mut engine_for(&topo, EnumerationMode::Incremental), budget);
            engine_table.row([
                family_of(&topo).to_string(),
                topo.len().to_string(),
                fmt_f64(naive_rate, 0),
                fmt_f64(incr_rate, 0),
                fmt_f64(incr_rate / naive_rate, 2),
            ]);
            json_engine.push(format!(
                concat!(
                    "{{\"family\":\"{}\",\"n\":{},",
                    "\"naive_steps_per_sec\":{:.1},\"naive_steps\":{},",
                    "\"incremental_steps_per_sec\":{:.1},\"incremental_steps\":{},",
                    "\"speedup\":{:.3}}}"
                ),
                family_of(&topo),
                topo.len(),
                naive_rate,
                naive_steps,
                incr_rate,
                incr_steps,
                incr_rate / naive_rate,
            ));
        }
    }

    let mut explore_table = Table::new(
        format!("T10: explorer states/sec, sequential vs {threads}-thread parallel"),
        ["case", "states", "seq st/s", "par st/s", "speedup"],
    );
    let mut json_explore = Vec::new();

    // The explorer cases use the same sizes in quick and full mode: the
    // baseline check matches entries by case name, so CI's --quick run
    // must produce the same cases as the committed full baseline for the
    // explorer speedup guard to bite (the searches are subsecond anyway;
    // "quick" shrinks the engine time budgets, which dominate).
    let toy_topo = Topology::ring(12);
    let mca_topo = Topology::line(4);
    // On a single-core host `explore_with` clamps to the sequential
    // path, so a second measurement would only record noise (the committed
    // baseline once showed a fictitious 0.86x "slowdown" this way): reuse
    // the sequential report and report the honest 1.0 speedup.
    let par_run = |seq: &ExplorationReport, run: &dyn Fn(usize) -> ExplorationReport| {
        if threads <= 1 {
            seq.clone()
        } else {
            run(threads)
        }
    };
    let mca = MaliciousCrashDiners::paper();
    let toy_seq = explore_initial(&ToyDiners, &toy_topo, 1);
    let toy_par = par_run(&toy_seq, &|t| explore_initial(&ToyDiners, &toy_topo, t));
    let mca_seq = explore_initial(&mca, &mca_topo, 1);
    let mca_par = par_run(&mca_seq, &|t| explore_initial(&mca, &mca_topo, t));
    let cases: [(String, ExplorationReport, ExplorationReport); 2] = [
        (format!("toy-{}", toy_topo.name()), toy_seq, toy_par),
        (format!("mca-{}", mca_topo.name()), mca_seq, mca_par),
    ];
    for (case, seq, par) in cases {
        assert_eq!(seq.states, par.states, "{case}: searches must agree");
        let speedup = if seq.states_per_sec() > 0.0 {
            par.states_per_sec() / seq.states_per_sec()
        } else {
            1.0
        };
        explore_table.row([
            case.clone(),
            seq.states.to_string(),
            fmt_f64(seq.states_per_sec(), 0),
            fmt_f64(par.states_per_sec(), 0),
            fmt_f64(speedup, 2),
        ]);
        json_explore.push(format!(
            concat!(
                "{{\"case\":\"{}\",\"states\":{},",
                "\"seq_states_per_sec\":{:.1},\"seq_elapsed_ms\":{:.2},",
                "\"par_states_per_sec\":{:.1},\"par_elapsed_ms\":{:.2},",
                "\"par_threads\":{},\"speedup\":{:.3}}}"
            ),
            case,
            seq.states,
            seq.states_per_sec(),
            seq.elapsed.as_secs_f64() * 1e3,
            par.states_per_sec(),
            par.elapsed.as_secs_f64() * 1e3,
            par.threads,
            speedup,
        ));
    }

    let json = format!(
        concat!(
            "{{\n  \"quick\": {},\n  \"available_parallelism\": {},\n",
            "  \"engine\": [\n    {}\n  ],\n",
            "  \"explore\": [\n    {}\n  ]\n}}\n"
        ),
        quick,
        threads,
        json_engine.join(",\n    "),
        json_explore.join(",\n    "),
    );

    PerfReport {
        engine: engine_table,
        explore: explore_table,
        json,
    }
}

// ---------------------------------------------------------------------------
// Baseline regression guard
// ---------------------------------------------------------------------------

/// Outcome of comparing a fresh perf run against a committed baseline.
pub struct BaselineCheck {
    /// Per-configuration comparison rows.
    pub table: Table,
    /// Human-readable description of each regression (empty = pass).
    pub regressions: Vec<String>,
}

/// Parse the first number following `key` inside `obj`.
fn num_after(obj: &str, key: &str) -> Option<f64> {
    let i = obj.find(key)? + key.len();
    let tail = &obj[i..];
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Extract `(family, n, speedup)` triples from the `engine` section of a
/// `BENCH_engine.json` blob. Tolerant of whitespace differences; only
/// engine entries carry a `"family"` key, so no section tracking is
/// needed.
fn engine_entries(json: &str) -> Vec<(String, usize, f64)> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find("\"family\":\"") {
        let after = &rest[i + 10..];
        let Some(q) = after.find('"') else { break };
        let family = after[..q].to_string();
        let obj = &after[..after.find('}').unwrap_or(after.len())];
        if let (Some(n), Some(s)) = (num_after(obj, "\"n\":"), num_after(obj, "\"speedup\":")) {
            out.push((family, n as usize, s));
        }
        rest = &after[q..];
    }
    out
}

/// Extract `(case, speedup)` pairs from the `explore` section of a
/// `BENCH_engine.json` blob (explore entries are the ones keyed by
/// `"case"`).
fn explore_entries(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find("\"case\":\"") {
        let after = &rest[i + 8..];
        let Some(q) = after.find('"') else { break };
        let case = after[..q].to_string();
        let obj = &after[..after.find('}').unwrap_or(after.len())];
        if let Some(s) = num_after(obj, "\"speedup\":") {
            out.push((case, s));
        }
        rest = &after[q..];
    }
    out
}

/// Compare a fresh T10 run against a committed baseline and flag
/// configurations where the incremental engine's advantage regressed.
///
/// Raw steps/sec is machine-dependent (the committed baseline may come
/// from different hardware), so the guard compares the *speedup ratio*
/// incremental/naive per `(family, n)` — both modes run on the same
/// machine in the same process, so the ratio normalizes machine speed
/// away while still catching anything that slows the incremental hot
/// path (e.g. accidental work on the telemetry-disabled branch). A
/// configuration regresses when its current speedup falls below
/// `1 - tolerance` of the baseline's.
///
/// Explorer throughput is guarded the same way: the `explore` section's
/// parallel/sequential speedup per case is a machine-independent ratio,
/// and a regression there (e.g. a parallel merge pessimization sneaking
/// back in) fails the check just as an engine regression does.
///
/// Only configurations present in both blobs are compared (a `--quick`
/// run checks against a full baseline's intersection); it is an error
/// for the intersection to be empty.
pub fn check_against_baseline(
    current: &str,
    baseline: &str,
    tolerance: f64,
) -> Result<BaselineCheck, String> {
    let cur = engine_entries(current);
    let base = engine_entries(baseline);
    if base.is_empty() {
        return Err("baseline JSON has no engine entries".to_string());
    }
    let mut table = Table::new(
        format!(
            "T10 regression check: incremental/naive speedup vs baseline (tolerance {:.0}%)",
            tolerance * 100.0
        ),
        ["family", "n", "base", "current", "ratio", "verdict"],
    );
    let mut regressions = Vec::new();
    let mut compared = 0;
    for (family, n, b) in &base {
        let Some((_, _, c)) = cur.iter().find(|(f, m, _)| f == family && m == n) else {
            continue;
        };
        compared += 1;
        let ratio = c / b;
        let ok = ratio >= 1.0 - tolerance;
        if !ok {
            regressions.push(format!(
                "{family}(n={n}): speedup {c:.2} is {:.0}% of baseline {b:.2}",
                ratio * 100.0
            ));
        }
        table.row([
            family.clone(),
            n.to_string(),
            fmt_f64(*b, 2),
            fmt_f64(*c, 2),
            fmt_f64(ratio, 2),
            if ok { "ok" } else { "REGRESSED" }.to_string(),
        ]);
    }
    // Explorer cases ride in the same table: "case" in the family column,
    // "-" for the size (cases are matched by name alone).
    let cur_ex = explore_entries(current);
    for (case, b) in explore_entries(baseline) {
        let Some((_, c)) = cur_ex.iter().find(|(k, _)| *k == case) else {
            continue;
        };
        compared += 1;
        let ratio = c / b;
        let ok = ratio >= 1.0 - tolerance;
        if !ok {
            regressions.push(format!(
                "{case}: explorer speedup {c:.2} is {:.0}% of baseline {b:.2}",
                ratio * 100.0
            ));
        }
        table.row([
            case.clone(),
            "-".to_string(),
            fmt_f64(b, 2),
            fmt_f64(*c, 2),
            fmt_f64(ratio, 2),
            if ok { "ok" } else { "REGRESSED" }.to_string(),
        ]);
    }
    if compared == 0 {
        return Err("no overlapping (family, n) configurations between run and baseline".into());
    }
    Ok(BaselineCheck { table, regressions })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(family: &str, n: usize, speedup: f64) -> String {
        format!("{{\"family\":\"{family}\",\"n\":{n},\"speedup\":{speedup:.3}}}")
    }

    #[test]
    fn baseline_check_flags_only_real_regressions() {
        let baseline = format!(
            "{{\"engine\":[{},{}]}}",
            entry("ring", 64, 10.0),
            entry("line", 64, 8.0)
        );
        // Within tolerance: a bit slower, plus an extra config the
        // baseline lacks (ignored).
        let ok = format!(
            "{{\"engine\":[{},{},{}]}}",
            entry("ring", 64, 8.0),
            entry("line", 64, 8.5),
            entry("grid", 64, 3.0)
        );
        let check = check_against_baseline(&ok, &baseline, 0.25).unwrap();
        assert!(check.regressions.is_empty(), "{:?}", check.regressions);
        assert_eq!(check.table.len(), 2);

        // ring collapses below 75% of baseline.
        let bad = format!(
            "{{\"engine\":[{},{}]}}",
            entry("ring", 64, 7.0),
            entry("line", 64, 8.0)
        );
        let check = check_against_baseline(&bad, &baseline, 0.25).unwrap();
        assert_eq!(check.regressions.len(), 1);
        assert!(check.regressions[0].contains("ring(n=64)"));
        assert!(check.table.render().contains("REGRESSED"));

        // Disjoint configurations are an error, not a silent pass.
        let disjoint = format!("{{\"engine\":[{}]}}", entry("star", 8, 2.0));
        assert!(check_against_baseline(&disjoint, &baseline, 0.25).is_err());
        assert!(check_against_baseline("{}", &baseline, 0.25).is_err());
        assert!(check_against_baseline(&ok, "{}", 0.25).is_err());
    }

    #[test]
    fn baseline_check_guards_explorer_speedups_too() {
        let baseline = format!(
            "{{\"engine\":[{}],\"explore\":[{{\"case\":\"toy-ring(n=12)\",\"speedup\":2.000}}]}}",
            entry("ring", 64, 10.0)
        );
        let ok = format!(
            "{{\"engine\":[{}],\"explore\":[{{\"case\":\"toy-ring(n=12)\",\"speedup\":1.800}}]}}",
            entry("ring", 64, 10.0)
        );
        let check = check_against_baseline(&ok, &baseline, 0.25).unwrap();
        assert!(check.regressions.is_empty(), "{:?}", check.regressions);
        assert_eq!(check.table.len(), 2, "engine row + explore row");

        let bad = format!(
            "{{\"engine\":[{}],\"explore\":[{{\"case\":\"toy-ring(n=12)\",\"speedup\":1.000}}]}}",
            entry("ring", 64, 10.0)
        );
        let check = check_against_baseline(&bad, &baseline, 0.25).unwrap();
        assert_eq!(check.regressions.len(), 1);
        assert!(
            check.regressions[0].contains("toy-ring"),
            "{:?}",
            check.regressions
        );
    }

    #[test]
    fn single_core_reports_unity_explorer_speedup() {
        // On a 1-core host the parallel column must be the sequential
        // report itself (speedup exactly 1.0), not a second noisy run.
        if std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1)
            > 1
        {
            return; // only meaningfully testable on a single-core host
        }
        let report = run(true);
        for (case, speedup) in explore_entries(&report.json) {
            assert_eq!(speedup, 1.0, "{case}: {speedup}");
        }
    }

    #[test]
    fn engine_entries_parse_the_committed_shape() {
        let json = concat!(
            "{\n  \"engine\": [\n    ",
            "{\"family\":\"ring\",\"n\":16,\"naive_steps_per_sec\":374474.3,",
            "\"naive_steps\":188000,\"incremental_steps_per_sec\":1598861.8,",
            "\"incremental_steps\":800000,\"speedup\":4.270}\n  ],\n",
            "  \"explore\": [\n    ",
            "{\"case\":\"toy-ring(n=12)\",\"states\":172928,\"speedup\":0.860}\n  ]\n}\n"
        );
        let entries = engine_entries(json);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, "ring");
        assert_eq!(entries[0].1, 16);
        assert!((entries[0].2 - 4.270).abs() < 1e-9);
    }

    #[test]
    fn quick_sweep_produces_tables_and_well_formed_json() {
        let report = run(true);
        let engine = report.engine.render();
        assert!(engine.contains("ring"), "{engine}");
        let explore = report.explore.render();
        assert!(explore.contains("toy-ring"), "{explore}");
        // Hand-rolled JSON: check the shape without a parser dependency.
        let json = &report.json;
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        for key in [
            "\"quick\": true",
            "\"engine\":",
            "\"explore\":",
            "\"naive_steps_per_sec\"",
            "\"incremental_steps_per_sec\"",
            "\"seq_states_per_sec\"",
            "\"par_states_per_sec\"",
            "\"speedup\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces:\n{json}"
        );
    }

    #[test]
    fn incremental_engine_beats_naive_at_scale() {
        // The headline claim, at a size small enough for tests: the
        // incremental engine must be strictly faster than the naive one
        // on a ring under full contention.
        let budget = Duration::from_millis(80);
        let topo = Topology::ring(64);
        let (naive, _) = steps_per_sec(&mut engine_for(&topo, EnumerationMode::Naive), budget);
        let (incr, _) = steps_per_sec(&mut engine_for(&topo, EnumerationMode::Incremental), budget);
        assert!(
            incr > naive,
            "incremental ({incr:.0} st/s) not faster than naive ({naive:.0} st/s)"
        );
    }
}
