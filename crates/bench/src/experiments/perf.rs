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
use diners_mp::SimNet;
use diners_sim::algorithm::{DinerAlgorithm, SystemState};
use diners_sim::codec::StateCodec;
use diners_sim::engine::{Engine, EngineBuilder, EnumerationMode};
use diners_sim::explore::{explore_with, ExplorationReport, ExploreConfig};
use diners_sim::fault::Health;
use diners_sim::graph::Topology;
use diners_sim::predicate::Snapshot;
use diners_sim::scheduler::RandomScheduler;
use diners_sim::table::{fmt_f64, Table};
use diners_sim::toy::ToyDiners;
use diners_sim::workload::AlwaysHungry;

use super::{json_number, json_object, json_objects, json_rows, Report};
use crate::common::{families, Scale};

/// Topology family label: the `name()` prefix before the parameters,
/// e.g. `"ring(16)"` → `"ring"`.
fn family_of(topo: &Topology) -> &str {
    topo.name().split('(').next().unwrap_or("?")
}

/// A system that runs in bulk steps: the engine or the message-passing net.
pub(crate) trait Steps {
    /// Run `n` steps.
    fn steps(&mut self, n: u64);
}

impl<A: DinerAlgorithm> Steps for Engine<A> {
    fn steps(&mut self, n: u64) {
        self.run(n);
    }
}

impl Steps for SimNet {
    fn steps(&mut self, n: u64) {
        self.run(n);
    }
}

/// Steps/sec of `sys`, measured adaptively: chunks of `CHUNK` steps
/// until at least `budget` wall-clock has elapsed (always ≥ 1 chunk).
pub(crate) fn steps_per_sec(sys: &mut impl Steps, budget: Duration) -> (f64, u64) {
    const CHUNK: u64 = 1_000;
    sys.steps(CHUNK); // warmup: populate caches, fault state, branch predictors
    let start = Instant::now();
    let mut steps = 0u64;
    loop {
        sys.steps(CHUNK);
        steps += CHUNK;
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return (steps as f64 / elapsed.as_secs_f64(), steps);
        }
    }
}

/// The hot loop every throughput measurement shares: the paper's
/// algorithm, everyone hungry, a seeded random daemon.
pub(crate) fn bench_engine(topo: &Topology) -> EngineBuilder<MaliciousCrashDiners> {
    Engine::builder(MaliciousCrashDiners::paper(), topo.clone())
        .workload(AlwaysHungry)
        .scheduler(RandomScheduler::new(7))
        .seed(7)
}

fn engine_for(topo: &Topology, mode: EnumerationMode) -> Engine<MaliciousCrashDiners> {
    bench_engine(topo).enumeration(mode).build()
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
pub fn run(scale: &Scale) -> Report {
    let quick = scale.quick;
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
    let mut failures = Vec::new();
    for (case, seq, par) in cases {
        if seq.states != par.states {
            failures.push(format!(
                "{case}: sequential and parallel searches disagree ({} vs {} states)",
                seq.states, par.states
            ));
        }
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

    let json = json_object(&[
        ("engine", json_rows(&json_engine)),
        ("explore", json_rows(&json_explore)),
    ]);
    Report {
        tables: vec![engine_table, explore_table],
        json: Some(("BENCH_engine.json", json)),
        failures,
        ..Report::default()
    }
}

// ---------------------------------------------------------------------------
// Baseline regression guard
// ---------------------------------------------------------------------------

/// How far a speedup may fall below its baseline before the gate fails.
const TOLERANCE: f64 = 0.25;

/// `(family, n, speedup)` for every row of the `engine` section (only
/// engine rows carry a `"family"` key).
fn engine_entries(json: &str) -> Vec<(String, usize, f64)> {
    json_objects(json, "family")
        .into_iter()
        .filter_map(|(family, obj)| {
            let n = json_number(obj, "n")? as usize;
            Some((family, n, json_number(obj, "speedup")?))
        })
        .collect()
}

/// `(case, speedup)` for every row of the `explore` section (the rows
/// keyed by `"case"`).
fn explore_entries(json: &str) -> Vec<(String, f64)> {
    json_objects(json, "case")
        .into_iter()
        .filter_map(|(case, obj)| Some((case, json_number(obj, "speedup")?)))
        .collect()
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
/// `1 - TOLERANCE` of the baseline's.
///
/// Explorer throughput is guarded the same way through the `explore`
/// section's parallel/sequential speedup per case — but that ratio
/// depends on the host's core count (a 1-core baseline is 1.00 by
/// construction), so explorer rows are compared only when both files
/// record the same `available_parallelism`, and skipped otherwise.
///
/// Only configurations present in both blobs are compared (a `--quick`
/// run checks against a full baseline's intersection); an empty
/// intersection is a failure, not a silent pass.
pub fn check_against_baseline(current: &str, baseline: &str) -> Report {
    let mut report = Report::default();
    let base = engine_entries(baseline);
    if base.is_empty() {
        report
            .failures
            .push("baseline JSON has no engine entries".into());
        return report;
    }
    let cur = engine_entries(current);
    // (label, size column, baseline speedup, current speedup, skip reason)
    let mut rows: Vec<(String, String, f64, f64, Option<String>)> = base
        .iter()
        .filter_map(|(family, n, b)| {
            let (_, _, c) = cur.iter().find(|(f, m, _)| f == family && m == n)?;
            Some((family.clone(), n.to_string(), *b, *c, None))
        })
        .collect();
    let cores = |json: &str| json_number(json, "available_parallelism");
    let (base_cores, cur_cores) = (cores(baseline), cores(current));
    let cur_ex = explore_entries(current);
    for (case, b) in explore_entries(baseline) {
        let Some((_, c)) = cur_ex.iter().find(|(k, _)| *k == case) else {
            continue;
        };
        let skip = (base_cores != cur_cores).then(|| {
            let show = |c: Option<f64>| c.map_or("?".to_string(), |c| c.to_string());
            format!(
                "skipped (baseline {} cores, run {})",
                show(base_cores),
                show(cur_cores)
            )
        });
        rows.push((case, "-".to_string(), b, *c, skip));
    }

    let mut table = Table::new(
        format!(
            "T10 regression check: speedup vs baseline (tolerance {:.0}%)",
            TOLERANCE * 100.0
        ),
        ["case", "n", "base", "current", "ratio", "verdict"],
    );
    let mut compared = 0;
    for (case, size, b, c, skip) in rows {
        let ratio = c / b;
        let verdict = match skip {
            Some(why) => why,
            None => {
                compared += 1;
                if ratio >= 1.0 - TOLERANCE {
                    "ok".to_string()
                } else {
                    let label = if size == "-" {
                        case.clone()
                    } else {
                        format!("{case}(n={size})")
                    };
                    report.failures.push(format!(
                        "{label}: speedup {c:.2} is {:.0}% of baseline {b:.2}",
                        ratio * 100.0
                    ));
                    "REGRESSED".to_string()
                }
            }
        };
        table.row([
            case,
            size,
            fmt_f64(b, 2),
            fmt_f64(c, 2),
            fmt_f64(ratio, 2),
            verdict,
        ]);
    }
    if compared == 0 {
        report
            .failures
            .push("no overlapping configurations between run and baseline".into());
    }
    report.tables.push(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::assert_json_has;

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
        let check = check_against_baseline(&ok, &baseline);
        assert!(check.failures.is_empty(), "{:?}", check.failures);
        assert_eq!(check.tables[0].len(), 2);

        // ring collapses below 75% of baseline.
        let bad = format!(
            "{{\"engine\":[{},{}]}}",
            entry("ring", 64, 7.0),
            entry("line", 64, 8.0)
        );
        let check = check_against_baseline(&bad, &baseline);
        assert_eq!(check.failures.len(), 1);
        assert!(check.failures[0].contains("ring(n=64)"));
        assert!(check.tables[0].render().contains("REGRESSED"));

        // Disjoint configurations fail rather than pass silently.
        let disjoint = format!("{{\"engine\":[{}]}}", entry("star", 8, 2.0));
        assert!(!check_against_baseline(&disjoint, &baseline)
            .failures
            .is_empty());
        assert!(!check_against_baseline("{}", &baseline).failures.is_empty());
        assert!(!check_against_baseline(&ok, "{}").failures.is_empty());
    }

    /// A run blob with one engine row and the explorer case at `speedup`,
    /// recorded on a host with `cores` cores.
    fn explorer_run(cores: usize, speedup: f64) -> String {
        format!(
            concat!(
                "{{\n  \"available_parallelism\": {},\n  \"engine\":[{}],",
                "\"explore\":[{{\"case\":\"mca-line(n=4)\",\"speedup\":{:.3}}}]}}"
            ),
            cores,
            entry("ring", 64, 10.0),
            speedup
        )
    }

    #[test]
    fn baseline_check_guards_explorer_speedups_too() {
        let baseline = explorer_run(2, 2.0);
        let check = check_against_baseline(&explorer_run(2, 1.8), &baseline);
        assert!(check.failures.is_empty(), "{:?}", check.failures);
        assert_eq!(check.tables[0].len(), 2, "engine row + explore row");

        let check = check_against_baseline(&explorer_run(2, 1.0), &baseline);
        assert_eq!(check.failures.len(), 1);
        assert!(
            check.failures[0].contains("mca-line"),
            "{:?}",
            check.failures
        );
    }

    #[test]
    fn explorer_rows_compare_only_at_equal_parallelism() {
        // The committed baseline was recorded on one core (speedup 1.00 by
        // construction); a 2-vCPU host reads anywhere in 0.73–1.15.
        let baseline = explorer_run(1, 1.0);
        let check = check_against_baseline(&explorer_run(2, 0.73), &baseline);
        assert!(check.failures.is_empty(), "{:?}", check.failures);
        let table = check.tables[0].render();
        assert!(
            table.contains("skipped (baseline 1 cores, run 2)"),
            "{table}"
        );

        // The same two readings at equal parallelism are a regression.
        let check = check_against_baseline(&explorer_run(2, 0.73), &explorer_run(2, 1.0));
        assert_eq!(check.failures.len(), 1, "{:?}", check.failures);
        assert!(
            check.failures[0].contains("mca-line"),
            "{:?}",
            check.failures
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
        let report = run(&Scale::quick());
        let (_, json) = report.json.expect("perf writes JSON");
        for (case, speedup) in explore_entries(&json) {
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
        let report = run(&Scale::quick());
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let engine = report.tables[0].render();
        assert!(engine.contains("ring"), "{engine}");
        let explore = report.tables[1].render();
        assert!(explore.contains("toy-ring"), "{explore}");
        // Hand-rolled JSON: check the shape without a parser dependency.
        let (file, json) = report.json.expect("perf writes JSON");
        assert_eq!(file, "BENCH_engine.json");
        assert_json_has(
            &json,
            &[
                "\"engine\":",
                "\"explore\":",
                "\"naive_steps_per_sec\"",
                "\"incremental_steps_per_sec\"",
                "\"seq_states_per_sec\"",
                "\"par_states_per_sec\"",
                "\"speedup\"",
            ],
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
