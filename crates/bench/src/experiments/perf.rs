//! T10 — substrate performance: engine step throughput (incremental
//! steps per from-scratch enumeration of the state, and how the engine
//! scales with ring size) and explorer state throughput (sequential vs
//! parallel frontier expansion).
//!
//! Unlike T1–T9 this measures the *reproduction infrastructure*, not the
//! paper's claims: the engine and the parallel explorer are checked
//! against references in test support by the differential suite
//! (`crates/sim/tests/incremental_equiv.rs`), so the only question left
//! is how fast they are. Results are also emitted as machine-readable
//! JSON (`BENCH_engine.json`) so CI can archive them.
//!
//! Every ratio is timed by [`crate::timing`]: the sides (engine steps
//! and from-scratch enumerations, small and large rings, sequential and
//! parallel search) alternate in rounds after a warm-up round, and a row
//! is the median per-round ratio with its interquartile range.

use std::time::Duration;

use diners_core::MaliciousCrashDiners;
use diners_sim::algorithm::SystemState;
use diners_sim::codec::StateCodec;
use diners_sim::engine::{Engine, EngineBuilder};
use diners_sim::explore::{explore_with, ExploreConfig};
use diners_sim::fault::Health;
use diners_sim::graph::Topology;
use diners_sim::predicate::Snapshot;
use diners_sim::scheduler::RandomScheduler;
use diners_sim::table::{fmt_f64, Table};
use diners_sim::toy::ToyDiners;
use diners_sim::workload::AlwaysHungry;

use super::{json_number, json_object, json_objects, json_rows, Report};
use crate::common::{families, Scale};
use crate::timing::{self, slice_rate, Timed};

/// Topology family label: the `name()` prefix before the parameters,
/// e.g. `"ring(16)"` → `"ring"`.
fn family_of(topo: &Topology) -> &str {
    topo.name().split('(').next().unwrap_or("?")
}

/// The hot loop every throughput measurement shares: the paper's
/// algorithm, everyone hungry, a seeded random daemon.
pub(crate) fn bench_engine(topo: &Topology) -> EngineBuilder<MaliciousCrashDiners> {
    Engine::builder(MaliciousCrashDiners::paper(), topo.clone())
        .workload(AlwaysHungry)
        .scheduler(RandomScheduler::new(7))
        .seed(7)
}

/// Rounds and slice of every engine timing, and rounds per explorer
/// speedup (whose samples are whole searches).
const ROUNDS: usize = 20;
const SLICE: Duration = Duration::from_millis(10);
const EXPLORE_ROUNDS: usize = 3;

/// From-scratch enumerations/sec (configuration 0) and incremental
/// steps/sec on `topo`, each on its own engine from the same start: the
/// engine row's sides. [`Engine::enabled_moves`] evaluates every guard of
/// every process and touches neither the enabled index nor the
/// scheduler, fault or execution code, so it normalises the host's speed
/// without moving when the step path does.
fn engine_cell(topo: &Topology) -> Vec<Timed> {
    let sweep = bench_engine(topo).build();
    let mut engine = bench_engine(topo).build();
    timing::alternate(2, ROUNDS, |c| match c {
        0 => slice_rate(SLICE, |n| {
            for _ in 0..n {
                std::hint::black_box(sweep.enabled_moves());
            }
        }),
        _ => slice_rate(SLICE, |n| engine.run(n)),
    })
}

/// The ring whose rate the `--check` floor bounds, and the floor: its
/// incremental steps/sec as a share of ring(16)'s. Both sides run on the
/// same host in the same process, so the share is machine-normalised.
const SCALING_GATE_N: usize = 1024;
const SCALING_FLOOR: f64 = 0.25;

/// Incremental steps/sec on rings of 16, 1024 and (full runs) 4096
/// processes: per ring the median rate and the median of its per-round
/// ratio to ring(16), as a table and JSON rows keyed by `"scaling"` (so
/// [`engine_entries`] skips them).
fn scaling(quick: bool) -> (Table, Vec<String>) {
    let sizes: &[usize] = if quick {
        &[16, 1024]
    } else {
        &[16, 1024, 4096]
    };
    let rings: Vec<Topology> = sizes.iter().map(|&n| Topology::ring(n)).collect();
    let mut engines: Vec<_> = rings.iter().map(|t| bench_engine(t).build()).collect();
    let timed = timing::alternate(engines.len(), ROUNDS, |c| {
        slice_rate(SLICE, |n| engines[c].run(n))
    });
    let mut table = Table::new(
        format!("T10: incremental steps/sec by ring size (median of {ROUNDS} rounds × {SLICE:?})"),
        ["family", "n", "incr st/s", "vs ring(16)", "IQR"],
    );
    let mut rows = Vec::new();
    for (topo, t) in rings.iter().zip(&timed) {
        table.row([
            "ring".to_string(),
            topo.len().to_string(),
            fmt_f64(t.rate, 0),
            fmt_f64(t.ratio, 2),
            fmt_f64(t.iqr, 2),
        ]);
        rows.push(format!(
            concat!(
                "{{\"scaling\":\"ring\",\"n\":{},\"incremental_steps_per_sec\":{:.1},",
                "\"rounds\":{},\"ratio_to_n16\":{:.3},\"ratio_iqr\":{:.3}}}"
            ),
            topo.len(),
            t.rate,
            ROUNDS,
            t.ratio,
            t.iqr,
        ));
    }
    (table, rows)
}

/// States/sec of full searches of `alg` on `topo` from the initial state,
/// everyone live and hungry: sequential (configuration 0) and with
/// `threads` workers, and the state count of every search. On a
/// single-core host `explore_with` clamps to the sequential path, so a
/// second configuration would only time noise (a committed baseline once
/// showed a fictitious 0.86x "slowdown" this way): only the sequential
/// one runs, and its ratio to itself is the honest 1.0 speedup.
fn explore_timed<A>(alg: &A, topo: &Topology, threads: usize) -> (Vec<usize>, Vec<Timed>)
where
    A: StateCodec + Sync,
    A::Local: Send + Sync,
    A::Edge: Send + Sync,
{
    let n = topo.len();
    let configs = if threads > 1 {
        vec![1, threads]
    } else {
        vec![1]
    };
    let mut states = Vec::new();
    let timed = timing::alternate(configs.len(), EXPLORE_ROUNDS, |c| {
        let report = explore_with(
            alg,
            topo,
            SystemState::initial(alg, topo),
            &vec![Health::Live; n],
            &vec![true; n],
            |_: &Snapshot<'_, A>| true,
            ExploreConfig {
                threads: configs[c],
                ..ExploreConfig::default()
            },
        );
        states.push(report.states);
        report.states_per_sec()
    });
    (states, timed)
}

/// Run the T10 sweep. `quick` shrinks sizes so the sweep fits in
/// integration tests and CI smoke runs.
pub fn run(scale: &Scale) -> Report {
    let quick = scale.quick;
    let sizes: &[usize] = if quick { &[16, 64] } else { &[16, 64, 256] };
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);

    let mut engine_table = Table::new(
        format!(
            "T10: incremental steps per from-scratch enumeration \
             (median of {ROUNDS} rounds × {SLICE:?})"
        ),
        ["family", "n", "enum/s", "incr st/s", "steps/enum", "IQR"],
    );
    let mut json_engine = Vec::new();

    for &n in sizes {
        for topo in families(n, 42) {
            let [sweep, incr] = engine_cell(&topo)[..] else {
                unreachable!("two configurations")
            };
            engine_table.row([
                family_of(&topo).to_string(),
                topo.len().to_string(),
                fmt_f64(sweep.rate, 0),
                fmt_f64(incr.rate, 0),
                fmt_f64(incr.ratio, 2),
                fmt_f64(incr.iqr, 2),
            ]);
            json_engine.push(format!(
                concat!(
                    "{{\"family\":\"{}\",\"n\":{},\"enumerations_per_sec\":{:.1},",
                    "\"incremental_steps_per_sec\":{:.1},\"rounds\":{},",
                    "\"steps_per_enumeration\":{:.3},\"ratio_iqr\":{:.3}}}"
                ),
                family_of(&topo),
                topo.len(),
                sweep.rate,
                incr.rate,
                ROUNDS,
                incr.ratio,
                incr.iqr,
            ));
        }
    }

    let (scaling_table, json_scaling) = scaling(quick);

    let mut explore_table = Table::new(
        format!(
            "T10: explorer states/sec, sequential vs {threads}-thread parallel \
             (median of {EXPLORE_ROUNDS} rounds)"
        ),
        ["case", "states", "seq st/s", "par st/s", "speedup", "IQR"],
    );
    let mut json_explore = Vec::new();

    // The explorer cases use the same sizes in quick and full mode: the
    // baseline check matches entries by case name, so CI's --quick run
    // must produce the same cases as the committed full baseline for the
    // explorer speedup guard to bite. Each search lasts 0.5–1 s
    // sequentially on a 2-vCPU VM; a search of milliseconds (mca-line(4)
    // once) mostly times thread spawns, and its speedup there swung
    // 0.26–0.96 run to run.
    let toy_topo = Topology::ring(12);
    let mca_topo = Topology::line(5);
    let cases = [
        (
            format!("toy-{}", toy_topo.name()),
            explore_timed(&ToyDiners, &toy_topo, threads),
        ),
        (
            format!("mca-{}", mca_topo.name()),
            explore_timed(&MaliciousCrashDiners::paper(), &mca_topo, threads),
        ),
    ];
    let mut failures = Vec::new();
    for (case, (states, timed)) in cases {
        if states.iter().any(|&s| s != states[0]) {
            failures.push(format!(
                "{case}: sequential and parallel searches disagree (states {states:?})"
            ));
        }
        let (seq, par) = (timed[0], timed[timed.len() - 1]);
        explore_table.row([
            case.clone(),
            states[0].to_string(),
            fmt_f64(seq.rate, 0),
            fmt_f64(par.rate, 0),
            fmt_f64(par.ratio, 2),
            fmt_f64(par.iqr, 2),
        ]);
        json_explore.push(format!(
            concat!(
                "{{\"case\":\"{}\",\"states\":{},",
                "\"seq_states_per_sec\":{:.1},\"par_states_per_sec\":{:.1},",
                "\"par_threads\":{},\"rounds\":{},\"speedup\":{:.3},\"speedup_iqr\":{:.3}}}"
            ),
            case, states[0], seq.rate, par.rate, threads, EXPLORE_ROUNDS, par.ratio, par.iqr,
        ));
    }

    let json = json_object(&[
        ("engine", json_rows(&json_engine)),
        ("scaling", json_rows(&json_scaling)),
        ("explore", json_rows(&json_explore)),
    ]);
    Report {
        tables: vec![engine_table, scaling_table, explore_table],
        json: Some(("BENCH_engine.json", json)),
        failures,
        ..Report::default()
    }
}

// ---------------------------------------------------------------------------
// Baseline regression guard
// ---------------------------------------------------------------------------

/// How far a ratio may fall below its baseline before the gate fails.
const TOLERANCE: f64 = 0.25;

/// `(family, n, steps per enumeration)` for every row of the `engine`
/// section (only engine rows carry a `"family"` key).
fn engine_entries(json: &str) -> Vec<(String, usize, f64)> {
    json_objects(json, "family")
        .into_iter()
        .filter_map(|(family, obj)| {
            let n = json_number(obj, "n")? as usize;
            Some((family, n, json_number(obj, "steps_per_enumeration")?))
        })
        .collect()
}

/// `(n, ratio to ring(16))` for every row of the `scaling` section.
fn scaling_entries(json: &str) -> Vec<(usize, f64)> {
    json_objects(json, "scaling")
        .into_iter()
        .filter_map(|(_, obj)| {
            Some((
                json_number(obj, "n")? as usize,
                json_number(obj, "ratio_to_n16")?,
            ))
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
/// configurations where the engine's step got slower.
///
/// Raw steps/sec is machine-dependent (the committed baseline may come
/// from different hardware), so the guard compares each engine row's
/// ratio, incremental steps per from-scratch enumeration, per
/// `(family, n)`. Both sides run on the same machine in the same
/// process, so the ratio normalizes machine speed away while still
/// catching anything that slows the step (e.g. accidental work on the
/// telemetry-disabled branch); the enumeration touches no step-path
/// code, so even a slowdown in code every step runs (such as move
/// execution) shows in full. A configuration regresses when its current
/// ratio falls below `1 - TOLERANCE` of the baseline's.
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
///
/// The run's own scaling rows are gated against a fixed floor instead:
/// incremental ring(1024) must reach [`SCALING_FLOOR`] of ring(16)'s
/// steps/sec, which an engine step that grows with n cannot.
pub fn check_against_baseline(current: &str, baseline: &str) -> Report {
    let mut report = compare_speedups(current, baseline);
    check_scaling(current, &mut report);
    report
}

/// Gate the run's ring(1024) scaling row against
/// [`SCALING_FLOOR`]; a run without the row fails.
fn check_scaling(current: &str, report: &mut Report) {
    let Some((_, ratio)) = scaling_entries(current)
        .into_iter()
        .find(|&(n, _)| n == SCALING_GATE_N)
    else {
        report
            .failures
            .push(format!("run has no ring({SCALING_GATE_N}) scaling row"));
        return;
    };
    let ok = ratio >= SCALING_FLOOR;
    let mut table = Table::new(
        format!("T10 scaling floor: incremental ring({SCALING_GATE_N}) vs ring(16)"),
        ["n", "ratio", "floor", "verdict"],
    );
    table.row([
        SCALING_GATE_N.to_string(),
        fmt_f64(ratio, 2),
        fmt_f64(SCALING_FLOOR, 2),
        if ok { "ok" } else { "BELOW FLOOR" }.to_string(),
    ]);
    report.tables.push(table);
    report.check(ok, || {
        format!(
            "ring({SCALING_GATE_N}) runs at {ratio:.2} of ring(16)'s steps/sec, \
             below the {SCALING_FLOOR:.2} floor"
        )
    });
}

/// The speedup comparison of [`check_against_baseline`].
fn compare_speedups(current: &str, baseline: &str) -> Report {
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
            "T10 regression check: ratio vs baseline (tolerance {:.0}%)",
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
                        "{label}: ratio {c:.2} is {:.0}% of baseline {b:.2}",
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

    fn entry(family: &str, n: usize, ratio: f64) -> String {
        format!("{{\"family\":\"{family}\",\"n\":{n},\"steps_per_enumeration\":{ratio:.3}}}")
    }

    /// A run's `scaling` section with ring(1024) at `ratio` of ring(16).
    fn scaling_at(ratio: f64) -> String {
        format!(
            "\"scaling\":[{{\"scaling\":\"ring\",\"n\":16,\"ratio_to_n16\":1.000}},\
             {{\"scaling\":\"ring\",\"n\":1024,\"ratio_to_n16\":{ratio:.3}}}]"
        )
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
            "{{\"engine\":[{},{},{}],{}}}",
            entry("ring", 64, 8.0),
            entry("line", 64, 8.5),
            entry("grid", 64, 3.0),
            scaling_at(0.5)
        );
        let check = check_against_baseline(&ok, &baseline);
        assert!(check.failures.is_empty(), "{:?}", check.failures);
        assert_eq!(check.tables[0].len(), 2);

        // ring collapses below 75% of baseline.
        let bad = format!(
            "{{\"engine\":[{},{}],{}}}",
            entry("ring", 64, 7.0),
            entry("line", 64, 8.0),
            scaling_at(0.5)
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
                "{{\n  \"available_parallelism\": {},\n  \"engine\":[{}],{},",
                "\"explore\":[{{\"case\":\"mca-line(n=5)\",\"speedup\":{:.3}}}]}}"
            ),
            cores,
            entry("ring", 64, 10.0),
            scaling_at(0.5),
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
    fn scaling_floor_gates_the_run_itself() {
        // The floor needs no baseline row: a collapse at ring(1024) fails
        // even against a baseline that predates the scaling section.
        let baseline = format!("{{\"engine\":[{}]}}", entry("ring", 64, 10.0));
        let run = |ratio| {
            format!(
                "{{\"engine\":[{}],{}}}",
                entry("ring", 64, 10.0),
                scaling_at(ratio)
            )
        };
        let check = check_against_baseline(&run(0.30), &baseline);
        assert!(check.failures.is_empty(), "{:?}", check.failures);
        assert!(check.tables[1].render().contains("ok"));

        let check = check_against_baseline(&run(0.10), &baseline);
        assert_eq!(check.failures.len(), 1, "{:?}", check.failures);
        assert!(
            check.failures[0].contains("ring(1024)"),
            "{:?}",
            check.failures
        );
        assert!(check.tables[1].render().contains("BELOW FLOOR"));

        // The scaling rows are not engine rows.
        assert_eq!(engine_entries(&run(0.10)).len(), 1);
        let missing = format!("{{\"engine\":[{}]}}", entry("ring", 64, 10.0));
        let check = check_against_baseline(&missing, &baseline);
        assert!(check.failures[0].contains("no ring(1024) scaling row"));
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
            "{\"family\":\"ring\",\"n\":16,\"enumerations_per_sec\":374474.3,",
            "\"incremental_steps_per_sec\":1598861.8,\"rounds\":20,",
            "\"steps_per_enumeration\":4.270,\"ratio_iqr\":0.120}\n  ],\n",
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
        let scaling = report.tables[1].render();
        assert!(scaling.contains("1024"), "{scaling}");
        let explore = report.tables[2].render();
        assert!(explore.contains("toy-ring"), "{explore}");
        // Hand-rolled JSON: check the shape without a parser dependency.
        let (file, json) = report.json.expect("perf writes JSON");
        assert_eq!(file, "BENCH_engine.json");
        assert_json_has(
            &json,
            &[
                "\"engine\":",
                "\"explore\":",
                "\"enumerations_per_sec\"",
                "\"incremental_steps_per_sec\"",
                "\"steps_per_enumeration\"",
                "\"scaling\":",
                "\"ratio_to_n16\"",
                "\"ratio_iqr\"",
                "\"speedup_iqr\"",
                "\"seq_states_per_sec\"",
                "\"par_states_per_sec\"",
                "\"speedup\"",
            ],
        );
    }

    #[test]
    fn incremental_step_beats_a_from_scratch_enumeration() {
        // The headline claim, at a size small enough for tests: on a ring
        // under full contention a whole incremental step must be strictly
        // cheaper than enumerating the state's moves from scratch.
        let timed = engine_cell(&Topology::ring(64));
        assert!(
            timed[1].ratio > 1.0,
            "incremental ({:.0} st/s) not faster than enumeration ({:.0} /s)",
            timed[1].rate,
            timed[0].rate
        );
    }
}
