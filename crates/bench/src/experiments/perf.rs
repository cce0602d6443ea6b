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
//! Measurement is adaptive: each configuration runs in fixed-size step
//! chunks until a minimum wall-clock budget is spent, then reports the
//! observed rate — robust to machines of very different speeds without
//! hardcoded iteration counts. The sides of each ratio (engine steps and
//! from-scratch enumerations, small and large ring, sequential and
//! parallel search) run back to back in a few rounds, and the row is the
//! round with the median ratio: host drift slows every side of a round
//! alike, and a burst of load that spoils one round is outvoted.

use std::time::{Duration, Instant};

use diners_core::MaliciousCrashDiners;
use diners_mp::SimNet;
use diners_sim::algorithm::{DinerAlgorithm, SystemState};
use diners_sim::codec::StateCodec;
use diners_sim::engine::{Engine, EngineBuilder};
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

/// Steps per timed chunk (and per warmup).
const CHUNK: u64 = 1_000;

/// Steps/sec of `sys`, measured adaptively: chunks of [`CHUNK`] steps
/// until at least `budget` wall-clock has elapsed (always ≥ 1 chunk).
pub(crate) fn steps_per_sec(sys: &mut impl Steps, budget: Duration) -> (f64, u64) {
    sys.steps(CHUNK); // warmup: populate caches, fault state, branch predictors
    timed_rate(sys, budget)
}

/// [`steps_per_sec`] without the warmup chunk.
fn timed_rate(sys: &mut impl Steps, budget: Duration) -> (f64, u64) {
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

/// Back-to-back rounds per engine measurement, and per explorer
/// speedup (whose searches last longer).
const ROUNDS: usize = 5;
const EXPLORE_ROUNDS: usize = 3;

/// The run with the median `key`.
fn median_by<T>(mut runs: Vec<T>, key: impl Fn(&T) -> f64) -> T {
    runs.sort_by(|a, b| key(a).total_cmp(&key(b)));
    let mid = runs.len() / 2;
    runs.swap_remove(mid)
}

/// [`bench_engine`] after one warmup chunk, as in [`steps_per_sec`].
fn warm_engine(topo: &Topology) -> Engine<MaliciousCrashDiners> {
    let mut engine = bench_engine(topo).build();
    engine.steps(CHUNK);
    engine
}

/// From-scratch enumerations of one engine's state, timed like steps:
/// the denominator of T10's engine rows. [`Engine::enabled_moves`]
/// evaluates every guard of every process and touches neither the
/// enabled index nor the scheduler, fault or execution code, so it
/// normalises the host's speed without moving when the step path does.
struct Enumerations(Engine<MaliciousCrashDiners>);

impl Steps for Enumerations {
    fn steps(&mut self, n: u64) {
        for _ in 0..n {
            std::hint::black_box(self.0.enabled_moves());
        }
    }
}

/// `(steps/sec, steps)` of each engine in one round: a slice of `slice`
/// per engine, back to back, so that the rates share the host's state.
fn round(engines: &mut [Engine<MaliciousCrashDiners>], slice: Duration) -> Vec<(f64, u64)> {
    engines.iter_mut().map(|e| timed_rate(e, slice)).collect()
}

/// From-scratch `(enumerations/sec, enumerations)` and incremental
/// `(steps/sec, steps)` on `topo`, from the round (of [`ROUNDS`], each a
/// `budget / ROUNDS` slice per side) with the median steps per
/// enumeration. Both sides start from the same warmed-up state.
fn engine_cell(topo: &Topology, budget: Duration) -> [(f64, u64); 2] {
    let slice = budget / ROUNDS as u32;
    let mut sweep = Enumerations(warm_engine(topo));
    let mut engine = warm_engine(topo);
    let rounds = (0..ROUNDS)
        .map(|_| {
            [
                timed_rate(&mut sweep, slice),
                timed_rate(&mut engine, slice),
            ]
        })
        .collect();
    median_by(rounds, |r| r[1].0 / r[0].0)
}

/// The ring whose rate the `--check` floor bounds, and the floor: its
/// incremental steps/sec as a share of ring(16)'s. Both sides run on the
/// same host in the same process, so the share is machine-normalised.
const SCALING_GATE_N: usize = 1024;
const SCALING_FLOOR: f64 = 0.25;

/// Incremental steps/sec on rings of 16, 1024 and (full runs) 4096
/// processes over [`ROUNDS`] rounds of a `budget / ROUNDS` slice per
/// ring: per ring the median rate and the median of its per-round ratios
/// to ring(16), as a table and JSON rows keyed by `"scaling"` (so
/// [`engine_entries`] skips them).
fn scaling(quick: bool, budget: Duration) -> (Table, Vec<String>) {
    let sizes: &[usize] = if quick {
        &[16, 1024]
    } else {
        &[16, 1024, 4096]
    };
    let rings: Vec<Topology> = sizes.iter().map(|&n| Topology::ring(n)).collect();
    let mut engines: Vec<_> = rings.iter().map(warm_engine).collect();
    let rounds: Vec<Vec<(f64, u64)>> = (0..ROUNDS)
        .map(|_| round(&mut engines, budget / ROUNDS as u32))
        .collect();
    let mut table = Table::new(
        format!("T10: incremental steps/sec by ring size (median of {ROUNDS} rounds)"),
        ["family", "n", "incr st/s", "vs ring(16)"],
    );
    let mut rows = Vec::new();
    for (i, topo) in rings.iter().enumerate() {
        let rate = median_by(rounds.iter().map(|r| r[i].0).collect(), |&x| x);
        let ratio = median_by(rounds.iter().map(|r| r[i].0 / r[0].0).collect(), |&x| x);
        table.row([
            "ring".to_string(),
            topo.len().to_string(),
            fmt_f64(rate, 0),
            fmt_f64(ratio, 2),
        ]);
        rows.push(format!(
            concat!(
                "{{\"scaling\":\"ring\",\"n\":{},\"incremental_steps_per_sec\":{:.1},",
                "\"rounds\":{},\"ratio_to_n16\":{:.3}}}"
            ),
            topo.len(),
            rate,
            ROUNDS,
            ratio,
        ));
    }
    (table, rows)
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

/// Parallel over sequential states/sec (1.0 for an empty search).
fn speedup_of(seq: &ExplorationReport, par: &ExplorationReport) -> f64 {
    if seq.states_per_sec() > 0.0 {
        par.states_per_sec() / seq.states_per_sec()
    } else {
        1.0
    }
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
        format!(
            "T10: incremental steps per from-scratch enumeration \
             (budget {budget:?}/cell, median of {ROUNDS} rounds)"
        ),
        ["family", "n", "enum/s", "incr st/s", "steps/enum"],
    );
    let mut json_engine = Vec::new();

    for &n in sizes {
        for topo in families(n, 42) {
            let [(enum_rate, enums), (incr_rate, incr_steps)] = engine_cell(&topo, budget);
            engine_table.row([
                family_of(&topo).to_string(),
                topo.len().to_string(),
                fmt_f64(enum_rate, 0),
                fmt_f64(incr_rate, 0),
                fmt_f64(incr_rate / enum_rate, 2),
            ]);
            json_engine.push(format!(
                concat!(
                    "{{\"family\":\"{}\",\"n\":{},",
                    "\"enumerations_per_sec\":{:.1},\"enumerations\":{},",
                    "\"incremental_steps_per_sec\":{:.1},\"incremental_steps\":{},",
                    "\"steps_per_enumeration\":{:.3}}}"
                ),
                family_of(&topo),
                topo.len(),
                enum_rate,
                enums,
                incr_rate,
                incr_steps,
                incr_rate / enum_rate,
            ));
        }
    }

    let (scaling_table, json_scaling) = scaling(quick, budget);

    let mut explore_table = Table::new(
        format!("T10: explorer states/sec, sequential vs {threads}-thread parallel"),
        ["case", "states", "seq st/s", "par st/s", "speedup"],
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
    // On a single-core host `explore_with` clamps to the sequential
    // path, so a second measurement would only record noise (the committed
    // baseline once showed a fictitious 0.86x "slowdown" this way): reuse
    // the sequential report and report the honest 1.0 speedup. Otherwise
    // a row is the median of `EXPLORE_ROUNDS` sequential/parallel pairs.
    let measure = |run: &dyn Fn(usize) -> ExplorationReport| {
        if threads <= 1 {
            let seq = run(1);
            (seq.clone(), seq)
        } else {
            let rounds = (0..EXPLORE_ROUNDS)
                .map(|_| (run(1), run(threads)))
                .collect();
            median_by(rounds, |(seq, par)| speedup_of(seq, par))
        }
    };
    let mca = MaliciousCrashDiners::paper();
    let (toy_seq, toy_par) = measure(&|t| explore_initial(&ToyDiners, &toy_topo, t));
    let (mca_seq, mca_par) = measure(&|t| explore_initial(&mca, &mca_topo, t));
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
        let speedup = speedup_of(&seq, &par);
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
    fn median_by_keeps_the_run_with_the_middle_key() {
        let runs = vec![(1.0, 3.0), (2.0, 1.0), (1.0, 9.0), (1.0, 1.0), (1.0, 2.0)];
        assert_eq!(median_by(runs, |(base, new)| new / base), (1.0, 2.0));
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
            "\"enumerations\":188000,\"incremental_steps_per_sec\":1598861.8,",
            "\"incremental_steps\":800000,\"steps_per_enumeration\":4.270}\n  ],\n",
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
        let budget = Duration::from_millis(80);
        let topo = Topology::ring(64);
        let (sweep, _) = steps_per_sec(&mut Enumerations(bench_engine(&topo).build()), budget);
        let (incr, _) = steps_per_sec(&mut bench_engine(&topo).build(), budget);
        assert!(
            incr > sweep,
            "incremental ({incr:.0} st/s) not faster than enumeration ({sweep:.0} /s)"
        );
    }
}
