//! T15 — fairness-aware liveness checking and the deterministic fuzz
//! harness.
//!
//! Two halves:
//!
//! * **Lasso throughput** — the liveness checker's three phases (packed
//!   BFS, Tarjan SCC, cover fairness analysis) run over the same graph
//!   the safety search explores, so its states/sec should stay within
//!   2× of the pure-BFS safety sweep on the same packed representation.
//!   Measured from a deterministically corrupted root, where the `¬I`
//!   region is non-trivial and all three phases do real work.
//!
//! * **Fuzz campaign** — seeded, time-budgeted generation of
//!   (topology × fault plan × schedule) scenarios, each executed on a
//!   real [`Engine`] and judged by the paper's oracles: no safety
//!   violation after the stabilization window, and no starvation of a
//!   live hungry process more than distance 2 from every dead one
//!   (Theorems 1–3). The corrected algorithm must survive the whole
//!   campaign; the deliberately unfair greedy baseline is the planted
//!   bug that proves the pipeline finds, shrinks, and certifies
//!   counterexamples end to end — every finding is minimized by
//!   [`diners_sim::shrink::shrink`] and dumped as a certified v2
//!   flight recording.
//!
//! Results are emitted as `BENCH_liveness.json` for CI to archive;
//! shrunk counterexample recordings ride along as `.jsonl` artifacts.

use std::time::{Duration, Instant};

use diners_sim::algorithm::{Move, SystemState};
use diners_sim::engine::Engine;
use diners_sim::explore::{explore_with, ExploreConfig, Limits, Reduction};
use diners_sim::fault::{FaultPlan, Health};
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::liveness::{check_liveness, LivenessConfig};
use diners_sim::predicate::StatePredicate;
use diners_sim::rng::rng;
use diners_sim::scheduler::{mv, mv_slot, ScriptedScheduler};
use diners_sim::shrink::{replay_certificate, shrink, Repro, ShrinkConfig, TopoSpec};
use diners_sim::table::{fmt_f64, Table};
use diners_sim::workload::AlwaysHungry;
use rand::Rng;

use diners_baselines::greedy::{GreedyDiners, GREEDY_ENTER, GREEDY_EXIT, GREEDY_JOIN};
use diners_core::algorithm::{ENTER, EXIT, FIXDEPTH, JOIN, LEAVE};
use diners_core::predicates::Invariant;
use diners_core::MaliciousCrashDiners;

use super::{json_object, json_objects, json_rows, Report};
use crate::common::Scale;
use crate::timing::{self, Timed};

/// A shrunk, replay-certified counterexample ready to write to disk.
struct ShrunkArtifact {
    /// File-stem label (`fuzz-<target>-<scenario>`).
    label: String,
    /// The certified v2 recording, serialized.
    jsonl: String,
    /// Final-state digest the replay reproduced bit-identically.
    digest: u64,
    /// Shrunk scenario size: (fault events, schedule moves, processes).
    size: (usize, usize, usize),
    /// Whether the shrinker certified 1-minimality within budget.
    locally_minimal: bool,
}

// ---------------------------------------------------------------------
// Half 1: lasso throughput vs the safety BFS.
// ---------------------------------------------------------------------

struct ThroughputCase {
    case: String,
    states: usize,
    /// The safety BFS's and the lasso search's rates; the lasso's ratio
    /// is to the BFS.
    bfs: Timed,
    lasso: Timed,
    certified: bool,
}

/// Rounds of each lasso/BFS ratio, a whole search per sample.
const LASSO_ROUNDS: usize = 5;

/// Run both searches from the same deterministically corrupted root.
/// Tree topologies only: their corruption closures are finite (EXIT is
/// the only edge writer and preserves acyclicity), so neither search
/// truncates.
///
/// The safety baseline is Theorem 1's real oracle — "legitimate states
/// exclude eating neighbors" — which evaluates the invariant fixpoint at
/// every visited state, exactly like the liveness checker's `legit`
/// test. Both searches therefore pay the same per-state oracle cost and
/// the measured ratio isolates the lasso machinery (edge recording,
/// Tarjan, fairness analysis).
fn throughput_case(label: &str, alg: &MaliciousCrashDiners, topo: &Topology) -> ThroughputCase {
    use diners_sim::algorithm::Phase;
    let n = topo.len();
    let mut root = SystemState::initial(alg, topo);
    let mut corrupt_rng = rng(0x7150u64 ^ n as u64);
    root.corrupt_all(alg, topo, &mut corrupt_rng);

    let limits = Limits {
        max_states: 5_000_000,
    };
    let invariant = Invariant::for_algorithm(alg);
    // One sweep over these graphs takes tens of milliseconds, where
    // scheduler jitter alone can swing a single-shot ratio by 2x.
    let (mut bfs, mut lasso) = (None, None);
    let timed = timing::alternate(2, LASSO_ROUNDS, |c| {
        if c == 0 {
            let report = explore_with(
                alg,
                topo,
                root.clone(),
                &vec![Health::Live; n],
                &vec![true; n],
                |snap| {
                    !invariant.holds(snap)
                        || snap.topo.edges().iter().all(|&(a, b)| {
                            snap.state.local(a).phase != Phase::Eating
                                || snap.state.local(b).phase != Phase::Eating
                        })
                },
                ExploreConfig {
                    limits,
                    reduction: Reduction::Packed,
                    threads: 1,
                },
            );
            bfs.insert(report).states_per_sec()
        } else {
            let report = check_liveness(
                alg,
                topo,
                root.clone(),
                &vec![Health::Live; n],
                &vec![true; n],
                |snap| invariant.holds(snap),
                LivenessConfig {
                    limits,
                    reduction: Reduction::Packed,
                },
            );
            let report = lasso.insert(report);
            report.states as f64 / report.elapsed.as_secs_f64()
        }
    });
    let (bfs, lasso) = (bfs.expect("sampled"), lasso.expect("sampled"));
    assert!(!bfs.truncated, "{label}: BFS hit the state cap");
    assert!(
        bfs.violation.is_none(),
        "{label}: exclusion must hold within I"
    );
    assert!(!lasso.truncated, "{label}: lasso search hit the state cap");
    assert_eq!(
        bfs.states, lasso.states,
        "{label}: same root, same packed graph"
    );
    assert!(
        lasso.certified(),
        "{label}: corrupted tree root must converge to I under weak fairness"
    );
    ThroughputCase {
        case: format!("{label}-{}", topo.name()),
        states: bfs.states,
        bfs: timed[0],
        lasso: timed[1],
        certified: lasso.certified(),
    }
}

// ---------------------------------------------------------------------
// Half 2: the fuzz campaign.
// ---------------------------------------------------------------------

/// Per-target knobs: how scenarios are generated and judged.
struct CampaignScale {
    /// Wall-clock budget for the scenario loop.
    budget: Duration,
    /// Hard cap on scenarios (keeps quick runs deterministic even on a
    /// slow machine: the cap, not the clock, is what binds).
    max_scenarios: usize,
    /// Scripted-prefix length bounds.
    prefix: (usize, usize),
    /// Steps after the last fault before the oracles apply.
    settle: u64,
    /// Final observation window the oracles judge.
    window: u64,
    /// How many findings to shrink + certify (the rest are counted).
    shrink_cap: usize,
}

/// Outcome of one target's campaign.
struct CampaignResult {
    target: String,
    scenarios: usize,
    findings: usize,
    shrunk: usize,
    elapsed: Duration,
}

/// A generated scenario for the paper-family target.
struct McaScenario {
    repro: Repro,
    /// Step from which the paper's guarantees apply (last fault +
    /// settle); fixed across shrinking so the oracle stays comparable.
    judge_from: u64,
}

fn gen_topo(r: &mut impl Rng) -> TopoSpec {
    match r.gen_range(0..7u32) {
        0 => TopoSpec::Line(3),
        1 => TopoSpec::Line(4),
        2 => TopoSpec::Line(5),
        3 => TopoSpec::Star(4),
        4 => TopoSpec::Star(5),
        5 => TopoSpec::Ring(4),
        _ => TopoSpec::Ring(5),
    }
}

fn gen_mca_schedule(r: &mut impl Rng, topo: &Topology, len: usize) -> Vec<Move> {
    (0..len)
        .map(|_| {
            let pid = r.gen_range(0..topo.len());
            match r.gen_range(0..6u32) {
                0 => mv(pid, JOIN),
                1 => mv(pid, LEAVE),
                2 => mv(pid, ENTER),
                3 => mv(pid, EXIT),
                _ => {
                    let deg = topo.degree(ProcessId(pid)).max(1);
                    mv_slot(pid, FIXDEPTH, r.gen_range(0..deg))
                }
            }
        })
        .collect()
}

fn gen_faults(r: &mut impl Rng, n: usize, prefix: usize) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for _ in 0..r.gen_range(0..4u32) {
        let at = r.gen_range(1..prefix.max(2)) as u64;
        let pid = r.gen_range(0..n);
        plan = match r.gen_range(0..5u32) {
            0 => plan.crash(at, pid),
            1 => plan.malicious_crash(at, pid, r.gen_range(1..6)),
            2 => plan.transient_local(at, pid),
            3 => plan.transient_global(at),
            _ => plan.crash(at, pid).restart_fresh(at + 4, pid),
        };
    }
    plan
}

fn gen_mca_scenario(seed: u64, scale: &CampaignScale) -> McaScenario {
    let mut r = rng(seed);
    let topo_spec = gen_topo(&mut r);
    let topo = topo_spec.build();
    let prefix = r.gen_range(scale.prefix.0..=scale.prefix.1);
    let faults = gen_faults(&mut r, topo.len(), prefix);
    let last_fault = faults
        .events()
        .iter()
        .map(|e| e.at_step)
        .max()
        .unwrap_or(0)
        .max(prefix as u64);
    let judge_from = last_fault + scale.settle;
    McaScenario {
        repro: Repro {
            topo: topo_spec,
            faults,
            schedule: gen_mca_schedule(&mut r, &topo, prefix),
            steps: judge_from + scale.window,
            seed,
        },
        judge_from,
    }
}

/// The paper's oracles, applied to a finished run. `true` = failure.
///
/// * **Safety**: a mutual-exclusion violation at or after `judge_from`
///   (violations *during* the chaotic prefix are expected — arbitrary
///   corruption can place two neighbors in `Eating`).
/// * **Liveness + locality**: a live hungry process more than distance
///   2 from every dead process that never ate in the final window
///   (Theorem 3's failure-locality bound; with nobody dead it reduces
///   to plain starvation-freedom).
fn mca_oracle(engine: &Engine<MaliciousCrashDiners>, judge_from: u64, window: u64) -> bool {
    use diners_sim::algorithm::Phase;
    let m = engine.metrics();
    if m.last_violation_step() >= Some(judge_from) {
        return true;
    }
    let end = engine.step_count();
    let from = end.saturating_sub(window).max(judge_from);
    let topo = engine.topology();
    let to_dead = topo.distances_from(&engine.dead_processes());
    topo.processes().any(|p| {
        to_dead[p.index()] > 2
            && engine.phase_of(p) == Phase::Hungry
            && m.last_eat_of(p) < Some(from)
    })
}

fn run_mca_campaign(
    alg: &MaliciousCrashDiners,
    scale: &CampaignScale,
    base_seed: u64,
) -> (CampaignResult, Vec<(u64, McaScenario)>) {
    let start = Instant::now();
    let mut findings = Vec::new();
    let mut scenarios = 0;
    while scenarios < scale.max_scenarios && start.elapsed() < scale.budget {
        let seed = base_seed + scenarios as u64;
        let sc = gen_mca_scenario(seed, scale);
        let mut engine = Engine::builder(*alg, sc.repro.topo.build())
            .workload(AlwaysHungry)
            .scheduler(ScriptedScheduler::lenient(sc.repro.schedule.clone()))
            .faults(sc.repro.faults.clone())
            .seed(sc.repro.seed)
            .build();
        engine.run(sc.repro.steps);
        if mca_oracle(&engine, sc.judge_from, scale.window) {
            findings.push((seed, sc));
        }
        scenarios += 1;
    }
    (
        CampaignResult {
            target: "mca-corrected".into(),
            scenarios,
            findings: findings.len(),
            shrunk: 0,
            elapsed: start.elapsed(),
        },
        findings,
    )
}

/// The planted-bug target: greedy has no priority structure, so a
/// scripted daemon that favors one process starves its neighbor. The
/// oracle fires when some live process stayed hungry the whole run and
/// never ate while the table as a whole kept serving meals — i.e. a
/// genuine starvation schedule, not a quiet one.
fn greedy_oracle(engine: &Engine<GreedyDiners>, victim: ProcessId) -> bool {
    use diners_sim::algorithm::Phase;
    if victim.index() >= engine.topology().len() {
        return false;
    }
    engine.metrics().total_eats() >= 2
        && engine.metrics().eats_of(victim) == 0
        && engine.phase_of(victim) == Phase::Hungry
}

fn gen_greedy_scenario(seed: u64, scale: &CampaignScale) -> Repro {
    let mut r = rng(seed);
    let topo_spec = match r.gen_range(0..2u32) {
        0 => TopoSpec::Line(3),
        _ => TopoSpec::Line(4),
    };
    let topo = topo_spec.build();
    let len = r.gen_range(scale.prefix.0..=scale.prefix.1);
    let schedule: Vec<Move> = (0..len)
        .map(|_| {
            let pid = r.gen_range(0..topo.len());
            match r.gen_range(0..3u32) {
                0 => mv(pid, GREEDY_JOIN),
                1 => mv(pid, GREEDY_ENTER),
                _ => mv(pid, GREEDY_EXIT),
            }
        })
        .collect();
    Repro {
        topo: topo_spec,
        faults: FaultPlan::none(),
        steps: schedule.len() as u64,
        schedule,
        seed,
    }
}

fn run_greedy_campaign(
    scale: &CampaignScale,
    base_seed: u64,
) -> (CampaignResult, Vec<ShrunkArtifact>) {
    let start = Instant::now();
    let mut scenarios = 0;
    let mut findings = 0usize;
    let mut artifacts = Vec::new();
    while scenarios < scale.max_scenarios && start.elapsed() < scale.budget {
        let seed = base_seed + scenarios as u64;
        let repro = gen_greedy_scenario(seed, scale);
        let topo = repro.topo.build();
        let mut engine = Engine::builder(GreedyDiners, topo.clone())
            .workload(AlwaysHungry)
            .scheduler(ScriptedScheduler::lenient(repro.schedule.clone()))
            .faults(repro.faults.clone())
            .seed(repro.seed)
            .build();
        engine.run(repro.steps);
        let victim = topo.processes().find(|&p| greedy_oracle(&engine, p));
        scenarios += 1;
        let Some(victim) = victim else { continue };
        findings += 1;
        if artifacts.len() >= scale.shrink_cap {
            continue;
        }
        // Auto-shrink the survivor and certify a bit-identical replay.
        let oracle = move |e: &Engine<GreedyDiners>| greedy_oracle(e, victim);
        let (small, report) = shrink(
            &GreedyDiners,
            &repro,
            || AlwaysHungry,
            oracle,
            ShrinkConfig::default(),
        );
        let label = format!("fuzz-greedy-{seed}");
        let (recording, digest) = replay_certificate::<_, AlwaysHungry, _>(
            &GreedyDiners,
            &small,
            || AlwaysHungry,
            &label,
        )
        .expect("shrunk repro must replay bit-identically");
        artifacts.push(ShrunkArtifact {
            label,
            jsonl: recording.to_jsonl(),
            digest,
            size: (
                small.faults.events().len(),
                small.schedule.len(),
                small.topo.len(),
            ),
            locally_minimal: report.locally_minimal,
        });
    }
    (
        CampaignResult {
            target: "greedy-planted".into(),
            scenarios,
            findings,
            shrunk: artifacts.len(),
            elapsed: start.elapsed(),
        },
        artifacts,
    )
}

// ---------------------------------------------------------------------
// Assembly.
// ---------------------------------------------------------------------

/// Run the T15 sweep. `quick` shrinks budgets so the sweep fits in
/// integration tests and CI smoke runs; the full run's timing-based
/// acceptance floor (lasso within 2× of the safety BFS) is only
/// checked when `!quick` — quick runs still *record* the ratio. The
/// shrunk greedy counterexamples ride along as `.jsonl` artifacts.
pub fn run(scale: &Scale) -> Report {
    let quick = scale.quick;
    let mut failures = Vec::new();

    // Half 1: throughput.
    let cases = if quick {
        vec![
            (
                "mca-paper",
                MaliciousCrashDiners::paper(),
                Topology::line(3),
            ),
            (
                "mca-corr",
                MaliciousCrashDiners::corrected(),
                Topology::star(4),
            ),
        ]
    } else {
        vec![
            (
                "mca-paper",
                MaliciousCrashDiners::paper(),
                Topology::line(4),
            ),
            (
                "mca-paper",
                MaliciousCrashDiners::paper(),
                Topology::star(4),
            ),
            (
                "mca-corr",
                MaliciousCrashDiners::corrected(),
                Topology::line(4),
            ),
            (
                "mca-corr",
                MaliciousCrashDiners::corrected(),
                Topology::star(5),
            ),
        ]
    };
    let mut tp_table = Table::new(
        format!(
            "T15: liveness lasso search vs safety BFS (packed, corrupted root, \
             median of {LASSO_ROUNDS} rounds)"
        ),
        [
            "case",
            "states",
            "bfs st/s",
            "lasso st/s",
            "ratio",
            "IQR",
            "certified",
        ],
    );
    let mut json_tp = Vec::new();
    for (label, alg, topo) in &cases {
        let c = throughput_case(label, alg, topo);
        if !quick && c.lasso.ratio < 0.5 {
            failures.push(format!(
                "{}: lasso throughput {:.2}x of BFS, below the 2x floor",
                c.case, c.lasso.ratio
            ));
        }
        tp_table.row([
            c.case.clone(),
            c.states.to_string(),
            fmt_f64(c.bfs.rate, 0),
            fmt_f64(c.lasso.rate, 0),
            fmt_f64(c.lasso.ratio, 2),
            fmt_f64(c.lasso.iqr, 2),
            c.certified.to_string(),
        ]);
        json_tp.push(format!(
            concat!(
                "{{\"case\":\"{}\",\"states\":{},",
                "\"bfs_states_per_sec\":{:.1},\"lasso_states_per_sec\":{:.1},",
                "\"rounds\":{},\"ratio\":{:.3},\"ratio_iqr\":{:.3},\"certified\":{}}}"
            ),
            c.case,
            c.states,
            c.bfs.rate,
            c.lasso.rate,
            LASSO_ROUNDS,
            c.lasso.ratio,
            c.lasso.iqr,
            c.certified,
        ));
    }

    // Half 2: the campaign.
    let campaign = if quick {
        CampaignScale {
            budget: Duration::from_millis(1_500),
            max_scenarios: 40,
            prefix: (20, 60),
            settle: 600,
            window: 800,
            shrink_cap: 1,
        }
    } else {
        CampaignScale {
            budget: Duration::from_secs(8),
            max_scenarios: 400,
            prefix: (30, 120),
            settle: 1_500,
            window: 2_000,
            shrink_cap: 3,
        }
    };
    let (mca, mca_findings) =
        run_mca_campaign(&MaliciousCrashDiners::corrected(), &campaign, 0x5eed_0000);
    if !mca_findings.is_empty() {
        failures.push(format!(
            "fuzz found a paper-property violation in the corrected algorithm: seeds {:?}",
            mca_findings.iter().map(|(s, _)| *s).collect::<Vec<_>>()
        ));
    }
    let (greedy, artifacts) = run_greedy_campaign(&campaign, 0x0009_eed1);
    if greedy.shrunk == 0 {
        failures.push(format!(
            "the planted greedy starvation bug was found {} times but never shrunk \
             and certified",
            greedy.findings
        ));
    }

    let mut fz_table = Table::new(
        "T15: seeded fuzz campaign (safety + liveness + locality oracles)".to_string(),
        ["target", "scenarios", "findings", "shrunk", "elapsed"],
    );
    let mut json_fz = Vec::new();
    for c in [&mca, &greedy] {
        fz_table.row([
            c.target.clone(),
            c.scenarios.to_string(),
            c.findings.to_string(),
            c.shrunk.to_string(),
            format!("{:.2}s", c.elapsed.as_secs_f64()),
        ]);
        json_fz.push(format!(
            concat!(
                "{{\"target\":\"{}\",\"scenarios\":{},\"findings\":{},",
                "\"shrunk\":{},\"elapsed_sec\":{:.3}}}"
            ),
            c.target,
            c.scenarios,
            c.findings,
            c.shrunk,
            c.elapsed.as_secs_f64(),
        ));
    }
    let json_art: Vec<String> = artifacts
        .iter()
        .map(|a| {
            format!(
                concat!(
                    "{{\"label\":\"{}\",\"digest\":\"{:#x}\",",
                    "\"fault_events\":{},\"schedule_moves\":{},\"processes\":{},",
                    "\"locally_minimal\":{}}}"
                ),
                a.label, a.digest, a.size.0, a.size.1, a.size.2, a.locally_minimal,
            )
        })
        .collect();

    let json = json_object(&[
        ("throughput", json_rows(&json_tp)),
        ("fuzz", json_rows(&json_fz)),
        ("shrunk", json_rows(&json_art)),
    ]);
    Report {
        tables: vec![tp_table, fz_table],
        json: Some(("BENCH_liveness.json", json)),
        artifacts: artifacts
            .into_iter()
            .map(|a| (format!("{}.jsonl", a.label), a.jsonl))
            .collect(),
        failures,
    }
}

/// The fields of each `BENCH_liveness.json` section that a run must
/// reproduce exactly: `(section, label key, fields)`. Rates and ratios
/// are timing, not compared; the run enforces its own ratio floor.
const DETERMINISTIC: [(&str, &str, &[&str]); 3] = [
    ("throughput", "case", &["states", "certified"]),
    ("fuzz", "target", &["scenarios", "findings", "shrunk"]),
    (
        "shrunk",
        "label",
        &[
            "digest",
            "fault_events",
            "schedule_moves",
            "processes",
            "locally_minimal",
        ],
    ),
];

/// Baseline gate for `exp fuzz --check`: every deterministic field of
/// the run (see `DETERMINISTIC`) must equal the committed file's, row
/// for row and in the same order. Skipped, with the reason in its
/// table, when the run's scale (`quick`) differs from the baseline's.
pub fn check_against_baseline(current: &str, baseline: &str) -> Report {
    let mut report = Report::default();
    let mut table = Table::new(
        "T15 regression check: deterministic fields vs baseline (exact)".to_string(),
        ["section", "row", "verdict"],
    );
    let quick = |json: &str| json_token(json, "quick").map(str::to_string);
    if quick(current) != quick(baseline) {
        table.row([
            "all".to_string(),
            "-".to_string(),
            format!(
                "skipped (baseline quick={}, run quick={})",
                quick(baseline).unwrap_or_default(),
                quick(current).unwrap_or_default()
            ),
        ]);
        report.tables.push(table);
        return report;
    }
    for (section, key, fields) in DETERMINISTIC {
        let rows = |json| section_of(json, section).map_or_else(Vec::new, |s| json_objects(s, key));
        let (base, cur) = (rows(baseline), rows(current));
        let labels =
            |rows: &[(String, &str)]| rows.iter().map(|(l, _)| l.clone()).collect::<Vec<_>>();
        if labels(&base) != labels(&cur) {
            let verdict = format!("rows {:?} != baseline {:?}", labels(&cur), labels(&base));
            report.failures.push(format!("{section}: {verdict}"));
            table.row([section.to_string(), "-".to_string(), verdict]);
            continue;
        }
        for ((label, b), (_, c)) in base.iter().zip(&cur) {
            let diffs: Vec<String> = fields
                .iter()
                .filter(|f| json_token(b, f) != json_token(c, f))
                .map(|f| {
                    let show = |o| json_token(o, f).unwrap_or("missing");
                    format!("{f} {} != baseline {}", show(c), show(b))
                })
                .collect();
            let verdict = if diffs.is_empty() {
                "ok".to_string()
            } else {
                report
                    .failures
                    .push(format!("{section} {label}: {}", diffs.join(", ")));
                diffs.join(", ")
            };
            table.row([section.to_string(), label.clone(), verdict]);
        }
    }
    report.tables.push(table);
    report
}

/// The text of `json`'s top-level array `section`.
fn section_of<'a>(json: &'a str, section: &str) -> Option<&'a str> {
    let start = json.find(&format!("\"{section}\": ["))?;
    let rest = &json[start..];
    Some(&rest[..rest.find(']')?])
}

/// The raw value text stored under `key` in a flat JSON object: a
/// number, a boolean, or a quoted string with its quotes.
fn json_token<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let tail = json[json.find(&pat)? + pat.len()..].trim_start();
    let end = tail.find([',', '}', '\n']).unwrap_or(tail.len());
    Some(tail[..end].trim_end())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::assert_json_has;
    use diners_sim::record::{state_digest, Recording, Replayer};

    #[test]
    fn quick_sweep_finds_shrinks_and_certifies() {
        let report = run(&Scale::quick());
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let tp = report.tables[0].render();
        assert!(tp.contains("mca-paper"), "{tp}");
        let fz = report.tables[1].render();
        assert!(fz.contains("greedy-planted"), "{fz}");
        assert!(fz.contains("mca-corrected"), "{fz}");
        assert!(!report.artifacts.is_empty());
        let (_, json) = report.json.expect("fuzz writes JSON");
        assert_json_has(
            &json,
            &[
                "\"throughput\":",
                "\"bfs_states_per_sec\"",
                "\"lasso_states_per_sec\"",
                "\"ratio\"",
                "\"fuzz\":",
                "\"findings\"",
                "\"shrunk\":",
                "\"locally_minimal\"",
            ],
        );
    }

    #[test]
    fn dumped_artifacts_replay_from_their_serialized_form() {
        // The artifact on disk — not the in-memory recording — is what a
        // human gets; parse the serialized JSONL back and replay it.
        let report = run(&Scale::quick());
        let (_, json) = report.json.expect("fuzz writes JSON");
        for (file, jsonl) in &report.artifacts {
            let rec = Recording::parse(jsonl).expect("artifact parses");
            assert_eq!(rec.version, 2, "fuzz artifacts are v2 recordings");
            let (engine, _) =
                Replayer::run(&rec, GreedyDiners, AlwaysHungry).expect("artifact replays");
            let digest = format!("{:#x}", state_digest(engine.state(), engine.health()));
            let label = file.trim_end_matches(".jsonl");
            assert!(
                json.contains(&format!("\"label\":\"{label}\",\"digest\":\"{digest}\"")),
                "{file}: replay digest {digest} drifted from the report"
            );
        }
    }

    #[test]
    fn baseline_gate_compares_deterministic_fields_exactly() {
        let file = |quick: bool, states: u32, rate: f64, digest: &str| {
            format!(
                concat!(
                    "{{\n  \"quick\": {},\n  \"throughput\": [\n",
                    "    {{\"case\":\"mca-paper-line(n=3)\",\"states\":{},",
                    "\"bfs_states_per_sec\":{:.1},\"ratio\":0.9,\"certified\":true}}\n  ],\n",
                    "  \"fuzz\": [\n    {{\"target\":\"greedy-planted\",\"scenarios\":40,",
                    "\"findings\":2,\"shrunk\":1,\"elapsed_sec\":0.1}}\n  ],\n",
                    "  \"shrunk\": [\n    {{\"label\":\"fuzz-greedy-7\",\"digest\":\"{}\",",
                    "\"fault_events\":0,\"schedule_moves\":4,\"processes\":3,",
                    "\"locally_minimal\":true}}\n  ]\n}}\n"
                ),
                quick, states, rate, digest
            )
        };
        let base = file(false, 120, 1000.0, "0xab");
        // Timing fields may move; the gate passes and shows every row.
        let ok = check_against_baseline(&file(false, 120, 5.0, "0xab"), &base);
        assert!(ok.failures.is_empty(), "{:?}", ok.failures);
        assert_eq!(ok.tables[0].len(), 3);
        // A changed state count or digest fails, naming the field.
        let bad = check_against_baseline(&file(false, 121, 1000.0, "0xac"), &base);
        assert_eq!(bad.failures.len(), 2, "{:?}", bad.failures);
        assert!(bad.failures[0].contains("states 121 != baseline 120"));
        assert!(bad.failures[1].contains("digest \"0xac\" != baseline \"0xab\""));
        // A different scale skips, saying why.
        let skipped = check_against_baseline(&file(true, 7, 1.0, "0x1"), &base);
        assert!(skipped.failures.is_empty());
        assert!(skipped.tables[0]
            .render()
            .contains("skipped (baseline quick=false, run quick=true)"));
        // The committed baseline passes against itself.
        let committed = include_str!("../../../../BENCH_liveness.json");
        assert!(check_against_baseline(committed, committed)
            .failures
            .is_empty());
    }

    #[test]
    fn mca_scenario_generation_is_deterministic_per_seed() {
        let scale = CampaignScale {
            budget: Duration::from_secs(1),
            max_scenarios: 1,
            prefix: (20, 60),
            settle: 100,
            window: 100,
            shrink_cap: 0,
        };
        let a = gen_mca_scenario(42, &scale);
        let b = gen_mca_scenario(42, &scale);
        assert_eq!(a.repro.topo, b.repro.topo);
        assert_eq!(a.repro.schedule, b.repro.schedule);
        assert_eq!(a.repro.faults.events(), b.repro.faults.events());
        assert_eq!(a.judge_from, b.judge_from);
        let c = gen_mca_scenario(43, &scale);
        assert!(
            a.repro.schedule != c.repro.schedule || a.repro.topo != c.repro.topo,
            "different seeds must differ somewhere"
        );
    }
}
