//! One module per experiment, and the registry the `exp` driver runs
//! them from. Each experiment's `run(&Scale) -> Report` owns its tables,
//! its machine-readable JSON and its acceptance checks; the driver only
//! prints, writes files and turns failures into the exit code. The
//! integration suite re-runs everything at [`crate::common::Scale::quick`].

use std::time::Duration;

use diners_sim::graph::Topology;
use diners_sim::table::{fmt_f64, Table};

use crate::common::Scale;
use crate::timing::{self, slice_rate, Timed};

pub mod analyze;
pub mod chaos;
pub mod codec;
pub mod cycles;
pub mod daemons;
pub mod fig2;
pub mod fuzz;
pub mod locality;
pub mod malicious;
pub mod masking;
pub mod message_passing;
pub mod monitor;
pub mod perf;
pub mod recovery;
pub mod stabilization;
pub mod telemetry;
pub mod throughput;
pub mod tracing;

/// Everything one experiment run produces.
#[derive(Debug, Default)]
pub struct Report {
    /// Result tables, in print order.
    pub tables: Vec<Table>,
    /// Machine-readable results: the `BENCH_*.json` file name and its
    /// body, a JSON object without the provenance fields (the driver
    /// adds those).
    pub json: Option<(&'static str, String)>,
    /// Extra files to write next to the JSON: `(file name, contents)`.
    pub artifacts: Vec<(String, String)>,
    /// Every acceptance condition that did not hold; empty means the
    /// experiment reproduced its claim.
    pub failures: Vec<String>,
}

impl Report {
    /// A report holding just these tables.
    pub fn of(tables: impl IntoIterator<Item = Table>) -> Self {
        Report {
            tables: tables.into_iter().collect(),
            ..Report::default()
        }
    }

    /// Record `failure` unless `ok`.
    pub fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(failure());
        }
    }
}

/// An interactive tool's entry point; it parses its own arguments.
pub type Tool = fn(&[String]) -> Result<(), String>;

/// One registry entry: an experiment the driver can run by name.
pub struct Experiment {
    /// Driver name (`exp <name>`).
    pub name: &'static str,
    /// Paper claim id from the crate-level table (`FIG2`, `T1`, …).
    pub id: &'static str,
    /// Run at the given scale.
    pub run: fn(&Scale) -> Report,
    /// Baseline gate for `--check`: compares this run's JSON (with
    /// provenance) against the committed file of the same name.
    pub baseline: Option<fn(current: &str, committed: &str) -> Report>,
    /// Interactive tool reached as `exp <name> <sub> …`: its usage text
    /// and entry point.
    pub cli: Option<(&'static str, Tool)>,
}

const fn entry(name: &'static str, id: &'static str, run: fn(&Scale) -> Report) -> Experiment {
    Experiment {
        name,
        id,
        run,
        baseline: None,
        cli: None,
    }
}

/// Every experiment, in claim-id order (`exp all` runs them in this
/// order).
pub const REGISTRY: &[Experiment] = &[
    entry("fig2", "FIG2", fig2::run),
    entry("stabilization", "T1", stabilization::run),
    entry("locality", "T2", locality::run),
    entry("malicious", "T3", malicious::run),
    entry("cycles", "T4", cycles::run),
    entry("throughput", "T5", throughput::run),
    entry("masking", "T6", masking::run),
    entry("message-passing", "T7", message_passing::run),
    entry("daemons", "T8", daemons::run),
    entry("chaos", "T9", chaos::run),
    Experiment {
        baseline: Some(perf::check_against_baseline),
        ..entry("perf", "T10", perf::run)
    },
    entry("telemetry", "T11", telemetry::run),
    Experiment {
        cli: Some((tracing::CLI_USAGE, tracing::cli)),
        ..entry("trace", "T12", tracing::run)
    },
    entry("recovery", "T13", recovery::run),
    entry("codec", "T14", codec::run),
    Experiment {
        baseline: Some(fuzz::check_against_baseline),
        ..entry("fuzz", "T15", fuzz::run)
    },
    Experiment {
        cli: Some((monitor::CLI_USAGE, monitor::cli)),
        ..entry("monitor", "T16", monitor::run)
    },
    entry("analyze", "T17", analyze::run),
];

/// The registry entry called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// Render a JSON object from `(key, raw JSON value)` pairs, one field per
/// line, in the layout every `BENCH_*.json` file shares.
pub(crate) fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

/// Render pre-rendered JSON objects as an array, one object per line.
pub(crate) fn json_rows(rows: &[String]) -> String {
    format!("[\n    {}\n  ]", rows.join(",\n    "))
}

/// An overhead section of T11, T12 or T16: `systems` on `topo`, the first
/// of them bare, each advanced `n` steps by `step(system, n)` and timed
/// side by side on long-lived instances over `rounds` rounds of one
/// `slice` each. Returns the table, the JSON rows and each system's
/// summary; a row's cost is its median per-round slowdown against the
/// bare system in percent, with that slowdown's interquartile range in
/// points.
pub(crate) fn overhead<S, R>(
    what: &str,
    topo: &Topology,
    (rounds, slice): (usize, Duration),
    systems: Vec<(String, S)>,
    step: impl Fn(&mut S, u64) -> R,
) -> (Table, String, Vec<Timed>) {
    let (labels, mut systems): (Vec<String>, Vec<S>) = systems.into_iter().unzip();
    let timed = timing::alternate(systems.len(), rounds, |c| {
        slice_rate(slice, |n| step(&mut systems[c], n))
    });
    let mut table = Table::new(
        format!(
            "{what}, {} (median of {rounds} rounds × {slice:?})",
            topo.name()
        ),
        ["config", "steps/sec", "overhead %", "IQR (points)"],
    );
    let mut rows = Vec::new();
    for (label, t) in labels.iter().zip(&timed) {
        let (pct, iqr) = (t.overhead_pct(), t.iqr * 100.0);
        table.row([
            label.clone(),
            fmt_f64(t.rate, 0),
            fmt_f64(pct, 1),
            fmt_f64(iqr, 1),
        ]);
        rows.push(format!(
            concat!(
                "{{\"topology\":\"{}\",\"config\":\"{}\",\"rounds\":{},\"slice_ms\":{},",
                "\"steps_per_sec\":{:.1},\"overhead_pct\":{:.2},\"overhead_iqr\":{:.2}}}"
            ),
            topo.name(),
            label,
            rounds,
            slice.as_millis(),
            t.rate,
            pct,
            iqr,
        ));
    }
    (table, json_rows(&rows), timed)
}

/// Read back `(label, object text)` for every flat JSON object whose
/// `key` holds a string label, as the BENCH layout writes them.
pub(crate) fn json_objects<'a>(json: &'a str, key: &str) -> Vec<(String, &'a str)> {
    let pat = format!("\"{key}\":\"");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find(&pat) {
        let after = &rest[i + pat.len()..];
        let Some(q) = after.find('"') else { break };
        let obj = &after[..after.find('}').unwrap_or(after.len())];
        out.push((after[..q].to_string(), obj));
        rest = &after[q..];
    }
    out
}

/// The first number stored under `key` in `json`.
pub(crate) fn json_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let tail = json[json.find(&pat)? + pat.len()..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Test support: `json` is one balanced object carrying every key.
#[cfg(test)]
pub(crate) fn assert_json_has(json: &str, keys: &[&str]) {
    assert!(
        json.starts_with('{') && json.trim_end().ends_with('}'),
        "{json}"
    );
    let (open, close) = (json.matches('{').count(), json.matches('}').count());
    assert_eq!(open, close, "unbalanced braces:\n{json}");
    for key in keys {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
}

/// The value after `flag` in a tool's argument list.
pub(crate) fn opt(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Reject any `--flag` a tool does not know.
pub(crate) fn known_flags(args: &[String], known: &[&str]) -> Result<(), String> {
    match args
        .iter()
        .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
    {
        Some(a) => Err(format!("unknown flag {a} (expected one of {known:?})")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_match_the_claim_table() {
        for (i, e) in REGISTRY.iter().enumerate() {
            assert!(
                REGISTRY[..i].iter().all(|o| o.name != e.name),
                "duplicate name {}",
                e.name
            );
        }
        // Rows of the crate-level table read `//! | id | claim | `name` | module |`.
        let table: Vec<(String, String)> = include_str!("../lib.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! | "))
            .map(|l| l.split('|').map(str::trim).collect::<Vec<_>>())
            .filter(|cells| cells.len() >= 3 && cells[2].starts_with('`'))
            .map(|cells| (cells[0].to_string(), cells[2].trim_matches('`').to_string()))
            .collect();
        let registry: Vec<(String, String)> = REGISTRY
            .iter()
            .map(|e| (e.id.to_string(), e.name.to_string()))
            .collect();
        assert_eq!(registry, table);
    }

    #[test]
    fn json_helpers_render_the_shared_layout() {
        let body = json_object(&[
            ("n", "3".to_string()),
            ("rows", json_rows(&["{\"a\":1}".into(), "{\"a\":2}".into()])),
        ]);
        assert_eq!(
            body,
            "{\n  \"n\": 3,\n  \"rows\": [\n    {\"a\":1},\n    {\"a\":2}\n  ]\n}\n"
        );
    }
}
