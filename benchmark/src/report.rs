//! Metric definitions, the result of one workload run, and how both are
//! printed: human-readable lines first, then one JSON object as the last
//! line of standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{Better, Bound};

/// What a metric is for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// Seen by a user of every program; printed in the result line of an
    /// untraced run and compared against a baseline with its bound.
    EndToEnd(Bound),
    /// Cost or count of one layer; printed in the result line of a
    /// traced run.
    Layer,
    /// Printed for the workloads it applies to, never in the result line.
    Info,
}

/// One metric's name, unit, direction and kind.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// What the metric is for.
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, rel: f64, floor: f64) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::EndToEnd(Bound { rel, floor }),
    }
}

const fn info(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::Info,
    }
}

/// A layer metric where less is better (a cost, or wasted work).
const fn cost(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::Layer,
    }
}

/// A layer metric where more is better (a rate, or useful work).
const fn gain(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
        kind: Kind::Layer,
    }
}

/// Every metric the benchmark prints. The end-to-end ones are the ones
/// every workload has; the lock-service numbers (meals, grant latency,
/// missed limits) exist only where processes eat, so they are info lines
/// here and `service.*` layer metrics in the traced run.
pub const DEFS: &[Def] = &[
    e2e("setup_s", "s", Better::Lower, 0.25, 0.05),
    e2e("steps_per_s", "1/s", Better::Higher, 0.25, 0.0),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15, 8.0),
    info("states_per_s", "1/s", Better::Higher),
    info("meals_per_s", "1/s", Better::Higher),
    info("grant_latency_p50_steps", "steps", Better::Lower),
    info("grant_latency_p99_steps", "steps", Better::Lower),
    info("failed_share", "share", Better::Lower),
    cost("graph.build_s", "s"),
    cost("graph.rss_mb", "MB"),
    cost("engine.build_s", "s"),
    cost("scheduler.pick_ns", "ns"),
    cost("scheduler.enabled_len", "count"),
    cost("engine.step_ns", "ns"),
    cost("engine.self_ns", "ns"),
    cost("workload.needs_calls", "count"),
    cost("workload.needs_flips", "count"),
    cost("workload.needs_ns", "ns"),
    cost("mca.guard_ns", "ns"),
    cost("mca.execute_ns", "ns"),
    cost("fault.events", "count"),
    cost("engine.write_violations", "count"),
    cost("engine.quiescent_share", "share"),
    cost("codec.encode_ns", "ns"),
    cost("codec.decode_ns", "ns"),
    cost("fingerprint.words_ns", "ns"),
    gain("explore.states_per_s", "1/s"),
    cost("explore.bytes_per_state", "B"),
    cost("explore.dedup_rate", "share"),
    cost("explore.transitions_per_state", "count"),
    cost("explore.peak_frontier", "count"),
    cost("explore.layers", "count"),
    cost("explore.safety_ns", "ns"),
    cost("explore.search_s", "s"),
    cost("explore.unattributed_share", "share"),
    cost("symmetry.canonicalize_ns", "ns"),
    gain("symmetry.group_order", "count"),
    cost("simnet.step_ns", "ns"),
    cost("adversary.apply_ns", "ns"),
    cost("adversary.sent_per_meal", "count"),
    cost("adversary.dropped_per_meal", "count"),
    cost("adversary.duplicated_per_meal", "count"),
    cost("simnet.shed_per_meal", "count"),
    cost("node.retransmit_share", "share"),
    cost("node.resyncs", "count"),
    cost("monitor.cost_pct", "%"),
    gain("monitor.cuts", "count"),
    cost("monitor.aborts", "count"),
    cost("monitor.hard_alerts", "count"),
    cost("supervisor.cost_pct", "%"),
    cost("supervisor.restarts", "count"),
    cost("supervisor.giveups", "count"),
    gain("service.meals_per_s", "1/s"),
    cost("service.grant_p50_steps", "steps"),
    cost("service.grant_p99_steps", "steps"),
    gain("service.grants", "count"),
    cost("service.failed_share", "share"),
    cost("trace.overhead_pct", "%"),
];

/// The definition of metric `name`.
///
/// # Panics
///
/// Panics on a name missing from [`DEFS`] (a bug in this benchmark).
pub fn def(name: &str) -> &'static Def {
    DEFS.iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not defined"))
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    values: BTreeMap<&'static str, (f64, String)>,
    /// Deterministic counts: equal for equal seeds, traced or not.
    pub counts: Vec<(&'static str, u64)>,
    /// Correctness checks, by description.
    pub checks: Vec<(String, bool)>,
    /// Operations attempted (hunger episodes, or searches).
    pub attempted: u64,
    /// Attempted operations that failed (missed the limit, or a search
    /// whose checks failed).
    pub failed: u64,
}

impl Outcome {
    /// Record metric `name` with a note on how it was measured.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        let _ = def(name);
        self.values.insert(name, (value, note.into()));
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// Record a deterministic count.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.counts.push((name, value));
    }

    /// Record a correctness check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The human-readable lines: metrics with units and notes, counts and
    /// checks.
    pub fn human(&self) -> String {
        let mut s = String::new();
        for d in DEFS {
            if let Some((v, note)) = self.values.get(d.name) {
                let _ = writeln!(s, "metric {} = {} {}  # {note}", d.name, fmt(*v), d.unit);
            }
        }
        for (name, v) in &self.counts {
            let _ = writeln!(s, "count {name}={v}");
        }
        for (what, ok) in &self.checks {
            let _ = writeln!(s, "check {}: {what}", if *ok { "ok" } else { "FAILED" });
        }
        s
    }

    /// The result line: every end-to-end metric (untraced) or every layer
    /// metric (traced). Layer metrics a workload does not exercise read 0.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was not recorded.
    pub fn result_line(&self, traced: bool) -> String {
        let mut metrics = String::new();
        for d in DEFS {
            let value = match d.kind {
                Kind::EndToEnd(..) if !traced => self
                    .get(d.name)
                    .unwrap_or_else(|| panic!("end-to-end metric {} missing", d.name)),
                Kind::Layer if traced => self.get(d.name).unwrap_or(0.0),
                _ => continue,
            };
            let sep = if metrics.is_empty() { "" } else { "," };
            let _ = write!(
                metrics,
                "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                d.name,
                json_num(value),
                d.unit
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A value for the human lines: plain below a million, scientific above.
fn fmt(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e7 || v.abs() < 1e-4) {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}

/// A JSON number with every digit of the measurement (non-finite values,
/// which a run should never produce, read as 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Parse the `metrics` of a result line printed by [`Outcome::result_line`]
/// into `(name, value)` pairs. Only that exact shape is understood.
pub fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let Some(start) = line.find("\"metrics\":{") else {
        return out;
    };
    let mut rest = &line[start + 11..];
    while let Some(q) = rest.find('"') {
        let after = &rest[q + 1..];
        let Some(end) = after.find('"') else { break };
        let name = &after[..end];
        let body = &after[end..];
        let Some(v) = body.find("\"value\":") else {
            break;
        };
        let num = &body[v + 8..];
        let stop = num.find([',', '}']).unwrap_or(num.len());
        if let Ok(value) = num[..stop].parse() {
            out.push((name.to_string(), value));
        }
        let Some(close) = body.find('}') else { break };
        rest = &body[close + 1..];
    }
    out
}

/// Peak and current resident set of this process in MB, from
/// `/proc/self/status` (`VmHWM`, `VmRSS`); zeros where unavailable.
pub fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}

/// The checked-out git revision, read from `.git` in the working
/// directory, or `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host parallelism, recorded with every result.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_units_well_formed() {
        for (i, d) in DEFS.iter().enumerate() {
            assert!(DEFS[..i].iter().all(|e| e.name != d.name), "{}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            if let Kind::EndToEnd(b) = d.kind {
                assert!(b.rel > 0.0 && b.rel <= 0.25, "{}", d.name);
            }
        }
    }

    /// The entries of one array of `BENCHMARK.json`, one object a line.
    pub(crate) fn benchmark_json(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        json.lines()
            .skip_while(|l| !l.trim_start().starts_with(&format!("\"{section}\": [")))
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with(']'))
            .map(str::to_string)
            .collect()
    }

    fn field<'a>(line: &'a str, key: &str) -> &'a str {
        let at = line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
        let rest = line[at..].trim_start_matches('"');
        &rest[..rest.find(['"', ',', '}']).expect("field ends")]
    }

    #[test]
    fn benchmark_json_lists_every_metric_as_defined_here() {
        for (section, want) in [("end_to_end", true), ("per_layer", false)] {
            let listed = benchmark_json(section);
            let defs: Vec<&Def> = DEFS
                .iter()
                .filter(|d| match d.kind {
                    Kind::EndToEnd(_) => want,
                    Kind::Layer => !want,
                    Kind::Info => false,
                })
                .collect();
            assert_eq!(listed.len(), defs.len(), "{section}");
            for (line, d) in listed.iter().zip(defs) {
                assert_eq!(field(line, "name"), d.name);
                assert_eq!(field(line, "unit"), d.unit, "{}", d.name);
                let better = match d.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(field(line, "better"), better, "{}", d.name);
                if let Kind::EndToEnd(b) = d.kind {
                    assert_eq!(field(line, "bound").parse::<f64>().unwrap(), b.rel);
                }
            }
        }
    }

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let mut o = Outcome::default();
        o.set("setup_s", 0.125, "x");
        o.set("steps_per_s", 12345.678, "x");
        o.set("peak_rss_mb", 3.5, "x");
        o.set("explore.layers", 7.0, "x");
        o.check("fine", true);
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
        let parsed = parse_metrics(&line);
        assert_eq!(
            parsed,
            vec![
                ("setup_s".to_string(), 0.125),
                ("steps_per_s".to_string(), 12345.678),
                ("peak_rss_mb".to_string(), 3.5),
            ]
        );
        let traced = parse_metrics(&o.result_line(true));
        assert!(traced.contains(&("explore.layers".to_string(), 7.0)));
        assert!(traced.contains(&("trace.overhead_pct".to_string(), 0.0)));
        o.check("broken", false);
        assert!(o.result_line(false).starts_with("{\"correct\":false"));
    }
}
