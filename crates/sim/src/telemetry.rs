//! Zero-cost-when-disabled metrics.
//!
//! The paper's two headline guarantees — stabilization to `I` and crash
//! failure locality 2 — are pass/fail properties, but *how* a run
//! converges (which actions fired, how long hungry processes waited) is
//! invisible without instrumentation. This module provides a **metrics
//! registry**: named counters, gauges and fixed-bucket histograms
//! addressed by integer handles so the hot path never does a string
//! lookup.
//!
//! [`Telemetry`] is an engine [`StepObserver`]: attached with
//! `EngineBuilder::observe`, it registers the engine's metric handles
//! once when the engine is built and maps each [`StepEvent`] to counter
//! and histogram updates; the events themselves are kept, when wanted,
//! by the [`Trace`](crate::trace::Trace). It never touches the engine's
//! RNG, scheduler or state, so attaching it cannot perturb a run; T11
//! measures what it costs when attached. The online monitor
//! (`diners_mp::monitor`) keeps its alerts in a list of its own and
//! counts them in a [`MetricsRegistry`].

use crate::algorithm::DinerAlgorithm;
use crate::graph::ProcessId;
use crate::observe::{EventKind, StepEvent, StepObserver};
use crate::predicate::Snapshot;

/// A verdict raised by the online monitor (`diners_mp::monitor`) about
/// one assembled global cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertKind {
    /// Two neighboring live processes were both eating in one
    /// consistent cut: the paper's safety property failed.
    NeighborsEating {
        /// One endpoint of the violated edge.
        a: ProcessId,
        /// The other endpoint.
        b: ProcessId,
    },
    /// An assembled cut failed the vector-clock consistency check — the
    /// snapshot protocol itself misbehaved.
    InconsistentCut,
    /// The process has been continuously hungry for `waited` net steps,
    /// beyond the configured service-level threshold.
    SloBreach {
        /// Continuous hunger observed so far, in net steps.
        waited: u64,
    },
    /// An SLO breach fired at a node `distance` > the locality radius
    /// from every dead node — the failure-locality guarantee failed.
    LocalityBreach {
        /// Conflict-graph distance to the nearest dead node.
        distance: u32,
    },
}

impl AlertKind {
    /// Stable lowercase label for alert summaries.
    pub fn label(self) -> &'static str {
        match self {
            AlertKind::NeighborsEating { .. } => "neighbors-eating",
            AlertKind::InconsistentCut => "inconsistent-cut",
            AlertKind::SloBreach { .. } => "slo-breach",
            AlertKind::LocalityBreach { .. } => "locality-breach",
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Handle to a registered counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Fixed-bucket histogram: `bounds[i]` is the inclusive upper edge of
/// bucket `i`; one overflow bucket catches the rest. Tracks count, sum,
/// min and max exactly regardless of bucketing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Power-of-two buckets up to 2^20: good default for step-valued
    /// latencies (hungry→eat, convergence times).
    pub fn pow2() -> Self {
        Self::with_bounds((0..=20).map(|i| 1u64 << i).collect())
    }

    /// Custom inclusive upper bucket edges (must be strictly increasing).
    pub fn with_bounds(bounds: Vec<u64>) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        let n = bounds.len();
        Histogram {
            bounds,
            counts: vec![0; n + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Upper bucket edge below which at least fraction `q` (0..=1) of
    /// observations fall — bucket-resolution quantile. Returns the exact
    /// max for the overflow bucket, `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 || q.is_nan() {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return Some(if i < self.bounds.len() {
                    self.bounds[i].min(self.max)
                } else {
                    self.max
                });
            }
        }
        Some(self.max)
    }

    /// The inclusive upper bucket edges this histogram was built with.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Fold `other` into `self`. Both histograms must share identical
    /// bucket bounds; the result is exactly the histogram that would
    /// have recorded both observation streams, so shard-per-node
    /// histograms can be aggregated into a cluster-wide view without
    /// losing count/sum/min/max fidelity.
    ///
    /// # Panics
    /// If the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "histogram merge requires identical bucket bounds"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Named counters, gauges and histograms behind integer handles: the hot
/// path pays one bounds-checked index + add, never a string lookup.
/// Registration is idempotent per name.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Add `delta` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0].1 += delta;
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Current counter value (`None` if the name was never registered).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Register (or look up) a gauge by name.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _)| n == name) {
            return GaugeId(i);
        }
        self.gauges.push((name.to_string(), 0.0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Set a gauge to `value`.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].1 = value;
    }

    /// Current gauge value (`None` if the name was never registered).
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Register (or look up) a histogram with power-of-two buckets.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|(n, _)| n == name) {
            return HistogramId(i);
        }
        self.histograms.push((name.to_string(), Histogram::pow2()));
        HistogramId(self.histograms.len() - 1)
    }

    /// Record one observation into a histogram.
    #[inline]
    pub fn record(&mut self, id: HistogramId, value: u64) {
        self.histograms[id.0].1.record(value);
    }

    /// A registered histogram by name.
    pub fn histogram_value(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// All counters in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// All histograms in registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// Render the whole registry in the Prometheus text exposition
    /// format: one `# TYPE` header per metric family, dotted names
    /// mapped to underscores, histograms as cumulative
    /// `_bucket{le="..."}` series plus `_sum` and `_count`.
    ///
    /// Registry names may carry a label block in the conventional
    /// `base{key="value",...}` form; series sharing a base render under
    /// one `# TYPE` header with their labels preserved (keys sanitized,
    /// values escaped). Base names are sanitized to the exposition
    /// grammar: invalid characters become `_` and a leading digit is
    /// prefixed with `_`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: Vec<String> = Vec::new();
        let header = |out: &mut String, typed: &mut Vec<String>, base: &str, ty: &str| {
            if !typed.iter().any(|b| b == base) {
                out.push_str(&format!("# TYPE {base} {ty}\n"));
                typed.push(base.to_string());
            }
        };
        for (name, v) in &self.counters {
            let (base, labels) = prom_series_name(name);
            header(&mut out, &mut typed, &base, "counter");
            out.push_str(&format!("{base}{labels} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let (base, labels) = prom_series_name(name);
            header(&mut out, &mut typed, &base, "gauge");
            out.push_str(&format!("{base}{labels} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let (base, labels) = prom_series_name(name);
            header(&mut out, &mut typed, &base, "histogram");
            let with_le = |le: &str| {
                if labels.is_empty() {
                    format!("{{le=\"{le}\"}}")
                } else {
                    format!("{},le=\"{le}\"}}", &labels[..labels.len() - 1])
                }
            };
            let mut cumulative = 0u64;
            for (i, &c) in h.counts.iter().enumerate() {
                cumulative += c;
                let le = if i < h.bounds.len() {
                    h.bounds[i].to_string()
                } else {
                    "+Inf".to_string()
                };
                out.push_str(&format!("{base}_bucket{} {cumulative}\n", with_le(&le)));
            }
            out.push_str(&format!(
                "{base}_sum{labels} {}\n{base}_count{labels} {}\n",
                h.sum, h.count
            ));
        }
        out
    }
}

/// Escape a free-form string for embedding inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Sanitize a metric (or label-key) base name to the Prometheus
/// exposition grammar `[a-zA-Z_:][a-zA-Z0-9_:]*`: every invalid
/// character becomes `_`, a leading digit gets a `_` prefix, and the
/// empty string becomes `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Split a registry name into its sanitized exposition base and a
/// rendered label block (`{k="v",...}`, or empty). Names without a
/// well-formed trailing `{...}` block are treated as plain (fully
/// sanitized) base names. Label values must not contain commas; quotes
/// and backslashes in values are escaped per the exposition format.
fn prom_series_name(name: &str) -> (String, String) {
    if let Some((base, rest)) = name.split_once('{') {
        if let Some(inner) = rest.strip_suffix('}') {
            if !rest[..rest.len() - 1].contains(['{', '}']) {
                return (sanitize_metric_name(base), render_label_block(inner));
            }
        }
    }
    (sanitize_metric_name(name), String::new())
}

fn render_label_block(inner: &str) -> String {
    let mut pairs: Vec<String> = Vec::new();
    for piece in inner.split(',') {
        let piece = piece.trim();
        if piece.is_empty() {
            continue;
        }
        let (key, value) = piece.split_once('=').unwrap_or((piece, ""));
        let value = value.trim().trim_matches('"');
        let mut escaped = String::with_capacity(value.len());
        for c in value.chars() {
            match c {
                '\\' => escaped.push_str("\\\\"),
                '"' => escaped.push_str("\\\""),
                '\n' => escaped.push_str("\\n"),
                c => escaped.push(c),
            }
        }
        // Label keys share the metric-name grammar minus ':'.
        let key = sanitize_metric_name(key.trim()).replace(':', "_");
        pairs.push(format!("{key}=\"{escaped}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

// ---------------------------------------------------------------------------
// Façade
// ---------------------------------------------------------------------------

/// The metrics an engine carries: a registry plus the handles its events
/// update. Construct, attach via `EngineBuilder::observe`, and read back
/// with `Engine::observer::<Telemetry>()` after the run.
#[derive(Debug, Default)]
pub struct Telemetry {
    registry: MetricsRegistry,
    /// Engine metric handles, registered when an engine is built with
    /// this telemetry attached.
    engine: Option<EngineHandles>,
}

/// The metric handles the engine's events update, registered once at
/// build time so each event pays an index, not a lookup.
#[derive(Debug)]
struct EngineHandles {
    /// Fire counter per action kind (indexed like `Algorithm::kinds`).
    action_fires: Vec<CounterId>,
    malicious_steps: CounterId,
    faults: CounterId,
    restarts: CounterId,
    phase_changes: CounterId,
    /// Writes rejected by the runtime contract check (non-neighbor edge
    /// or malicious write outside the capability).
    write_violations: CounterId,
    /// Steps spent hungry before each transition into `Eating`.
    hungry_to_eat: HistogramId,
}

impl Telemetry {
    /// An empty registry; the engine registers its metrics at build.
    pub fn new() -> Self {
        Self::default()
    }

    /// The metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Mutable access to the metrics registry.
    pub fn registry_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }
}

impl<A: DinerAlgorithm> StepObserver<A> for Telemetry {
    fn on_build(&mut self, alg: &A, _view: &Snapshot<'_, A>) {
        let reg = &mut self.registry;
        self.engine = Some(EngineHandles {
            action_fires: alg
                .kinds()
                .iter()
                .map(|k| reg.counter(&format!("engine.action.{}", k.name)))
                .collect(),
            malicious_steps: reg.counter("engine.malicious_steps"),
            faults: reg.counter("engine.faults"),
            restarts: reg.counter("engine.restarts"),
            phase_changes: reg.counter("engine.phase_changes"),
            write_violations: reg.counter("engine.write_violations"),
            hungry_to_eat: reg.histogram("engine.hungry_to_eat_steps"),
        });
    }

    fn on_event(&mut self, ev: &StepEvent, _view: &Snapshot<'_, A>) {
        let Telemetry {
            registry,
            engine: Some(h),
        } = self
        else {
            return;
        };
        match ev.kind {
            EventKind::Action { kind, .. } => registry.inc(h.action_fires[kind]),
            EventKind::MaliciousStep => registry.inc(h.malicious_steps),
            EventKind::Fault(_) => {
                registry.inc(h.faults);
                if ev.revived {
                    registry.inc(h.restarts);
                }
            }
        }
        registry.add(h.write_violations, ev.rejected_writes);
        // Phase changes are counted for moves only: a fault's effect on
        // the phase is the fault event itself.
        if !ev.kind.is_fault() && ev.phase_before != ev.phase_after {
            registry.inc(h.phase_changes);
            if let Some(waited) = ev.waited {
                registry.record(h.hungry_to_eat, waited);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_counters_track_restarts_and_write_violations() {
        use crate::engine::Engine;
        use crate::fault::FaultPlan;
        use crate::graph::Topology;
        use crate::scheduler::RandomScheduler;
        use crate::toy::ToyDiners;

        let counter = |e: &Engine<ToyDiners>, name: &str| {
            e.observer::<Telemetry>()
                .and_then(|t| t.registry().counter_value(name))
        };
        let mut e = Engine::builder(ToyDiners, Topology::line(4))
            .faults(FaultPlan::new().crash(10, 0).restart_fresh(100, 0))
            .observe(Telemetry::new())
            .build();
        e.run(2_000);
        assert_eq!(counter(&e, "engine.restarts"), Some(1));

        let mut e = Engine::builder(ToyDiners, Topology::ring(5))
            .scheduler(RandomScheduler::new(7))
            .faults(FaultPlan::new().malicious_crash(10, 2, 3))
            .observe(Telemetry::new())
            .seed(7)
            .build();
        e.run(500);
        assert_eq!(counter(&e, "engine.write_violations"), Some(0));
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::with_bounds(vec![1, 4, 16]);
        for v in [0, 1, 2, 5, 20, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean() - 128.0 / 6.0).abs() < 1e-9);
        assert_eq!(h.quantile(0.5), Some(4));
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(Histogram::pow2().quantile(0.5), None);
    }

    #[test]
    fn registry_handles_are_stable_and_idempotent() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("engine.actions");
        let b = reg.counter("engine.faults");
        assert_eq!(reg.counter("engine.actions"), a);
        reg.inc(a);
        reg.add(a, 2);
        reg.inc(b);
        assert_eq!(reg.counter_value("engine.actions"), Some(3));
        assert_eq!(reg.counter_value("engine.faults"), Some(1));
        assert_eq!(reg.counter_value("nope"), None);

        let g = reg.gauge("explore.peak_frontier");
        reg.set(g, 1.5);
        assert_eq!(reg.gauge_value("explore.peak_frontier"), Some(1.5));

        let h = reg.histogram("latency");
        reg.record(h, 3);
        reg.record(h, 900);
        assert_eq!(reg.histogram_value("latency").unwrap().count(), 2);
    }

    #[test]
    fn histogram_quantile_edge_cases() {
        // Empty histogram: every quantile is None.
        let empty = Histogram::with_bounds(vec![10, 20]);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(empty.quantile(q), None);
        }

        // Single observation, single finite bucket.
        let mut single = Histogram::with_bounds(vec![10]);
        single.record(7);
        assert_eq!(
            single.quantile(0.0),
            Some(7),
            "q=0 clamps to the min-holding bucket"
        );
        assert_eq!(single.quantile(0.5), Some(7));
        assert_eq!(single.quantile(1.0), Some(7));

        // q=0.0 still needs at least one observation (target.max(1)).
        let mut h = Histogram::with_bounds(vec![1, 4, 16]);
        for v in [0, 2, 5, 40] {
            h.record(v);
        }
        assert_eq!(
            h.quantile(0.0),
            Some(1),
            "q=0 lands in the first non-empty bucket"
        );
        assert_eq!(h.quantile(1.0), Some(40), "q=1 reports the exact max");
        // Out-of-range q is clamped, not an error.
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));

        // Custom bounds: bucket-edge resolution, capped by the max.
        let mut c = Histogram::with_bounds(vec![100]);
        c.record(3);
        c.record(4);
        assert_eq!(c.quantile(0.5), Some(4), "edge reported no higher than max");

        // Overflow-bucket-only data.
        let mut o = Histogram::with_bounds(vec![1]);
        o.record(50);
        assert_eq!(o.quantile(0.5), Some(50));
        assert_eq!(o.quantile(1.0), Some(50));
    }

    #[test]
    fn histogram_merge_equals_single_stream() {
        // Deterministic structured sweep: merging shard histograms must
        // be indistinguishable from one histogram that saw every value.
        let streams: [&[u64]; 3] = [&[0, 1, 2, 5], &[20, 100, 3], &[]];
        let mut whole = Histogram::with_bounds(vec![1, 4, 16]);
        let mut folded = Histogram::with_bounds(vec![1, 4, 16]);
        for s in streams {
            let mut shard = Histogram::with_bounds(vec![1, 4, 16]);
            for &v in s {
                shard.record(v);
                whole.record(v);
            }
            folded.merge(&shard);
        }
        assert_eq!(folded, whole);
        // Merging an empty histogram is the identity.
        let before = folded.clone();
        folded.merge(&Histogram::with_bounds(vec![1, 4, 16]));
        assert_eq!(folded, before);
    }

    #[test]
    #[should_panic(expected = "identical bucket bounds")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = Histogram::with_bounds(vec![1, 2]);
        a.merge(&Histogram::with_bounds(vec![1, 3]));
    }

    #[test]
    fn merged_quantiles_bound_per_shard_quantiles() {
        // Property: for every quantile q, the merged histogram's
        // bucket-resolution quantile lies within [min, max] of the
        // per-shard quantiles (empty shards excluded). Structured sweep
        // over shard shapes with very different spreads.
        let shards: [Vec<u64>; 4] = [
            (0..40).collect(),
            (0..10).map(|i| i * 97).collect(),
            vec![7; 25],
            (0..60).map(|i| 1 << (i % 12)).collect(),
        ];
        let mut hists: Vec<Histogram> = Vec::new();
        let mut merged = Histogram::pow2();
        for s in &shards {
            let mut h = Histogram::pow2();
            for &v in s {
                h.record(v);
            }
            merged.merge(&h);
            hists.push(h);
        }
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let per: Vec<u64> = hists.iter().filter_map(|h| h.quantile(q)).collect();
            let lo = *per.iter().min().unwrap();
            let hi = *per.iter().max().unwrap();
            let m = merged.quantile(q).unwrap();
            assert!(
                (lo..=hi).contains(&m),
                "q={q}: merged {m} outside shard envelope [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn hostile_metric_names_are_escaped_and_sanitized() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("9 bad \"name\"\\");
        reg.inc(c);
        let g = reg.gauge("wei rd{node=\"a\\b\"}");
        reg.set(g, 1.0);
        let h = reg.histogram("2tail{q=\"p\"99\"}");
        reg.record(h, 1);

        // JSON: quotes and backslashes in names cannot break a document
        // that embeds them escaped — still balanced, and every raw quote
        // is escaped.
        let names = [
            "9 bad \"name\"\\",
            "wei rd{node=\"a\\b\"}",
            "2tail{q=\"p\"99\"}",
        ];
        let fields: Vec<String> = names
            .iter()
            .map(|n| format!("\"{}\":1", json_escape(n)))
            .collect();
        let json = format!("{{{}}}", fields.join(","));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("9 bad \\\"name\\\"\\\\"), "{json}");
        let mut prev = ' ';
        let mut in_str = false;
        let mut depth = 0i32;
        for ch in json.chars() {
            match ch {
                '"' if prev != '\\' => in_str = !in_str,
                '{' if !in_str => depth += 1,
                '}' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "{json}");
            prev = if prev == '\\' && ch == '\\' { ' ' } else { ch };
        }
        assert!(!in_str && depth == 0, "unbalanced JSON: {json}");

        // Exposition: every series line's metric id matches the grammar
        // [a-zA-Z_:][a-zA-Z0-9_:]* and leading digits got a prefix.
        let text = reg.to_prometheus();
        assert!(text.contains("_9_bad__name__ 1\n"), "{text}");
        assert!(text.contains("wei_rd{node=\"a\\\\b\"} 1\n"), "{text}");
        assert!(text.contains("# TYPE _2tail histogram\n"), "{text}");
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let id: String = line.chars().take_while(|&c| c != '{' && c != ' ').collect();
            assert!(
                id.chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':'),
                "bad leading char in {line:?}"
            );
            assert!(
                id.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad char in series id of {line:?}"
            );
        }
    }

    #[test]
    fn labeled_series_share_one_type_header() {
        let mut reg = MetricsRegistry::new();
        for node in 0..3 {
            let h = reg.histogram(&format!("mp.wait{{node=\"{node}\"}}"));
            reg.record(h, node);
        }
        let text = reg.to_prometheus();
        assert_eq!(
            text.matches("# TYPE mp_wait histogram").count(),
            1,
            "{text}"
        );
        for node in 0..3 {
            assert!(
                text.contains(&format!("mp_wait_bucket{{node=\"{node}\",le=\"8\"}} 1\n")),
                "{text}"
            );
            assert!(
                text.contains(&format!("mp_wait_sum{{node=\"{node}\"}} {node}\n")),
                "{text}"
            );
            assert!(
                text.contains(&format!("mp_wait_count{{node=\"{node}\"}} 1\n")),
                "{text}"
            );
        }
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("engine.action.enter");
        reg.add(c, 5);
        let g = reg.gauge("explore.peak_frontier");
        reg.set(g, 2.5);
        let h = reg.histogram("wait.steps");
        for v in [0, 2, 9] {
            reg.record(h, v);
        }
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE engine_action_enter counter\nengine_action_enter 5\n"));
        assert!(text.contains("# TYPE explore_peak_frontier gauge\nexplore_peak_frontier 2.5\n"));
        // Histogram buckets are cumulative and end at +Inf = count.
        assert!(text.contains("wait_steps_bucket{le=\"1\"} 1\n"), "{text}");
        assert!(text.contains("wait_steps_bucket{le=\"4\"} 2\n"), "{text}");
        assert!(
            text.contains("wait_steps_bucket{le=\"+Inf\"} 3\n"),
            "{text}"
        );
        assert!(text.contains("wait_steps_sum 11\n"));
        assert!(text.contains("wait_steps_count 3\n"));
        // No dotted names survive.
        assert!(!text.contains("engine.action"), "{text}");
    }
}
