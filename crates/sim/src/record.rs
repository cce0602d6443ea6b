//! Flight recorder and deterministic replay.
//!
//! A [`FlightRecorder`] attached to an [`Engine`] (via
//! `EngineBuilder::observe`) captures *everything an engine run
//! consumes from outside the algorithm*: the scheduler's pick at every
//! step (including quiescent steps), every fault injection, and the
//! workload's `needs()` bit at each fire — plus periodic state-digest
//! checkpoints. Together with the build inputs recorded in the header
//! (topology, seed, fault plan), that is sufficient
//! for bit-identical re-execution: replay constructs a *real* engine
//! over the same inputs and drives it with a [`ReplayScheduler`] that
//! follows the recorded picks, so the RNG stream, metrics, traces and
//! telemetry all reproduce by construction rather than by re-emission.
//!
//! # Recording format (version 2)
//!
//! One JSON object per line ([`Recording::to_jsonl`] /
//! [`Recording::parse`]); the first non-empty line is the header:
//!
//! ```text
//! {"v":2,"kind":"header","algorithm":"toy","scheduler":"random", ...}
//! {"kind":"move","step":0,"pid":4,"k":2,"slot":1,"needs":true}
//! {"kind":"malicious","step":1,"pid":3}
//! {"kind":"quiescent","step":2}
//! {"kind":"fault","step":3,"pid":3,"fault":"crash"}
//! {"kind":"fault","step":9,"pid":3,"fault":"restart(snapshot:4)"}
//! {"kind":"checkpoint","step":256,"digest":1234567890}
//! ```
//!
//! Lines are sorted by step (faults for step *s* precede the decision of
//! step *s*; a checkpoint at *s* digests the state after *s* steps).
//! Versioning policy: `"v"` is bumped on any change that alters how an
//! existing field is interpreted; parsers reject unknown versions and
//! unknown line kinds, but ignore unknown *fields* so additive growth is
//! backwards-compatible.
//!
//! The header's `"mode"` key is always written as `"incremental"`: the
//! engine has one step path. The parser still requires the key and
//! accepts `"naive"` too, from recordings made while the from-scratch
//! path was selectable — both paths fired the same moves, so such a
//! recording replays verified; any other value is rejected.
//!
//! Version 2 adds restart fault kinds (`restart(fresh)`,
//! `restart(snapshot:AGE)`, `restart(arbitrary:SEED)`) to the fault plan
//! and fault log. Version 1 recordings still parse and replay
//! bit-identically — they simply cannot carry restart events, and the
//! parser rejects restart kinds under a `"v":1` header.

use std::cell::RefCell;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use crate::algorithm::{DinerAlgorithm, SystemState};
use crate::engine::{Engine, EngineBuilder, StepOutcome};
use crate::fault::{FaultKind, FaultPlan, Health, Resurrection};
use crate::fingerprint::Fx64;
use crate::graph::{ProcessId, Topology};
use crate::observe::{EventKind, StepEvent, StepObserver};
use crate::predicate::Snapshot;
use crate::scheduler::{EnabledMove, Scheduler};
use crate::trace::Trace;
use crate::workload::Workload;

/// The recording format version this build writes (see module docs for
/// the versioning policy).
pub const FORMAT_VERSION: u32 = 2;

/// The oldest format version the parser still accepts.
pub const MIN_FORMAT_VERSION: u32 = 1;

/// What the scheduler decided at one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepDecision {
    /// Nothing was enabled; the step advanced time only.
    Quiescent,
    /// A program action fired.
    Move {
        /// The process that moved.
        pid: ProcessId,
        /// Action kind index in the algorithm's `kinds()`.
        kind: usize,
        /// Neighbor slot for per-neighbor actions.
        slot: Option<usize>,
        /// The workload's `needs()` bit the guard evaluation saw.
        needs: bool,
    },
    /// A maliciously crashing process took one arbitrary step.
    Malicious {
        /// The byzantine process.
        pid: ProcessId,
    },
}

/// One fault injection as it actually fired during the run (the plan
/// says what *would* fire; this is what did, after health gating).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordedFault {
    /// Engine step at which the fault struck.
    pub step: u64,
    /// Target process (`p0` for global transients).
    pub target: ProcessId,
    /// What happened.
    pub kind: FaultKind,
}

/// A state-digest checkpoint: the [`state_digest`] of the engine after
/// exactly `step` steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Steps executed when the digest was taken.
    pub step: u64,
    /// [`state_digest`] over locals, edges and health.
    pub digest: u64,
}

/// The engine-side accumulator: per-step decisions, fault firings and
/// digest checkpoints. Attach with `EngineBuilder::observe` (the
/// algorithm's local and edge types must be `Hash`, for the digests);
/// extract a serializable [`Recording`] with [`Engine::recording`].
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    /// Algorithm label written to the recording header.
    label: String,
    /// Checkpoint cadence in steps.
    every: u64,
    decisions: Vec<StepDecision>,
    faults: Vec<RecordedFault>,
    checkpoints: Vec<Checkpoint>,
}

impl FlightRecorder {
    /// An empty recorder checkpointing every 256 steps. `algorithm_label`
    /// names the algorithm in the recording header so replay tooling can
    /// rebuild it.
    pub fn new(algorithm_label: &str) -> Self {
        FlightRecorder {
            label: algorithm_label.to_string(),
            every: 256,
            decisions: Vec::new(),
            faults: Vec::new(),
            checkpoints: Vec::new(),
        }
    }

    /// Checkpoint every `every` steps instead (min 1).
    #[must_use]
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.every = every.max(1);
        self
    }

    fn push_checkpoint<A>(&mut self, step: u64, view: &Snapshot<'_, A>)
    where
        A: DinerAlgorithm,
        A::Local: Hash,
        A::Edge: Hash,
    {
        let digest = state_digest(view.state, view.health);
        self.checkpoints.push(Checkpoint { step, digest });
    }
}

impl<A> StepObserver<A> for FlightRecorder
where
    A: DinerAlgorithm,
    A::Local: Hash,
    A::Edge: Hash,
{
    fn on_build(&mut self, _alg: &A, view: &Snapshot<'_, A>) {
        // Anchor the recording: a digest of the state before step 0, so
        // replay divergence in the initial state is caught immediately.
        self.push_checkpoint(0, view);
    }

    fn on_event(&mut self, ev: &StepEvent, _view: &Snapshot<'_, A>) {
        let pid = ev.pid;
        match ev.kind {
            EventKind::Fault(kind) => self.faults.push(RecordedFault {
                step: ev.step,
                target: pid,
                kind,
            }),
            EventKind::Action { kind, slot, .. } => self.decisions.push(StepDecision::Move {
                pid,
                kind,
                slot,
                needs: ev.needs,
            }),
            EventKind::MaliciousStep => self.decisions.push(StepDecision::Malicious { pid }),
        }
    }

    fn on_step_end(&mut self, steps: u64, outcome: StepOutcome, view: &Snapshot<'_, A>) {
        if outcome == StepOutcome::Quiescent {
            self.decisions.push(StepDecision::Quiescent);
        }
        if steps.is_multiple_of(self.every) {
            self.push_checkpoint(steps, view);
        }
    }
}

impl<A> Engine<A>
where
    A: DinerAlgorithm,
    A::Local: Hash,
    A::Edge: Hash,
{
    /// Snapshot the attached [`FlightRecorder`] into a serializable
    /// [`Recording`] (None if no recorder is attached). A final
    /// checkpoint digesting the current state is appended if the cadence
    /// did not land on it, so replay always verifies the end state.
    pub fn recording(&self) -> Option<Recording> {
        let rec = self.observer::<FlightRecorder>()?;
        let steps = self.step_count();
        let mut checkpoints = rec.checkpoints.clone();
        if checkpoints.last().map(|c| c.step) != Some(steps) {
            checkpoints.push(Checkpoint {
                step: steps,
                digest: state_digest(self.state(), self.health()),
            });
        }
        let topo = self.topology();
        Some(Recording {
            version: FORMAT_VERSION,
            algorithm: rec.label.clone(),
            scheduler: self.scheduler_name().to_string(),
            workload: self.workload_name().to_string(),
            seed: self.seed(),
            topology: topo.clone(),
            edges: topo
                .edges()
                .iter()
                .map(|&(a, b)| (a.index(), b.index()))
                .collect(),
            faults: self.fault_plan().clone(),
            steps,
            decisions: rec.decisions.clone(),
            fault_log: rec.faults.clone(),
            checkpoints,
        })
    }
}

/// Order-independent digest of an engine's replayable state: every local
/// variable, every edge variable, and every health word, folded through
/// [`Fx64`]. Two engines with equal digests at the same step are equal
/// in state with overwhelming probability; the differential suites check
/// full equality, checkpoints catch divergence early and cheaply.
pub fn state_digest<A: DinerAlgorithm>(state: &SystemState<A>, health: &[Health]) -> u64
where
    A::Local: Hash,
    A::Edge: Hash,
{
    let mut h = Fx64::default();
    for l in state.locals() {
        l.hash(&mut h);
    }
    for e in state.edges() {
        e.hash(&mut h);
    }
    for hw in health {
        hw.hash(&mut h);
    }
    h.finish()
}

/// A complete, serializable run recording: the header inputs plus the
/// decision/fault/checkpoint streams. See the module docs for the JSONL
/// layout.
#[derive(Clone, Debug)]
pub struct Recording {
    /// Format version ([`FORMAT_VERSION`] when produced by this build).
    pub version: u32,
    /// Label naming the algorithm (chosen when the [`FlightRecorder`] was
    /// built; replay tooling maps it back to a concrete algorithm value).
    pub algorithm: String,
    /// Scheduler name — informational only: replay substitutes a
    /// [`ReplayScheduler`], so the original scheduler is never rebuilt.
    pub scheduler: String,
    /// Workload name; replay tooling maps it back to a workload value.
    pub workload: String,
    /// Engine seed (drives corruption and malicious writes).
    pub seed: u64,
    /// The recorded topology, named as in the header: the engine's when
    /// recorded, built once from the header's edge list when parsed.
    topology: Topology,
    /// The header's edge list as written, so re-serialization is
    /// byte-stable.
    edges: Vec<(usize, usize)>,
    /// The fault plan the engine was built with.
    pub faults: FaultPlan,
    /// Total steps recorded (equals `decisions.len()`).
    pub steps: u64,
    /// One decision per step.
    pub decisions: Vec<StepDecision>,
    /// Fault firings.
    pub fault_log: Vec<RecordedFault>,
    /// Digest checkpoints (always includes the final state).
    pub checkpoints: Vec<Checkpoint>,
}

/// Recordings are equal when their serialized fields are: the topology
/// is compared by the header's name, size and edge list, which it was
/// built from.
impl PartialEq for Recording {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self, other);
        a.version == b.version
            && a.algorithm == b.algorithm
            && a.scheduler == b.scheduler
            && a.workload == b.workload
            && a.seed == b.seed
            && a.topology.name() == b.topology.name()
            && a.topology.len() == b.topology.len()
            && a.edges == b.edges
            && a.faults == b.faults
            && a.steps == b.steps
            && a.decisions == b.decisions
            && a.fault_log == b.fault_log
            && a.checkpoints == b.checkpoints
    }
}

impl Recording {
    /// The recorded topology. [`Recording::parse`] built and validated it
    /// from the header, which names it.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Serialize to the versioned JSONL format.
    pub fn to_jsonl(&self) -> String {
        let edges: Vec<String> = self
            .edges
            .iter()
            .map(|(a, b)| format!("[{a},{b}]"))
            .collect();
        let dead: Vec<String> = self
            .faults
            .initially_dead_processes()
            .iter()
            .map(|p| p.index().to_string())
            .collect();
        let plan: Vec<String> = self
            .faults
            .events()
            .iter()
            .map(|e| format!("[{},{},\"{}\"]", e.at_step, e.target.index(), e.kind))
            .collect();
        let mut out = format!(
            concat!(
                "{{\"v\":{},\"kind\":\"header\",\"algorithm\":\"{}\",",
                "\"scheduler\":\"{}\",\"workload\":\"{}\",\"mode\":\"incremental\",",
                "\"seed\":{},\"topology\":\"{}\",\"n\":{},\"edges\":[{}],",
                "\"arbitrary_start\":{},\"initially_dead\":[{}],",
                "\"fault_plan\":[{}],\"steps\":{}}}\n"
            ),
            self.version,
            self.algorithm,
            self.scheduler,
            self.workload,
            self.seed,
            self.topology.name(),
            self.topology.len(),
            edges.join(","),
            self.faults.starts_arbitrary(),
            dead.join(","),
            plan.join(","),
            self.steps,
        );
        // Merge the three step-sorted streams: faults at step s, then the
        // decision of step s, then any checkpoint digesting step s+0.
        let mut fi = 0;
        let mut ci = 0;
        let flush_checkpoints = |upto: u64, out: &mut String, ci: &mut usize| {
            while *ci < self.checkpoints.len() && self.checkpoints[*ci].step <= upto {
                let c = self.checkpoints[*ci];
                out.push_str(&format!(
                    "{{\"kind\":\"checkpoint\",\"step\":{},\"digest\":{}}}\n",
                    c.step, c.digest
                ));
                *ci += 1;
            }
        };
        for (step, d) in self.decisions.iter().enumerate() {
            let step = step as u64;
            flush_checkpoints(step, &mut out, &mut ci);
            while fi < self.fault_log.len() && self.fault_log[fi].step <= step {
                let f = self.fault_log[fi];
                out.push_str(&format!(
                    "{{\"kind\":\"fault\",\"step\":{},\"pid\":{},\"fault\":\"{}\"}}\n",
                    f.step,
                    f.target.index(),
                    f.kind
                ));
                fi += 1;
            }
            match *d {
                StepDecision::Quiescent => {
                    out.push_str(&format!("{{\"kind\":\"quiescent\",\"step\":{step}}}\n"));
                }
                StepDecision::Move {
                    pid,
                    kind,
                    slot,
                    needs,
                } => {
                    let slot = match slot {
                        Some(s) => format!(",\"slot\":{s}"),
                        None => String::new(),
                    };
                    out.push_str(&format!(
                        "{{\"kind\":\"move\",\"step\":{step},\"pid\":{},\"k\":{kind}{slot},\"needs\":{needs}}}\n",
                        pid.index()
                    ));
                }
                StepDecision::Malicious { pid } => {
                    out.push_str(&format!(
                        "{{\"kind\":\"malicious\",\"step\":{step},\"pid\":{}}}\n",
                        pid.index()
                    ));
                }
            }
        }
        flush_checkpoints(u64::MAX, &mut out, &mut ci);
        out
    }

    /// Parse a recording back from JSONL.
    ///
    /// # Errors
    ///
    /// Returns a description carrying the 1-based line number of the
    /// first problem: missing or malformed header (including an edge list
    /// that is not a simple connected graph, or a fault target outside
    /// `0..n`), unknown format version, unframed/truncated lines, trailing
    /// garbage, unknown line kinds, missing fields, a fault line whose
    /// target is outside `0..n`, or a non-contiguous decision stream.
    pub fn parse(text: &str) -> Result<Recording, String> {
        let mut rec: Option<Recording> = None;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}", i + 1);
            if !line.starts_with('{') {
                return Err(err("not a JSON object"));
            }
            if !line.ends_with('}') {
                return Err(err(if line.contains('}') {
                    "trailing garbage after object"
                } else {
                    "truncated record"
                }));
            }
            let num = |key: &str| -> Result<u64, String> {
                json_field(line, key)
                    .ok_or_else(|| err(&format!("missing \"{key}\"")))?
                    .parse::<u64>()
                    .map_err(|_| err(&format!("bad \"{key}\"")))
            };
            let kind = json_field(line, "kind").ok_or_else(|| err("missing \"kind\""))?;
            if rec.is_none() {
                if kind != "header" {
                    return Err(err("first record must be the header"));
                }
                let v = num("v")? as u32;
                if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&v) {
                    return Err(err(&format!("unknown format version {v}")));
                }
                rec = Some(parse_header(line, v, &err)?);
                continue;
            }
            let rec = rec.as_mut().expect("header parsed");
            match kind {
                "header" => return Err(err("duplicate header")),
                "move" => {
                    let step = num("step")?;
                    if step != rec.decisions.len() as u64 {
                        return Err(err(&format!(
                            "non-contiguous decision stream (step {step}, expected {})",
                            rec.decisions.len()
                        )));
                    }
                    let slot = match json_field(line, "slot") {
                        Some(s) => Some(s.parse::<usize>().map_err(|_| err("bad \"slot\""))?),
                        None => None,
                    };
                    let needs = json_field(line, "needs")
                        .ok_or_else(|| err("missing \"needs\""))?
                        .parse::<bool>()
                        .map_err(|_| err("bad \"needs\""))?;
                    rec.decisions.push(StepDecision::Move {
                        pid: ProcessId(num("pid")? as usize),
                        kind: num("k")? as usize,
                        slot,
                        needs,
                    });
                }
                "malicious" => {
                    let step = num("step")?;
                    if step != rec.decisions.len() as u64 {
                        return Err(err("non-contiguous decision stream"));
                    }
                    rec.decisions.push(StepDecision::Malicious {
                        pid: ProcessId(num("pid")? as usize),
                    });
                }
                "quiescent" => {
                    let step = num("step")?;
                    if step != rec.decisions.len() as u64 {
                        return Err(err("non-contiguous decision stream"));
                    }
                    rec.decisions.push(StepDecision::Quiescent);
                }
                "fault" => {
                    let kind = json_field(line, "fault")
                        .ok_or_else(|| err("missing \"fault\""))
                        .and_then(|s| parse_fault_kind(s).ok_or_else(|| err("bad \"fault\"")))?;
                    if rec.version < 2 && matches!(kind, FaultKind::Restart { .. }) {
                        return Err(err("restart events require format version 2"));
                    }
                    let pid = num("pid")?;
                    let n = rec.topology.len();
                    if pid >= n as u64 {
                        return Err(err(&format!(
                            "fault target {pid} out of range for {n} processes"
                        )));
                    }
                    rec.fault_log.push(RecordedFault {
                        step: num("step")?,
                        target: ProcessId(pid as usize),
                        kind,
                    });
                }
                "checkpoint" => {
                    rec.checkpoints.push(Checkpoint {
                        step: num("step")?,
                        digest: num("digest")?,
                    });
                }
                other => return Err(err(&format!("unknown record kind \"{other}\""))),
            }
        }
        let rec = rec.ok_or("empty recording (no header)".to_string())?;
        if rec.decisions.len() as u64 != rec.steps {
            return Err(format!(
                "decision stream has {} steps, header promised {}",
                rec.decisions.len(),
                rec.steps
            ));
        }
        Ok(rec)
    }
}

/// Extract the value of `"key":` in a flat JSON object, as a raw token
/// (number text, or the inside of a quoted string).
fn json_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        let end = stripped.find('"')?;
        Some(&stripped[..end])
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

/// Inverse of [`FaultKind`]'s `Display`.
fn parse_fault_kind(s: &str) -> Option<FaultKind> {
    match s {
        "crash" => Some(FaultKind::Crash),
        "transient-global" => Some(FaultKind::TransientGlobal),
        "transient-local" => Some(FaultKind::TransientLocal),
        "restart(fresh)" => Some(FaultKind::Restart {
            state: Resurrection::Fresh,
        }),
        _ => {
            if let Some(body) = s.strip_prefix("restart(").and_then(|r| r.strip_suffix(')')) {
                let state = if let Some(age) = body.strip_prefix("snapshot:") {
                    Resurrection::Snapshot {
                        age: age.parse().ok()?,
                    }
                } else if let Some(seed) = body.strip_prefix("arbitrary:") {
                    Resurrection::Arbitrary {
                        seed: seed.parse().ok()?,
                    }
                } else {
                    return None;
                };
                return Some(FaultKind::Restart { state });
            }
            let steps = s
                .strip_prefix("malicious-crash(")?
                .strip_suffix(')')?
                .parse()
                .ok()?;
            Some(FaultKind::MaliciousCrash { steps })
        }
    }
}

/// Extract the bracketed raw content of `"key":[...]` (nested brackets
/// allowed, strings may not contain brackets — true for this format).
fn json_array_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":[");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    let mut depth = 1usize;
    for (i, c) in rest.char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[..i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Split a `[...],[...]` element list at top-level commas.
fn split_elements(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '[' => depth += 1,
            ']' => depth -= 1,
            ',' if depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < s.len() {
        out.push(&s[start..]);
    }
    out
}

fn parse_header(
    line: &str,
    version: u32,
    err: &dyn Fn(&str) -> String,
) -> Result<Recording, String> {
    let text = |key: &str| -> Result<String, String> {
        json_field(line, key)
            .map(str::to_string)
            .ok_or_else(|| err(&format!("missing \"{key}\"")))
    };
    let num = |key: &str| -> Result<u64, String> {
        json_field(line, key)
            .ok_or_else(|| err(&format!("missing \"{key}\"")))?
            .parse::<u64>()
            .map_err(|_| err(&format!("bad \"{key}\"")))
    };
    // The fixed mode key; see the module docs.
    match text("mode")?.as_str() {
        "naive" | "incremental" => {}
        other => return Err(err(&format!("unknown mode \"{other}\""))),
    }
    let edges_raw = json_array_field(line, "edges").ok_or_else(|| err("missing \"edges\""))?;
    let mut edges = Vec::new();
    for el in split_elements(edges_raw) {
        let el = el.trim().trim_start_matches('[').trim_end_matches(']');
        if el.is_empty() {
            continue;
        }
        let (a, b) = el.split_once(',').ok_or_else(|| err("bad edge"))?;
        edges.push((
            a.trim().parse().map_err(|_| err("bad edge"))?,
            b.trim().parse().map_err(|_| err("bad edge"))?,
        ));
    }
    let n = num("n")? as usize;
    let mut topology =
        Topology::from_edges(n, edges.iter().copied()).map_err(|e| err(&e.to_string()))?;
    topology.set_name(text("topology")?);
    let in_range = |p: usize, what: &str| {
        if p < n {
            Ok(p)
        } else {
            Err(err(&format!("{what} {p} out of range for {n} processes")))
        }
    };
    let mut faults = FaultPlan::new();
    if json_field(line, "arbitrary_start") == Some("true") {
        faults = faults.from_arbitrary_state();
    }
    let dead_raw = json_array_field(line, "initially_dead")
        .ok_or_else(|| err("missing \"initially_dead\""))?;
    for el in split_elements(dead_raw) {
        let el = el.trim();
        if el.is_empty() {
            continue;
        }
        let p: usize = el.parse().map_err(|_| err("bad \"initially_dead\""))?;
        faults = faults.initially_dead(in_range(p, "initially-dead process")?);
    }
    let plan_raw =
        json_array_field(line, "fault_plan").ok_or_else(|| err("missing \"fault_plan\""))?;
    for el in split_elements(plan_raw) {
        let el = el.trim().trim_start_matches('[').trim_end_matches(']');
        if el.is_empty() {
            continue;
        }
        let parts: Vec<&str> = el.splitn(3, ',').collect();
        if parts.len() != 3 {
            return Err(err("bad fault_plan entry"));
        }
        let at: u64 = parts[0]
            .trim()
            .parse()
            .map_err(|_| err("bad fault_plan step"))?;
        let target: usize = parts[1]
            .trim()
            .parse()
            .map_err(|_| err("bad fault_plan pid"))?;
        let target = in_range(target, "fault_plan target")?;
        let kind = parse_fault_kind(parts[2].trim().trim_matches('"'))
            .ok_or_else(|| err("bad fault_plan kind"))?;
        faults = match kind {
            FaultKind::Crash => faults.crash(at, target),
            FaultKind::MaliciousCrash { steps } => faults.malicious_crash(at, target, steps),
            FaultKind::TransientGlobal => faults.transient_global(at),
            FaultKind::TransientLocal => faults.transient_local(at, target),
            FaultKind::Restart { state } => {
                if version < 2 {
                    return Err(err("restart events require format version 2"));
                }
                faults.restart(at, target, state)
            }
        };
    }
    Ok(Recording {
        version,
        algorithm: text("algorithm")?,
        scheduler: text("scheduler")?,
        workload: text("workload")?,
        seed: num("seed")?,
        topology,
        edges,
        faults,
        steps: num("steps")?,
        decisions: Vec::new(),
        fault_log: Vec::new(),
        checkpoints: Vec::new(),
    })
}

/// Scheduler that follows a recorded decision stream: at step `s` it
/// picks the enabled move matching `decisions[s]`. On any mismatch it
/// latches a divergence message (readable through [`Replayer`]) and
/// returns index 0 so the engine can keep stepping instead of panicking.
pub struct ReplayScheduler {
    decisions: Rc<Vec<StepDecision>>,
    diverged: Rc<RefCell<Option<String>>>,
}

impl Scheduler for ReplayScheduler {
    fn pick(&mut self, step: u64, enabled: &[EnabledMove]) -> usize {
        let want = self.decisions.get(step as usize).copied();
        let found = match want {
            Some(StepDecision::Move {
                pid, kind, slot, ..
            }) => enabled.iter().position(|em| {
                em.mv.pid == pid
                    && !em.mv.action.is_malicious()
                    && em.mv.action.kind == kind
                    && em.mv.action.slot == slot
            }),
            Some(StepDecision::Malicious { pid }) => enabled
                .iter()
                .position(|em| em.mv.pid == pid && em.mv.action.is_malicious()),
            Some(StepDecision::Quiescent) | None => None,
        };
        match found {
            Some(i) => i,
            None => {
                let mut d = self.diverged.borrow_mut();
                if d.is_none() {
                    *d = Some(format!(
                        "step {step}: recorded decision {want:?} not among {} enabled moves",
                        enabled.len()
                    ));
                }
                0
            }
        }
    }

    fn name(&self) -> &str {
        "replay"
    }
}

/// Replay's check of the fault log: each fault the replay fires must be
/// the log's next entry, and no entry may be passed without firing. The
/// first divergence goes to the message the replay scheduler shares.
struct FaultLogCheck {
    log: Vec<RecordedFault>,
    next: usize,
    diverged: Rc<RefCell<Option<String>>>,
}

impl FaultLogCheck {
    fn diverge(&self, msg: impl FnOnce() -> String) {
        self.diverged.borrow_mut().get_or_insert_with(msg);
    }
}

impl<A: DinerAlgorithm> StepObserver<A> for FaultLogCheck {
    fn on_event(&mut self, ev: &StepEvent, _view: &Snapshot<'_, A>) {
        let EventKind::Fault(kind) = ev.kind else {
            return;
        };
        let fired = RecordedFault {
            step: ev.step,
            target: ev.pid,
            kind,
        };
        let want = self.log.get(self.next).copied();
        if want != Some(fired) {
            self.diverge(|| format!("step {}: fault {fired:?} fired, recorded {want:?}", ev.step));
        }
        self.next += 1;
    }

    fn on_step_end(&mut self, steps: u64, _outcome: StepOutcome, _view: &Snapshot<'_, A>) {
        if let Some(want) = self.log.get(self.next).filter(|f| f.step < steps) {
            self.diverge(|| format!("step {}: recorded fault {want:?} did not fire", want.step));
        }
    }
}

/// Drives a fresh engine through a [`Recording`], verifying lockstep
/// equality: every step's outcome must match the recorded decision, every
/// fault it fires must match the fault log, and every covered checkpoint
/// digest must match the live state.
///
/// The caller supplies the algorithm and workload values (the recording
/// stores only their labels); everything else — topology, seed,
/// fault plan, scheduler — comes from the recording.
pub struct Replayer {
    decisions: Rc<Vec<StepDecision>>,
    checkpoints: Vec<Checkpoint>,
    steps: u64,
    diverged: Rc<RefCell<Option<String>>>,
    cursor: usize,
    verified: usize,
}

impl Replayer {
    /// Build the replay engine for `rec`. The returned builder is fully
    /// configured (topology, seed, faults, replay scheduler, workload, a
    /// [`Trace`] attached); callers may still attach more observers
    /// before `build()` — but must not override the scheduler, seed or
    /// fault plan.
    pub fn builder<A: DinerAlgorithm>(
        rec: &Recording,
        alg: A,
        workload: impl Workload + 'static,
    ) -> (EngineBuilder<A>, Replayer) {
        let decisions = Rc::new(rec.decisions.clone());
        let diverged = Rc::new(RefCell::new(None));
        let sched = ReplayScheduler {
            decisions: Rc::clone(&decisions),
            diverged: Rc::clone(&diverged),
        };
        let faults = FaultLogCheck {
            log: rec.fault_log.clone(),
            next: 0,
            diverged: Rc::clone(&diverged),
        };
        let builder = Engine::builder(alg, rec.topology().clone())
            .workload(workload)
            .scheduler(sched)
            .faults(rec.faults.clone())
            .seed(rec.seed)
            .observe(Trace::new())
            .observe(faults);
        let replayer = Replayer {
            decisions,
            checkpoints: rec.checkpoints.clone(),
            steps: rec.steps,
            diverged,
            cursor: 0,
            verified: 0,
        };
        (builder, replayer)
    }

    /// One-call convenience: build and drive the whole recording,
    /// returning the finished engine (for state dumps, metrics, traces).
    ///
    /// # Errors
    ///
    /// Returns the first divergence (step, expected vs. actual) if the
    /// recording does not reproduce.
    pub fn run<A>(
        rec: &Recording,
        alg: A,
        workload: impl Workload + 'static,
    ) -> Result<(Engine<A>, usize), String>
    where
        A: DinerAlgorithm,
        A::Local: Hash,
        A::Edge: Hash,
    {
        let (builder, mut replayer) = Replayer::builder(rec, alg, workload);
        let mut engine = builder.build();
        replayer.advance(&mut engine, rec.steps)?;
        Ok((engine, replayer.verified))
    }

    /// Step `engine` until it has executed `upto` steps (clamped to the
    /// recording length), verifying each step outcome against the
    /// recorded decision, each fired fault against the fault log, and
    /// each covered checkpoint digest.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence; the engine is left
    /// at the diverging step.
    pub fn advance<A>(&mut self, engine: &mut Engine<A>, upto: u64) -> Result<(), String>
    where
        A: DinerAlgorithm,
        A::Local: Hash,
        A::Edge: Hash,
    {
        let upto = upto.min(self.steps);
        self.check_checkpoints(engine)?;
        while engine.step_count() < upto {
            let step = engine.step_count();
            let out = engine.step();
            if let Some(msg) = self.diverged.borrow().clone() {
                return Err(msg);
            }
            let want = self.decisions[step as usize];
            let matches = match (want, out) {
                (StepDecision::Quiescent, StepOutcome::Quiescent) => true,
                (
                    StepDecision::Move {
                        pid, kind, slot, ..
                    },
                    StepOutcome::Executed(mv),
                ) => {
                    mv.pid == pid
                        && !mv.action.is_malicious()
                        && mv.action.kind == kind
                        && mv.action.slot == slot
                }
                (StepDecision::Malicious { pid }, StepOutcome::Executed(mv)) => {
                    mv.pid == pid && mv.action.is_malicious()
                }
                _ => false,
            };
            if !matches {
                return Err(format!(
                    "step {step}: live outcome {out:?} != recorded {want:?}"
                ));
            }
            self.check_checkpoints(engine)?;
        }
        Ok(())
    }

    /// Total steps in the recording.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    fn check_checkpoints<A>(&mut self, engine: &Engine<A>) -> Result<(), String>
    where
        A: DinerAlgorithm,
        A::Local: Hash,
        A::Edge: Hash,
    {
        while self.cursor < self.checkpoints.len()
            && self.checkpoints[self.cursor].step == engine.step_count()
        {
            let want = self.checkpoints[self.cursor];
            let got = state_digest(engine.state(), engine.health());
            if got != want.digest {
                return Err(format!(
                    "checkpoint at step {}: digest {got:#x} != recorded {:#x}",
                    want.step, want.digest
                ));
            }
            self.cursor += 1;
            self.verified += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::RandomScheduler;
    use crate::toy::ToyDiners;
    use crate::workload::AlwaysHungry;

    fn recorded_run(steps: u64) -> Recording {
        let mut e = Engine::builder(ToyDiners, Topology::ring(6))
            .scheduler(RandomScheduler::new(5))
            .faults(
                FaultPlan::new()
                    .crash(40, 1)
                    .malicious_crash(60, 3, 4)
                    .transient_local(90, 4)
                    .transient_global(120),
            )
            .seed(5)
            .observe(FlightRecorder::new("toy"))
            .build();
        e.run(steps);
        e.recording().expect("recorder attached")
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let rec = recorded_run(300);
        assert_eq!(rec.steps, 300);
        assert_eq!(rec.decisions.len(), 300);
        assert!(!rec.fault_log.is_empty());
        assert!(!rec.checkpoints.is_empty());
        let text = rec.to_jsonl();
        let back = Recording::parse(&text).expect("parse back");
        assert_eq!(back, rec);
        // Serialization is stable (byte-identical on re-serialize).
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn replay_reproduces_the_run() {
        let rec = recorded_run(300);
        let (engine, verified) =
            Replayer::run(&rec, ToyDiners, AlwaysHungry).expect("replay verifies");
        assert_eq!(engine.step_count(), 300);
        assert!(
            verified >= 2,
            "expected several checkpoints, got {verified}"
        );
    }

    #[test]
    fn tampered_decision_is_detected() {
        let mut rec = recorded_run(200);
        // Flip the first executed move's pid to a different process.
        let i = rec
            .decisions
            .iter()
            .position(|d| matches!(d, StepDecision::Move { .. }))
            .expect("some move");
        let n = rec.topology().len();
        if let StepDecision::Move { pid, .. } = &mut rec.decisions[i] {
            *pid = ProcessId((pid.index() + 1) % n);
        }
        // The forged move may itself be enabled, in which case replay
        // fires it and diverges later — at a subsequent step mismatch or
        // a checkpoint digest. Either way it must not verify.
        let err = Replayer::run(&rec, ToyDiners, AlwaysHungry)
            .err()
            .expect("tampered decision must diverge");
        assert!(
            err.contains("step") || err.contains("checkpoint"),
            "unhelpful divergence message: {err}"
        );
    }

    #[test]
    fn tampered_fault_log_is_detected() {
        let rec = recorded_run(200);
        let n = rec.topology().len();
        let mut retargeted = rec.clone();
        let f = &mut retargeted.fault_log[0];
        f.target = ProcessId((f.target.index() + 1) % n);
        let mut dropped = rec.clone();
        dropped.fault_log.remove(0);
        let mut extra = rec.clone();
        let last = *extra.fault_log.last().expect("faults fired");
        extra.fault_log.push(RecordedFault {
            step: last.step + 1,
            ..last
        });
        for (tampered, want) in [
            (retargeted, "fired, recorded"),
            (dropped, "fired, recorded"),
            (extra, "did not fire"),
        ] {
            // Through the serialized form, as a file on disk would be.
            let parsed = Recording::parse(&tampered.to_jsonl()).expect("still well-formed");
            let err = Replayer::run(&parsed, ToyDiners, AlwaysHungry)
                .err()
                .expect("a tampered fault log must diverge");
            assert!(err.contains(want), "{err}");
        }
    }

    #[test]
    fn tampered_checkpoint_is_detected() {
        let mut rec = recorded_run(200);
        let last = rec.checkpoints.len() - 1;
        rec.checkpoints[last].digest ^= 1;
        let err = Replayer::run(&rec, ToyDiners, AlwaysHungry)
            .err()
            .expect("tampered checkpoint must diverge");
        assert!(err.contains("checkpoint"), "{err}");
    }

    #[test]
    fn parse_rejects_malformed_recordings() {
        let text = recorded_run(50).to_jsonl();
        let header = text.lines().next().unwrap().to_string();

        // Deterministic sweep over the error paths, each with its line.
        let cases: Vec<(String, &str)> = vec![
            (String::new(), "empty recording"),
            (
                "{\"kind\":\"move\",\"step\":0}".into(),
                "first record must be the header",
            ),
            (
                header.replace("\"v\":2", "\"v\":9"),
                "unknown format version 9",
            ),
            (format!("{header}\nnot-json"), "not a JSON object"),
            (
                format!("{header}\n{{\"kind\":\"move\",\"step\":0"),
                "truncated record",
            ),
            (
                format!("{header}\n{{\"kind\":\"quiescent\",\"step\":0}} tail"),
                "trailing garbage",
            ),
            (
                format!("{header}\n{{\"kind\":\"wat\",\"step\":0}}"),
                "unknown record kind",
            ),
            (
                format!(
                    "{header}\n{{\"kind\":\"move\",\"step\":7,\"pid\":0,\"k\":0,\"needs\":true}}"
                ),
                "non-contiguous",
            ),
            (format!("{header}\n{header}"), "duplicate header"),
            (header.clone(), "header promised"),
            // Hand-edited headers that describe no runnable engine.
            (
                header.replace("[1,2]", "[2,7]"),
                "line 1: edge (2,7) out of range for 6 processes",
            ),
            (
                header.replace("[0,1],", "").replace("[3,4],", ""),
                "line 1: graph is not connected",
            ),
            (
                header.replace("\"n\":6", "\"n\":1000000000000"),
                "line 1: topology has 1000000000000 processes, more than the limit of 16384",
            ),
            (
                header.replace("\"n\":6", "\"n\":16385"),
                "line 1: topology has 16385 processes, more than the limit of 16384",
            ),
            (
                header.replace("[40,1,", "[40,9,"),
                "line 1: fault_plan target 9 out of range for 6 processes",
            ),
            (
                header.replace("\"initially_dead\":[]", "\"initially_dead\":[6]"),
                "line 1: initially-dead process 6 out of range for 6 processes",
            ),
            (
                format!(
                    "{header}\n{{\"kind\":\"fault\",\"step\":3,\"pid\":6,\"fault\":\"crash\"}}"
                ),
                "line 2: fault target 6 out of range for 6 processes",
            ),
        ];
        for (bad, want) in &cases {
            let e = Recording::parse(bad).expect_err(want);
            assert!(e.contains(want), "error {e:?} lacks {want:?}");
        }
        // Errors carry line numbers.
        let e = Recording::parse(&format!("{header}\nnot-json")).unwrap_err();
        assert!(e.starts_with("line 2:"), "{e}");
    }

    #[test]
    fn fault_kind_parse_inverts_display() {
        for k in [
            FaultKind::Crash,
            FaultKind::MaliciousCrash { steps: 16 },
            FaultKind::MaliciousCrash { steps: 0 },
            FaultKind::TransientGlobal,
            FaultKind::TransientLocal,
            FaultKind::Restart {
                state: Resurrection::Fresh,
            },
            FaultKind::Restart {
                state: Resurrection::Snapshot { age: 12 },
            },
            FaultKind::Restart {
                state: Resurrection::Arbitrary { seed: 31 },
            },
        ] {
            assert_eq!(parse_fault_kind(&k.to_string()), Some(k));
        }
        assert_eq!(parse_fault_kind("meteor"), None);
        assert_eq!(parse_fault_kind("malicious-crash(x)"), None);
        assert_eq!(parse_fault_kind("restart(warm)"), None);
        assert_eq!(parse_fault_kind("restart(snapshot:x)"), None);
    }

    fn recorded_recovery_run(steps: u64) -> Recording {
        let mut e = Engine::builder(ToyDiners, Topology::ring(6))
            .scheduler(RandomScheduler::new(11))
            .faults(
                FaultPlan::new()
                    .crash(30, 1)
                    .restart_snapshot(70, 1, 8)
                    .malicious_crash(100, 3, 4)
                    .restart_arbitrary(150, 3, 77)
                    .crash(180, 5)
                    .restart_fresh(220, 5),
            )
            .seed(11)
            .observe(FlightRecorder::new("toy"))
            .build();
        e.run(steps);
        e.recording().expect("recorder attached")
    }

    #[test]
    fn v2_round_trips_and_replays_restart_events() {
        let rec = recorded_recovery_run(300);
        assert_eq!(rec.version, FORMAT_VERSION);
        assert!(
            rec.fault_log
                .iter()
                .any(|f| matches!(f.kind, FaultKind::Restart { .. })),
            "recovery run must log restart firings"
        );
        let text = rec.to_jsonl();
        assert!(text.contains("restart(snapshot:8)"), "{text}");
        let back = Recording::parse(&text).expect("parse back");
        assert_eq!(back, rec);
        assert_eq!(back.to_jsonl(), text);
        let (engine, verified) =
            Replayer::run(&rec, ToyDiners, AlwaysHungry).expect("replay verifies");
        assert_eq!(engine.step_count(), 300);
        assert!(verified >= 2);
    }

    #[test]
    fn v1_recordings_still_parse_and_replay_bit_identically() {
        // A restart-free run is exactly what a v1 writer produced; only
        // the header version differs.
        let rec = recorded_run(300);
        let v1_text = rec.to_jsonl().replace("\"v\":2", "\"v\":1");
        let v1 = Recording::parse(&v1_text).expect("v1 parses");
        assert_eq!(v1.version, 1);
        // The carried version round-trips byte-identically.
        assert_eq!(v1.to_jsonl(), v1_text);
        // And replays to the same final state as the v2 twin.
        let (e1, _) = Replayer::run(&v1, ToyDiners, AlwaysHungry).expect("v1 replays");
        let (e2, _) = Replayer::run(&rec, ToyDiners, AlwaysHungry).expect("v2 replays");
        assert_eq!(
            state_digest(e1.state(), e1.health()),
            state_digest(e2.state(), e2.health()),
            "v1 and v2 replays must agree bit-for-bit"
        );
    }

    #[test]
    fn naive_mode_headers_still_parse_and_replay() {
        let rec = recorded_recovery_run(300);
        let text = rec.to_jsonl();
        let mode = "\"mode\":\"incremental\"";
        assert!(text.lines().next().unwrap().contains(mode), "{text}");
        let naive = Recording::parse(&text.replace(mode, "\"mode\":\"naive\""))
            .expect("a naive-mode header parses");
        assert_eq!(naive, rec);
        let (engine, verified) =
            Replayer::run(&naive, ToyDiners, AlwaysHungry).expect("replay verifies");
        assert_eq!(engine.step_count(), 300);
        assert!(verified >= 2);
        // Any other mode is rejected, and the key stays required.
        let e = Recording::parse(&text.replace(mode, "\"mode\":\"lazy\"")).unwrap_err();
        assert!(e.contains("unknown mode \"lazy\""), "{e}");
        let e = Recording::parse(&text.replace(&format!("{mode},"), "")).unwrap_err();
        assert!(e.contains("missing \"mode\""), "{e}");
    }

    #[test]
    fn v1_header_rejects_restart_events() {
        let rec = recorded_recovery_run(250);
        let v1_text = rec.to_jsonl().replace("\"v\":2", "\"v\":1");
        let e = Recording::parse(&v1_text).expect_err("restarts are v2-only");
        assert!(e.contains("restart events require format version 2"), "{e}");
    }

    #[test]
    fn state_digest_is_sensitive_to_each_component() {
        let topo = Topology::line(3);
        let state: SystemState<ToyDiners> = SystemState::initial(&ToyDiners, &topo);
        let health = vec![Health::Live; 3];
        let d0 = state_digest(&state, &health);
        // Health change alone moves the digest.
        let mut h2 = health.clone();
        h2[1] = Health::Dead;
        assert_ne!(d0, state_digest(&state, &h2));
        // Local change alone moves the digest.
        let mut s2 = state.clone();
        *s2.local_mut(ProcessId(0)) = crate::algorithm::Phase::Hungry;
        assert_ne!(d0, state_digest(&s2, &health));
        // Same inputs, same digest.
        assert_eq!(d0, state_digest(&state, &health));
    }
}
