//! Span-based causal tracing with blame chains.
//!
//! Every executed action becomes a [`Span`] carrying the actor's view of
//! its guard inputs (its phase before/after and the workload `needs` bit)
//! and *happens-before* edges to the spans that last wrote the variables
//! the guard read. Fault injections become spans too, so corruption has a
//! position in the causal graph and a deviation can be walked back to the
//! fault it descends from — a per-incident form of the paper's
//! failure-locality argument.
//!
//! # Happens-before rules
//!
//! The model makes the write footprint of a step syntactically evident:
//! an action (or malicious step) at `p` writes at most `p`'s local and
//! `p`'s incident edge variables, and its guard reads at most the locals
//! of `p`'s closed neighborhood plus those same edges. The tracer keeps a
//! *last-writer table* — one slot per local and per edge — and derives:
//!
//! * **Action span at `p`** — parents are the current last writers of
//!   every local in `N[p]` and every edge incident to `p` (deduplicated);
//!   afterwards the span becomes the last writer of `p`'s local and
//!   incident edges. This over-approximates the realized read/write sets
//!   (a guard may not inspect every neighbor), which is sound for
//!   happens-before: every real dependency is covered.
//! * **Crash / malicious-crash span at `p`** — no parents (faults are
//!   exogenous); becomes the last writer of `p`'s *local* only. A crash
//!   writes nothing, but neighbors keep reading `p`'s frozen state, so
//!   attributing subsequent reads of that local to the crash is exactly
//!   the forensic link we want.
//! * **Transient-local span at `p`** — last writer of `p`'s local (the
//!   corruption footprint). **Transient-global** — last writer of every
//!   variable in the system.
//!
//! # Blame chains
//!
//! [`CausalTracer::blame_within`] walks parent edges breadth-first from a
//! span and returns the shortest path to a fault ancestor within a hop
//! budget. Because every parent edge connects spans whose actors are
//! within one graph hop of each other, a chain of `h` hops can only reach
//! a fault at graph distance ≤ `h` — so a blame chain found within
//! budget 2 *witnesses* the deviation lying inside the crashed process's
//! distance-2 neighborhood, the paper's failure-locality bound. The
//! unbounded variant [`CausalTracer::blame`] reports how deep causality
//! actually runs (data for the T12 distribution tables).

use std::collections::{HashMap, VecDeque};

use crate::algorithm::{DinerAlgorithm, Phase};
use crate::fault::FaultKind;
use crate::graph::{ProcessId, Topology};
use crate::observe::{EventKind, StepEvent, StepObserver};
use crate::predicate::Snapshot;

/// Index of a span in its tracer's arena (allocation order = time order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u32);

impl SpanId {
    /// The arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One node of the causal trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// Engine step at which the event occurred.
    pub step: u64,
    /// The acting (or afflicted) process.
    pub pid: ProcessId,
    /// Event kind.
    pub kind: EventKind,
    /// The workload `needs` bit the guard evaluation saw (false for
    /// malicious steps and faults).
    pub needs: bool,
    /// The actor's diner phase before the event.
    pub phase_before: Phase,
    /// The actor's diner phase after the event.
    pub phase_after: Phase,
    /// Happens-before edges: spans that last wrote the variables this
    /// event read (empty for faults). Sorted ascending, deduplicated.
    pub parents: Vec<SpanId>,
}

/// A walkable blame chain: the shortest happens-before path from a query
/// span back to a fault span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlameChain {
    /// `path[0]` is the queried span, the last element is the fault root.
    pub path: Vec<SpanId>,
}

impl BlameChain {
    /// Number of happens-before hops from the query to the root.
    pub fn hops(&self) -> usize {
        self.path.len() - 1
    }

    /// The fault span the chain is rooted at.
    pub fn root(&self) -> SpanId {
        *self.path.last().expect("chain is non-empty")
    }
}

/// The span arena plus the last-writer tables; see the module docs.
///
/// Attach `CausalTracer::default()` to an engine with
/// `EngineBuilder::observe` (the engine sizes its tables at build time);
/// the tracer observes state the engine computed anyway (it never
/// touches the RNG, scheduler or variables), so a traced run is
/// step-identical to a bare one.
#[derive(Clone, Debug, Default)]
pub struct CausalTracer {
    spans: Vec<Span>,
    /// Last span that wrote each process's local variable.
    last_local: Vec<Option<SpanId>>,
    /// Last span that wrote each edge variable.
    last_edge: Vec<Option<SpanId>>,
}

impl CausalTracer {
    /// An empty tracer for a topology with `topo.len()` processes.
    pub fn new(topo: &Topology) -> Self {
        CausalTracer {
            spans: Vec::new(),
            last_local: vec![None; topo.len()],
            last_edge: vec![None; topo.edge_count()],
        }
    }

    /// All spans, in execution order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Look up a span.
    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id.index()]
    }

    /// Spans recording fault injections.
    pub fn fault_spans(&self) -> impl Iterator<Item = &Span> + '_ {
        self.spans.iter().filter(|s| s.kind.is_fault())
    }

    fn push(&mut self, mut span: Span) -> SpanId {
        let id = SpanId(self.spans.len() as u32);
        span.id = id;
        span.parents.sort_unstable();
        span.parents.dedup();
        self.spans.push(span);
        id
    }

    /// Record an executed action (or malicious step) at `pid`.
    ///
    /// Parents are the last writers of the guard's read footprint —
    /// every local in `pid`'s closed neighborhood and every incident
    /// edge; the new span then becomes the last writer of `pid`'s write
    /// footprint (its local and incident edges).
    #[allow(clippy::too_many_arguments)]
    fn record_action(
        &mut self,
        topo: &Topology,
        step: u64,
        pid: ProcessId,
        kind: EventKind,
        needs: bool,
        phase_before: Phase,
        phase_after: Phase,
    ) -> SpanId {
        let mut parents = Vec::new();
        for &q in topo.closed_neighborhood(pid) {
            if let Some(w) = self.last_local[q.index()] {
                parents.push(w);
            }
        }
        for &e in topo.incident_edges(pid) {
            if let Some(w) = self.last_edge[e.index()] {
                parents.push(w);
            }
        }
        let id = self.push(Span {
            id: SpanId(0),
            step,
            pid,
            kind,
            needs,
            phase_before,
            phase_after,
            parents,
        });
        self.last_local[pid.index()] = Some(id);
        for &e in topo.incident_edges(pid) {
            self.last_edge[e.index()] = Some(id);
        }
        id
    }

    /// Record a fault injection at `target` (ignored for global
    /// transients, which hit everyone).
    fn record_fault(
        &mut self,
        step: u64,
        target: ProcessId,
        kind: FaultKind,
        phase_before: Phase,
        phase_after: Phase,
    ) -> SpanId {
        let id = self.push(Span {
            id: SpanId(0),
            step,
            pid: target,
            kind: EventKind::Fault(kind),
            needs: false,
            phase_before,
            phase_after,
            parents: Vec::new(),
        });
        match kind {
            FaultKind::Crash
            | FaultKind::MaliciousCrash { .. }
            | FaultKind::TransientLocal
            | FaultKind::Restart { .. } => {
                self.last_local[target.index()] = Some(id);
            }
            FaultKind::TransientGlobal => {
                for w in &mut self.last_local {
                    *w = Some(id);
                }
                for w in &mut self.last_edge {
                    *w = Some(id);
                }
            }
        }
        id
    }

    /// Shortest happens-before path from `from` to a fault ancestor
    /// within `max_hops` hops; `None` if no fault is that close (or no
    /// fault is an ancestor at all).
    ///
    /// Parent edges connect spans of neighboring processes, so a chain of
    /// `h` hops reaches at most graph distance `h`; querying with budget
    /// 2 checks the paper's failure-locality bound per incident.
    pub fn blame_within(&self, from: SpanId, max_hops: usize) -> Option<BlameChain> {
        if self.span(from).kind.is_fault() {
            return Some(BlameChain { path: vec![from] });
        }
        let mut prev: HashMap<SpanId, SpanId> = HashMap::new();
        let mut queue: VecDeque<(SpanId, usize)> = VecDeque::new();
        queue.push_back((from, 0));
        prev.insert(from, from);
        while let Some((at, hops)) = queue.pop_front() {
            if hops == max_hops {
                continue;
            }
            for &p in &self.span(at).parents {
                if prev.contains_key(&p) {
                    continue;
                }
                prev.insert(p, at);
                if self.span(p).kind.is_fault() {
                    // Reconstruct from the root back to the query.
                    let mut path = vec![p];
                    let mut cur = at;
                    loop {
                        path.push(cur);
                        if cur == from {
                            break;
                        }
                        cur = prev[&cur];
                    }
                    path.reverse();
                    return Some(BlameChain { path });
                }
                queue.push_back((p, hops + 1));
            }
        }
        None
    }

    /// [`CausalTracer::blame_within`] with no hop budget: the true causal
    /// depth to the nearest fault ancestor, if any.
    pub fn blame(&self, from: SpanId) -> Option<BlameChain> {
        self.blame_within(from, usize::MAX)
    }

    /// Export the spans as Chrome `trace_event` JSON (load in
    /// `chrome://tracing` or Perfetto). Steps map to microseconds, each
    /// span is a complete (`"X"`) event on its process's track, and the
    /// happens-before parents ride in `args`.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let name = match s.kind {
                EventKind::Action { name, .. } => name.to_string(),
                EventKind::MaliciousStep => "malicious-step".to_string(),
                EventKind::Fault(k) => format!("fault:{k}"),
            };
            let parents: Vec<String> = s.parents.iter().map(|p| p.0.to_string()).collect();
            out.push_str(&format!(
                concat!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":1,",
                    "\"pid\":0,\"tid\":{},\"args\":{{\"span\":{},",
                    "\"parents\":[{}],\"phase\":\"{:?}->{:?}\"}}}}"
                ),
                name,
                s.step,
                s.pid.index(),
                s.id.0,
                parents.join(","),
                s.phase_before,
                s.phase_after,
            ));
        }
        out.push_str("]}");
        out
    }
}

impl<A: DinerAlgorithm> StepObserver<A> for CausalTracer {
    fn on_build(&mut self, _alg: &A, view: &Snapshot<'_, A>) {
        self.last_local.resize(view.topo.len(), None);
        self.last_edge.resize(view.topo.edge_count(), None);
    }

    fn on_event(&mut self, ev: &StepEvent, view: &Snapshot<'_, A>) {
        let (before, after) = (ev.phase_before, ev.phase_after);
        match ev.kind {
            EventKind::Fault(kind) => {
                self.record_fault(ev.step, ev.pid, kind, before, after);
            }
            kind => {
                self.record_action(view.topo, ev.step, ev.pid, kind, ev.needs, before, after);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn action(name: &'static str) -> EventKind {
        EventKind::Action {
            kind: 0,
            slot: None,
            name,
        }
    }

    #[test]
    fn parents_are_last_writers_in_the_closed_neighborhood() {
        let topo = Topology::line(4); // 0-1-2-3
        let mut t = CausalTracer::new(&topo);
        let a0 = t.record_action(
            &topo,
            0,
            ProcessId(0),
            action("join"),
            true,
            Phase::Thinking,
            Phase::Hungry,
        );
        let a3 = t.record_action(
            &topo,
            1,
            ProcessId(3),
            action("join"),
            true,
            Phase::Thinking,
            Phase::Hungry,
        );
        // p1 reads locals {0,1,2} and edges {01,12}: only p0's span is a
        // last writer; p3 is outside the neighborhood.
        let a1 = t.record_action(
            &topo,
            2,
            ProcessId(1),
            action("join"),
            true,
            Phase::Thinking,
            Phase::Hungry,
        );
        assert_eq!(t.span(a1).parents, vec![a0]);
        // p2 now sees p1 (local + shared edge 12) and p3 — deduplicated,
        // sorted by span id (a3 was recorded before a1).
        let a2 = t.record_action(
            &topo,
            3,
            ProcessId(2),
            action("enter"),
            true,
            Phase::Hungry,
            Phase::Eating,
        );
        assert_eq!(t.span(a2).parents, vec![a3, a1]);
    }

    #[test]
    fn blame_walks_back_to_the_crash() {
        let topo = Topology::line(4);
        let mut t = CausalTracer::new(&topo);
        let f = t.record_fault(
            5,
            ProcessId(0),
            FaultKind::Crash,
            Phase::Eating,
            Phase::Eating,
        );
        // p1 acts (reads p0's frozen local) then p2 acts (reads p1).
        let a1 = t.record_action(
            &topo,
            6,
            ProcessId(1),
            action("leave"),
            true,
            Phase::Eating,
            Phase::Thinking,
        );
        let a2 = t.record_action(
            &topo,
            7,
            ProcessId(2),
            action("leave"),
            true,
            Phase::Eating,
            Phase::Thinking,
        );

        let c1 = t.blame_within(a1, 2).expect("p1 blames the crash");
        assert_eq!(c1.path, vec![a1, f]);
        assert_eq!(c1.hops(), 1);
        assert_eq!(c1.root(), f);

        let c2 = t.blame_within(a2, 2).expect("p2 blames the crash");
        assert_eq!(c2.path, vec![a2, a1, f]);
        assert_eq!(c2.hops(), 2);

        // p3 is 3 hops from the crash: not blamable within budget 2 …
        let a3 = t.record_action(
            &topo,
            8,
            ProcessId(3),
            action("leave"),
            true,
            Phase::Eating,
            Phase::Thinking,
        );
        assert!(t.blame_within(a3, 2).is_none());
        // … but the unbounded walk finds it 3 hops out.
        let c3 = t.blame(a3).expect("deep ancestry still reachable");
        assert_eq!(c3.hops(), 3);
        assert_eq!(c3.root(), f);
    }

    #[test]
    fn blame_on_a_fault_span_is_the_span_itself() {
        let topo = Topology::line(2);
        let mut t = CausalTracer::new(&topo);
        let f = t.record_fault(
            0,
            ProcessId(1),
            FaultKind::TransientLocal,
            Phase::Thinking,
            Phase::Eating,
        );
        let c = t.blame_within(f, 0).expect("a fault blames itself");
        assert_eq!(c.path, vec![f]);
        assert_eq!(c.hops(), 0);
    }

    #[test]
    fn blame_without_fault_ancestry_is_none() {
        let topo = Topology::line(3);
        let mut t = CausalTracer::new(&topo);
        let a = t.record_action(
            &topo,
            0,
            ProcessId(1),
            action("join"),
            true,
            Phase::Thinking,
            Phase::Hungry,
        );
        assert!(t.blame(a).is_none());
    }

    #[test]
    fn transient_global_becomes_everyones_last_writer() {
        let topo = Topology::ring(5);
        let mut t = CausalTracer::new(&topo);
        let f = t.record_fault(
            3,
            ProcessId(0),
            FaultKind::TransientGlobal,
            Phase::Thinking,
            Phase::Thinking,
        );
        // Any later action anywhere has the fault as a direct parent.
        let a = t.record_action(
            &topo,
            4,
            ProcessId(3),
            action("join"),
            true,
            Phase::Thinking,
            Phase::Hungry,
        );
        assert_eq!(t.span(a).parents, vec![f]);
    }

    #[test]
    fn shortest_chain_is_preferred() {
        // p1 has both a long path (via its own earlier span) and a direct
        // edge to the crash; BFS must return the 1-hop chain.
        let topo = Topology::line(3);
        let mut t = CausalTracer::new(&topo);
        let a_old = t.record_action(
            &topo,
            0,
            ProcessId(1),
            action("join"),
            true,
            Phase::Thinking,
            Phase::Hungry,
        );
        let f = t.record_fault(
            1,
            ProcessId(2),
            FaultKind::Crash,
            Phase::Thinking,
            Phase::Thinking,
        );
        let a = t.record_action(
            &topo,
            2,
            ProcessId(1),
            action("enter"),
            true,
            Phase::Hungry,
            Phase::Eating,
        );
        // Parents of `a` include both a_old (own local) and f (neighbor).
        assert!(t.span(a).parents.contains(&a_old));
        assert!(t.span(a).parents.contains(&f));
        let c = t.blame_within(a, 2).expect("blame found");
        assert_eq!(c.hops(), 1, "BFS should find the direct edge");
    }

    #[test]
    fn chrome_trace_is_balanced_json() {
        let topo = Topology::line(3);
        let mut t = CausalTracer::new(&topo);
        t.record_fault(
            0,
            ProcessId(0),
            FaultKind::Crash,
            Phase::Thinking,
            Phase::Thinking,
        );
        t.record_action(
            &topo,
            1,
            ProcessId(1),
            action("join"),
            true,
            Phase::Thinking,
            Phase::Hungry,
        );
        let j = t.to_chrome_trace();
        assert!(j.starts_with("{\"traceEvents\":["));
        let braces: i64 = j
            .chars()
            .map(|c| match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(braces, 0, "unbalanced braces in {j}");
        let brackets: i64 = j
            .chars()
            .map(|c| match c {
                '[' => 1,
                ']' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(brackets, 0, "unbalanced brackets in {j}");
        assert!(j.contains("\"fault:crash\""));
    }
}
