//! Span-based causal tracing with blame chains.
//!
//! Every executed action becomes a [`Span`] carrying the engine's
//! [`StepEvent`] for it (the actor, its phase before/after and the
//! workload `needs` bit its guard saw) and *happens-before* edges to the
//! spans that last wrote the variables the guard read. Fault injections
//! become spans too, so corruption has a position in the causal graph
//! and a deviation can be walked back to the fault it descends from — a
//! per-incident form of the paper's failure-locality argument.
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

use crate::algorithm::DinerAlgorithm;
use crate::fault::FaultKind;
use crate::graph::Topology;
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
    /// The engine's record of the event.
    pub event: StepEvent,
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
        self.spans.iter().filter(|s| s.event.kind.is_fault())
    }

    /// Record one event as a span.
    ///
    /// An action (or malicious step) at `pid` takes as parents the last
    /// writers of its guard's read footprint — every local in `pid`'s
    /// closed neighborhood and every incident edge — and then becomes
    /// the last writer of its write footprint (`pid`'s local and
    /// incident edges). A fault has no parents and becomes the last
    /// writer of its target's local, or of every variable for a global
    /// transient.
    fn record(&mut self, topo: &Topology, event: StepEvent) -> SpanId {
        let id = SpanId(self.spans.len() as u32);
        let pid = event.pid;
        let mut parents = Vec::new();
        match event.kind {
            EventKind::Fault(FaultKind::TransientGlobal) => {
                self.last_local.fill(Some(id));
                self.last_edge.fill(Some(id));
            }
            EventKind::Fault(_) => self.last_local[pid.index()] = Some(id),
            EventKind::Action { .. } | EventKind::MaliciousStep => {
                for &q in topo.closed_neighborhood(pid) {
                    parents.extend(self.last_local[q.index()]);
                }
                for &e in topo.incident_edges(pid) {
                    parents.extend(self.last_edge[e.index()]);
                    self.last_edge[e.index()] = Some(id);
                }
                self.last_local[pid.index()] = Some(id);
                parents.sort_unstable();
                parents.dedup();
            }
        }
        self.spans.push(Span { id, event, parents });
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
        if self.span(from).event.kind.is_fault() {
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
                if self.span(p).event.kind.is_fault() {
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
            let ev = &s.event;
            let parents: Vec<String> = s.parents.iter().map(|p| p.0.to_string()).collect();
            out.push_str(&format!(
                concat!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":1,",
                    "\"pid\":0,\"tid\":{},\"args\":{{\"span\":{},",
                    "\"parents\":[{}],\"phase\":\"{:?}->{:?}\"}}}}"
                ),
                ev.kind,
                ev.step,
                ev.pid.index(),
                s.id.0,
                parents.join(","),
                ev.phase_before,
                ev.phase_after,
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
        self.record(view.topo, *ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Phase;
    use crate::graph::ProcessId;

    fn event(step: u64, pid: usize, kind: EventKind) -> StepEvent {
        StepEvent {
            step,
            pid: ProcessId(pid),
            kind,
            needs: true,
            phase_before: Phase::Thinking,
            phase_after: Phase::Hungry,
            rejected_writes: 0,
            revived: false,
            waited: None,
        }
    }

    /// Record that `pid` fired the action `name` at `step`.
    fn act(
        t: &mut CausalTracer,
        topo: &Topology,
        step: u64,
        pid: usize,
        name: &'static str,
    ) -> SpanId {
        let kind = EventKind::Action {
            kind: 0,
            slot: None,
            name,
        };
        t.record(topo, event(step, pid, kind))
    }

    /// Record that `kind` struck `pid` at `step`.
    fn fault(
        t: &mut CausalTracer,
        topo: &Topology,
        step: u64,
        pid: usize,
        kind: FaultKind,
    ) -> SpanId {
        t.record(topo, event(step, pid, EventKind::Fault(kind)))
    }

    #[test]
    fn parents_are_last_writers_in_the_closed_neighborhood() {
        let topo = Topology::line(4); // 0-1-2-3
        let mut t = CausalTracer::new(&topo);
        let a0 = act(&mut t, &topo, 0, 0, "join");
        let a3 = act(&mut t, &topo, 1, 3, "join");
        // p1 reads locals {0,1,2} and edges {01,12}: only p0's span is a
        // last writer; p3 is outside the neighborhood.
        let a1 = act(&mut t, &topo, 2, 1, "join");
        assert_eq!(t.span(a1).parents, vec![a0]);
        // p2 now sees p1 (local + shared edge 12) and p3 — deduplicated,
        // sorted by span id (a3 was recorded before a1).
        let a2 = act(&mut t, &topo, 3, 2, "enter");
        assert_eq!(t.span(a2).parents, vec![a3, a1]);
    }

    #[test]
    fn blame_walks_back_to_the_crash() {
        let topo = Topology::line(4);
        let mut t = CausalTracer::new(&topo);
        let f = fault(&mut t, &topo, 5, 0, FaultKind::Crash);
        // p1 acts (reads p0's frozen local) then p2 acts (reads p1).
        let a1 = act(&mut t, &topo, 6, 1, "leave");
        let a2 = act(&mut t, &topo, 7, 2, "leave");

        let c1 = t.blame_within(a1, 2).expect("p1 blames the crash");
        assert_eq!(c1.path, vec![a1, f]);
        assert_eq!(c1.hops(), 1);
        assert_eq!(c1.root(), f);

        let c2 = t.blame_within(a2, 2).expect("p2 blames the crash");
        assert_eq!(c2.path, vec![a2, a1, f]);
        assert_eq!(c2.hops(), 2);

        // p3 is 3 hops from the crash: not blamable within budget 2 …
        let a3 = act(&mut t, &topo, 8, 3, "leave");
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
        let f = fault(&mut t, &topo, 0, 1, FaultKind::TransientLocal);
        let c = t.blame_within(f, 0).expect("a fault blames itself");
        assert_eq!(c.path, vec![f]);
        assert_eq!(c.hops(), 0);
    }

    #[test]
    fn blame_without_fault_ancestry_is_none() {
        let topo = Topology::line(3);
        let mut t = CausalTracer::new(&topo);
        let a = act(&mut t, &topo, 0, 1, "join");
        assert!(t.blame(a).is_none());
    }

    #[test]
    fn transient_global_becomes_everyones_last_writer() {
        let topo = Topology::ring(5);
        let mut t = CausalTracer::new(&topo);
        let f = fault(&mut t, &topo, 3, 0, FaultKind::TransientGlobal);
        // Any later action anywhere has the fault as a direct parent.
        let a = act(&mut t, &topo, 4, 3, "join");
        assert_eq!(t.span(a).parents, vec![f]);
    }

    #[test]
    fn shortest_chain_is_preferred() {
        // p1 has both a long path (via its own earlier span) and a direct
        // edge to the crash; BFS must return the 1-hop chain.
        let topo = Topology::line(3);
        let mut t = CausalTracer::new(&topo);
        let a_old = act(&mut t, &topo, 0, 1, "join");
        let f = fault(&mut t, &topo, 1, 2, FaultKind::Crash);
        let a = act(&mut t, &topo, 2, 1, "enter");
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
        fault(&mut t, &topo, 0, 0, FaultKind::Crash);
        act(&mut t, &topo, 1, 1, "join");
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
