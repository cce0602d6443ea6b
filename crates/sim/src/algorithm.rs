//! The guarded-command algorithm abstraction.
//!
//! The paper's computation model (§2): a program is a set of processes
//! joined by a symmetric neighbor relation. Each process owns *local*
//! variables and shares one variable per incident edge with the neighbor at
//! the other end. An *action* is a guard (a predicate over local and
//! neighbor variables) and a command (assignments to local variables and,
//! in a restricted manner, to shared edge variables). A computation is a
//! maximal weakly-fair interleaving of enabled actions.
//!
//! [`Algorithm`] captures exactly that model: implementations declare their
//! action kinds, evaluate guards over a read-only [`View`] of the process's
//! neighborhood and produce [`Write`]s that the engine applies atomically
//! (composite atomicity, central daemon).

use std::fmt;

use rand::rngs::StdRng;

use crate::graph::{EdgeId, ProcessId, Topology};

/// The classic dining-philosophers phases: `T`, `H`, `E` in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Phase {
    /// `T` — the process does not currently require its resources.
    #[default]
    Thinking,
    /// `H` — the process wants to eat and is waiting.
    Hungry,
    /// `E` — the process is in its critical section.
    Eating,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Phase::Thinking => 'T',
            Phase::Hungry => 'H',
            Phase::Eating => 'E',
        };
        write!(f, "{c}")
    }
}

/// Static description of one action kind of an algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ActionKind {
    /// Human-readable action name (e.g. `"join"`).
    pub name: &'static str,
    /// Whether the action is parameterized by a neighbor (one instance per
    /// neighbor slot, like the paper's `fixdepth`) or global (one instance).
    pub per_neighbor: bool,
}

/// Identifier of an action *instance* at one process: an action kind plus,
/// for per-neighbor kinds, the neighbor slot it is instantiated with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActionId {
    /// Index into [`Algorithm::kinds`], or [`ActionId::MALICIOUS_KIND`].
    pub kind: usize,
    /// Neighbor slot for per-neighbor kinds; `None` for global kinds.
    pub slot: Option<usize>,
}

impl ActionId {
    /// Reserved kind index for the pseudo-action taken by a process in its
    /// malicious pre-crash phase. Never passed to [`Algorithm::enabled`].
    pub const MALICIOUS_KIND: usize = usize::MAX;

    /// The pseudo-action of a maliciously crashing process.
    pub const MALICIOUS: ActionId = ActionId {
        kind: Self::MALICIOUS_KIND,
        slot: None,
    };

    /// A global (non-parameterized) action instance.
    pub const fn global(kind: usize) -> Self {
        ActionId { kind, slot: None }
    }

    /// A per-neighbor action instance for the given neighbor slot.
    pub const fn at_slot(kind: usize, slot: usize) -> Self {
        ActionId {
            kind,
            slot: Some(slot),
        }
    }

    /// Whether this is the malicious pseudo-action.
    pub fn is_malicious(self) -> bool {
        self.kind == Self::MALICIOUS_KIND
    }
}

/// A scheduled (process, action-instance) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Move {
    /// The process taking the step.
    pub pid: ProcessId,
    /// The action instance it executes.
    pub action: ActionId,
}

/// One variable assignment produced by executing an action.
///
/// Commands in the model assign to the process's own local variables and to
/// shared edge variables. The engine enforces the write contract on every
/// application via [`crate::footprint::check_write`]: edge writes must
/// target an incident edge, and malicious-step edge writes must pass the
/// algorithm's declared capability ([`Algorithm::malicious_edge_allowed`]).
/// Violations panic under `debug_assertions` and are rejected and counted
/// (`engine.write_violations`) in release builds.
pub enum Write<A: Algorithm + ?Sized> {
    /// Replace the executing process's local state.
    Local(A::Local),
    /// Replace the shared variable on the edge to `neighbor`.
    Edge {
        /// The neighbor at the other end of the edge being written.
        neighbor: ProcessId,
        /// The new value of the shared variable.
        value: A::Edge,
    },
}

impl<A: Algorithm + ?Sized> fmt::Debug for Write<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Write::Local(l) => f.debug_tuple("Local").field(l).finish(),
            Write::Edge { neighbor, value } => f
                .debug_struct("Edge")
                .field("neighbor", neighbor)
                .field("value", value)
                .finish(),
        }
    }
}

/// A guarded-command distributed algorithm in the shared-memory model.
pub trait Algorithm {
    /// Local (per-process) state.
    type Local: Clone + fmt::Debug + PartialEq;
    /// Shared (per-edge) state.
    type Edge: Clone + fmt::Debug + PartialEq;

    /// Algorithm name for reports.
    fn name(&self) -> &str;

    /// The action kinds of every process, in guard-evaluation order.
    fn kinds(&self) -> &[ActionKind];

    /// The legitimate initial local state of process `p`.
    fn init_local(&self, topo: &Topology, p: ProcessId) -> Self::Local;

    /// The legitimate initial shared state of edge `e`.
    fn init_edge(&self, topo: &Topology, e: EdgeId) -> Self::Edge;

    /// Whether `action`'s guard holds for the process observed by `view`.
    fn enabled(&self, view: &View<'_, Self>, action: ActionId) -> bool;

    /// The command of `action`: the writes to apply atomically.
    ///
    /// Called only when [`Self::enabled`] returned `true` for the same
    /// view. Must not write edges to non-neighbors.
    fn execute(&self, view: &View<'_, Self>, action: ActionId) -> Vec<Write<Self>>;

    /// An arbitrary (transient-fault) value for `p`'s local state.
    fn corrupt_local(&self, rng: &mut StdRng, topo: &Topology, p: ProcessId) -> Self::Local;

    /// An arbitrary (transient-fault) value for edge `e`'s shared state.
    fn corrupt_edge(&self, rng: &mut StdRng, topo: &Topology, e: EdgeId) -> Self::Edge;

    /// One arbitrary step of a maliciously crashing process: any writes the
    /// process is *capable* of performing (its own locals, plus shared-edge
    /// updates allowed by the model's restricted-update rule).
    ///
    /// The default corrupts the process's local state only.
    fn malicious_writes(&self, view: &View<'_, Self>, rng: &mut StdRng) -> Vec<Write<Self>>
    where
        Self: Sized,
    {
        vec![Write::Local(self.corrupt_local(
            rng,
            view.topology(),
            view.pid(),
        ))]
    }

    /// The restricted-update capability (paper §2): whether a *malicious*
    /// step of `p` is permitted to write `value` to the shared variable on
    /// the edge towards `neighbor`. Regular commands are not restricted
    /// beyond adjacency; malicious steps may only perform edge updates the
    /// model grants them (e.g. the diners algorithm lets a crashing
    /// process yield priority, never seize it).
    ///
    /// The default capability is empty: malicious steps may corrupt the
    /// process's own local state only (matching the default
    /// [`Self::malicious_writes`]). Both the engine's runtime contract
    /// check and the `footprint` locality certifier enforce this.
    fn malicious_edge_allowed(
        &self,
        topo: &Topology,
        p: ProcessId,
        neighbor: ProcessId,
        value: &Self::Edge,
    ) -> bool {
        let _ = (topo, p, neighbor, value);
        false
    }
}

/// An [`Algorithm`] that solves (some variant of) the diners problem and
/// can report which phase a local state is in. The engine uses this to
/// maintain service metrics (meals, response times, exclusion violations).
/// Algorithms are plain values (`'static`), so an engine's observers can
/// be looked up by type.
pub trait DinerAlgorithm: Algorithm + 'static {
    /// The `T`/`H`/`E` phase encoded in a local state.
    fn phase(&self, local: &Self::Local) -> Phase;
}

/// The complete shared-memory state of a system: one local value per
/// process, one shared value per edge.
pub struct SystemState<A: Algorithm + ?Sized> {
    locals: Vec<A::Local>,
    edges: Vec<A::Edge>,
}

impl<A: Algorithm + ?Sized> Clone for SystemState<A> {
    fn clone(&self) -> Self {
        SystemState {
            locals: self.locals.clone(),
            edges: self.edges.clone(),
        }
    }
}

impl<A: Algorithm + ?Sized> fmt::Debug for SystemState<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemState")
            .field("locals", &self.locals)
            .field("edges", &self.edges)
            .finish()
    }
}

impl<A: Algorithm + ?Sized> PartialEq for SystemState<A> {
    fn eq(&self, other: &Self) -> bool {
        self.locals == other.locals && self.edges == other.edges
    }
}

impl<A: Algorithm> SystemState<A> {
    /// Assemble a state from raw vectors (one local per process, one value
    /// per edge, in id order). Used by the packed-state decoder.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths do not match the topology.
    pub fn from_parts(topo: &Topology, locals: Vec<A::Local>, edges: Vec<A::Edge>) -> Self {
        assert_eq!(locals.len(), topo.len(), "one local per process");
        assert_eq!(edges.len(), topo.edge_count(), "one value per edge");
        SystemState { locals, edges }
    }

    /// The legitimate initial state defined by the algorithm.
    pub fn initial(alg: &A, topo: &Topology) -> Self {
        SystemState {
            locals: topo.processes().map(|p| alg.init_local(topo, p)).collect(),
            edges: (0..topo.edge_count())
                .map(|e| alg.init_edge(topo, EdgeId(e)))
                .collect(),
        }
    }

    /// A fully arbitrary state (models a transient fault that corrupted
    /// every variable in the system). Deterministic in `rng`.
    pub fn corrupt_all(&mut self, alg: &A, topo: &Topology, rng: &mut StdRng) {
        for p in topo.processes() {
            self.locals[p.index()] = alg.corrupt_local(rng, topo, p);
        }
        for e in 0..topo.edge_count() {
            self.edges[e] = alg.corrupt_edge(rng, topo, EdgeId(e));
        }
    }

    /// Corrupt only the variables process `p` can write: its local state
    /// (shared edges are left alone; use [`Algorithm::malicious_writes`]
    /// for capability-restricted shared-variable corruption).
    pub fn corrupt_process(&mut self, alg: &A, topo: &Topology, rng: &mut StdRng, p: ProcessId) {
        self.locals[p.index()] = alg.corrupt_local(rng, topo, p);
    }

    /// The local state of `p`.
    #[inline]
    pub fn local(&self, p: ProcessId) -> &A::Local {
        &self.locals[p.index()]
    }

    /// Mutable access to the local state of `p` (used by scenario builders
    /// and fault injection; regular computation goes through the engine).
    #[inline]
    pub fn local_mut(&mut self, p: ProcessId) -> &mut A::Local {
        &mut self.locals[p.index()]
    }

    /// The shared state of edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &A::Edge {
        &self.edges[e.index()]
    }

    /// Mutable access to the shared state of edge `e`.
    #[inline]
    pub fn edge_mut(&mut self, e: EdgeId) -> &mut A::Edge {
        &mut self.edges[e.index()]
    }

    /// All locals, indexed by process.
    #[inline]
    pub fn locals(&self) -> &[A::Local] {
        &self.locals
    }

    /// All edge values, indexed by edge id.
    #[inline]
    pub fn edges(&self) -> &[A::Edge] {
        &self.edges
    }
}

/// A process's read-only window onto the system: its own state, its
/// neighbors' locals and the shared variables on its incident edges —
/// exactly the variables a guard may mention in the model.
///
/// A view built with [`View::traced`] additionally records every
/// state-reading accessor call in an [`crate::footprint::AccessLog`];
/// this is how the `footprint` contract analysis infers read sets.
/// Tracing changes what accessors *record*, never what they return.
pub struct View<'a, A: Algorithm + ?Sized> {
    pid: ProcessId,
    topo: &'a Topology,
    state: &'a SystemState<A>,
    needs: bool,
    log: Option<&'a crate::footprint::AccessLog>,
}

impl<'a, A: Algorithm> View<'a, A> {
    /// Construct a view for process `p`. `needs` is the current value of
    /// the paper's `needs():p` function (supplied by the workload).
    pub fn new(topo: &'a Topology, state: &'a SystemState<A>, pid: ProcessId, needs: bool) -> Self {
        View {
            pid,
            topo,
            state,
            needs,
            log: None,
        }
    }

    /// Construct an instrumented view that records every state read in
    /// `log`. Used by the `footprint` contract analysis: traced views are
    /// deliberately *permissive* — [`View::neighbor_local`] does not
    /// assert adjacency, so an ill-behaved guard produces a recorded,
    /// nameable out-of-neighborhood read instead of a panic.
    pub fn traced(
        topo: &'a Topology,
        state: &'a SystemState<A>,
        pid: ProcessId,
        needs: bool,
        log: &'a crate::footprint::AccessLog,
    ) -> Self {
        View {
            pid,
            topo,
            state,
            needs,
            log: Some(log),
        }
    }

    /// The observing process.
    #[inline]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The topology (for `D`, degree, neighbor iteration).
    #[inline]
    pub fn topology(&self) -> &'a Topology {
        self.topo
    }

    /// The paper's `needs():p` — whether the process currently wants to eat.
    #[inline]
    pub fn needs(&self) -> bool {
        if let Some(log) = self.log {
            log.record(crate::footprint::ReadAccess::Needs);
        }
        self.needs
    }

    /// The graph diameter `D` (known to every process, per the paper).
    #[inline]
    pub fn diameter(&self) -> u32 {
        self.topo.diameter()
    }

    /// This process's local state.
    #[inline]
    pub fn local(&self) -> &'a A::Local {
        if let Some(log) = self.log {
            log.record(crate::footprint::ReadAccess::OwnLocal);
        }
        self.state.local(self.pid)
    }

    /// This process's neighbors (sorted).
    #[inline]
    pub fn neighbors(&self) -> &'a [ProcessId] {
        self.topo.neighbors(self.pid)
    }

    /// A neighbor's local state.
    ///
    /// # Panics
    ///
    /// Panics (`debug_assertions`) if `q` is not a neighbor of this
    /// process — except on traced views, which record the out-of-bounds
    /// read for the locality certifier to report instead.
    #[inline]
    pub fn neighbor_local(&self, q: ProcessId) -> &'a A::Local {
        if let Some(log) = self.log {
            log.record(crate::footprint::ReadAccess::Local(q));
        } else {
            debug_assert!(
                self.topo.are_neighbors(self.pid, q),
                "{q} is not a neighbor of {}",
                self.pid
            );
        }
        self.state.local(q)
    }

    /// The shared variable on the edge to neighbor `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a neighbor of this process.
    #[inline]
    pub fn edge_to(&self, q: ProcessId) -> &'a A::Edge {
        if let Some(log) = self.log {
            log.record(crate::footprint::ReadAccess::Edge(q));
        }
        let e = self
            .topo
            .edge_between(self.pid, q)
            .unwrap_or_else(|| panic!("{q} is not a neighbor of {}", self.pid));
        self.state.edge(e)
    }

    /// The neighbor in slot `slot` of this process's adjacency list.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[inline]
    pub fn neighbor_at(&self, slot: usize) -> ProcessId {
        self.neighbors()[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Topology;

    /// A minimal test algorithm: each process holds a counter; the single
    /// global action increments it when it is below the neighbor max + 1.
    struct Count;

    const COUNT_KINDS: &[ActionKind] = &[ActionKind {
        name: "bump",
        per_neighbor: false,
    }];

    impl Algorithm for Count {
        type Local = u32;
        type Edge = ();

        fn name(&self) -> &str {
            "count"
        }
        fn kinds(&self) -> &[ActionKind] {
            COUNT_KINDS
        }
        fn init_local(&self, _t: &Topology, _p: ProcessId) -> u32 {
            0
        }
        fn init_edge(&self, _t: &Topology, _e: EdgeId) {}
        fn enabled(&self, view: &View<'_, Self>, a: ActionId) -> bool {
            a.kind == 0 && *view.local() < 10
        }
        fn execute(&self, view: &View<'_, Self>, _a: ActionId) -> Vec<Write<Self>> {
            vec![Write::Local(view.local() + 1)]
        }
        fn corrupt_local(&self, rng: &mut StdRng, _t: &Topology, _p: ProcessId) -> u32 {
            use rand::Rng;
            rng.gen_range(0..100)
        }
        fn corrupt_edge(&self, _r: &mut StdRng, _t: &Topology, _e: EdgeId) {}
    }

    #[test]
    fn initial_state_uses_algorithm_inits() {
        let t = Topology::ring(4);
        let s = SystemState::initial(&Count, &t);
        assert!(t.processes().all(|p| *s.local(p) == 0));
        assert_eq!(s.locals().len(), 4);
        assert_eq!(s.edges().len(), 4);
    }

    #[test]
    fn view_exposes_neighborhood() {
        let t = Topology::line(3);
        let mut s = SystemState::initial(&Count, &t);
        *s.local_mut(ProcessId(0)) = 7;
        let v: View<'_, Count> = View::new(&t, &s, ProcessId(1), true);
        assert_eq!(v.pid(), ProcessId(1));
        assert!(v.needs());
        assert_eq!(*v.neighbor_local(ProcessId(0)), 7);
        assert_eq!(v.neighbors(), &[ProcessId(0), ProcessId(2)]);
        assert_eq!(v.neighbor_at(0), ProcessId(0));
        assert_eq!(v.diameter(), 2);
    }

    /// Satellite coverage for the footprint instrumentation: `View` must
    /// expose *exactly* the closed neighborhood, so the traced accessors
    /// cannot silently miss an access path. Brute-force cross-check on
    /// degree-0 (singleton line), leaf/middle (line), hub/leaf (star) and
    /// interior/corner (grid) cases.
    #[test]
    fn view_exposes_exactly_the_closed_neighborhood() {
        for t in [
            Topology::line(1),
            Topology::line(4),
            Topology::star(5),
            Topology::grid(3, 3),
        ] {
            let mut s = SystemState::initial(&Count, &t);
            for p in t.processes() {
                *s.local_mut(p) = p.index() as u32;
            }
            for p in t.processes() {
                let v: View<'_, Count> = View::new(&t, &s, p, true);
                // Own state is always visible.
                assert_eq!(*v.local(), p.index() as u32);
                assert_eq!(v.pid(), p);
                // The neighbor list is exactly {q : q ~ p}, sorted.
                let expect: Vec<ProcessId> =
                    t.processes().filter(|&q| t.are_neighbors(p, q)).collect();
                assert_eq!(v.neighbors(), expect.as_slice(), "{} at {p}", t.name());
                assert_eq!(v.neighbors().len(), t.degree(p));
                // Every exposed neighbor is reachable through every
                // accessor path: by id, by slot, and its shared edge.
                for (slot, &q) in expect.iter().enumerate() {
                    assert_eq!(v.neighbor_at(slot), q);
                    assert_eq!(*v.neighbor_local(q), q.index() as u32);
                    let _: &() = v.edge_to(q);
                }
            }
        }
    }

    /// Degree-0 process: the closed neighborhood is the process itself.
    #[test]
    fn degree_zero_view_has_no_neighbors() {
        let t = Topology::line(1);
        let s = SystemState::initial(&Count, &t);
        let v: View<'_, Count> = View::new(&t, &s, ProcessId(0), false);
        assert!(v.neighbors().is_empty());
        assert!(!v.needs());
        assert_eq!(*v.local(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is not a neighbor")]
    fn untraced_view_rejects_non_neighbor_local() {
        let t = Topology::line(3);
        let s = SystemState::initial(&Count, &t);
        let v: View<'_, Count> = View::new(&t, &s, ProcessId(0), true);
        let _ = v.neighbor_local(ProcessId(2));
    }

    #[test]
    #[should_panic(expected = "is not a neighbor")]
    fn view_rejects_non_neighbor_edge() {
        let t = Topology::line(3);
        let s = SystemState::initial(&Count, &t);
        let v: View<'_, Count> = View::new(&t, &s, ProcessId(0), true);
        let _ = v.edge_to(ProcessId(2));
    }

    #[test]
    fn default_malicious_capability_is_empty() {
        let t = Topology::line(2);
        assert!(!Count.malicious_edge_allowed(&t, ProcessId(0), ProcessId(1), &()));
    }

    #[test]
    fn corrupt_all_is_deterministic_in_seed() {
        let t = Topology::ring(6);
        let mut a = SystemState::initial(&Count, &t);
        let mut b = SystemState::initial(&Count, &t);
        a.corrupt_all(&Count, &t, &mut crate::rng::rng(9));
        b.corrupt_all(&Count, &t, &mut crate::rng::rng(9));
        assert_eq!(a, b);
        let mut c = SystemState::initial(&Count, &t);
        c.corrupt_all(&Count, &t, &mut crate::rng::rng(10));
        assert_ne!(a, c);
    }

    #[test]
    fn action_id_helpers() {
        assert!(ActionId::MALICIOUS.is_malicious());
        assert!(!ActionId::global(0).is_malicious());
        assert_eq!(ActionId::at_slot(4, 2).slot, Some(2));
    }

    #[test]
    fn phase_displays_like_the_paper() {
        assert_eq!(Phase::Thinking.to_string(), "T");
        assert_eq!(Phase::Hungry.to_string(), "H");
        assert_eq!(Phase::Eating.to_string(), "E");
    }
}
