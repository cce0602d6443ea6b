//! Fairness-aware liveness model checking (lasso search).
//!
//! The explorer ([`crate::explore`]) checks *safety*: a predicate holds
//! in every reachable state. The paper's central claims are *liveness*
//! claims — every weakly fair execution converges to the legitimate
//! predicate `I` — and "we never saw it diverge under one daemon" is not
//! a proof. This module closes the gap: [`check_liveness`] searches the
//! packed (optionally symmetry-reduced) state graph for a **fair lasso**,
//! a reachable cycle that
//!
//! 1. stays entirely inside `¬I` (by closure, an execution that ever
//!    touches `I` stays legitimate, so only `¬I`-confined cycles can
//!    witness divergence), and
//! 2. is **weakly fair**: every process that is continuously enabled
//!    around the cycle takes a move somewhere in the cycle. A cycle that
//!    starves a continuously-enabled process is not a behaviour any
//!    weakly fair daemon produces, so it is no counterexample.
//!
//! If no fair lasso and no `¬I` deadlock exists, *every* weakly fair
//! execution from *every* supplied root reaches `I` — exhaustive
//! convergence certification. If one exists, the checker emits a
//! stem+loop counterexample as concrete [`Move`] sequences of the
//! original (unpermuted) system, rehydrated through inverse permutations
//! exactly like the explorer's safety traces, replayable on a real
//! engine with a scripted daemon.
//!
//! # Algorithm
//!
//! The reachable graph is built by the explorer's one packed BFS driver
//! (the same FIFO order, [`crate::codec`] interning, [`crate::symmetry`]
//! canonicalization and truncation rule as [`crate::explore`]), from
//! every root at once. A per-state hook records whether the state
//! violates the target, the set of processes with at least one enabled
//! move, and the outgoing edges, in one flat array indexed by per-state
//! offsets. The `¬I`-induced subgraph is then decomposed into strongly
//! connected components (iterative Tarjan); a cyclic SCC admits a weakly
//! fair cycle iff every live process either moves on some internal edge
//! or is disabled in some internal state (then the cycle can be routed
//! through that state, breaking "continuously enabled").
//!
//! Under a symmetry group `G` the stored graph is the quotient, where
//! process identity is scrambled by per-edge frame maps, so every cyclic
//! `¬I` SCC is judged on its **|G|-fold cover**: nodes are
//! `(canonical state, frame σ)` pairs, edges apply `σ` to the stored
//! move and advance the frame by `σ ← σ∘ρ⁻¹` exactly as in trace
//! rehydration. Every concrete `¬I` cycle lifts to a cover cycle with
//! identical enabled/mover sets, so running the fairness test on the
//! cover is exact — no orbit approximation, and a fair cover cycle
//! projects directly to a concrete counterexample (a cover node revisit
//! *is* a concrete state revisit, so no lap unrolling is needed). At
//! |G| = 1 the cover is the SCC itself and the stored graph the concrete
//! one. The emitted loop routes a closed walk through each required
//! service point; its entry is anchored at a cover node whose frame
//! matches the BFS parent chain, making the stem a genuine execution
//! from a supplied root. In the corner case where a fair cover SCC
//! contains no chain-anchored node (possible only when the root set is
//! not closed under the group), the search falls back to an exact
//! identity-group run.
//!
//! Witness search also runs on truncated graphs: a lasso or stuck state
//! found inside the explored fragment is a valid divergence witness even
//! when the full graph is too large (or infinite) — truncation only
//! blocks *certification*.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use crate::algorithm::{Move, SystemState};
use crate::codec::{Codec, StateCodec};
use crate::explore::{
    apply, effective_group, enabled_moves, rehydrate_path, search_packed, Limits, PackedExpander,
    PackedExpansion, PackedSearch, Reduction, Visitor,
};
use crate::fault::Health;
use crate::graph::{ProcessId, Topology};
use crate::predicate::Snapshot;
use crate::symmetry::{permute_packed, Perm, SymmetryGroup};

/// Configuration for a liveness search.
#[derive(Clone, Copy, Debug, Default)]
pub struct LivenessConfig {
    /// Exploration bounds, with the explorer's truncation rule.
    pub limits: Limits,
    /// Dedup rule of the packed arena the lasso search runs on:
    /// [`Reduction::Symmetry`] additionally quotients by the topology's
    /// automorphisms (equivariant algorithms only, same contract as the
    /// explorer).
    pub reduction: Reduction,
}

/// A weakly fair divergence witness: from root `root` (index into the
/// supplied initial states), the `stem` moves lead to a state from which
/// the `cycle` moves form a loop — every state along the cycle violates
/// the legitimate predicate, the cycle returns exactly to its first
/// state, and no process is continuously enabled around the cycle
/// without moving in it. Replaying `stem` then `cycle` forever is a fair
/// execution that never converges.
#[derive(Clone, Debug)]
pub struct Lasso {
    /// Index of the originating initial state (0 for single-root
    /// searches).
    pub root: usize,
    /// Concrete moves from the root to the cycle's entry state.
    pub stem: Vec<Move>,
    /// Concrete moves of the cycle (non-empty; first move fires in the
    /// entry state, last move returns to it).
    pub cycle: Vec<Move>,
}

/// A dead-end divergence witness: a reachable `¬I` state with no enabled
/// move anywhere — the system is quiescent but never legitimate.
#[derive(Clone, Debug)]
pub struct StuckTrace {
    /// Index of the originating initial state.
    pub root: usize,
    /// Concrete moves from the root to the stuck state.
    pub trace: Vec<Move>,
}

/// Result of a liveness search.
#[derive(Clone, Debug)]
pub struct LivenessReport {
    /// Distinct states in the explored graph (canonical representatives
    /// under symmetry reduction).
    pub states: usize,
    /// Transitions (state, move) explored.
    pub transitions: u64,
    /// Distinct root states the search grew from (after interning).
    pub roots: usize,
    /// States violating the legitimate predicate.
    pub bad_states: usize,
    /// States with no enabled move anywhere.
    pub deadlocks: usize,
    /// Deadlocked states that also violate the predicate (each one is a
    /// divergence witness).
    pub stuck_states: usize,
    /// Cyclic strongly connected components of the `¬I` subgraph.
    pub sccs: usize,
    /// Cyclic SCCs passing the weak-fairness candidate test.
    pub fair_sccs: usize,
    /// The first weakly fair livelock found, if any.
    pub livelock: Option<Lasso>,
    /// Trace to the first stuck (`¬I` deadlock) state, if any.
    pub stuck: Option<StuckTrace>,
    /// Whether the search hit [`Limits::max_states`] before completing.
    pub truncated: bool,
    /// Wall-clock time of the whole search (graph + SCC + witness).
    pub elapsed: Duration,
    /// Order of the symmetry group actually used (1 = no reduction).
    pub group_order: usize,
}

impl LivenessReport {
    /// Whether convergence-to-`I` under weak fairness was certified for
    /// the complete graph reachable from every root: the search finished
    /// and found neither a fair livelock nor a `¬I` deadlock.
    pub fn certified(&self) -> bool {
        !self.truncated && self.livelock.is_none() && self.stuck.is_none()
    }
}

/// One recorded transition of the explored graph, in the canonical
/// parent's frame.
#[derive(Clone, Copy, Debug)]
struct EdgeRec {
    mv: Move,
    /// Index (into the group's perms) of the permutation that
    /// canonicalized this edge's raw successor.
    perm: u32,
    to: usize,
}

/// A graph in compressed sparse row form: node `v`'s out-edges are
/// `edges[start[v]..start[v + 1]]`. A node is opened by pushing the
/// current edge count to `start`; [`Csr::close`] ends the last one.
#[derive(Default)]
struct Csr {
    edges: Vec<EdgeRec>,
    start: Vec<usize>,
}

impl Csr {
    /// Nodes with out-edges recorded (after [`Csr::close`]).
    fn len(&self) -> usize {
        self.start.len().saturating_sub(1)
    }

    fn out(&self, v: usize) -> &[EdgeRec] {
        &self.edges[self.start[v]..self.start[v + 1]]
    }

    fn close(&mut self) {
        self.start.push(self.edges.len());
    }

    fn clear(&mut self) {
        self.edges.clear();
        self.start.clear();
    }
}

/// The lasso search's client of the explorer's driver: per expanded
/// state, in discovery order, whether it violates the target, which
/// processes are enabled, and its out-edges.
struct LassoGraph<'a, A: StateCodec, F> {
    codec: &'a Codec<'a, A>,
    health: &'a [Health],
    legit: &'a F,
    /// The state under evaluation (decode scratch).
    state: SystemState<A>,
    bad: Vec<bool>,
    enabled: Vec<u64>,
    out: Csr,
    stuck_states: usize,
    stuck: Option<usize>,
}

impl<A, F> Visitor for LassoGraph<'_, A, F>
where
    A: StateCodec,
    F: Fn(&Snapshot<'_, A>) -> bool,
{
    fn expanded(&mut self, window: &[u64], exp: &PackedExpansion) {
        self.codec.decode_into(window, &mut self.state);
        let bad = !(self.legit)(&Snapshot::new(
            self.codec.topology(),
            &self.state,
            self.health,
        ));
        if exp.moves.is_empty() && bad {
            self.stuck_states += 1;
            self.stuck.get_or_insert(exp.parent);
        }
        self.bad.push(bad);
        self.enabled.push(
            exp.moves
                .iter()
                .fold(0, |mask, (mv, _, _)| mask | 1u64 << mv.pid.index()),
        );
        self.out.start.push(self.out.edges.len());
    }

    fn merged(&mut self, _: &PackedSearch, mv: Move, perm: u32, to: usize, _: bool) -> bool {
        self.out.edges.push(EdgeRec { mv, perm, to });
        true
    }
}

/// Check convergence-to-`legit` under weak fairness from one root state.
///
/// See [`check_liveness_multi`]; this is the single-root convenience
/// wrapper.
pub fn check_liveness<A, F>(
    alg: &A,
    topo: &Topology,
    initial: SystemState<A>,
    health: &[Health],
    needs: &[bool],
    legit: F,
    config: LivenessConfig,
) -> LivenessReport
where
    A: StateCodec,
    F: Fn(&Snapshot<'_, A>) -> bool,
{
    check_liveness_multi(
        alg,
        topo,
        std::iter::once(initial),
        health,
        needs,
        legit,
        config,
    )
}

/// Check convergence-to-`legit` under weak fairness from *every* root
/// state in `initials`, sharing one state graph (the roots seed the BFS
/// frontier together, so overlapping reachable sets are explored once).
///
/// Supports at most 64 processes (process sets are tracked as bit
/// masks); health and needs are fixed for the whole search, exactly like
/// the safety explorer. Under [`Reduction::Symmetry`] the `legit`
/// predicate must be *symmetric* (invariant under the topology's
/// automorphisms) — the same contract the explorer imposes on safety
/// predicates — because it is evaluated on canonical representatives.
pub fn check_liveness_multi<A, F, I>(
    alg: &A,
    topo: &Topology,
    initials: I,
    health: &[Health],
    needs: &[bool],
    legit: F,
    config: LivenessConfig,
) -> LivenessReport
where
    A: StateCodec,
    F: Fn(&Snapshot<'_, A>) -> bool,
    I: IntoIterator<Item = SystemState<A>>,
{
    assert!(
        topo.len() <= 64,
        "liveness checking tracks process sets in u64 masks (n <= 64)"
    );
    let mut roots = initials.into_iter().enumerate();
    match run(
        alg,
        topo,
        &mut roots,
        health,
        needs,
        &legit,
        config.limits,
        config.reduction,
    ) {
        Ok(report) => report,
        Err(fallback_roots) => {
            // A quotient fairness candidate had no concrete realization:
            // re-run exactly, from the reconstructed originals of every
            // quotient root (ordinals preserved).
            let mut roots = fallback_roots.into_iter();
            run(
                alg,
                topo,
                &mut roots,
                health,
                needs,
                &legit,
                config.limits,
                Reduction::Packed,
            )
            .expect("identity-group liveness search cannot demand a fallback")
        }
    }
}

/// The search proper. Returns `Err(reconstructed roots)` only when a
/// symmetry-mode fairness candidate failed concrete validation and the
/// caller should re-run without reduction.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn run<A, F>(
    alg: &A,
    topo: &Topology,
    roots: &mut dyn Iterator<Item = (usize, SystemState<A>)>,
    health: &[Health],
    needs: &[bool],
    legit: &F,
    limits: Limits,
    reduction: Reduction,
) -> Result<LivenessReport, Vec<(usize, SystemState<A>)>>
where
    A: StateCodec,
    F: Fn(&Snapshot<'_, A>) -> bool,
{
    let start = Instant::now();
    let codec = Codec::new(alg, topo);
    let group = effective_group(alg, topo, needs, health, reduction);
    let template = SystemState::initial(alg, topo);
    let mut expander = PackedExpander::new(alg, &codec, &group, health, needs, template.clone());
    let mut search = PackedSearch::new(codec.words());
    // Ordinal (caller index) of the first initial that produced each
    // interned root, in root order.
    let root_ordinal: Vec<usize> = roots
        .filter_map(|(ordinal, init)| expander.intern_root(&mut search, &init).then_some(ordinal))
        .collect();
    let mut graph = LassoGraph {
        codec: &codec,
        health,
        legit,
        state: template,
        bad: Vec::new(),
        enabled: Vec::new(),
        out: Csr::default(),
        stuck_states: 0,
        stuck: None,
    };
    // One state per slice: its successors are merged while still in
    // cache, and a query seeded with a million roots holds one state's
    // successors, not its first layer's.
    let grown = search_packed(
        &mut search,
        limits,
        1,
        |slice, arena| slice.map(|i| expander.expand(arena, i)).collect(),
        &mut graph,
    );
    graph.out.close();

    // Witnesses are found even on truncated graphs: a witness inside the
    // explored fragment is valid regardless of what lies beyond the
    // horizon (only certification is blocked by truncation).
    let stuck = graph.stuck.map(|idx| {
        let (root, trace, _) = rehydrate_path(topo, &group, &search, idx);
        StuckTrace {
            root: root_ordinal[root],
            trace,
        }
    });
    let mut cover = Cover::new(topo, &group, &search, health, graph.out.len());
    let (mut sccs, mut livelock) = (0, None);
    for scc in cyclic_sccs(&graph.out, |v| graph.bad[v]) {
        sccs += 1;
        match cover.judge(&graph, &scc) {
            CoverOutcome::Unfair => {}
            CoverOutcome::Fair { entry, cycle } => {
                let lasso = realize_lasso(
                    alg, topo, &codec, &group, &search, health, needs, legit, entry, cycle,
                );
                let mut lasso = lasso.expect("cover-validated lasso failed concrete replay");
                lasso.root = root_ordinal[lasso.root];
                livelock = Some(lasso);
                break;
            }
            CoverOutcome::FairUnanchored => {
                // A fair cover cycle exists but no cover node is anchored
                // to a BFS parent chain (root set not orbit-closed): hand
                // back exact roots for an identity-group rerun.
                return Err(root_ordinal
                    .iter()
                    .enumerate()
                    .map(|(r, &ordinal)| (ordinal, original(&codec, &group, &search, r)))
                    .collect());
            }
        }
    }

    Ok(LivenessReport {
        states: grown.states,
        transitions: grown.transitions,
        roots: root_ordinal.len(),
        bad_states: graph.bad.iter().filter(|&&b| b).count(),
        deadlocks: grown.deadlocks,
        stuck_states: graph.stuck_states,
        sccs,
        fair_sccs: usize::from(livelock.is_some()),
        livelock,
        stuck,
        truncated: grown.truncated,
        elapsed: start.elapsed(),
        group_order: group.order(),
    })
}

/// The original (unpermuted) state of root `r`: its stored window is
/// `ρ · S`, so `S = ρ⁻¹ · stored`.
fn original<A: StateCodec>(
    codec: &Codec<'_, A>,
    group: &SymmetryGroup,
    search: &PackedSearch,
    r: usize,
) -> SystemState<A> {
    let rho_inv = group.perms()[search.perms[r] as usize].inverse(codec.topology());
    let mut buf = vec![0u64; search.stride];
    permute_packed(codec, &rho_inv, search.window(r), &mut buf);
    codec.decode(&buf)
}

/// Outcome of the cover analysis of one quotient SCC.
enum CoverOutcome {
    /// No fair cycle exists in any cover component: every cycle through
    /// this SCC starves a continuously-enabled process.
    Unfair,
    /// A fair cover cycle exists, entered at quotient state `entry`
    /// (whose parent-chain frame matches the cover entry node) with the
    /// given concrete cycle moves.
    Fair { entry: usize, cycle: Vec<Move> },
    /// A fair cover cycle exists but none of its components contains a
    /// chain-anchored node — its concrete realization starts from a
    /// permuted root the caller may not have supplied.
    FairUnanchored,
}

/// Marks a quotient state outside the SCC under analysis.
const OUTSIDE: u32 = u32::MAX;

/// The `|G|`-fold cover of one quotient SCC, rebuilt in place for each
/// SCC, and the group's frame table, built once per search.
struct Cover<'a> {
    topo: &'a Topology,
    group: &'a SymmetryGroup,
    search: &'a PackedSearch,
    /// `compose[g * |G| + r]`: the index of `perms[g] ∘ perms[r]⁻¹`, the
    /// frame reached from frame `g` by an edge canonicalized by
    /// `perms[r]`.
    compose: Vec<usize>,
    /// The live processes, as a mask.
    live: u64,
    /// Per explored quotient state, its position in the SCC under
    /// analysis (`OUTSIDE` otherwise); reset after each SCC.
    local: Vec<u32>,
    /// Cover node `si * |G| + g` is the SCC's `si`-th state in frame
    /// `perms[g]`.
    graph: Csr,
    /// Concrete enabled-process mask per cover node.
    enabled: Vec<u64>,
    /// Membership of the cover component under test; reset after each.
    inside: Vec<bool>,
}

impl<'a> Cover<'a> {
    fn new(
        topo: &'a Topology,
        group: &'a SymmetryGroup,
        search: &'a PackedSearch,
        health: &[Health],
        explored: usize,
    ) -> Cover<'a> {
        let perms = group.perms();
        let index_of = |p: Perm| {
            perms
                .iter()
                .position(|q| *q == p)
                .expect("a group is closed under composition and inverse")
        };
        let compose = perms
            .iter()
            .flat_map(|g| {
                perms
                    .iter()
                    .map(move |r| index_of(g.compose(topo, &r.inverse(topo))))
            })
            .collect();
        Cover {
            topo,
            group,
            search,
            compose,
            live: (0..topo.len())
                .filter(|&p| health[p].is_live())
                .fold(0, |mask, p| mask | 1 << p),
            local: vec![OUTSIDE; explored],
            graph: Csr::default(),
            enabled: Vec::new(),
            inside: Vec::new(),
        }
    }

    /// Expand the quotient SCC `scc` into its `|G|`-fold cover — nodes are
    /// `(canonical state, frame)` pairs, edges apply the frame to the
    /// stored move and advance it by `σ ← σ∘ρ⁻¹` — and run the exact
    /// per-process weak-fairness test on each cyclic cover SCC. Every
    /// concrete `¬I` cycle lifts to a cover cycle with identical
    /// enabled/mover sets, so this is sound *and* complete (no orbit
    /// approximation). With the identity group the cover is the SCC.
    fn judge<A: StateCodec, F>(
        &mut self,
        quotient: &LassoGraph<'_, A, F>,
        scc: &[usize],
    ) -> CoverOutcome {
        let (topo, order) = (self.topo, self.group.order());
        for (si, &s) in scc.iter().enumerate() {
            self.local[s] = si as u32;
        }
        self.graph.clear();
        self.enabled.clear();
        for &s in scc {
            for (g, perm) in self.group.perms().iter().enumerate() {
                // Canonical process p enabled at s means concrete process
                // σ(p) enabled at σ(s).
                let mask = quotient.enabled[s];
                self.enabled.push(
                    (0..topo.len())
                        .filter(|&p| mask & 1 << p != 0)
                        .fold(0, |m, p| m | 1 << perm.apply(ProcessId(p)).index()),
                );
                // Cover edges carry concrete moves; `perm` is unused.
                self.graph.start.push(self.graph.edges.len());
                for e in quotient.out.out(s) {
                    let Some(&t) = self.local.get(e.to).filter(|&&t| t != OUTSIDE) else {
                        continue;
                    };
                    self.graph.edges.push(EdgeRec {
                        mv: perm.permute_move(topo, e.mv),
                        perm: 0,
                        to: t as usize * order + self.compose[g * order + e.perm as usize],
                    });
                }
            }
        }
        self.graph.close();
        for &s in scc {
            self.local[s] = OUTSIDE;
        }
        if self.inside.len() < self.graph.len() {
            self.inside.resize(self.graph.len(), false);
        }

        let mut unanchored = false;
        for cscc in cyclic_sccs(&self.graph, |_| true) {
            for &c in &cscc {
                self.inside[c] = true;
            }
            let (moved, disabled) = service(&self.graph, &self.enabled, &cscc, &self.inside);
            let outcome = if self.live & !(moved | disabled) != 0 {
                None
            } else {
                // Anchor the entry at a cover node whose frame is the one
                // the BFS parent chain actually realizes for its
                // quotient state.
                let entry = cscc
                    .iter()
                    .copied()
                    .find(|&c| self.chain_frame(scc[c / order]) == c % order);
                unanchored |= entry.is_none();
                entry.map(|entry| CoverOutcome::Fair {
                    entry: scc[entry / order],
                    cycle: self
                        .service_walk(entry, moved)
                        .iter()
                        .map(|e| e.mv)
                        .collect(),
                })
            };
            for &c in &cscc {
                self.inside[c] = false;
            }
            if let Some(fair) = outcome {
                return fair;
            }
        }
        if unanchored {
            CoverOutcome::FairUnanchored
        } else {
            CoverOutcome::Unfair
        }
    }

    /// The frame `σ` the BFS parent chain realizes at quotient state `s`
    /// (the one `rehydrate_path` computes): `ρ_root⁻¹` at the root, then
    /// `σ ← σ∘ρ⁻¹` down each edge. The identity is the group's element 0.
    fn chain_frame(&self, s: usize) -> usize {
        let mut chain = vec![s];
        while let Some((parent, _)) = self.search.parents[chain[chain.len() - 1]] {
            chain.push(parent);
        }
        let order = self.group.order();
        chain.iter().rev().fold(0, |sigma, &i| {
            self.compose[sigma * order + self.search.perms[i] as usize]
        })
    }

    /// Build a closed walk (list of edges) through the cover component
    /// under test (marked in `inside`), from `entry`, covering every
    /// required service point: for each live process, either an edge
    /// moving it (when `moved` says one exists) or a state where it is
    /// disabled. The walk is non-empty and returns to the entry state.
    /// The graph is a cover (whose nodes carry frames), so service is per
    /// process, never per orbit.
    fn service_walk(&self, entry: usize, moved: u64) -> Vec<EdgeRec> {
        let (graph, enabled) = (&self.graph, &self.enabled);
        let internal = |t: usize| self.inside[t];

        // BFS inside the SCC from `from`, stopping at the first state where
        // `accept` holds. Carries (source, edge) per visited state so the
        // path can be rebuilt. Deterministic (stored edge order) and total
        // within an SCC. The BFS deliberately refuses to *pass through*
        // `from` again (`e.to == from` is skipped) so closing paths are
        // found by the dedicated closing step instead.
        let bfs_path = |from: usize, accept: &dyn Fn(usize) -> bool| -> Vec<EdgeRec> {
            if accept(from) {
                return Vec::new();
            }
            let mut prev: HashMap<usize, (usize, EdgeRec)> = HashMap::new();
            let mut queue = VecDeque::new();
            queue.push_back(from);
            let mut goal = None;
            'outer: while let Some(u) = queue.pop_front() {
                for e in graph.out(u) {
                    if !internal(e.to) || e.to == from || prev.contains_key(&e.to) {
                        continue;
                    }
                    prev.insert(e.to, (u, *e));
                    if accept(e.to) {
                        goal = Some(e.to);
                        break 'outer;
                    }
                    queue.push_back(e.to);
                }
            }
            let mut path = Vec::new();
            let mut at = goal.expect("SCC is strongly connected");
            while at != from {
                let (src, e) = prev[&at];
                path.push(e);
                at = src;
            }
            path.reverse();
            path
        };

        // Route through each service point, tracking what the walk so far
        // has served.
        let mut walk: Vec<EdgeRec> = Vec::new();
        let mut cur = entry;
        let mut served = !enabled[entry];
        for q in (0..64).filter(|&q| self.live & 1 << q != 0) {
            let bit = 1u64 << q;
            if served & bit != 0 {
                continue;
            }
            let moves_q = |e: &EdgeRec| internal(e.to) && e.mv.pid.index() == q;
            let path = if moved & bit != 0 {
                // Go to a state with an internal edge moving q, then take it.
                let mut path = bfs_path(cur, &|s: usize| graph.out(s).iter().any(moves_q));
                let at = path.last().map_or(cur, |e| e.to);
                path.push(
                    *graph
                        .out(at)
                        .iter()
                        .find(|e| moves_q(e))
                        .expect("BFS accepted this state"),
                );
                path
            } else {
                // Go to a state where q is disabled.
                bfs_path(cur, &|s: usize| enabled[s] & bit == 0)
            };
            for e in &path {
                served |= 1 << e.mv.pid.index() | !enabled[e.to];
                cur = e.to;
            }
            walk.extend_from_slice(&path);
            served |= bit;
        }
        // Close the cycle back to the entry.
        if cur != entry || walk.is_empty() {
            // A closing path must make at least one move; when already at
            // the entry with an empty walk, force one hop first.
            if cur == entry {
                let e = *graph
                    .out(entry)
                    .iter()
                    .find(|e| internal(e.to))
                    .expect("cyclic SCC has an internal edge");
                cur = e.to;
                walk.push(e);
            }
            if cur != entry {
                let path = bfs_path(cur, &|s: usize| s == entry);
                walk.extend_from_slice(&path);
            }
        }
        walk
    }
}

/// The service facts of the strongly connected node set `scc` (whose
/// members `inside` marks): the processes that move on an edge inside it,
/// and the processes disabled in some state of it. A cycle through the
/// whole set is weakly fair iff every live process is in one of the two.
fn service(graph: &Csr, enabled: &[u64], scc: &[usize], inside: &[bool]) -> (u64, u64) {
    scc.iter().fold((0, 0), |(moved, disabled), &v| {
        let movers = graph
            .out(v)
            .iter()
            .filter(|e| inside[e.to])
            .fold(0, |m, e| m | 1u64 << e.mv.pid.index());
        (moved | movers, disabled | !enabled[v])
    })
}

/// Iterative Tarjan over the subgraph induced by the nodes `keep`
/// admits (edges to nodes past the graph are ignored), returning only
/// the *cyclic* SCCs (more than one node, or a single node with a
/// self-loop) in a deterministic order.
fn cyclic_sccs(graph: &Csr, keep: impl Fn(usize) -> bool) -> Vec<Vec<usize>> {
    const UNSEEN: u32 = u32::MAX;
    let nodes = graph.len();
    let mut index = vec![UNSEEN; nodes];
    let mut low = vec![0u32; nodes];
    let mut on_stack = vec![false; nodes];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0u32;
    let mut out = Vec::new();
    // Explicit DFS frames: (node, next child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    let kept_succ = |v: usize, k: usize| -> Option<usize> {
        graph
            .out(v)
            .get(k)
            .map(|e| e.to)
            .filter(|&t| t < nodes && keep(t))
    };

    for v0 in 0..nodes {
        if !keep(v0) || index[v0] != UNSEEN {
            continue;
        }
        frames.push((v0, 0));
        index[v0] = next;
        low[v0] = next;
        next += 1;
        stack.push(v0);
        on_stack[v0] = true;
        while let Some(&mut (v, ref mut k)) = frames.last_mut() {
            if *k < graph.out(v).len() {
                let pos = *k;
                *k += 1;
                let Some(w) = kept_succ(v, pos) else { continue };
                if index[w] == UNSEEN {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    let cyclic = scc.len() > 1 || graph.out(v).iter().any(|e| e.to == v);
                    if cyclic {
                        out.push(scc);
                    }
                }
            }
        }
    }
    out
}

/// Validate a concrete stem+cycle candidate end-to-end: the stem
/// (rehydrated from `entry`'s parent chain) replays from the
/// reconstructed concrete root, every cycle state violates the
/// predicate, every cycle move is enabled, the cycle closes exactly, and
/// weak fairness holds concretely (every live process moves in the cycle
/// or is disabled somewhere in it). The `cycle` moves are already
/// concrete: for a trivial group they are the stored walk moves, for a
/// quotient they come from the frame-carrying cover, whose entry node is
/// anchored to `entry`'s parent chain. Returns `None` if any check fails
/// (an internal-invariant violation). The returned `Lasso.root` is the
/// *internal* root index; the caller maps it to the caller ordinal.
#[allow(clippy::too_many_arguments)]
fn realize_lasso<A, F>(
    alg: &A,
    topo: &Topology,
    codec: &Codec<'_, A>,
    group: &SymmetryGroup,
    search: &PackedSearch,
    health: &[Health],
    needs: &[bool],
    legit: &F,
    entry: usize,
    cycle: Vec<Move>,
) -> Option<Lasso>
where
    A: StateCodec,
    F: Fn(&Snapshot<'_, A>) -> bool,
{
    let stride = codec.words();
    let n = topo.len();
    let (root, stem, _) = rehydrate_path(topo, group, search, entry);
    let mut state = original(codec, group, search, root);

    // Replay the stem.
    for &mv in &stem {
        if !enabled_moves(alg, topo, &state, health, needs).contains(&mv) {
            return None;
        }
        state = apply(alg, topo, &state, mv, needs);
    }
    let mut entry_words = vec![0u64; stride];
    codec.encode_into(&state, &mut entry_words);
    let mut buf = vec![0u64; stride];

    // Replay the cycle with full concrete checks.
    let mut moved = 0u64;
    let mut disabled = 0u64;
    for &mv in &cycle {
        {
            let snap = Snapshot::new(topo, &state, health);
            if legit(&snap) {
                return None;
            }
        }
        let enabled = enabled_moves(alg, topo, &state, health, needs);
        if !enabled.contains(&mv) {
            return None;
        }
        let mut mask = 0u64;
        for m in &enabled {
            mask |= 1u64 << m.pid.index();
        }
        disabled |= !mask;
        moved |= 1u64 << mv.pid.index();
        state = apply(alg, topo, &state, mv, needs);
    }
    codec.encode_into(&state, &mut buf);
    if buf != entry_words {
        return None;
    }
    for (p, h) in health.iter().enumerate().take(n) {
        if h.is_live() && moved & (1u64 << p) == 0 && disabled & (1u64 << p) == 0 {
            return None;
        }
    }
    Some(Lasso { root, stem, cycle })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Phase;
    use crate::graph::ProcessId;
    use crate::toy::ToyDiners;

    fn live(n: usize) -> Vec<Health> {
        vec![Health::Live; n]
    }

    /// The toy id-priority diner starves its highest-id process under
    /// weak fairness: the lower-id neighbor can cycle join→enter→exit
    /// forever, and the victim is only intermittently enabled (disabled
    /// whenever the neighbor eats or hungers), so no weak-fairness
    /// obligation ever forces it to move. The checker must find that
    /// lasso against `I` = "the victim eats".
    #[test]
    fn toy_starvation_lasso_is_found() {
        let topo = Topology::line(2);
        let initial = SystemState::initial(&ToyDiners, &topo);
        let victim = ProcessId(1);
        let report = check_liveness(
            &ToyDiners,
            &topo,
            initial.clone(),
            &live(2),
            &[true, true],
            |snap| *snap.state.local(victim) == Phase::Eating,
            LivenessConfig::default(),
        );
        assert!(!report.certified());
        let lasso = report.livelock.as_ref().expect("starvation lasso");
        assert_eq!(lasso.root, 0);
        assert!(!lasso.cycle.is_empty());
        assert!(
            lasso.cycle.iter().all(|m| m.pid != victim),
            "the victim must not move in its own starvation cycle"
        );

        // Replay concretely: stem + cycle is a valid execution, the
        // cycle closes, and the victim never eats.
        let mut state = initial;
        for &mv in &lasso.stem {
            assert!(
                enabled_moves(&ToyDiners, &topo, &state, &live(2), &[true, true]).contains(&mv)
            );
            state = apply(&ToyDiners, &topo, &state, mv, &[true, true]);
        }
        let entry = state.clone();
        for &mv in &lasso.cycle {
            assert_ne!(*state.local(victim), Phase::Eating);
            assert!(
                enabled_moves(&ToyDiners, &topo, &state, &live(2), &[true, true]).contains(&mv)
            );
            state = apply(&ToyDiners, &topo, &state, mv, &[true, true]);
        }
        assert_eq!(state.locals(), entry.locals());
    }

    /// `I` = "the *lowest*-id process eats" is reached by every weakly
    /// fair execution of the toy diner on a line(2): process 0 beats the
    /// tie-break, its join and enter are continuously enabled while it
    /// is thinking/hungry, so fairness forces it into eating. Certified.
    #[test]
    fn toy_priority_winner_liveness_is_certified() {
        let topo = Topology::line(2);
        let initial = SystemState::initial(&ToyDiners, &topo);
        let report = check_liveness(
            &ToyDiners,
            &topo,
            initial,
            &live(2),
            &[true, true],
            |snap| *snap.state.local(ProcessId(0)) == Phase::Eating,
            LivenessConfig::default(),
        );
        assert!(report.certified(), "livelock: {:?}", report.livelock);
        assert!(report.bad_states > 0, "the predicate is not trivial");
        assert_eq!(report.stuck_states, 0);
    }

    /// With nobody needing to eat, the all-thinking state is a deadlock;
    /// against `I` = "someone eats" it is a stuck (¬I, quiescent)
    /// divergence witness, not a livelock.
    #[test]
    fn quiescent_non_legitimate_state_is_reported_stuck() {
        let topo = Topology::line(2);
        let initial = SystemState::initial(&ToyDiners, &topo);
        let report = check_liveness(
            &ToyDiners,
            &topo,
            initial,
            &live(2),
            &[false, false],
            |snap| snap.state.locals().contains(&Phase::Eating),
            LivenessConfig::default(),
        );
        assert!(!report.certified());
        assert_eq!(report.stuck_states, 1);
        let stuck = report.stuck.expect("stuck trace");
        assert!(stuck.trace.is_empty(), "the root itself is stuck");
        assert!(report.livelock.is_none());
    }

    /// Multi-root search: seeding with every phase assignment of a
    /// line(2) dedups shared suffixes into one graph and still finds the
    /// starvation lasso; roots are interned exactly.
    #[test]
    fn multi_root_search_dedups_and_finds_lasso() {
        let topo = Topology::line(2);
        let phases = [Phase::Thinking, Phase::Hungry, Phase::Eating];
        let mut initials = Vec::new();
        for a in phases {
            for b in phases {
                let mut s = SystemState::initial(&ToyDiners, &topo);
                *s.local_mut(ProcessId(0)) = a;
                *s.local_mut(ProcessId(1)) = b;
                initials.push(s);
            }
        }
        let report = check_liveness_multi(
            &ToyDiners,
            &topo,
            initials,
            &live(2),
            &[true, true],
            |snap| *snap.state.local(ProcessId(1)) == Phase::Eating,
            LivenessConfig::default(),
        );
        assert_eq!(report.roots, 9);
        assert_eq!(report.states, 9, "line(2) toy graph is the full 3×3");
        assert!(report.livelock.is_some());
    }

    /// A truncated search certifies nothing and says so.
    #[test]
    fn truncation_blocks_certification() {
        let topo = Topology::ring(6);
        let initial = SystemState::initial(&ToyDiners, &topo);
        let report = check_liveness(
            &ToyDiners,
            &topo,
            initial,
            &live(6),
            &[true; 6],
            |_| false,
            LivenessConfig {
                limits: Limits { max_states: 10 },
                ..Default::default()
            },
        );
        assert!(report.truncated);
        assert!(!report.certified());
    }

    #[test]
    fn an_empty_root_set_is_vacuously_certified() {
        let topo = Topology::line(2);
        let report = check_liveness_multi(
            &ToyDiners,
            &topo,
            std::iter::empty(),
            &live(2),
            &[true, true],
            |_| true,
            LivenessConfig::default(),
        );
        assert_eq!(report.states, 0);
        assert!(
            report.certified(),
            "an empty root set is vacuously certified"
        );
    }
}
