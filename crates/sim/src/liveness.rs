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
//! The reachable graph is built once per call by the explorer's one
//! packed BFS driver (the same FIFO order, [`crate::codec`] interning,
//! [`crate::symmetry`] canonicalization and truncation rule as
//! [`crate::explore`]), from every root at once. The driver records, in
//! the state graph itself, each expanded state's enabled processes and
//! its out-edges in one compressed sparse row table. One build answers
//! every target predicate of a [`check_liveness_multi`] call: for each
//! target the expanded states are decoded once to flag those violating
//! it, and the `¬I`-induced subgraph is then decomposed into strongly
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
//! not closed under the group), that target is answered on an exact
//! identity-group graph instead, grown once for every such target.
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
    apply, effective_group, enabled_moves, rehydrate_path, search_packed, Csr, Edge,
    ExplorationReport, Limits, PackedExpander, PackedMove, Reduction, StateGraph,
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
    /// Wall-clock time of the graph's build plus this predicate's own
    /// analysis (SCC + witness).
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

/// Check convergence-to-`legit` under weak fairness from one root state.
///
/// See [`check_liveness_multi`]; this is the single-root, single-target
/// convenience wrapper.
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
        std::slice::from_ref(&legit),
        config,
    )
    .pop()
    .expect("one report per target")
}

/// Check convergence to each predicate of `targets` under weak fairness
/// from *every* root state in `initials`, returning one report per
/// target, in order.
///
/// The call builds one state graph (the roots seed the BFS frontier
/// together, so overlapping reachable sets are explored once) and judges
/// every target on it. Each report equals that of a single-target call
/// except for `elapsed`, which counts the build plus that target's own
/// analysis. A target whose quotient holds a fair cycle with no concrete
/// realization from the supplied roots is answered on an exact
/// (identity-group) graph grown from their originals, built once for all
/// such targets.
///
/// Supports at most 64 processes (process sets are tracked as bit
/// masks); health and needs are fixed for the whole search, exactly like
/// the safety explorer. Under [`Reduction::Symmetry`] every target must
/// be *symmetric* (invariant under the topology's automorphisms) — the
/// same contract the explorer imposes on safety predicates — because it
/// is evaluated on canonical representatives.
pub fn check_liveness_multi<A, F, I>(
    alg: &A,
    topo: &Topology,
    initials: I,
    health: &[Health],
    needs: &[bool],
    targets: &[F],
    config: LivenessConfig,
) -> Vec<LivenessReport>
where
    A: StateCodec,
    F: Fn(&Snapshot<'_, A>) -> bool,
    I: IntoIterator<Item = SystemState<A>>,
{
    assert!(
        topo.len() <= 64,
        "liveness checking tracks process sets in u64 masks (n <= 64)"
    );
    let grow = |roots: &mut dyn Iterator<Item = (usize, SystemState<A>)>, reduction| {
        Grown::new(alg, topo, roots, health, needs, config.limits, reduction)
    };
    let quotient = grow(&mut initials.into_iter().enumerate(), config.reduction);
    let mut reports = quotient.judge(targets.iter());
    if reports.iter().any(Option::is_none) {
        // A quotient fairness candidate had no concrete realization: grow
        // the exact graph from the reconstructed originals of every
        // quotient root (ordinals preserved) and answer those targets
        // there.
        let originals: Vec<_> = (0..quotient.root_ordinal.len())
            .map(|r| (quotient.root_ordinal[r], quotient.original(r)))
            .collect();
        drop(quotient);
        let exact = grow(&mut originals.into_iter(), Reduction::Packed);
        let pending = targets.iter().zip(&reports).filter(|(_, r)| r.is_none());
        let mut answers = exact.judge(pending.map(|(t, _)| t)).into_iter();
        for report in reports.iter_mut().filter(|r| r.is_none()) {
            *report = answers.next().expect("one answer per pending target");
        }
    }
    reports
        .into_iter()
        .map(|r| r.expect("an identity-group liveness search cannot demand a fallback"))
        .collect()
}

/// A state graph grown for the lasso search, recording its transitions,
/// with everything a target's analysis reads besides the target.
struct Grown<'a, A: StateCodec> {
    codec: Codec<'a, A>,
    group: SymmetryGroup,
    health: &'a [Health],
    needs: &'a [bool],
    graph: StateGraph,
    /// Ordinal (caller index) of the first initial that produced each
    /// interned root, in root order.
    root_ordinal: Vec<usize>,
    /// The driver's counts.
    counts: ExplorationReport,
    /// Wall-clock time of the build.
    built_in: Duration,
}

impl<'a, A: StateCodec> Grown<'a, A> {
    fn new(
        alg: &'a A,
        topo: &'a Topology,
        roots: &mut dyn Iterator<Item = (usize, SystemState<A>)>,
        health: &'a [Health],
        needs: &'a [bool],
        limits: Limits,
        reduction: Reduction,
    ) -> Self {
        let start = Instant::now();
        let codec = Codec::new(alg, topo);
        let group = effective_group(alg, topo, needs, health, reduction);
        let mut graph = StateGraph::new(&codec, &group, true);
        let template = SystemState::initial(alg, topo);
        let mut expander = PackedExpander::new(alg, &codec, &group, health, needs, template);
        let root_ordinal = roots
            .filter_map(|(ordinal, init)| {
                expander.intern_root(&mut graph, &init).then_some(ordinal)
            })
            .collect();
        // One state per slice: its successors are merged while still in
        // cache, and a query seeded with a million roots holds one state's
        // successors, not its first layer's.
        let counts = search_packed(
            &mut graph,
            limits,
            1,
            |slice, arena| slice.map(|i| expander.expand(arena, i)).collect(),
            |_, _| true,
        );
        drop(expander);
        Grown {
            codec,
            group,
            health,
            needs,
            graph,
            root_ordinal,
            counts,
            built_in: start.elapsed(),
        }
    }

    /// Judge each of `targets` on this graph, in order: `None` for a
    /// target whose quotient holds a fair cycle with no chain-anchored
    /// cover node (see [`CoverOutcome::FairUnanchored`]).
    fn judge<'t, F>(&self, targets: impl Iterator<Item = &'t F>) -> Vec<Option<LivenessReport>>
    where
        F: Fn(&Snapshot<'_, A>) -> bool + 't,
    {
        let (topo, graph) = (self.codec.topology(), &self.graph);
        let mut cover = Cover::new(topo, &self.group, graph, self.health);
        let mut state = SystemState::initial(self.codec.alg(), topo);
        let judge = |target: &F| {
            let start = Instant::now();
            // ¬target per expanded state, each decoded once.
            let bad: Vec<bool> = (0..graph.enabled.len())
                .map(|v| {
                    self.codec.decode_into(graph.window(v), &mut state);
                    !target(&Snapshot::new(topo, &state, self.health))
                })
                .collect();
            // Witnesses are found even on truncated graphs: a witness
            // inside the explored fragment is valid regardless of what
            // lies beyond the horizon (only certification is blocked).
            let mut stuck = (0..bad.len()).filter(|&v| bad[v] && graph.enabled[v] == 0);
            let first_stuck = stuck.next();
            let stuck_states = first_stuck.map_or(0, |_| 1 + stuck.count());
            let (mut sccs, mut livelock) = (0, None);
            for scc in cyclic_sccs(&graph.out, |v| bad[v]) {
                sccs += 1;
                match cover.judge(&scc) {
                    CoverOutcome::Unfair => {}
                    CoverOutcome::Fair { entry, cycle } => {
                        let mut lasso = self
                            .realize_lasso(target, entry, cycle)
                            .expect("cover-validated lasso failed concrete replay");
                        lasso.root = self.root_ordinal[lasso.root];
                        livelock = Some(lasso);
                        break;
                    }
                    CoverOutcome::FairUnanchored => return None,
                }
            }
            Some(LivenessReport {
                states: self.counts.states,
                transitions: self.counts.transitions,
                roots: self.root_ordinal.len(),
                bad_states: bad.iter().filter(|&&b| b).count(),
                deadlocks: self.counts.deadlocks,
                stuck_states,
                sccs,
                fair_sccs: usize::from(livelock.is_some()),
                livelock,
                stuck: first_stuck.map(|idx| {
                    let (root, trace) = rehydrate_path(topo, &self.group, graph, idx);
                    StuckTrace {
                        root: self.root_ordinal[root],
                        trace,
                    }
                }),
                truncated: self.counts.truncated,
                elapsed: self.built_in + start.elapsed(),
                group_order: self.group.order(),
            })
        };
        targets.map(judge).collect()
    }

    /// The original (unpermuted) state of root `r`: its stored window is
    /// `ρ · S`, so `S = ρ⁻¹ · stored`.
    fn original(&self, r: usize) -> SystemState<A> {
        let rho_inv = self.group.perms()[self.graph.perm(r)].inverse(self.codec.topology());
        let mut buf = vec![0u64; self.codec.words()];
        permute_packed(&self.codec, &rho_inv, self.graph.window(r), &mut buf);
        self.codec.decode(&buf)
    }

    /// Validate a concrete stem+cycle candidate end-to-end: the stem
    /// (rehydrated from `entry`'s parent chain) replays from the
    /// reconstructed concrete root, every cycle state violates `legit`,
    /// every cycle move is enabled, the cycle closes exactly, and weak
    /// fairness holds concretely (every live process moves in the cycle
    /// or is disabled somewhere in it). The `cycle` moves are already
    /// concrete: for a trivial group they are the stored walk moves, for
    /// a quotient they come from the frame-carrying cover, whose entry
    /// node is anchored to `entry`'s parent chain. Returns `None` if any
    /// check fails (an internal-invariant violation). The returned
    /// `Lasso.root` is the *internal* root index; the caller maps it to
    /// the caller ordinal.
    fn realize_lasso<F>(&self, legit: &F, entry: usize, cycle: Vec<Move>) -> Option<Lasso>
    where
        F: Fn(&Snapshot<'_, A>) -> bool,
    {
        let (alg, topo) = (self.codec.alg(), self.codec.topology());
        let (health, needs) = (self.health, self.needs);
        let (root, stem) = rehydrate_path(topo, &self.group, &self.graph, entry);
        let mut state = self.original(root);
        for &mv in &stem {
            if !enabled_moves(alg, topo, &state, health, needs).contains(&mv) {
                return None;
            }
            state = apply(alg, topo, &state, mv, needs);
        }
        let entry_words = self.codec.encode(&state);
        // Replay the cycle with full concrete checks.
        let (mut moved, mut disabled) = (0u64, 0u64);
        for &mv in &cycle {
            let enabled = enabled_moves(alg, topo, &state, health, needs);
            if legit(&Snapshot::new(topo, &state, health)) || !enabled.contains(&mv) {
                return None;
            }
            disabled |= !enabled.iter().fold(0, |m, e| m | 1u64 << e.pid.index());
            moved |= 1u64 << mv.pid.index();
            state = apply(alg, topo, &state, mv, needs);
        }
        let starved =
            (0..topo.len()).any(|p| health[p].is_live() && (moved | disabled) & 1u64 << p == 0);
        (self.codec.encode(&state) == entry_words && !starved).then_some(Lasso {
            root,
            stem,
            cycle,
        })
    }
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
/// SCC, and the group's frame table, built once per graph.
struct Cover<'a> {
    topo: &'a Topology,
    group: &'a SymmetryGroup,
    /// The quotient: its transitions, parent chains and state frames.
    quotient: &'a StateGraph,
    /// `compose[g * |G| + r]`: the index of `perms[g] ∘ perms[r]⁻¹`, the
    /// frame reached from frame `g` by an edge canonicalized by
    /// `perms[r]`.
    compose: Vec<usize>,
    /// The live processes, as a mask.
    live: u64,
    /// Per expanded quotient state, its position in the SCC under
    /// analysis (`OUTSIDE` otherwise); reset after each SCC.
    local: Vec<u32>,
    /// Cover node `si * |G| + g` is the SCC's `si`-th state in frame
    /// `perms[g]`; its edges carry concrete moves.
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
        quotient: &'a StateGraph,
        health: &[Health],
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
            quotient,
            compose,
            live: (0..topo.len())
                .filter(|&p| health[p].is_live())
                .fold(0, |mask, p| mask | 1 << p),
            local: vec![OUTSIDE; quotient.enabled.len()],
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
    fn judge(&mut self, scc: &[usize]) -> CoverOutcome {
        let (topo, order, quotient) = (self.topo, self.group.order(), self.quotient);
        assert!(
            u32::try_from(scc.len() * order).is_ok(),
            "a cover holds at most 2^32 nodes"
        );
        for (si, &s) in scc.iter().enumerate() {
            self.local[s] = si as u32;
        }
        self.graph.clear();
        self.enabled.clear();
        for &s in scc {
            let mask = quotient.enabled[s];
            for (g, perm) in self.group.perms().iter().enumerate() {
                // Canonical process p enabled at s means concrete process
                // σ(p) enabled at σ(s).
                self.enabled.push(
                    (0..topo.len())
                        .filter(|&p| mask & 1 << p != 0)
                        .fold(0, |m, p| m | 1 << perm.apply(ProcessId(p)).index()),
                );
                self.graph.open();
                for e in quotient.out.range(s) {
                    let Edge { to, mv } = quotient.out.edges[e];
                    let Some(&t) = self.local.get(to as usize).filter(|&&t| t != OUTSIDE) else {
                        continue;
                    };
                    self.graph.edges.push(Edge {
                        to: (t as usize * order + self.compose[g * order + quotient.edge_perm(e)])
                            as u32,
                        mv: PackedMove::pack(perm.permute_move(topo, mv.unpack())),
                    });
                }
            }
        }
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
                        .map(|e| e.mv.unpack())
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
        while let Some((parent, _)) = self.quotient.parent(chain[chain.len() - 1]) {
            chain.push(parent);
        }
        let order = self.group.order();
        chain.iter().rev().fold(0, |sigma, &i| {
            self.compose[sigma * order + self.quotient.perm(i)]
        })
    }

    /// Build a closed walk (list of edges) through the cover component
    /// under test (marked in `inside`), from `entry`, covering every
    /// required service point: for each live process, either an edge
    /// moving it (when `moved` says one exists) or a state where it is
    /// disabled. The walk is non-empty and returns to the entry state.
    /// The graph is a cover (whose nodes carry frames), so service is per
    /// process, never per orbit.
    fn service_walk(&self, entry: usize, moved: u64) -> Vec<Edge> {
        let (graph, enabled) = (&self.graph, &self.enabled);
        let internal = |e: &Edge| self.inside[e.to as usize];

        // BFS inside the SCC from `from`, stopping at the first state where
        // `accept` holds. Carries (source, edge) per visited state so the
        // path can be rebuilt. Deterministic (stored edge order) and total
        // within an SCC. The BFS deliberately refuses to *pass through*
        // `from` again (an edge back to `from` is skipped) so closing
        // paths are found by the dedicated closing step instead.
        let bfs_path = |from: usize, accept: &dyn Fn(usize) -> bool| -> Vec<Edge> {
            if accept(from) {
                return Vec::new();
            }
            let mut prev: HashMap<usize, (usize, Edge)> = HashMap::new();
            let mut queue = VecDeque::new();
            queue.push_back(from);
            let mut goal = None;
            'outer: while let Some(u) = queue.pop_front() {
                for e in graph.out(u) {
                    let to = e.to as usize;
                    if !internal(e) || to == from || prev.contains_key(&to) {
                        continue;
                    }
                    prev.insert(to, (u, *e));
                    if accept(to) {
                        goal = Some(to);
                        break 'outer;
                    }
                    queue.push_back(to);
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
        let mut walk: Vec<Edge> = Vec::new();
        let mut cur = entry;
        let mut served = !enabled[entry];
        for q in (0..64).filter(|&q| self.live & 1 << q != 0) {
            let bit = 1u64 << q;
            if served & bit != 0 {
                continue;
            }
            let moves_q = |e: &Edge| internal(e) && e.mv.pid() == q;
            let path = if moved & bit != 0 {
                // Go to a state with an internal edge moving q, then take it.
                let mut path = bfs_path(cur, &|s: usize| graph.out(s).iter().any(moves_q));
                let at = path.last().map_or(cur, |e| e.to as usize);
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
                served |= 1 << e.mv.pid() | !enabled[e.to as usize];
                cur = e.to as usize;
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
                    .find(|e| internal(e))
                    .expect("cyclic SCC has an internal edge");
                cur = e.to as usize;
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
            .filter(|e| inside[e.to as usize])
            .fold(0, |m, e| m | 1u64 << e.mv.pid());
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
            .map(|e| e.to as usize)
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
                    let cyclic = scc.len() > 1 || graph.out(v).iter().any(|e| e.to as usize == v);
                    if cyclic {
                        out.push(scc);
                    }
                }
            }
        }
    }
    out
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
            &[|snap: &Snapshot<'_, ToyDiners>| *snap.state.local(ProcessId(1)) == Phase::Eating],
            LivenessConfig::default(),
        )
        .remove(0);
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
            &[|_: &Snapshot<'_, ToyDiners>| true],
            LivenessConfig::default(),
        )
        .remove(0);
        assert_eq!(report.states, 0);
        assert!(
            report.certified(),
            "an empty root set is vacuously certified"
        );
    }
}
