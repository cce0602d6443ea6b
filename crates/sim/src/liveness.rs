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
//! The reachable graph is built by the same layered packed BFS as the
//! explorer (shared [`crate::codec`] interning and [`crate::symmetry`]
//! canonicalization), additionally recording, per state, the outgoing
//! edges and the set of processes with at least one enabled move. The
//! `¬I`-induced subgraph is then decomposed into strongly connected
//! components (iterative Tarjan); a cyclic SCC admits a weakly fair
//! cycle iff every live process either moves on some internal edge or is
//! disabled in some internal state (then the cycle can be routed through
//! that state, breaking "continuously enabled") — exact, because with a
//! trivial group the stored graph *is* the concrete graph.
//!
//! Under a non-trivial symmetry group the stored graph is the quotient,
//! where process identity is scrambled by per-edge frame maps, so each
//! candidate SCC is expanded into its **|G|-fold cover**: nodes are
//! `(canonical state, frame σ)` pairs, edges apply `σ` to the stored
//! move and advance the frame by `σ ← σ∘ρ⁻¹` exactly as in trace
//! rehydration. Every concrete `¬I` cycle lifts to a cover cycle with
//! identical enabled/mover sets, so running the same SCC fairness test
//! on the cover is again exact — no orbit approximation, and a fair
//! cover cycle projects directly to a concrete counterexample (a cover
//! node revisit *is* a concrete state revisit, so no lap unrolling is
//! needed). The emitted loop routes a closed walk through each required
//! service point; its entry is anchored at a cover node whose frame
//! matches the BFS parent chain, making the stem a genuine execution
//! from a supplied root. In the corner case where a fair cover SCC
//! contains no chain-anchored node (possible only when the root set is
//! not closed under the group), the search falls back to an exact
//! identity-group run.
//!
//! Witness search (Phase 3) also runs on truncated graphs: a lasso or
//! stuck state found inside the explored fragment is a valid divergence
//! witness even when the full graph is too large (or infinite) —
//! truncation only blocks *certification*.

use std::time::{Duration, Instant};

use crate::algorithm::{Move, SystemState};
use crate::codec::{Codec, StateCodec};
use crate::explore::{
    apply, effective_group, enabled_moves, rehydrate_path, Limits, PackedExpander, PackedSearch,
    Reduction,
};
use crate::fault::Health;
use crate::fingerprint::fingerprint_words;
use crate::graph::Topology;
use crate::predicate::Snapshot;
use crate::symmetry::{canonicalize_into, permute_packed, Perm, SymmetryGroup};

/// Configuration for a liveness search.
#[derive(Clone, Copy, Debug, Default)]
pub struct LivenessConfig {
    /// Exploration bounds. A state is expanded whole, so the graph may
    /// overshoot [`Limits::max_states`] by one state's successors before
    /// the search stops as truncated.
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

    /// Distinct states processed per second of wall-clock time (`0.0`
    /// when the search finished too fast to time).
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            let rate = self.states as f64 / secs;
            if rate.is_finite() {
                rate
            } else {
                0.0
            }
        } else {
            0.0
        }
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
    let stride = codec.words();

    let mut report = LivenessReport {
        states: 0,
        transitions: 0,
        roots: 0,
        bad_states: 0,
        deadlocks: 0,
        stuck_states: 0,
        sccs: 0,
        fair_sccs: 0,
        livelock: None,
        stuck: None,
        truncated: false,
        elapsed: Duration::ZERO,
        group_order: group.order(),
    };

    // ---- Phase 1: intern the roots. --------------------------------
    let mut search = PackedSearch::new(stride);
    let mut raw = vec![0u64; stride];
    let mut canon = vec![0u64; stride];
    let mut scratch = vec![0u64; stride];
    // Ordinal (caller index) of the first initial that produced each
    // interned root, in root order.
    let mut root_ordinal: Vec<usize> = Vec::new();
    let mut template: Option<SystemState<A>> = None;
    for (ordinal, init) in &mut *roots {
        codec.encode_into(&init, &mut raw);
        let (fp, pi) = if group.is_trivial() {
            (fingerprint_words(&raw), 0u32)
        } else {
            let pi = canonicalize_into(&codec, &group, &raw, &mut canon, &mut scratch);
            raw.copy_from_slice(&canon);
            (fingerprint_words(&raw), pi)
        };
        let (idx, new) = search.intern(&raw, fp, None, pi);
        if new {
            debug_assert_eq!(idx, root_ordinal.len());
            root_ordinal.push(ordinal);
        }
        if template.is_none() {
            template = Some(init);
        }
    }
    let Some(template) = template else {
        report.elapsed = start.elapsed();
        return Ok(report);
    };
    report.roots = search.len();

    // ---- Phase 2: packed BFS, recording edges + enabled masks. -----
    let mut expander = PackedExpander::new(alg, &codec, &group, health, needs, template.clone());
    let mut eval_state = template;
    let mut edges: Vec<Vec<EdgeRec>> = Vec::new();
    let mut bad: Vec<bool> = Vec::new();
    let mut enabled_mask: Vec<u64> = Vec::new();
    let mut stuck_idx: Option<usize> = None;
    let mut cursor = 0usize;
    while cursor < search.len() {
        let exp = expander.expand(&search.words, cursor);
        codec.decode_into(
            &search.words[cursor * stride..(cursor + 1) * stride],
            &mut eval_state,
        );
        let is_bad = {
            let snap = Snapshot::new(topo, &eval_state, health);
            !legit(&snap)
        };
        if is_bad {
            report.bad_states += 1;
        }
        bad.push(is_bad);
        if exp.moves.is_empty() {
            report.deadlocks += 1;
            if is_bad {
                report.stuck_states += 1;
                stuck_idx.get_or_insert(cursor);
            }
        }
        let mut mask = 0u64;
        let mut out = Vec::with_capacity(exp.moves.len());
        for (k, &(mv, fp, pi)) in exp.moves.iter().enumerate() {
            mask |= 1u64 << mv.pid.index();
            report.transitions += 1;
            let cand = &exp.words[k * stride..(k + 1) * stride];
            let (to, _new) = search.intern(cand, fp, Some((cursor, mv)), pi);
            out.push(EdgeRec { mv, perm: pi, to });
        }
        enabled_mask.push(mask);
        edges.push(out);
        cursor += 1;
        if search.len() > limits.max_states {
            report.truncated = true;
            break;
        }
    }
    report.states = search.len();

    // ---- Phase 3: witnesses. ---------------------------------------
    // Runs even on truncated graphs: a witness inside the explored
    // fragment is valid regardless of what lies beyond the horizon
    // (only certification is blocked by truncation).
    if let Some(idx) = stuck_idx {
        let (root, trace, _) = rehydrate_path(topo, &group, &search, idx);
        report.stuck = Some(StuckTrace {
            root: root_ordinal[root],
            trace,
        });
    }

    let n = topo.len();
    let explored = edges.len();
    for scc in cyclic_bad_sccs(explored, &bad, &edges) {
        report.sccs += 1;
        let mut in_scc = vec![false; explored];
        for &s in &scc {
            in_scc[s] = true;
        }

        // With a trivial group the stored graph is concrete: run the
        // exact fairness test and walk directly on it.
        let candidate = if group.is_trivial() {
            let mut moved = vec![false; n];
            let mut disabled = vec![false; n];
            for &s in &scc {
                for e in &edges[s] {
                    if e.to < explored && in_scc[e.to] {
                        moved[e.mv.pid.index()] = true;
                    }
                }
                for (p, d) in disabled.iter_mut().enumerate() {
                    if enabled_mask[s] & (1u64 << p) == 0 {
                        *d = true;
                    }
                }
            }
            let fair = (0..n).all(|p| !health[p].is_live() || moved[p] || disabled[p]);
            if !fair {
                continue;
            }
            let entry = *scc.iter().min().expect("non-empty SCC");
            let walk = build_service_walk(entry, &scc, &in_scc, &edges, &enabled_mask, health, n);
            Some((entry, walk.iter().map(|e| e.mv).collect::<Vec<Move>>()))
        } else {
            // Quotient graph: expand the SCC into its |G|-fold cover
            // and run the same exact analysis there.
            match cover_candidate(
                topo,
                &group,
                &search,
                &scc,
                &edges,
                &enabled_mask,
                health,
                n,
            ) {
                CoverOutcome::Unfair => continue,
                CoverOutcome::Fair { entry, cycle } => Some((entry, cycle)),
                CoverOutcome::FairUnanchored => None,
            }
        };

        let Some((entry, cycle)) = candidate else {
            // A fair cover cycle exists but no cover node is anchored to
            // a BFS parent chain (root set not orbit-closed): hand back
            // exact roots for an identity-group rerun.
            let inverses: Vec<Perm> = group.perms().iter().map(|p| p.inverse(topo)).collect();
            let mut buf = vec![0u64; stride];
            let mut out = Vec::with_capacity(report.roots);
            let mut state = eval_state.clone();
            for r in 0..report.roots {
                let window = &search.words[r * stride..(r + 1) * stride];
                permute_packed(
                    &codec,
                    &inverses[search.perms[r] as usize],
                    window,
                    &mut buf,
                );
                codec.decode_into(&buf, &mut state);
                out.push((root_ordinal[r], state.clone()));
            }
            return Err(out);
        };
        report.fair_sccs += 1;

        let lasso = realize_lasso(
            alg, topo, &codec, &group, &search, health, needs, legit, entry, cycle,
        );
        let mut lasso = lasso.expect("cover-validated lasso failed concrete replay");
        lasso.root = root_ordinal[lasso.root];
        report.livelock = Some(lasso);
        break;
    }

    report.elapsed = start.elapsed();
    Ok(report)
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

/// Expand a quotient SCC into its `|G|`-fold cover — nodes are
/// `(canonical state, frame)` pairs, edges apply the frame to the stored
/// move and advance it by `σ ← σ∘ρ⁻¹` — and run the exact per-process
/// weak-fairness test on each cyclic cover SCC. Every concrete `¬I`
/// cycle lifts to a cover cycle with identical enabled/mover sets, so
/// this is sound *and* complete (no orbit approximation).
#[allow(clippy::too_many_arguments)]
fn cover_candidate(
    topo: &Topology,
    group: &SymmetryGroup,
    search: &PackedSearch,
    scc: &[usize],
    edges: &[Vec<EdgeRec>],
    enabled_mask: &[u64],
    health: &[Health],
    n: usize,
) -> CoverOutcome {
    use std::collections::HashMap;
    let order = group.order();
    let perms = group.perms();
    let inverses: Vec<Perm> = perms.iter().map(|p| p.inverse(topo)).collect();
    let key = |p: &Perm| -> Vec<usize> {
        (0..n)
            .map(|q| p.apply(crate::graph::ProcessId(q)).index())
            .collect()
    };
    let index_of: HashMap<Vec<usize>, usize> =
        perms.iter().enumerate().map(|(i, p)| (key(p), i)).collect();
    // comp[g][r] = index of perms[g] ∘ perms[r]⁻¹ (the frame update when
    // descending an edge canonicalized by perms[r]).
    let mut comp = vec![0usize; order * order];
    for g in 0..order {
        for r in 0..order {
            let c = perms[g].compose(topo, &inverses[r]);
            comp[g * order + r] = index_of[&key(&c)];
        }
    }

    let local: HashMap<usize, usize> = scc.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let cover_len = scc.len() * order;

    // Concrete enabled-process masks per cover node: canonical process p
    // enabled at s means concrete process σ(p) enabled at σ(s).
    let mut cover_mask = vec![0u64; cover_len];
    for (si, &s) in scc.iter().enumerate() {
        for (g, perm) in perms.iter().enumerate() {
            let mut mask = 0u64;
            for p in 0..n {
                if enabled_mask[s] & (1u64 << p) != 0 {
                    mask |= 1u64 << perm.apply(crate::graph::ProcessId(p)).index();
                }
            }
            cover_mask[si * order + g] = mask;
        }
    }

    // Cover edges carry concrete moves; `perm` is unused (identity).
    let mut cover_edges: Vec<Vec<EdgeRec>> = vec![Vec::new(); cover_len];
    for (si, &s) in scc.iter().enumerate() {
        for e in &edges[s] {
            let Some(&ti) = local.get(&e.to) else {
                continue;
            };
            for (g, perm) in perms.iter().enumerate() {
                cover_edges[si * order + g].push(EdgeRec {
                    mv: perm.permute_move(topo, e.mv),
                    perm: 0,
                    to: ti * order + comp[g * order + e.perm as usize],
                });
            }
        }
    }

    let all_bad = vec![true; cover_len];
    let mut unanchored = false;
    // Chain frames are computed lazily (only for fair components) and
    // memoized per quotient state.
    let mut chain_frame: HashMap<usize, usize> = HashMap::new();
    for cscc in cyclic_bad_sccs(cover_len, &all_bad, &cover_edges) {
        let mut in_cscc = vec![false; cover_len];
        for &c in &cscc {
            in_cscc[c] = true;
        }
        let mut moved = vec![false; n];
        let mut disabled = vec![false; n];
        for &c in &cscc {
            for e in &cover_edges[c] {
                if in_cscc[e.to] {
                    moved[e.mv.pid.index()] = true;
                }
            }
            for (p, d) in disabled.iter_mut().enumerate() {
                if cover_mask[c] & (1u64 << p) == 0 {
                    *d = true;
                }
            }
        }
        let fair = (0..n).all(|p| !health[p].is_live() || moved[p] || disabled[p]);
        if !fair {
            continue;
        }
        // Anchor the entry at a cover node whose frame is the one the
        // BFS parent chain actually realizes for its quotient state.
        let entry = cscc.iter().copied().find(|&c| {
            let (si, g) = (c / order, c % order);
            let s = scc[si];
            let frame = *chain_frame.entry(s).or_insert_with(|| {
                let (_, _, sigma) = rehydrate_path(topo, group, search, s);
                index_of[&key(&sigma)]
            });
            frame == g
        });
        let Some(entry) = entry else {
            unanchored = true;
            continue;
        };
        let walk = build_service_walk(entry, &cscc, &in_cscc, &cover_edges, &cover_mask, health, n);
        return CoverOutcome::Fair {
            entry: scc[entry / order],
            cycle: walk.iter().map(|e| e.mv).collect(),
        };
    }
    if unanchored {
        CoverOutcome::FairUnanchored
    } else {
        CoverOutcome::Unfair
    }
}

/// Iterative Tarjan over the `¬I`-induced subgraph, returning only the
/// *cyclic* SCCs (more than one state, or a single state with a
/// self-loop) in a deterministic order.
fn cyclic_bad_sccs(explored: usize, bad: &[bool], edges: &[Vec<EdgeRec>]) -> Vec<Vec<usize>> {
    const UNSEEN: u32 = u32::MAX;
    let mut index = vec![UNSEEN; explored];
    let mut low = vec![0u32; explored];
    let mut on_stack = vec![false; explored];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0u32;
    let mut out = Vec::new();
    // Explicit DFS frames: (node, next child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    let bad_succ = |v: usize, k: usize| -> Option<usize> {
        edges[v]
            .get(k)
            .map(|e| e.to)
            .filter(|&t| t < explored && bad[t])
    };

    for v0 in 0..explored {
        if !bad[v0] || index[v0] != UNSEEN {
            continue;
        }
        frames.push((v0, 0));
        index[v0] = next;
        low[v0] = next;
        next += 1;
        stack.push(v0);
        on_stack[v0] = true;
        while let Some(&mut (v, ref mut k)) = frames.last_mut() {
            if *k < edges[v].len() {
                let pos = *k;
                *k += 1;
                let Some(w) = bad_succ(v, pos) else { continue };
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
                    let cyclic = scc.len() > 1 || edges[v].iter().any(|e| e.to == v && bad[v]);
                    if cyclic {
                        out.push(scc);
                    }
                }
            }
        }
    }
    out
}

/// Build a closed walk (list of edges) through the SCC from `entry`,
/// covering every required service point: for each live process, either
/// an edge moving it or a state where it is disabled. The walk is
/// non-empty and returns to the entry state. The graph must be concrete
/// (trivial group) or a cover (where nodes already carry frames), so
/// service is per-process, never per-orbit.
fn build_service_walk(
    entry: usize,
    scc: &[usize],
    in_scc: &[bool],
    edges: &[Vec<EdgeRec>],
    enabled_mask: &[u64],
    health: &[Health],
    n: usize,
) -> Vec<EdgeRec> {
    // Edges may point past the explored horizon when the search was
    // truncated; those are never internal.
    let internal = |t: usize| t < in_scc.len() && in_scc[t];

    // Global (SCC-wide) service facts, for target selection.
    let mut moved = vec![false; n];
    let mut disabled = vec![false; n];
    for &s in scc {
        for e in &edges[s] {
            if internal(e.to) {
                moved[e.mv.pid.index()] = true;
            }
        }
        for (p, d) in disabled.iter_mut().enumerate() {
            if enabled_mask[s] & (1u64 << p) == 0 {
                *d = true;
            }
        }
    }

    let targets: Vec<usize> = (0..n).filter(|&p| health[p].is_live()).collect();

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
        let mut prev: std::collections::HashMap<usize, (usize, EdgeRec)> =
            std::collections::HashMap::new();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(from);
        let mut goal = None;
        'outer: while let Some(u) = queue.pop_front() {
            for e in &edges[u] {
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

    // Route through each service point.
    let mut walk: Vec<EdgeRec> = Vec::new();
    let mut cur = entry;
    let mut moved_now = vec![false; n];
    let mut disabled_now = vec![false; n];
    let absorb_state = |s: usize, disabled_now: &mut Vec<bool>| {
        for (p, d) in disabled_now.iter_mut().enumerate() {
            if enabled_mask[s] & (1u64 << p) == 0 {
                *d = true;
            }
        }
    };
    absorb_state(entry, &mut disabled_now);
    for q in targets {
        if moved_now[q] || disabled_now[q] {
            continue;
        }
        if moved[q] {
            // Go to a state with an internal edge moving q, then take it.
            let path = bfs_path(cur, &|s: usize| {
                edges[s]
                    .iter()
                    .any(|e| internal(e.to) && e.mv.pid.index() == q)
            });
            for e in &path {
                moved_now[e.mv.pid.index()] = true;
                absorb_state(e.to, &mut disabled_now);
                cur = e.to;
            }
            walk.extend_from_slice(&path);
            let e = *edges[cur]
                .iter()
                .find(|e| internal(e.to) && e.mv.pid.index() == q)
                .expect("BFS accepted this state");
            moved_now[q] = true;
            absorb_state(e.to, &mut disabled_now);
            cur = e.to;
            walk.push(e);
        } else {
            // Go to a state where q is disabled.
            let path = bfs_path(cur, &|s: usize| enabled_mask[s] & (1u64 << q) == 0);
            for e in &path {
                moved_now[e.mv.pid.index()] = true;
                absorb_state(e.to, &mut disabled_now);
                cur = e.to;
            }
            walk.extend_from_slice(&path);
            disabled_now[q] = true;
        }
    }
    // Close the cycle back to the entry.
    if cur != entry || walk.is_empty() {
        // A closing path must make at least one move; when already at
        // the entry with an empty walk, force one hop first.
        if cur == entry {
            let e = *edges[entry]
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

    // Reconstruct the concrete root: stored root window is ρ·S, so
    // S = ρ⁻¹ · stored.
    let root_window = &search.words[root * stride..(root + 1) * stride];
    let mut buf = vec![0u64; stride];
    let mut state = if group.is_trivial() {
        codec.decode(root_window)
    } else {
        let rho_inv = group.perms()[search.perms[root] as usize].inverse(topo);
        permute_packed(codec, &rho_inv, root_window, &mut buf);
        codec.decode(&buf)
    };

    // Replay the stem.
    for &mv in &stem {
        if !enabled_moves(alg, topo, &state, health, needs).contains(&mv) {
            return None;
        }
        state = apply(alg, topo, &state, mv, needs);
    }
    let mut entry_words = vec![0u64; stride];
    codec.encode_into(&state, &mut entry_words);

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

    /// Zero-elapsed rate reporting stays finite (regression for the
    /// division-edge-case audit).
    #[test]
    fn report_rates_are_finite_on_empty_and_instant_reports() {
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
        assert!(report.states_per_sec().is_finite());
        let instant = LivenessReport {
            elapsed: Duration::ZERO,
            states: 1_000_000,
            ..report
        };
        assert_eq!(instant.states_per_sec(), 0.0);
    }
}
