//! Exhaustive state-space exploration (bounded model checking).
//!
//! For small systems the guarded-command model is finite enough to
//! enumerate *every* reachable state under *every* daemon — a much
//! stronger check than any sampled schedule: a safety property verified
//! here holds for all weakly fair computations (and all unfair ones).
//!
//! [`explore_with`] runs a BFS over global states from a given initial
//! state, following every enabled move of every live process, checking a
//! safety predicate in each state and reporting deadlocks (states with no
//! enabled move). The search visits at most [`Limits::max_states`]
//! states; the report says whether a state beyond that bound exists, so
//! "verified" is only claimed for complete searches.
//!
//! # Representation
//!
//! The visited set is a flat `Vec<u64>` arena of fixed-stride bit-packed
//! states ([`crate::codec`]); states are decoded only for the safety
//! check and for their own expansion. States are identified by a 64-bit
//! [`crate::fingerprint`] of their packed words; fingerprint collisions
//! are resolved by comparing windows word for word within the
//! fingerprint's bucket, so deduplication is exact, not probabilistic.
//! [`Reduction`] picks the dedup rule:
//!
//! * [`Reduction::Packed`] (the default) — one arena entry per concrete
//!   state.
//! * [`Reduction::Symmetry`] — dedup by *canonical form* under the
//!   topology's automorphism subgroup ([`crate::symmetry`]), storing one
//!   representative per orbit. Sound only for equivariant algorithms
//!   ([`StateCodec::respects_symmetry`]) and symmetric safety predicates;
//!   non-equivariant algorithms silently degrade to the identity group
//!   (= `Packed` behaviour). Counterexample traces are *rehydrated*
//!   through the stored permutations, so the reported trace is a valid
//!   concrete trace of the original (unpermuted) system.
//!
//! The differential suites check `Packed` field for field against a plain
//! FIFO search over cloned states that lives in the crate's test support.
//!
//! # One driver
//!
//! The BFS is *layered*: the frontier at depth `d` is fully expanded
//! (moves enumerated, successors packed and fingerprinted — the expensive
//! part), then merged sequentially in frontier order into the visited
//! set. Layering leaves the discovery order, transition counts, deadlock
//! counts, and early-exit points identical to the classic FIFO-queue
//! formulation, and makes the expansion embarrassingly parallel: a
//! frontier of at least `threads * 4` states is sharded across scoped
//! worker threads and the shards' results are concatenated in shard
//! order, so the report is bit-identical at every thread count.
//! [`ExploreConfig::threads`] is clamped to `[1, available_parallelism]`:
//! the default `0` means sequential, and a single-core host never spawns
//! a worker.
//!
//! The workload must be state-independent for the state space to be
//! well-defined: each process either always or never "needs" to eat
//! (the per-process `needs` mask).

use std::time::{Duration, Instant};

use crossbeam::thread;

use crate::algorithm::{enabled_actions, Algorithm, Move, SystemState, View, Write};
use crate::codec::{Codec, StateCodec};
use crate::fault::Health;
use crate::fingerprint::{fingerprint_words, FingerprintMap};
use crate::graph::Topology;
use crate::predicate::Snapshot;
use crate::symmetry::{canonicalize_into, Perm, SymmetryGroup};

/// Exploration bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Limits {
    /// State cap. [`explore_with`] visits at most this many distinct
    /// states and stops as truncated on discovering one more. The lasso
    /// search of [`crate::liveness`] stops as truncated once its graph
    /// holds more than this many, after interning every successor of the
    /// state it was expanding.
    pub max_states: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_states: 1_000_000,
        }
    }
}

/// How the visited set deduplicates states. See the [module docs](self)
/// for the soundness conditions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Reduction {
    /// One packed entry per concrete state (default).
    #[default]
    Packed,
    /// Packed, plus orbit dedup under the topology's automorphism
    /// subgroup when the algorithm declares itself equivariant.
    Symmetry,
}

/// Full configuration for [`explore_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ExploreConfig {
    /// Exploration bounds.
    pub limits: Limits,
    /// Dedup rule.
    pub reduction: Reduction,
    /// Worker threads for frontier expansion, clamped to
    /// `[1, available_parallelism()]`: `0` (the default) and `1` are
    /// sequential.
    pub threads: usize,
}

/// Result of an exhaustive search.
#[derive(Clone, Debug)]
pub struct ExplorationReport {
    /// Distinct states visited (canonical representatives under
    /// [`Reduction::Symmetry`]).
    pub states: usize,
    /// Transitions (state, move) explored.
    pub transitions: u64,
    /// Number of distinct deadlock states (no move enabled anywhere).
    pub deadlocks: usize,
    /// The move sequence to the first property violation, if any. Always
    /// a valid concrete trace of the *original* system, even under
    /// symmetry reduction.
    pub violation: Option<Vec<Move>>,
    /// Whether a state beyond [`Limits::max_states`] was discovered, so
    /// the search stopped before completing.
    pub truncated: bool,
    /// Wall-clock time the search took.
    pub elapsed: Duration,
    /// Worker threads used to expand frontiers (1 = sequential), after
    /// clamping to the host's available parallelism.
    pub threads: usize,
    /// BFS layers expanded (frontier generations, excluding the empty
    /// final one).
    pub layers: usize,
    /// Largest frontier expanded in any layer.
    pub peak_frontier: usize,
    /// Successor states already interned when reached again (dedup
    /// rate = `dedup_hits / transitions`).
    pub dedup_hits: u64,
    /// Bytes held by the packed visited-set arena at termination.
    pub bytes_interned: usize,
    /// High-water mark of simultaneously materialized states: interned
    /// states plus the largest batch of successor candidates held during
    /// any layer merge.
    pub peak_states: usize,
}

impl ExplorationReport {
    /// Whether the property was verified over the *complete* reachable
    /// state space.
    pub fn verified(&self) -> bool {
        self.violation.is_none() && !self.truncated
    }

    /// Distinct states visited per second of wall-clock time (`0.0` when
    /// the search finished too fast to time — a sub-tick elapsed must not
    /// turn into an infinite or garbage rate).
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

    /// Fraction of explored transitions that landed on an already-known
    /// state (`0.0` before any transition).
    pub fn dedup_rate(&self) -> f64 {
        if self.transitions == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / self.transitions as f64
        }
    }

    /// Average arena bytes per interned state (`0.0` before any state).
    pub fn bytes_per_state(&self) -> f64 {
        if self.states == 0 {
            0.0
        } else {
            self.bytes_interned as f64 / self.states as f64
        }
    }
}

/// The host's available parallelism (≥ 1).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Exhaustively explore the reachable state space of `alg` on `topo`
/// from `initial` with the given health vector and per-process `needs`
/// mask, checking `safety` in every reachable state, under the bounds,
/// dedup rule and thread count of `config`.
///
/// Under [`Reduction::Symmetry`] the caller asserts that the safety
/// predicate is *symmetric* (invariant under the topology's automorphism
/// group); the algorithm side of the soundness condition is checked via
/// [`StateCodec::respects_symmetry`] and degrades to no reduction when
/// absent.
///
/// # Panics
///
/// Panics if `needs` or `health` length differs from the topology size,
/// or if a worker thread panics.
pub fn explore_with<A, F>(
    alg: &A,
    topo: &Topology,
    initial: SystemState<A>,
    health: &[Health],
    needs: &[bool],
    safety: F,
    config: ExploreConfig,
) -> ExplorationReport
where
    A: StateCodec + Sync,
    A::Local: Send + Sync,
    A::Edge: Send + Sync,
    F: Fn(&Snapshot<'_, A>) -> bool,
{
    assert_eq!(needs.len(), topo.len(), "needs mask size mismatch");
    assert_eq!(health.len(), topo.len(), "health vector size mismatch");
    let threads = config.threads.clamp(1, available_parallelism());
    let codec = Codec::new(alg, topo);
    let group = effective_group(alg, topo, needs, health, config.reduction);
    let template = initial.clone();
    let new_expander = || PackedExpander::new(alg, &codec, &group, health, needs, template.clone());
    let mut inline = new_expander();
    search_loop_packed(
        &codec,
        &group,
        initial,
        health,
        safety,
        config.limits,
        threads,
        |frontier, arena| {
            // Small frontiers are not worth a spawn: expand them inline.
            // Either way the result is the same sequence.
            if threads == 1 || frontier.len() < threads * 4 {
                frontier.iter().map(|&i| inline.expand(arena, i)).collect()
            } else {
                expand_sharded(frontier, arena, threads, &new_expander)
            }
        },
    )
}

/// Expand `frontier` on `threads` scoped workers, one contiguous shard
/// and one expander each, joining the workers in shard order so the
/// concatenated result equals an inline expansion's.
fn expand_sharded<'a, A, N>(
    frontier: &[usize],
    arena: &[u64],
    threads: usize,
    new_expander: &N,
) -> Vec<PackedExpansion>
where
    A: StateCodec + 'a,
    N: Fn() -> PackedExpander<'a, A> + Sync,
{
    let shard = frontier.len().div_ceil(threads);
    thread::scope(|s| {
        let workers: Vec<_> = frontier
            .chunks(shard)
            .map(|chunk| {
                s.spawn(move |_| {
                    let mut expander = new_expander();
                    chunk
                        .iter()
                        .map(|&i| expander.expand(arena, i))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("explore worker panicked"))
            .collect()
    })
    .expect("explore worker panicked")
}

/// The symmetry group actually used for a reduction mode: trivial unless
/// `Symmetry` was requested *and* the algorithm is equivariant, and then
/// only the stabilizer of the exploration context.
pub(crate) fn effective_group<A: StateCodec>(
    alg: &A,
    topo: &Topology,
    needs: &[bool],
    health: &[Health],
    reduction: Reduction,
) -> SymmetryGroup {
    match reduction {
        Reduction::Symmetry if alg.respects_symmetry() => {
            SymmetryGroup::for_topology(topo).stabilizing(needs, health)
        }
        _ => SymmetryGroup::identity(topo),
    }
}

/// Successors of one packed frontier state. `words` holds the packed
/// (and, under symmetry, canonicalized) successor windows back to back;
/// `moves[k]` pairs the raw move (in the canonical parent's frame) with
/// the successor's fingerprint and the index of the permutation that
/// canonicalized it. Plain `u64`/`Move` data — nothing algorithm-typed
/// crosses the thread boundary.
pub(crate) struct PackedExpansion {
    pub(crate) parent: usize,
    pub(crate) moves: Vec<(Move, u64, u32)>,
    pub(crate) words: Vec<u64>,
}

/// Reusable scratch for packed expansion: one decoded parent state, one
/// move buffer and three packed windows, reused across every state the
/// expander touches (per worker, when parallel).
pub(crate) struct PackedExpander<'a, A: StateCodec> {
    alg: &'a A,
    codec: &'a Codec<'a, A>,
    group: &'a SymmetryGroup,
    health: &'a [Health],
    needs: &'a [bool],
    state: SystemState<A>,
    moves_buf: Vec<Move>,
    succ: Vec<u64>,
    canon: Vec<u64>,
    scratch: Vec<u64>,
}

impl<'a, A: StateCodec> PackedExpander<'a, A> {
    pub(crate) fn new(
        alg: &'a A,
        codec: &'a Codec<'a, A>,
        group: &'a SymmetryGroup,
        health: &'a [Health],
        needs: &'a [bool],
        template: SystemState<A>,
    ) -> Self {
        let stride = codec.words();
        PackedExpander {
            alg,
            codec,
            group,
            health,
            needs,
            state: template,
            moves_buf: Vec::new(),
            succ: vec![0u64; stride],
            canon: vec![0u64; stride],
            scratch: vec![0u64; stride],
        }
    }

    pub(crate) fn expand(&mut self, arena: &[u64], idx: usize) -> PackedExpansion {
        let stride = self.codec.words();
        let topo = self.codec.topology();
        let window = &arena[idx * stride..(idx + 1) * stride];
        self.codec.decode_into(window, &mut self.state);
        let mut moves_buf = std::mem::take(&mut self.moves_buf);
        moves_buf.clear();
        enabled_moves_into(
            self.alg,
            topo,
            &self.state,
            self.health,
            self.needs,
            &mut moves_buf,
        );
        let mut out = PackedExpansion {
            parent: idx,
            moves: Vec::with_capacity(moves_buf.len()),
            words: Vec::with_capacity(moves_buf.len() * stride),
        };
        for &mv in &moves_buf {
            // Successor = parent words with the move's writes patched in —
            // no full re-encode.
            self.succ.copy_from_slice(window);
            let writes: Vec<Write<A>> = {
                let view = View::new(topo, &self.state, mv.pid, self.needs[mv.pid.index()]);
                self.alg.execute(&view, mv.action)
            };
            for w in writes {
                match w {
                    Write::Local(l) => self.codec.set_local(&mut self.succ, mv.pid, &l),
                    Write::Edge { neighbor, value } => {
                        let e = topo
                            .edge_between(mv.pid, neighbor)
                            .expect("edge write to neighbor");
                        self.codec.set_edge(&mut self.succ, e, &value);
                    }
                }
            }
            let (fp, pi) = if self.group.is_trivial() {
                (fingerprint_words(&self.succ), 0u32)
            } else {
                let pi = canonicalize_into(
                    self.codec,
                    self.group,
                    &self.succ,
                    &mut self.canon,
                    &mut self.scratch,
                );
                self.succ.copy_from_slice(&self.canon);
                (fingerprint_words(&self.succ), pi)
            };
            out.moves.push((mv, fp, pi));
            out.words.extend_from_slice(&self.succ);
        }
        self.moves_buf = moves_buf;
        out
    }
}

/// The layered BFS driver. `expand_layer` turns a frontier (indices into
/// the arena) into one [`PackedExpansion`] per frontier state, *in
/// frontier order*; the merge below is sequential whatever the expansion
/// did, which is what makes every thread count produce the same report.
/// States are decoded only for the safety check (and on fingerprint
/// collisions, inside `intern`'s window compare).
#[allow(clippy::too_many_arguments)]
fn search_loop_packed<A, F, E>(
    codec: &Codec<'_, A>,
    group: &SymmetryGroup,
    initial: SystemState<A>,
    health: &[Health],
    safety: F,
    limits: Limits,
    threads: usize,
    mut expand_layer: E,
) -> ExplorationReport
where
    A: StateCodec,
    F: Fn(&Snapshot<'_, A>) -> bool,
    E: FnMut(&[usize], &[u64]) -> Vec<PackedExpansion>,
{
    let topo = codec.topology();
    let start = Instant::now();
    let stride = codec.words();
    let mut report = ExplorationReport {
        states: 1,
        transitions: 0,
        deadlocks: 0,
        violation: None,
        truncated: false,
        elapsed: Duration::ZERO,
        threads,
        layers: 0,
        peak_frontier: 0,
        dedup_hits: 0,
        bytes_interned: stride * 8,
        peak_states: 1,
    };

    let check = |state: &SystemState<A>| -> bool {
        let snap = Snapshot::new(topo, state, health);
        safety(&snap)
    };

    // The initial state is checked in its *original* frame, before any
    // canonicalization: a violation at depth 0 reports the empty trace of
    // the unpermuted system.
    if !check(&initial) {
        report.violation = Some(Vec::new());
        report.elapsed = start.elapsed();
        return report;
    }

    let mut search = PackedSearch::new(stride);
    let packed = codec.encode(&initial);
    let mut canon = vec![0u64; stride];
    let mut scratch = vec![0u64; stride];
    let root_perm = if group.is_trivial() {
        canon.copy_from_slice(&packed);
        0
    } else {
        canonicalize_into(codec, group, &packed, &mut canon, &mut scratch)
    };
    search.intern(&canon, fingerprint_words(&canon), None, root_perm);
    // `initial` is recycled as the decode scratch for safety checks.
    let mut check_state = initial;
    let mut frontier = vec![0usize];

    'bfs: while !frontier.is_empty() {
        report.layers += 1;
        report.peak_frontier = report.peak_frontier.max(frontier.len());
        let expansions = expand_layer(&frontier, &search.words);
        let in_flight: usize = expansions.iter().map(|e| e.moves.len()).sum();
        report.peak_states = report.peak_states.max(search.len() + in_flight);
        let mut next_frontier = Vec::new();
        for exp in expansions {
            if exp.moves.is_empty() {
                report.deadlocks += 1;
                continue;
            }
            for (k, &(mv, fp, pi)) in exp.moves.iter().enumerate() {
                report.transitions += 1;
                let cand = &exp.words[k * stride..(k + 1) * stride];
                if search.len() >= limits.max_states && search.find(cand, fp).is_none() {
                    // A state beyond the bound: the space is larger than
                    // the search may visit.
                    report.truncated = true;
                    break 'bfs;
                }
                let (idx, is_new) = search.intern(cand, fp, Some((exp.parent, mv)), pi);
                if !is_new {
                    report.dedup_hits += 1;
                    continue;
                }
                codec.decode_into(cand, &mut check_state);
                if !check(&check_state) {
                    report.violation = Some(rehydrate_path(topo, group, &search, idx).1);
                    break 'bfs;
                }
                next_frontier.push(idx);
            }
        }
        frontier = next_frontier;
    }

    report.states = search.len();
    report.bytes_interned = search.words.len() * 8;
    report.peak_states = report.peak_states.max(report.states);
    report.elapsed = start.elapsed();
    report
}

/// The visited set: a flat fixed-stride word arena plus a fingerprint
/// index, parent links and (under symmetry) the permutation that
/// canonicalized each state.
pub(crate) struct PackedSearch {
    pub(crate) stride: usize,
    pub(crate) ids: FingerprintMap<Vec<usize>>,
    pub(crate) parents: Vec<Option<(usize, Move)>>,
    /// Index (into the group's perms) of π with `stored = π · raw`.
    pub(crate) perms: Vec<u32>,
    pub(crate) words: Vec<u64>,
}

impl PackedSearch {
    pub(crate) fn new(stride: usize) -> Self {
        PackedSearch {
            stride,
            ids: FingerprintMap::default(),
            parents: Vec::new(),
            perms: Vec::new(),
            words: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.parents.len()
    }

    /// The index of an interned window, if any.
    pub(crate) fn find(&self, cand: &[u64], fp: u64) -> Option<usize> {
        let bucket = self.ids.get(&fp)?;
        find_in(bucket, &self.words, self.stride, cand)
    }

    /// Intern a packed window: exact dedup by word-for-word compare
    /// within the fingerprint's bucket.
    pub(crate) fn intern(
        &mut self,
        cand: &[u64],
        fp: u64,
        parent: Option<(usize, Move)>,
        perm: u32,
    ) -> (usize, bool) {
        debug_assert_eq!(cand.len(), self.stride);
        let bucket = self.ids.entry(fp).or_default();
        if let Some(i) = find_in(bucket, &self.words, self.stride, cand) {
            return (i, false);
        }
        let idx = self.parents.len();
        bucket.push(idx);
        self.parents.push(parent);
        self.perms.push(perm);
        self.words.extend_from_slice(cand);
        (idx, true)
    }
}

/// The index, among a fingerprint bucket's entries, of the stored window
/// equal to `cand`: one lookup routine for `find` and `intern`, which
/// holds the bucket through the map's entry so a new state costs a
/// single probe.
fn find_in(bucket: &[usize], words: &[u64], stride: usize, cand: &[u64]) -> Option<usize> {
    bucket
        .iter()
        .copied()
        .find(|&i| &words[i * stride..(i + 1) * stride] == cand)
}

pub(crate) fn enabled_moves<A: Algorithm>(
    alg: &A,
    topo: &Topology,
    state: &SystemState<A>,
    health: &[Health],
    needs: &[bool],
) -> Vec<Move> {
    let mut moves = Vec::new();
    enabled_moves_into(alg, topo, state, health, needs, &mut moves);
    moves
}

pub(crate) fn enabled_moves_into<A: Algorithm>(
    alg: &A,
    topo: &Topology,
    state: &SystemState<A>,
    health: &[Health],
    needs: &[bool],
    moves: &mut Vec<Move>,
) {
    for p in topo.processes() {
        if !health[p.index()].is_live() {
            continue;
        }
        let view = View::new(topo, state, p, needs[p.index()]);
        // `for_each`, as in `Engine::enumerate_process`.
        enabled_actions(alg, &view).for_each(|action| moves.push(Move { pid: p, action }));
    }
}

pub(crate) fn apply<A: Algorithm>(
    alg: &A,
    topo: &Topology,
    state: &SystemState<A>,
    mv: Move,
    needs: &[bool],
) -> SystemState<A> {
    let view = View::new(topo, state, mv.pid, needs[mv.pid.index()]);
    let mut next = state.clone();
    next.apply(topo, mv.pid, alg.execute(&view, mv.action));
    next
}

/// Rehydrate the parent-link path that ends at `idx` into a concrete
/// trace of the original system. Returns the index of the path's root,
/// the concrete moves from that root, and the frame map `σ` at `idx`.
///
/// Each stored state `C` satisfies `C = ρ · S`, where `S` is the raw
/// successor reached from its canonical parent by the stored move and
/// `ρ` the canonicalizing permutation (for a root, `S` is the original
/// initial state). Walking root→`idx`, maintain the frame map
/// `σ` = "canonical coordinates → original coordinates": at the root
/// `σ₀ = ρ₀⁻¹`; each stored move (expressed in the canonical parent's
/// frame) becomes the concrete move `σ(m)`; and after descending through
/// a child with permutation `ρ`, the frame composes as `σ ← σ ∘ ρ⁻¹`.
/// By equivariance the resulting moves are enabled in the original
/// system and end in the image of the stored state under `σ`. With the
/// identity group every `σ` is the identity and this reduces to plain
/// parent-link walking.
pub(crate) fn rehydrate_path(
    topo: &Topology,
    group: &SymmetryGroup,
    search: &PackedSearch,
    idx: usize,
) -> (usize, Vec<Move>, Perm) {
    let mut chain = Vec::new();
    let mut root = idx;
    while let Some((parent, mv)) = search.parents[root] {
        chain.push((root, mv));
        root = parent;
    }
    chain.reverse();

    if group.is_trivial() {
        let moves = chain.into_iter().map(|(_, mv)| mv).collect();
        return (root, moves, Perm::identity(topo));
    }
    let inverses: Vec<Perm> = group.perms().iter().map(|p| p.inverse(topo)).collect();
    let mut sigma = inverses[search.perms[root] as usize].clone();
    let mut moves = Vec::with_capacity(chain.len());
    for (i, mv) in chain {
        moves.push(sigma.permute_move(topo, mv));
        sigma = sigma.compose(topo, &inverses[search.perms[i] as usize]);
    }
    (root, moves, sigma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Phase;
    use crate::graph::ProcessId;
    use crate::graph::Topology;
    use crate::toy::ToyDiners;

    fn live(n: usize) -> Vec<Health> {
        vec![Health::Live; n]
    }

    fn exclusion(snap: &Snapshot<'_, ToyDiners>) -> bool {
        snap.topo.edges().iter().all(|&(a, b)| {
            !(*snap.state.local(a) == Phase::Eating && *snap.state.local(b) == Phase::Eating)
        })
    }

    fn nobody_eats(snap: &Snapshot<'_, ToyDiners>) -> bool {
        snap.topo
            .processes()
            .all(|p| *snap.state.local(p) != Phase::Eating)
    }

    /// The toy diners on `topo` from the initial state, every process live.
    fn toy(
        topo: &Topology,
        needs: &[bool],
        safety: fn(&Snapshot<'_, ToyDiners>) -> bool,
        limits: Limits,
        threads: usize,
    ) -> ExplorationReport {
        explore_with(
            &ToyDiners,
            topo,
            SystemState::initial(&ToyDiners, topo),
            &live(topo.len()),
            needs,
            safety,
            ExploreConfig {
                limits,
                reduction: Reduction::Packed,
                threads,
            },
        )
    }

    #[test]
    fn toy_diners_exclusion_verified_on_a_line() {
        let topo = Topology::line(3);
        let report = toy(&topo, &[true; 3], exclusion, Limits::default(), 1);
        assert!(report.verified(), "{report:?}");
        assert_eq!(report.deadlocks, 0);
        // 3 processes x 3 phases = up to 27 states; all reachable except
        // those with adjacent eaters.
        assert!(report.states <= 27, "{}", report.states);
        assert!(report.transitions > 0);
        assert_eq!(report.threads, 1);
    }

    #[test]
    fn toy_diners_exclusion_verified_on_a_ring() {
        let topo = Topology::ring(4);
        let report = toy(&topo, &[true; 4], exclusion, Limits::default(), 1);
        assert!(report.verified(), "{report:?}");
    }

    #[test]
    fn violation_is_found_and_traced_from_a_bad_start() {
        // Start with two adjacent eaters: the initial state itself
        // violates exclusion.
        let topo = Topology::line(2);
        let mut initial = SystemState::initial(&ToyDiners, &topo);
        *initial.local_mut(ProcessId(0)) = Phase::Eating;
        *initial.local_mut(ProcessId(1)) = Phase::Eating;
        let report = explore_with(
            &ToyDiners,
            &topo,
            initial,
            &live(2),
            &[true; 2],
            exclusion,
            ExploreConfig::default(),
        );
        assert!(!report.verified());
        assert_eq!(report.violation, Some(Vec::new()), "violated at depth 0");
    }

    #[test]
    fn sated_system_deadlocks_quietly() {
        // Nobody needs to eat: the all-thinking state has no enabled
        // move; it is the single (expected) "deadlock".
        let topo = Topology::line(2);
        let report = toy(&topo, &[false; 2], exclusion, Limits::default(), 1);
        assert!(report.verified());
        assert_eq!(report.states, 1);
        assert_eq!(report.deadlocks, 1);
    }

    #[test]
    fn truncation_is_reported() {
        let topo = Topology::ring(4);
        let report = toy(&topo, &[true; 4], exclusion, Limits { max_states: 3 }, 1);
        assert!(report.truncated);
        assert!(!report.verified());
        assert_eq!(report.states, 3, "the bound is visited, not exceeded");
    }

    #[test]
    fn a_space_of_exactly_max_states_is_complete() {
        // Regression: the search used to report truncation as soon as the
        // bound was *reached*, so a space with exactly `max_states` states
        // was never verified.
        let topo = Topology::line(3);
        let full = toy(&topo, &[true; 3], exclusion, Limits::default(), 1);
        assert!(full.verified());
        let exact = Limits {
            max_states: full.states,
        };
        let rerun = toy(&topo, &[true; 3], exclusion, exact, 1);
        assert!(rerun.verified(), "{rerun:?}");
        assert_eq!(rerun.states, full.states);
        assert_eq!(rerun.transitions, full.transitions);
        let short = Limits {
            max_states: full.states - 1,
        };
        let cut = toy(&topo, &[true; 3], exclusion, short, 1);
        assert!(cut.truncated);
        assert_eq!(cut.states, full.states - 1);
    }

    #[test]
    fn dead_process_takes_no_moves() {
        let topo = Topology::line(2);
        let mut initial = SystemState::initial(&ToyDiners, &topo);
        *initial.local_mut(ProcessId(0)) = Phase::Eating; // dead while eating
        let mut health = live(2);
        health[0] = Health::Dead;
        let report = explore_with(
            &ToyDiners,
            &topo,
            initial,
            &health,
            &[true; 2],
            exclusion,
            ExploreConfig::default(),
        );
        // p1 can only join (enter blocked by the dead eater): states are
        // {E,T}, {E,H}.
        assert!(report.verified(), "{report:?}");
        assert_eq!(report.states, 2);
    }

    #[test]
    fn packed_interning_resolves_forced_fingerprint_collisions() {
        let mut search = PackedSearch::new(1);
        let (ia, new_a) = search.intern(&[3], 42, None, 0);
        let (ib, new_b) = search.intern(&[5], 42, None, 0);
        assert!(new_a && new_b);
        assert_ne!(ia, ib);
        let (ia2, new_a2) = search.intern(&[3], 42, None, 0);
        assert_eq!(ia2, ia);
        assert!(!new_a2);
        assert_eq!(search.len(), 2);
        assert_eq!(search.find(&[5], 42), Some(ib));
        assert_eq!(search.find(&[7], 42), None);
        assert_eq!(search.find(&[3], 43), None);
    }

    /// Reports must agree field-for-field (modulo wall-clock and thread
    /// count).
    fn assert_same_search(a: &ExplorationReport, b: &ExplorationReport) {
        assert_eq!(a.states, b.states);
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.deadlocks, b.deadlocks);
        assert_eq!(a.violation, b.violation);
        assert_eq!(a.truncated, b.truncated);
        assert_eq!(a.layers, b.layers);
        assert_eq!(a.peak_frontier, b.peak_frontier);
        assert_eq!(a.dedup_hits, b.dedup_hits);
    }

    #[test]
    fn layer_stats_populated_in_sequential_path() {
        let topo = Topology::ring(5);
        let rep = toy(&topo, &[true; 5], exclusion, Limits::default(), 1);
        assert!(rep.layers > 1, "expected multiple BFS layers");
        assert!(rep.peak_frontier >= 1);
        assert!(rep.dedup_hits > 0, "a ring search must revisit states");
        assert!(rep.dedup_rate() > 0.0 && rep.dedup_rate() < 1.0);
        assert_eq!(
            rep.transitions,
            rep.dedup_hits + rep.states as u64 - 1,
            "every transition either discovers a state or is a dedup hit"
        );
        assert!(rep.bytes_interned > 0);
        assert!(rep.peak_states >= rep.states);
    }

    #[test]
    fn parallel_search_matches_sequential() {
        let topo = Topology::ring(5);
        let seq = toy(&topo, &[true; 5], exclusion, Limits::default(), 1);
        for threads in [2, 4] {
            let par = toy(&topo, &[true; 5], exclusion, Limits::default(), threads);
            assert_same_search(&seq, &par);
            // Requested threads are clamped to the host's parallelism.
            assert_eq!(par.threads, threads.min(available_parallelism()));
        }
    }

    #[test]
    fn parallel_search_matches_sequential_on_truncation() {
        let topo = Topology::ring(5);
        let limits = Limits { max_states: 17 };
        let seq = toy(&topo, &[true; 5], exclusion, limits, 1);
        let par = toy(&topo, &[true; 5], exclusion, limits, 3);
        assert!(seq.truncated);
        assert_same_search(&seq, &par);
    }

    #[test]
    fn parallel_search_finds_the_same_violation_trace() {
        // Violations are reachable when a "safety" predicate forbids
        // something the toy algorithm actually does: claim no process
        // ever eats.
        let topo = Topology::line(4);
        let seq = toy(&topo, &[true; 4], nobody_eats, Limits::default(), 1);
        let par = toy(&topo, &[true; 4], nobody_eats, Limits::default(), 4);
        assert!(seq.violation.is_some());
        assert_same_search(&seq, &par);
    }

    #[test]
    fn zero_threads_means_sequential() {
        let topo = Topology::line(3);
        let report = toy(&topo, &[true; 3], exclusion, Limits::default(), 0);
        assert!(report.verified());
        assert_eq!(report.threads, 1);
        assert_eq!(ExploreConfig::default().threads, 0);
    }

    #[test]
    fn oversubscribed_threads_are_clamped_to_the_host() {
        // Requesting more workers than cores must not pessimize: the
        // report reflects the clamp, and the result is the sequential
        // report itself.
        let topo = Topology::ring(4);
        let par = toy(&topo, &[true; 4], exclusion, Limits::default(), 1024);
        assert_eq!(par.threads, available_parallelism());
        let seq = toy(&topo, &[true; 4], exclusion, Limits::default(), 1);
        assert_same_search(&seq, &par);
    }

    #[test]
    fn symmetry_on_non_equivariant_algorithm_degrades_to_packed() {
        // ToyDiners breaks ties by absolute id, so respects_symmetry is
        // false and Reduction::Symmetry must behave exactly like Packed.
        let topo = Topology::ring(5);
        let run = |reduction| {
            explore_with(
                &ToyDiners,
                &topo,
                SystemState::initial(&ToyDiners, &topo),
                &live(5),
                &[true; 5],
                exclusion,
                ExploreConfig {
                    reduction,
                    ..ExploreConfig::default()
                },
            )
        };
        let packed = run(Reduction::Packed);
        let sym = run(Reduction::Symmetry);
        assert_same_search(&packed, &sym);
    }

    #[test]
    fn states_per_sec_is_finite() {
        let topo = Topology::ring(4);
        let report = toy(&topo, &[true; 4], exclusion, Limits::default(), 1);
        let rate = report.states_per_sec();
        assert!(rate.is_finite() && rate >= 0.0);
        assert!(report.bytes_per_state() > 0.0);
    }
}
