//! Footprint analysis and contract certification for [`Algorithm`]s.
//!
//! Four shipped subsystems rest on assumptions about how an algorithm
//! reads and writes the shared-memory state:
//!
//! * the incremental engine's dirty-set soundness (a step at `p` can only
//!   change guard values inside `p`'s closed neighborhood),
//! * the causal tracer's parent computation (parents are the last writers
//!   of the guard's closed-neighborhood reads),
//! * symmetry reduction ([`StateCodec::respects_symmetry`] — until now a
//!   hand-asserted boolean), and
//! * the paper's failure-locality theorem itself, which is a footprint
//!   statement: a crash's influence is bounded by the read/write radius
//!   of actions.
//!
//! This module turns those assumptions into *checked contracts*. The core
//! is an instrumented view: [`View::traced`] attaches an [`AccessLog`]
//! that records every local/edge/needs read a guard or command performs,
//! and the returned [`Write`]s are the exact write set. Driving the
//! algorithm over a systematic state corpus ([`build_corpus`]: the full
//! corruption lattice when it is small enough, seeded `corrupt_all`
//! sweeps plus one-step successors otherwise) infers per-[`ActionKind`]
//! read/write footprints with radius bounds and feeds three certifiers:
//!
//! 1. **locality** — every guard/command read stays in the closed
//!    neighborhood, every command write targets the process's own local
//!    or an incident edge, and `malicious_writes` stays within the
//!    restricted-update capability ([`Algorithm::malicious_edge_allowed`]);
//! 2. **purity** — `enabled`/`execute` are functions of the view and
//!    `malicious_writes` is a function of (view, rng), checked by
//!    double-evaluation differentials;
//! 3. **equivariance** — decides [`StateCodec::respects_symmetry`]
//!    empirically by checking step-vs-automorphism commutation over the
//!    corpus, refuting with a concrete witness.
//!
//! The same [`check_write`] classifier gates every write the engine
//! applies (debug panic; rejected and counted in release), so fuzzing
//! cross-checks the static verdicts. Deliberately ill-behaved fixtures
//! live in [`testbad`]; each certifier must refute them.
//!
//! [`ActionKind`]: crate::algorithm::ActionKind

pub mod testbad;

use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::time::Instant;

use crate::algorithm::{
    action_instances, enabled_actions, Algorithm, Move, SystemState, View, Write,
};
use crate::codec::{Codec, StateCodec};
use crate::graph::{EdgeId, ProcessId, Topology};
use crate::rng;
use crate::symmetry::{Perm, SymmetryGroup};

/// One read performed through a traced [`View`]; see [`AccessLog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReadAccess {
    /// The process's own local state ([`View::local`]).
    OwnLocal,
    /// The workload's `needs():p` bit ([`View::needs`]).
    Needs,
    /// The local state of another process ([`View::neighbor_local`]).
    /// Carries the *target*, which locality certification checks against
    /// the closed neighborhood.
    Local(ProcessId),
    /// The shared variable on the edge towards a neighbor
    /// ([`View::edge_to`]).
    Edge(ProcessId),
}

/// Interior-mutable recorder attached to a [`View::traced`] view: every
/// state-reading accessor appends a [`ReadAccess`] here. Accessors take
/// `&self`, hence the `RefCell`.
#[derive(Debug, Default)]
pub struct AccessLog {
    reads: RefCell<Vec<ReadAccess>>,
}

impl AccessLog {
    /// An empty log.
    pub fn new() -> Self {
        AccessLog::default()
    }

    /// Append one access (called by the traced view accessors).
    pub fn record(&self, access: ReadAccess) {
        self.reads.borrow_mut().push(access);
    }

    /// Drain and return everything recorded since the last take/clear.
    pub fn take(&self) -> Vec<ReadAccess> {
        std::mem::take(&mut *self.reads.borrow_mut())
    }

    /// Discard everything recorded so far.
    pub fn clear(&self) {
        self.reads.borrow_mut().clear();
    }
}

/// A write that violates the model's write contract, as classified by
/// [`check_write`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WriteViolation {
    /// An edge write whose target is not adjacent to the writer.
    NonNeighborEdge {
        /// The writing process.
        pid: ProcessId,
        /// The non-adjacent target.
        neighbor: ProcessId,
    },
    /// A malicious-step edge write outside the algorithm's declared
    /// restricted-update capability ([`Algorithm::malicious_edge_allowed`]).
    CapabilityExceeded {
        /// The writing process.
        pid: ProcessId,
        /// The adjacent neighbor whose shared variable was written.
        neighbor: ProcessId,
    },
}

impl fmt::Display for WriteViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteViolation::NonNeighborEdge { pid, neighbor } => {
                write!(f, "{pid} wrote edge to non-neighbor {neighbor}")
            }
            WriteViolation::CapabilityExceeded { pid, neighbor } => write!(
                f,
                "{pid} maliciously wrote the edge to {neighbor} outside its capability"
            ),
        }
    }
}

/// Classify one write of a (possibly malicious) step against the model's
/// write contract: local writes always target the writer's own local;
/// edge writes must target an incident edge; malicious edge writes must
/// additionally pass [`Algorithm::malicious_edge_allowed`]. Used both by
/// the locality certifier and by the engine's runtime contract check.
pub fn check_write<A: Algorithm>(
    alg: &A,
    topo: &Topology,
    pid: ProcessId,
    malicious: bool,
    w: &Write<A>,
) -> Option<WriteViolation> {
    match w {
        Write::Local(_) => None,
        Write::Edge { neighbor, value } => {
            if !topo.are_neighbors(pid, *neighbor) {
                Some(WriteViolation::NonNeighborEdge {
                    pid,
                    neighbor: *neighbor,
                })
            } else if malicious && !alg.malicious_edge_allowed(topo, pid, *neighbor, value) {
                Some(WriteViolation::CapabilityExceeded {
                    pid,
                    neighbor: *neighbor,
                })
            } else {
                None
            }
        }
    }
}

/// Aggregated read/write footprint of one evaluation context (the guard,
/// command or malicious step of one action kind) over the whole corpus.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessSummary {
    /// Some evaluation read the process's own local state.
    pub reads_own_local: bool,
    /// Some evaluation read the workload's `needs()` bit.
    pub reads_needs: bool,
    /// Some evaluation read another process's local state.
    pub reads_neighbor_local: bool,
    /// Some evaluation read an incident shared edge variable.
    pub reads_edge: bool,
    /// Some evaluation wrote the process's own local state.
    pub writes_local: bool,
    /// Some evaluation wrote a shared edge variable.
    pub writes_edge: bool,
    /// Maximum graph distance of any read target (0 = own variables).
    pub read_radius: u32,
    /// Maximum write radius (0 = own local, 1 = incident edge; larger
    /// values only arise from contract violations).
    pub write_radius: u32,
}

impl AccessSummary {
    fn absorb_read(&mut self, topo: &Topology, p: ProcessId, access: ReadAccess) {
        match access {
            ReadAccess::OwnLocal => self.reads_own_local = true,
            ReadAccess::Needs => self.reads_needs = true,
            ReadAccess::Local(q) => {
                if q == p {
                    self.reads_own_local = true;
                } else {
                    self.reads_neighbor_local = true;
                    self.read_radius = self.read_radius.max(hops(topo, p, q));
                }
            }
            ReadAccess::Edge(q) => {
                self.reads_edge = true;
                self.read_radius = self.read_radius.max(hops(topo, p, q).max(1));
            }
        }
    }

    fn absorb_write(&mut self, topo: &Topology, p: ProcessId, target: Option<ProcessId>) {
        match target {
            None => self.writes_local = true,
            Some(q) => {
                self.writes_edge = true;
                self.write_radius = self.write_radius.max(hops(topo, p, q).max(1));
            }
        }
    }
}

/// Hop distance from `p` to `q`. A contract-abiding access stays in the
/// closed neighborhood, where this is 0 or 1; only a violating one pays a
/// BFS.
fn hops(topo: &Topology, p: ProcessId, q: ProcessId) -> u32 {
    if p == q {
        0
    } else if topo.are_neighbors(p, q) {
        1
    } else {
        topo.distances_from(&[p])[q.index()]
    }
}

/// The inferred footprint of one [`ActionKind`]: what its guard and its
/// command read and write, aggregated over every corpus evaluation.
///
/// [`ActionKind`]: crate::algorithm::ActionKind
#[derive(Clone, Debug)]
pub struct KindFootprint {
    /// The kind's name.
    pub name: String,
    /// Whether the kind is per-neighbor.
    pub per_neighbor: bool,
    /// Reads performed by `enabled`.
    pub guard: AccessSummary,
    /// Reads and writes performed by `execute`.
    pub command: AccessSummary,
    /// Guard evaluations sampled.
    pub guard_evals: u64,
    /// Evaluations in which the guard held (and the command ran).
    pub fires: u64,
}

/// One certified contract violation, naming the action, the process, the
/// offending access and the state it happened in.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Action kind name, or `"malicious"` for the pseudo-action.
    pub action: String,
    /// The process whose evaluation violated the contract.
    pub pid: ProcessId,
    /// What went wrong (the offending access or differential).
    pub detail: String,
    /// Debug rendering of the state (truncated), for reproduction.
    pub state: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {}: {} [state {}]",
            self.action, self.pid, self.detail, self.state
        )
    }
}

/// Per-certifier verdict: how many checks ran, how many violated the
/// contract, and up to [`CertifierVerdict::MAX_WITNESSES`] concrete
/// witnesses.
#[derive(Clone, Debug, Default)]
pub struct CertifierVerdict {
    /// Individual contract checks performed.
    pub checked: u64,
    /// Total violations (may exceed the retained witnesses).
    pub violation_count: u64,
    /// The first few violations, kept as witnesses.
    pub witnesses: Vec<Violation>,
}

impl CertifierVerdict {
    /// Witness retention cap.
    pub const MAX_WITNESSES: usize = 8;

    /// Whether the contract held on every check.
    pub fn ok(&self) -> bool {
        self.violation_count == 0
    }

    fn record(&mut self, v: Violation) {
        self.violation_count += 1;
        if self.witnesses.len() < Self::MAX_WITNESSES {
            self.witnesses.push(v);
        }
    }
}

/// The equivariance decision: declared vs inferred
/// [`StateCodec::respects_symmetry`], with a refutation witness when the
/// corpus disproves commutation.
#[derive(Clone, Debug)]
pub struct EquivarianceReport {
    /// The hand-declared `respects_symmetry()` value.
    pub declared: bool,
    /// The inferred value: `false` iff commutation was refuted on the
    /// corpus (`true` means *unrefuted*, not proven).
    pub inferred: bool,
    /// Whether the decision procedure had any traction: the topology has
    /// a nontrivial automorphism group and at least one check ran. With
    /// only the identity automorphism nothing can be refuted and the
    /// declaration is passed through.
    pub decidable: bool,
    /// Commutation checks performed.
    pub checked: u64,
    /// The concrete refutation, when `inferred` is false.
    pub witness: Option<String>,
}

impl EquivarianceReport {
    /// Whether the declaration is consistent with the evidence. The check
    /// is one-sided: the corpus can *refute* equivariance (a concrete
    /// non-commuting witness) but never prove it, so declaring `false`
    /// conservatively is always consistent — symmetry reduction is merely
    /// forgone. The only unsound combination is declaring `true` while a
    /// refutation exists.
    pub fn matches_declaration(&self) -> bool {
        !(self.decidable && self.declared && !self.inferred)
    }
}

/// Tuning knobs for [`analyze`].
#[derive(Clone, Copy, Debug)]
pub struct AnalysisConfig {
    /// Corpus size cap. When the full corruption lattice fits under this
    /// cap it is enumerated exhaustively.
    pub max_states: usize,
    /// One-step successor expansion: how many corpus states to expand.
    pub successor_states: usize,
    /// `malicious_writes` samples (distinct rng seeds) per state/process.
    pub malicious_samples: u32,
    /// Corpus prefix length used for the equivariance commutation check
    /// (it multiplies by the automorphism group order).
    pub equivariance_cap: usize,
    /// Base seed for every randomized component (domain discovery,
    /// sweeps, malicious sampling). Analysis is deterministic in it.
    pub seed: u64,
}

impl AnalysisConfig {
    /// Small corpus for tests and CI smoke runs.
    pub fn quick() -> Self {
        AnalysisConfig {
            max_states: 512,
            successor_states: 128,
            malicious_samples: 2,
            equivariance_cap: 128,
            seed: 0xF007,
        }
    }

    /// The full-size configuration used for committed baselines.
    pub fn full() -> Self {
        AnalysisConfig {
            max_states: 4096,
            successor_states: 512,
            malicious_samples: 4,
            equivariance_cap: 512,
            seed: 0xF007,
        }
    }
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig::full()
    }
}

/// A deduplicated state corpus; see [`build_corpus`].
pub struct Corpus<A: Algorithm> {
    /// The states, initial state first.
    pub states: Vec<SystemState<A>>,
    /// Whether the corpus is the *complete* corruption lattice (every
    /// combination of per-position corruptible values).
    pub exhaustive: bool,
}

/// Discover the corruptible value domain of one position by sampling its
/// corruption function until no new encoded value appears for a while.
fn sample_domain<T, F: FnMut(&mut rand::rngs::StdRng) -> (u64, T)>(
    seed: u64,
    init: (u64, T),
    mut draw: F,
) -> Vec<T> {
    const STABLE_DRAWS: u32 = 64;
    const MAX_DRAWS: u32 = 2048;
    let mut r = rng::rng(seed);
    let mut seen: HashSet<u64> = HashSet::new();
    let mut out = Vec::new();
    seen.insert(init.0);
    out.push(init.1);
    let mut stale = 0u32;
    let mut draws = 0u32;
    while stale < STABLE_DRAWS && draws < MAX_DRAWS {
        let (bits, v) = draw(&mut r);
        draws += 1;
        if seen.insert(bits) {
            out.push(v);
            stale = 0;
        } else {
            stale += 1;
        }
    }
    out
}

/// Build a systematic state corpus for `alg` on `topo`: the full
/// corruption lattice when its size fits under `cfg.max_states` (domains
/// discovered by sampling `corrupt_local`/`corrupt_edge`), otherwise the
/// initial state, seeded `corrupt_all` sweeps, single-site corruptions
/// and one-step successors, deduplicated via the packed codec.
pub fn build_corpus<A: StateCodec>(alg: &A, topo: &Topology, cfg: &AnalysisConfig) -> Corpus<A> {
    let codec = Codec::new(alg, topo);
    let mut seen: HashSet<Vec<u64>> = HashSet::new();
    let mut states: Vec<SystemState<A>> = Vec::new();
    let mut push = |states: &mut Vec<SystemState<A>>, s: SystemState<A>| {
        if states.len() >= cfg.max_states {
            return;
        }
        if seen.insert(codec.encode(&s)) {
            states.push(s);
        }
    };

    // Per-position corruptible domains, deduplicated by encoded bits.
    let local_domains: Vec<Vec<A::Local>> = topo
        .processes()
        .map(|p| {
            let init = alg.init_local(topo, p);
            let init_bits = alg.encode_local(topo, p, &init);
            sample_domain(
                rng::subseed(cfg.seed, 0x10 + p.index() as u64),
                (init_bits, init),
                |r| {
                    let v = alg.corrupt_local(r, topo, p);
                    (alg.encode_local(topo, p, &v), v)
                },
            )
        })
        .collect();
    let edge_domains: Vec<Vec<A::Edge>> = (0..topo.edge_count())
        .map(|i| {
            let e = EdgeId(i);
            let init = alg.init_edge(topo, e);
            let init_bits = alg.encode_edge(topo, e, &init);
            sample_domain(
                rng::subseed(cfg.seed, 0x8000 + i as u64),
                (init_bits, init),
                |r| {
                    let v = alg.corrupt_edge(r, topo, e);
                    (alg.encode_edge(topo, e, &v), v)
                },
            )
        })
        .collect();

    // Lattice size, saturated far above the cap.
    let mut lattice: u128 = 1;
    for d in local_domains
        .iter()
        .map(Vec::len)
        .chain(edge_domains.iter().map(Vec::len))
    {
        lattice = lattice.saturating_mul(d as u128).min(u128::from(u64::MAX));
    }

    let initial = SystemState::initial(alg, topo);
    if lattice <= cfg.max_states as u128 {
        // Enumerate the full corruption lattice with a mixed-radix
        // odometer over (locals, edges).
        let n = topo.len();
        let m = topo.edge_count();
        let mut digits = vec![0usize; n + m];
        push(&mut states, initial);
        'odometer: loop {
            let locals: Vec<A::Local> = (0..n)
                .map(|i| local_domains[i][digits[i]].clone())
                .collect();
            let edges: Vec<A::Edge> = (0..m)
                .map(|i| edge_domains[i][digits[n + i]].clone())
                .collect();
            push(&mut states, SystemState::from_parts(topo, locals, edges));
            for (i, d) in digits.iter_mut().enumerate() {
                let radix = if i < n {
                    local_domains[i].len()
                } else {
                    edge_domains[i - n].len()
                };
                *d += 1;
                if *d < radix {
                    continue 'odometer;
                }
                *d = 0;
            }
            break;
        }
        return Corpus {
            states,
            exhaustive: true,
        };
    }

    // Sampled corpus: initial + single-site corruptions + corrupt_all
    // sweeps + one-step successors.
    push(&mut states, initial.clone());
    for p in topo.processes() {
        for v in &local_domains[p.index()] {
            let mut s = initial.clone();
            *s.local_mut(p) = v.clone();
            push(&mut states, s);
        }
    }
    for (i, dom) in edge_domains.iter().enumerate() {
        for v in dom {
            let mut s = initial.clone();
            *s.edge_mut(EdgeId(i)) = v.clone();
            push(&mut states, s);
        }
    }
    let mut sweep = 0u64;
    while states.len() < cfg.max_states && sweep < 4 * cfg.max_states as u64 {
        let mut s = initial.clone();
        s.corrupt_all(
            alg,
            topo,
            &mut rng::rng(rng::subseed(cfg.seed, 0xC0 + sweep)),
        );
        push(&mut states, s);
        sweep += 1;
    }
    // One-step successors of an expansion-window prefix, so values that
    // are reachable but not corruptible (e.g. depths the commands compute)
    // enter the corpus too. Traced (permissive) views: ill-behaved
    // fixtures must yield certifier witnesses, not panics.
    let scratch = AccessLog::new();
    let mut i = 0;
    while i < states.len().min(cfg.successor_states) && states.len() < cfg.max_states {
        for p in topo.processes() {
            let view = View::traced(topo, &states[i], p, true, &scratch);
            let succs: Vec<SystemState<A>> = enabled_actions(alg, &view)
                .map(|a| {
                    let mut s = states[i].clone();
                    apply_writes(topo, &mut s, p, &alg.execute(&view, a));
                    s
                })
                .collect();
            scratch.clear();
            for s in succs {
                push(&mut states, s);
            }
        }
        i += 1;
    }
    Corpus {
        states,
        exhaustive: false,
    }
}

/// Apply a write set to a state, skipping writes that violate the write
/// contract (corpus building and equivariance checking must not panic on
/// ill-behaved fixtures; the locality certifier reports those writes).
fn apply_writes<A: Algorithm>(
    topo: &Topology,
    state: &mut SystemState<A>,
    pid: ProcessId,
    writes: &[Write<A>],
) {
    for w in writes {
        match w {
            Write::Local(l) => *state.local_mut(pid) = l.clone(),
            Write::Edge { neighbor, value } => {
                if let Some(e) = topo.edge_between(pid, *neighbor) {
                    *state.edge_mut(e) = value.clone();
                }
            }
        }
    }
}

/// Field-wise write-list equality ([`Write`] deliberately has no
/// `PartialEq`: the engine never compares writes).
fn writes_eq<A: Algorithm>(a: &[Write<A>], b: &[Write<A>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Write::Local(l), Write::Local(r)) => l == r,
            (
                Write::Edge {
                    neighbor: ln,
                    value: lv,
                },
                Write::Edge {
                    neighbor: rn,
                    value: rv,
                },
            ) => ln == rn && lv == rv,
            _ => false,
        })
}

/// Apply a topology automorphism to a whole state: position `p` moves to
/// `π(p)` and ids embedded in values are rewritten through the codec's
/// permute hooks.
pub fn permute_state<A: StateCodec>(
    alg: &A,
    topo: &Topology,
    perm: &Perm,
    s: &SystemState<A>,
) -> SystemState<A> {
    let mut locals = s.locals().to_vec();
    for p in topo.processes() {
        locals[perm.apply(p).index()] = alg.permute_local(topo, perm, p, s.local(p));
    }
    let mut edges = s.edges().to_vec();
    for i in 0..topo.edge_count() {
        let e = EdgeId(i);
        edges[perm.apply_edge(e).index()] = alg.permute_edge(topo, perm, e, s.edge(e));
    }
    SystemState::from_parts(topo, locals, edges)
}

/// Truncated Debug rendering of a state for violation witnesses.
fn fmt_state<A: Algorithm>(s: &SystemState<A>) -> String {
    let mut out = format!("{s:?}");
    if out.len() > 240 {
        out.truncate(240);
        out.push('…');
    }
    out
}

fn fmt_perm(topo: &Topology, perm: &Perm) -> String {
    let map: Vec<usize> = (0..topo.len())
        .map(|i| perm.apply(ProcessId(i)).index())
        .collect();
    format!("{map:?}")
}

/// A read that escapes the closed neighborhood, as a violation detail.
fn read_violation(topo: &Topology, p: ProcessId, access: ReadAccess) -> Option<String> {
    match access {
        ReadAccess::OwnLocal | ReadAccess::Needs => None,
        ReadAccess::Local(q) => (q != p && !topo.are_neighbors(p, q)).then(|| {
            format!(
                "read local of {q} at distance {} (outside the closed neighborhood)",
                hops(topo, p, q)
            )
        }),
        ReadAccess::Edge(q) => {
            (!topo.are_neighbors(p, q)).then(|| format!("read edge towards non-neighbor {q}"))
        }
    }
}

/// The full output of [`analyze`]: inferred footprints plus the four
/// certifier verdicts, with timing.
#[derive(Clone, Debug)]
pub struct ContractReport {
    /// Algorithm name.
    pub algorithm: String,
    /// Topology name.
    pub topology: String,
    /// Corpus size.
    pub corpus_states: usize,
    /// Whether the corpus was the complete corruption lattice.
    pub corpus_exhaustive: bool,
    /// Per-kind inferred footprints.
    pub footprints: Vec<KindFootprint>,
    /// The malicious pseudo-action's inferred footprint.
    pub malicious: AccessSummary,
    /// Certifier 1: reads ⊆ closed neighborhood, writes ⊆ local +
    /// incident edges, malicious writes within capability.
    pub locality: CertifierVerdict,
    /// Certifier 2: `enabled`/`execute` are functions of the view,
    /// `malicious_writes` of (view, rng).
    pub purity: CertifierVerdict,
    /// Certifier 3: the `respects_symmetry` decision.
    pub equivariance: EquivarianceReport,
    /// Corpus construction wall-clock (ms).
    pub corpus_ms: f64,
    /// Locality + purity + footprint pass wall-clock (ms).
    pub contracts_ms: f64,
    /// Equivariance pass wall-clock (ms).
    pub equivariance_ms: f64,
}

impl ContractReport {
    /// Whether every certifier passed: locality and purity hold and the
    /// equivariance decision is consistent with the declaration.
    pub fn certified(&self) -> bool {
        self.locality.ok() && self.purity.ok() && self.equivariance.matches_declaration()
    }
}

/// Run the full contract analysis of `alg` on `topo`; see the
/// [module docs](self).
pub fn analyze<A: StateCodec>(alg: &A, topo: &Topology, cfg: &AnalysisConfig) -> ContractReport {
    let t0 = Instant::now();
    let corpus = build_corpus(alg, topo, cfg);
    let corpus_ms = t0.elapsed().as_secs_f64() * 1e3;

    let kinds = alg.kinds();
    let mut footprints: Vec<KindFootprint> = kinds
        .iter()
        .map(|k| KindFootprint {
            name: k.name.to_string(),
            per_neighbor: k.per_neighbor,
            guard: AccessSummary::default(),
            command: AccessSummary::default(),
            guard_evals: 0,
            fires: 0,
        })
        .collect();
    let mut malicious = AccessSummary::default();
    let mut locality = CertifierVerdict::default();
    let mut purity = CertifierVerdict::default();
    let log = AccessLog::new();
    let mut mal_counter = 0u64;

    let t1 = Instant::now();
    for state in &corpus.states {
        for needs in [true, false] {
            for p in topo.processes() {
                let view = View::traced(topo, state, p, needs, &log);
                for action in action_instances(kinds, topo.degree(p)) {
                    let name = kinds[action.kind].name;
                    log.clear();
                    let fired = alg.enabled(&view, action);
                    for r in log.take() {
                        footprints[action.kind].guard.absorb_read(topo, p, r);
                        locality.checked += 1;
                        if let Some(detail) = read_violation(topo, p, r) {
                            locality.record(Violation {
                                action: name.to_string(),
                                pid: p,
                                detail: format!("guard {detail}"),
                                state: fmt_state(state),
                            });
                        }
                    }
                    footprints[action.kind].guard_evals += 1;
                    // Purity differential: the guard must be a function
                    // of the view.
                    let again = alg.enabled(&view, action);
                    log.clear();
                    purity.checked += 1;
                    if fired != again {
                        purity.record(Violation {
                            action: name.to_string(),
                            pid: p,
                            detail: format!(
                                "guard changed value on re-evaluation of the same view \
                                 ({fired} then {again}) — hidden state or randomness"
                            ),
                            state: fmt_state(state),
                        });
                    }
                    if fired {
                        footprints[action.kind].fires += 1;
                        log.clear();
                        let writes = alg.execute(&view, action);
                        for r in log.take() {
                            footprints[action.kind].command.absorb_read(topo, p, r);
                            locality.checked += 1;
                            if let Some(detail) = read_violation(topo, p, r) {
                                locality.record(Violation {
                                    action: name.to_string(),
                                    pid: p,
                                    detail: format!("command {detail}"),
                                    state: fmt_state(state),
                                });
                            }
                        }
                        for w in &writes {
                            let target = match w {
                                Write::Local(_) => None,
                                Write::Edge { neighbor, .. } => Some(*neighbor),
                            };
                            footprints[action.kind]
                                .command
                                .absorb_write(topo, p, target);
                            locality.checked += 1;
                            if let Some(v) = check_write(alg, topo, p, false, w) {
                                locality.record(Violation {
                                    action: name.to_string(),
                                    pid: p,
                                    detail: format!("command {v}"),
                                    state: fmt_state(state),
                                });
                            }
                        }
                        // Command purity differential.
                        let again = alg.execute(&view, action);
                        log.clear();
                        purity.checked += 1;
                        if !writes_eq(&writes, &again) {
                            purity.record(Violation {
                                action: name.to_string(),
                                pid: p,
                                detail: "command produced a different write set on \
                                         re-evaluation of the same view"
                                    .to_string(),
                                state: fmt_state(state),
                            });
                        }
                    }
                }
                // The malicious pseudo-action (the engine evaluates it
                // with needs = false; sample several rng streams).
                if !needs {
                    for _ in 0..cfg.malicious_samples {
                        let seed = rng::subseed(cfg.seed ^ 0x3A11C0, mal_counter);
                        mal_counter += 1;
                        log.clear();
                        let writes = alg.malicious_writes(&view, &mut rng::rng(seed));
                        for r in log.take() {
                            malicious.absorb_read(topo, p, r);
                            locality.checked += 1;
                            if let Some(detail) = read_violation(topo, p, r) {
                                locality.record(Violation {
                                    action: "malicious".to_string(),
                                    pid: p,
                                    detail: format!("malicious step {detail}"),
                                    state: fmt_state(state),
                                });
                            }
                        }
                        for w in &writes {
                            let target = match w {
                                Write::Local(_) => None,
                                Write::Edge { neighbor, .. } => Some(*neighbor),
                            };
                            malicious.absorb_write(topo, p, target);
                            locality.checked += 1;
                            if let Some(v) = check_write(alg, topo, p, true, w) {
                                locality.record(Violation {
                                    action: "malicious".to_string(),
                                    pid: p,
                                    detail: v.to_string(),
                                    state: fmt_state(state),
                                });
                            }
                        }
                        // Determinism in the rng stream.
                        let again = alg.malicious_writes(&view, &mut rng::rng(seed));
                        log.clear();
                        purity.checked += 1;
                        if !writes_eq(&writes, &again) {
                            purity.record(Violation {
                                action: "malicious".to_string(),
                                pid: p,
                                detail: "malicious_writes is not a function of (view, rng)"
                                    .to_string(),
                                state: fmt_state(state),
                            });
                        }
                    }
                }
            }
        }
    }
    let contracts_ms = t1.elapsed().as_secs_f64() * 1e3;

    let t2 = Instant::now();
    let equivariance = certify_equivariance(alg, topo, &corpus, cfg.equivariance_cap);
    let equivariance_ms = t2.elapsed().as_secs_f64() * 1e3;

    ContractReport {
        algorithm: alg.name().to_string(),
        topology: topo.name().to_string(),
        corpus_states: corpus.states.len(),
        corpus_exhaustive: corpus.exhaustive,
        footprints,
        malicious,
        locality,
        purity,
        equivariance,
        corpus_ms,
        contracts_ms,
        equivariance_ms,
    }
}

/// Decide equivariance by step-vs-automorphism commutation over the
/// corpus: for every state `s`, automorphism π and move `m`,
/// `enabled(s, m) == enabled(π·s, π·m)` and `π·(s after m) == (π·s) after
/// π·m`. First failure refutes with a concrete witness.
fn certify_equivariance<A: StateCodec>(
    alg: &A,
    topo: &Topology,
    corpus: &Corpus<A>,
    cap: usize,
) -> EquivarianceReport {
    let declared = alg.respects_symmetry();
    let group = SymmetryGroup::for_topology(topo);
    if group.is_trivial() {
        return EquivarianceReport {
            declared,
            inferred: declared,
            decidable: false,
            checked: 0,
            witness: None,
        };
    }
    let kinds = alg.kinds();
    let mut checked = 0u64;
    // Traced (permissive) views so ill-behaved fixtures are refuted
    // rather than tripping the untraced adjacency assertion.
    let scratch = AccessLog::new();
    for state in corpus.states.iter().take(cap) {
        for perm in &group.perms()[1..] {
            let permuted = permute_state(alg, topo, perm, state);
            for p in topo.processes() {
                for action in action_instances(kinds, topo.degree(p)) {
                    let m = Move { pid: p, action };
                    let pm = perm.permute_move(topo, m);
                    scratch.clear();
                    let v = View::traced(topo, state, p, true, &scratch);
                    let pv = View::traced(topo, &permuted, pm.pid, true, &scratch);
                    let e1 = alg.enabled(&v, action);
                    let e2 = alg.enabled(&pv, pm.action);
                    checked += 1;
                    let name = kinds[action.kind].name;
                    if e1 != e2 {
                        return EquivarianceReport {
                            declared,
                            inferred: false,
                            decidable: true,
                            checked,
                            witness: Some(format!(
                                "enabled({name} at {p}) = {e1} but enabled({name} at {}) = {e2} \
                                 under automorphism {}; state {}",
                                pm.pid,
                                fmt_perm(topo, perm),
                                fmt_state(state)
                            )),
                        };
                    }
                    if e1 {
                        let mut after = state.clone();
                        apply_writes(topo, &mut after, p, &alg.execute(&v, action));
                        let after_permuted = permute_state(alg, topo, perm, &after);
                        let mut permuted_after = permuted.clone();
                        apply_writes(
                            topo,
                            &mut permuted_after,
                            pm.pid,
                            &alg.execute(&pv, pm.action),
                        );
                        if after_permuted != permuted_after {
                            return EquivarianceReport {
                                declared,
                                inferred: false,
                                decidable: true,
                                checked,
                                witness: Some(format!(
                                    "executing {name} at {p} then permuting differs from \
                                     permuting then executing {name} at {} under automorphism {}; \
                                     state {}",
                                    pm.pid,
                                    fmt_perm(topo, perm),
                                    fmt_state(state)
                                )),
                            };
                        }
                    }
                }
            }
        }
    }
    EquivarianceReport {
        declared,
        inferred: true,
        decidable: checked > 0,
        checked,
        witness: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Topology;
    use crate::toy::{ToyDiners, TOY_ENTER, TOY_JOIN};

    #[test]
    fn access_log_records_every_view_accessor() {
        let topo = Topology::line(3);
        let s: SystemState<ToyDiners> = SystemState::initial(&ToyDiners, &topo);
        let log = AccessLog::new();
        let v = View::traced(&topo, &s, ProcessId(1), true, &log);
        let _ = v.local();
        let _ = v.needs();
        let _ = v.neighbor_local(ProcessId(0));
        let _ = v.edge_to(ProcessId(2));
        assert_eq!(
            log.take(),
            vec![
                ReadAccess::OwnLocal,
                ReadAccess::Needs,
                ReadAccess::Local(ProcessId(0)),
                ReadAccess::Edge(ProcessId(2)),
            ]
        );
        // Drained: a second take is empty.
        assert!(log.take().is_empty());
    }

    #[test]
    fn untraced_views_record_nothing() {
        let topo = Topology::line(2);
        let s: SystemState<ToyDiners> = SystemState::initial(&ToyDiners, &topo);
        let v = View::new(&topo, &s, ProcessId(0), true);
        let _ = v.local();
        let _ = v.needs();
        // Nothing to assert beyond "does not panic": the untraced view
        // has no log. The traced/untraced split is re-verified by the
        // engine equivalence suites (tracing is observer-effect-free).
        assert_eq!(*v.local(), crate::algorithm::Phase::Thinking);
    }

    #[test]
    fn check_write_classifies_adjacency_and_capability() {
        let topo = Topology::line(3);
        let p0 = ProcessId(0);
        let ok: Write<ToyDiners> = Write::Edge {
            neighbor: ProcessId(1),
            value: (),
        };
        assert_eq!(check_write(&ToyDiners, &topo, p0, false, &ok), None);
        let far: Write<ToyDiners> = Write::Edge {
            neighbor: ProcessId(2),
            value: (),
        };
        assert_eq!(
            check_write(&ToyDiners, &topo, p0, false, &far),
            Some(WriteViolation::NonNeighborEdge {
                pid: p0,
                neighbor: ProcessId(2)
            })
        );
        // Toy's default capability allows no malicious edge writes.
        assert_eq!(
            check_write(&ToyDiners, &topo, p0, true, &ok),
            Some(WriteViolation::CapabilityExceeded {
                pid: p0,
                neighbor: ProcessId(1)
            })
        );
        let local: Write<ToyDiners> = Write::Local(crate::algorithm::Phase::Hungry);
        assert_eq!(check_write(&ToyDiners, &topo, p0, true, &local), None);
    }

    #[test]
    fn toy_corpus_is_the_exhaustive_phase_lattice() {
        let topo = Topology::line(3);
        let corpus = build_corpus(&ToyDiners, &topo, &AnalysisConfig::quick());
        // 3 phases ^ 3 processes, unit edges.
        assert!(corpus.exhaustive);
        assert_eq!(corpus.states.len(), 27);
    }

    #[test]
    fn corpus_is_deterministic_in_the_seed() {
        let topo = Topology::ring(4);
        let cfg = AnalysisConfig::quick();
        let a = build_corpus(&crate::toy::ToyDiners, &topo, &cfg);
        let b = build_corpus(&crate::toy::ToyDiners, &topo, &cfg);
        assert_eq!(a.states.len(), b.states.len());
        for (x, y) in a.states.iter().zip(&b.states) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn toy_is_certified_except_equivariance() {
        let topo = Topology::ring(5);
        let report = analyze(&ToyDiners, &topo, &AnalysisConfig::quick());
        assert!(report.locality.ok(), "{:?}", report.locality.witnesses);
        assert!(report.purity.ok(), "{:?}", report.purity.witnesses);
        // The pid tie-break must be rediscovered with a witness.
        assert!(report.equivariance.decidable);
        assert!(!report.equivariance.inferred);
        assert!(!report.equivariance.declared);
        assert!(report.equivariance.matches_declaration());
        let w = report.equivariance.witness.as_deref().unwrap();
        assert!(w.contains("enter"), "witness should name the action: {w}");
        assert!(report.certified());
    }

    #[test]
    fn toy_footprints_match_the_source() {
        let topo = Topology::ring(5);
        let report = analyze(&ToyDiners, &topo, &AnalysisConfig::quick());
        let join = &report.footprints[TOY_JOIN];
        assert!(join.guard.reads_own_local && join.guard.reads_needs);
        assert!(!join.guard.reads_neighbor_local && !join.guard.reads_edge);
        assert!(join.command.writes_local && !join.command.writes_edge);
        let enter = &report.footprints[TOY_ENTER];
        assert!(enter.guard.reads_neighbor_local);
        assert_eq!(enter.guard.read_radius, 1);
        assert_eq!(enter.command.write_radius, 0);
        // Malicious default: corrupts the local only, reads nothing.
        assert!(report.malicious.writes_local && !report.malicious.writes_edge);
    }

    #[test]
    fn writes_eq_is_fieldwise() {
        let a: Vec<Write<ToyDiners>> = vec![Write::Local(crate::algorithm::Phase::Hungry)];
        let b: Vec<Write<ToyDiners>> = vec![Write::Local(crate::algorithm::Phase::Hungry)];
        let c: Vec<Write<ToyDiners>> = vec![Write::Local(crate::algorithm::Phase::Eating)];
        assert!(writes_eq(&a, &b));
        assert!(!writes_eq(&a, &c));
        assert!(!writes_eq(&a, &[]));
    }

    #[test]
    fn permute_state_moves_positions() {
        let topo = Topology::ring(4);
        let mut s: SystemState<ToyDiners> = SystemState::initial(&ToyDiners, &topo);
        *s.local_mut(ProcessId(0)) = crate::algorithm::Phase::Eating;
        let group = SymmetryGroup::for_topology(&topo);
        let rot = group
            .perms()
            .iter()
            .find(|p| {
                p.apply(ProcessId(0)) == ProcessId(1) && p.apply(ProcessId(1)) == ProcessId(2)
            })
            .unwrap();
        let ps = permute_state(&ToyDiners, &topo, rot, &s);
        assert_eq!(*ps.local(ProcessId(1)), crate::algorithm::Phase::Eating);
        assert_eq!(*ps.local(ProcessId(0)), crate::algorithm::Phase::Thinking);
    }
}
