//! Conflict-graph topologies.
//!
//! The dining-philosophers problem is defined over an arbitrary symmetric
//! *neighbor relation* between processes. [`Topology`] is that relation,
//! together with the derived data the algorithm and its analysis need:
//! adjacency lists, per-edge indices, closed neighborhoods and the graph
//! diameter (the paper's constant `D`, assumed known to every process).
//! Everything it stores is O(n + m); no distances are precomputed. A
//! distance query is one multi-source BFS,
//! [`Topology::distances_from`], run once per set of sources.
//!
//! Constructors are provided for all the standard experiment families
//! (ring, line, grid, star, complete, binary tree, random connected graphs)
//! as well as from explicit edge lists. Ring, line, grid, star and
//! complete graphs take their diameter in closed form; trees take it from
//! a double BFS sweep; any other edge list from one BFS per process.

use std::collections::BTreeSet;
use std::fmt;

use rand::Rng;

use crate::rng;

/// Identifier of a process: a dense index in `0..n`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(pub usize);

impl ProcessId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for ProcessId {
    fn from(i: usize) -> Self {
        ProcessId(i)
    }
}

/// Identifier of an undirected edge: a dense index into [`Topology::edges`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub usize);

impl EdgeId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The constructor family a [`Topology`] came from.
///
/// The symmetry-reduced explorer ([`crate::symmetry`]) uses this to pick
/// a known automorphism subgroup without solving graph isomorphism:
/// rings carry their full dihedral group, lines their reflection, stars
/// the dihedral group on the leaf cycle. Families whose automorphisms
/// are not enumerated here (grid, complete, tree, random, custom edge
/// lists) conservatively report only the identity — symmetry reduction
/// on them is sound but a no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Family {
    /// [`Topology::ring`].
    Ring,
    /// [`Topology::line`].
    Line,
    /// [`Topology::star`].
    Star,
    /// [`Topology::grid`].
    Grid,
    /// [`Topology::complete`].
    Complete,
    /// [`Topology::binary_tree`].
    BinaryTree,
    /// [`Topology::random_connected`].
    Random,
    /// [`Topology::from_edges`] (unknown structure).
    Custom,
}

/// An immutable, connected, simple undirected graph over processes
/// `0..n`, with its diameter. It holds O(n + m) data and no distances:
/// ask [`Topology::distances_from`] for them.
///
/// # Examples
///
/// ```
/// use diners_sim::graph::Topology;
/// let t = Topology::ring(6);
/// assert_eq!(t.len(), 6);
/// assert_eq!(t.diameter(), 3);
/// assert!(t.are_neighbors(0.into(), 5.into()));
/// ```
#[derive(Clone, Debug)]
pub struct Topology {
    n: usize,
    family: Family,
    /// Sorted adjacency list per process.
    adj: Vec<Vec<ProcessId>>,
    /// Undirected edges as `(lo, hi)` pairs with `lo < hi`, sorted.
    edges: Vec<(ProcessId, ProcessId)>,
    /// `edge_of[p]` maps a neighbor slot of `p` to the edge id.
    edge_of: Vec<Vec<EdgeId>>,
    /// `closed[p]` is `p` followed by its sorted neighbors — the set of
    /// processes whose guards an action (or arbitrary write) at `p` can
    /// change, precomputed for the engine's dirty-set invalidation.
    closed: Vec<Vec<ProcessId>>,
    diameter: u32,
    name: String,
}

impl Topology {
    /// Build a topology from an explicit edge list.
    ///
    /// Self-loops and duplicate edges are rejected; the graph must be
    /// connected and non-empty (a single isolated process is allowed and
    /// has diameter 0). The diameter is exact: a double BFS sweep when the
    /// graph is a tree (`n - 1` edges), else one BFS per process, so an
    /// arbitrary edge list costs O(n · (n + m)) time and O(n + m) memory.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] when the input is not a simple connected
    /// graph over `0..n`.
    pub fn from_edges(
        n: usize,
        edge_list: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<Self, TopologyError> {
        let mut t = Self::connected(n, edge_list)?;
        t.diameter = exact_diameter(&t.adj, t.edges.len());
        Ok(t)
    }

    /// Validate `edge_list`, checking connectivity with one BFS, and build
    /// everything but the diameter (left at 0): adjacency, edge ids and
    /// closed neighborhoods.
    fn connected(
        n: usize,
        edge_list: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<Self, TopologyError> {
        if n == 0 {
            return Err(TopologyError::Empty);
        }
        check_size(n, 0)?;
        let mut set = BTreeSet::new();
        for (a, b) in edge_list {
            if a >= n || b >= n {
                return Err(TopologyError::OutOfRange { a, b, n });
            }
            if a == b {
                return Err(TopologyError::SelfLoop(a));
            }
            let e = (a.min(b), a.max(b));
            if !set.insert(e) {
                return Err(TopologyError::Duplicate { a: e.0, b: e.1 });
            }
            check_size(n, set.len())?;
        }
        // A connected graph needs n - 1 edges; checking that first bounds
        // the allocations below by the size of the edge list.
        if set.len() + 1 < n {
            return Err(TopologyError::Disconnected);
        }
        let edges: Vec<(ProcessId, ProcessId)> = set
            .iter()
            .map(|&(a, b)| (ProcessId(a), ProcessId(b)))
            .collect();
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &edges {
            adj[a.0].push(b);
            adj[b.0].push(a);
        }
        for l in &mut adj {
            l.sort_unstable();
        }
        let mut reached = Vec::with_capacity(n);
        bfs(&adj, &[ProcessId(0)], &mut vec![u32::MAX; n], &mut reached);
        if reached.len() < n {
            return Err(TopologyError::Disconnected);
        }
        let mut edge_of = vec![Vec::new(); n];
        for (p, list) in adj.iter().enumerate() {
            for &q in list {
                let key = (ProcessId(p.min(q.0)), ProcessId(p.max(q.0)));
                let eid = edges.binary_search(&key).expect("edge present");
                edge_of[p].push(EdgeId(eid));
            }
        }
        let closed = adj
            .iter()
            .enumerate()
            .map(|(p, list)| {
                let mut c = Vec::with_capacity(list.len() + 1);
                c.push(ProcessId(p));
                c.extend_from_slice(list);
                c
            })
            .collect();
        Ok(Topology {
            n,
            family: Family::Custom,
            adj,
            edges,
            edge_of,
            closed,
            diameter: 0,
            name: format!("custom(n={n})"),
        })
    }

    /// A cycle `0 - 1 - ... - (n-1) - 0`. Requires `n >= 3`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "ring requires at least 3 processes");
        let mut t =
            Self::connected(n, (0..n).map(|i| (i, (i + 1) % n))).expect("ring is a valid topology");
        t.family = Family::Ring;
        t.name = format!("ring(n={n})");
        t.diameter = (n / 2) as u32;
        t
    }

    /// A path `0 - 1 - ... - (n-1)`. Requires `n >= 1`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn line(n: usize) -> Self {
        assert!(n >= 1, "line requires at least 1 process");
        let mut t = Self::connected(n, (0..n.saturating_sub(1)).map(|i| (i, i + 1)))
            .expect("line is a valid topology");
        t.family = Family::Line;
        t.name = format!("line(n={n})");
        t.diameter = (n - 1) as u32;
        t
    }

    /// A `w x h` grid (4-neighborhood). Requires `w >= 1 && h >= 1`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn grid(w: usize, h: usize) -> Self {
        assert!(w >= 1 && h >= 1, "grid requires positive dimensions");
        let idx = |x: usize, y: usize| y * w + x;
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    edges.push((idx(x, y), idx(x + 1, y)));
                }
                if y + 1 < h {
                    edges.push((idx(x, y), idx(x, y + 1)));
                }
            }
        }
        let mut t = Self::connected(w * h, edges).expect("grid is a valid topology");
        t.family = Family::Grid;
        t.name = format!("grid({w}x{h})");
        t.diameter = (w - 1 + h - 1) as u32;
        t
    }

    /// A star: process 0 adjacent to every other process. Requires `n >= 2`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn star(n: usize) -> Self {
        assert!(n >= 2, "star requires at least 2 processes");
        let mut t = Self::connected(n, (1..n).map(|i| (0, i))).expect("star is a valid topology");
        t.family = Family::Star;
        t.name = format!("star(n={n})");
        t.diameter = if n == 2 { 1 } else { 2 };
        t
    }

    /// The complete graph on `n` processes. Requires `n >= 2`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn complete(n: usize) -> Self {
        assert!(n >= 2, "complete graph requires at least 2 processes");
        let mut edges = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                edges.push((a, b));
            }
        }
        let mut t = Self::connected(n, edges).expect("complete graph is a valid topology");
        t.family = Family::Complete;
        t.name = format!("complete(n={n})");
        t.diameter = 1;
        t
    }

    /// A complete binary tree with `n` nodes (heap layout: children of `i`
    /// are `2i+1`, `2i+2`). Requires `n >= 1`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn binary_tree(n: usize) -> Self {
        assert!(n >= 1, "tree requires at least 1 process");
        let mut edges = Vec::new();
        for i in 1..n {
            edges.push(((i - 1) / 2, i));
        }
        let mut t = Self::from_edges(n, edges).expect("tree is a valid topology");
        t.family = Family::BinaryTree;
        t.name = format!("binary_tree(n={n})");
        t
    }

    /// A random connected graph: a random spanning tree plus each remaining
    /// pair independently with probability `p`. Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `p` is not in `[0, 1]`.
    pub fn random_connected(n: usize, p: f64, seed: u64) -> Self {
        assert!(n >= 1, "random graph requires at least 1 process");
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        let mut r = rng::rng(rng::subseed(seed, 0xD1CE));
        let mut edges = BTreeSet::new();
        // Random spanning tree: attach each node to a uniformly random
        // earlier node (random recursive tree).
        for i in 1..n {
            let j = r.gen_range(0..i);
            edges.insert((j, i));
        }
        for a in 0..n {
            for b in a + 1..n {
                if r.gen_bool(p) {
                    edges.insert((a, b));
                }
            }
        }
        let mut t = Self::from_edges(n, edges).expect("random graph is a valid topology");
        t.family = Family::Random;
        t.name = format!("random(n={n},p={p},seed={seed})");
        t
    }

    /// Parse a command-line topology spec: `ring:N`, `line:N`, `star:N`,
    /// `complete:N`, `tree:N` (a binary tree) or `grid:WxH`, at each
    /// family's minimum size or more (ring 3, star and complete 2, the
    /// others 1).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Spec`] naming the problem for a spec
    /// without a `:`, an unknown family, a size that is not a number, or a
    /// size below the family's minimum, and the size errors of
    /// [`Topology::from_edges`] for a topology above [`MAX_PROCESSES`] or
    /// [`MAX_EDGES`], before building anything.
    pub fn from_spec(spec: &str) -> Result<Self, TopologyError> {
        let bad = TopologyError::Spec;
        let (family, size) = spec
            .split_once(':')
            .ok_or_else(|| bad(format!("topology {spec:?} is not family:size")))?;
        let num = |s: &str, min: usize| -> Result<usize, TopologyError> {
            let n: usize = s
                .parse()
                .map_err(|_| bad(format!("bad topology size {s:?} in {spec:?}")))?;
            if n < min {
                return Err(bad(format!(
                    "{family} needs sizes of at least {min}, got {spec:?}"
                )));
            }
            Ok(n)
        };
        // (processes, edges) of the spec, checked before any allocation.
        let sized = |n: usize, m: usize| check_size(n, m).map(|()| n);
        Ok(match family {
            "ring" => Topology::ring(sized(num(size, 3)?, 0)?),
            "line" => Topology::line(sized(num(size, 1)?, 0)?),
            "star" => Topology::star(sized(num(size, 2)?, 0)?),
            "tree" => Topology::binary_tree(sized(num(size, 1)?, 0)?),
            "complete" => {
                let n = num(size, 2)?;
                Topology::complete(sized(n, n.saturating_mul(n - 1) / 2)?)
            }
            "grid" => {
                let (w, h) = size
                    .split_once('x')
                    .ok_or_else(|| bad(format!("grid expects WxH, got {spec:?}")))?;
                let (w, h) = (num(w, 1)?, num(h, 1)?);
                sized(w.saturating_mul(h), 0)?;
                Topology::grid(w, h)
            }
            other => {
                return Err(bad(format!(
                    "unknown topology family {other:?} (expected ring|line|star|complete|tree|grid)"
                )))
            }
        })
    }

    /// The constructor family this topology came from (drives the
    /// automorphism group used by [`crate::symmetry`]).
    #[inline]
    pub fn family(&self) -> Family {
        self.family
    }

    /// Human-readable name of the topology family and parameters.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Override the topology's display name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of processes.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the topology has no processes (never true for a
    /// successfully constructed value).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Iterator over all process ids.
    pub fn processes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (0..self.n).map(ProcessId)
    }

    /// Sorted neighbors of `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn neighbors(&self, p: ProcessId) -> &[ProcessId] {
        &self.adj[p.0]
    }

    /// Degree of `p`.
    #[inline]
    pub fn degree(&self, p: ProcessId) -> usize {
        self.adj[p.0].len()
    }

    /// The closed neighborhood of `p`: `p` itself followed by its sorted
    /// neighbors. This is exactly the set of processes whose guard values
    /// an action at `p` can change (guards read only a process's own
    /// local, neighbor locals and incident edge variables — and `p` can
    /// write only its own local and incident edges, malicious steps
    /// included), so it is the engine's dirty set after a step at `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn closed_neighborhood(&self, p: ProcessId) -> &[ProcessId] {
        &self.closed[p.0]
    }

    /// All undirected edges as `(lo, hi)` pairs, sorted.
    #[inline]
    pub fn edges(&self) -> &[(ProcessId, ProcessId)] {
        &self.edges
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The endpoints of edge `e`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (ProcessId, ProcessId) {
        self.edges[e.0]
    }

    /// The edge id joining neighbors `p` and `q`, if any.
    pub fn edge_between(&self, p: ProcessId, q: ProcessId) -> Option<EdgeId> {
        let key = (ProcessId(p.0.min(q.0)), ProcessId(p.0.max(q.0)));
        self.edges.binary_search(&key).ok().map(EdgeId)
    }

    /// Edge ids incident to `p`, parallel to [`Self::neighbors`].
    #[inline]
    pub fn incident_edges(&self, p: ProcessId) -> &[EdgeId] {
        &self.edge_of[p.0]
    }

    /// Whether `p` and `q` are joined by an edge.
    pub fn are_neighbors(&self, p: ProcessId, q: ProcessId) -> bool {
        self.edge_between(p, q).is_some()
    }

    /// Hop distance from every process to its nearest process in
    /// `sources`: one multi-source BFS, O(n + m). Entry `p` is 0 for a
    /// source. With no sources nothing is reached, and every entry is
    /// `u32::MAX`, so a test such as `dist[p] > r` reads "no source
    /// within `r`". Duplicate sources are harmless.
    ///
    /// # Panics
    ///
    /// Panics if a source is out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use diners_sim::graph::{ProcessId, Topology};
    /// let t = Topology::line(6);
    /// let d = t.distances_from(&[ProcessId(0), ProcessId(5)]);
    /// assert_eq!(d, [0, 1, 2, 2, 1, 0]);
    /// assert!(t.distances_from(&[]).iter().all(|&x| x == u32::MAX));
    /// ```
    pub fn distances_from(&self, sources: &[ProcessId]) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.n];
        bfs(
            &self.adj,
            sources,
            &mut dist,
            &mut Vec::with_capacity(self.n),
        );
        dist
    }

    /// The graph diameter — the paper's constant `D`.
    #[inline]
    pub fn diameter(&self) -> u32 {
        self.diameter
    }

    /// The neighbor-slot index of `q` in `p`'s adjacency list.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a neighbor of `p`.
    pub fn slot_of(&self, p: ProcessId, q: ProcessId) -> usize {
        self.adj[p.0]
            .binary_search(&q)
            .unwrap_or_else(|_| panic!("{q} is not a neighbor of {p}"))
    }
}

/// The most processes a [`Topology`] may have. A topology stores
/// O(n + m), but the exact diameter of an arbitrary edge list
/// ([`Topology::from_edges`], and so every recording header) takes one BFS
/// per process, O(n · (n + m)) time; this limit bounds that sweep. The
/// family constructors, which need no sweep, share the limit: they panic
/// above it or [`MAX_EDGES`], while [`Topology::from_edges`] and
/// [`Topology::from_spec`] return an error.
pub const MAX_PROCESSES: usize = 1 << 14;

/// The most edges a [`Topology`] may have.
pub const MAX_EDGES: usize = 1 << 20;

/// `Ok` when `n` processes and `m` edges are within the size limits.
fn check_size(n: usize, m: usize) -> Result<(), TopologyError> {
    if n > MAX_PROCESSES {
        Err(TopologyError::TooManyProcesses(n))
    } else if m > MAX_EDGES {
        Err(TopologyError::TooManyEdges)
    } else {
        Ok(())
    }
}

/// Error constructing a [`Topology`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// No processes.
    Empty,
    /// More than [`MAX_PROCESSES`] processes.
    TooManyProcesses(usize),
    /// More than [`MAX_EDGES`] edges.
    TooManyEdges,
    /// A malformed [`Topology::from_spec`] spec, with what is wrong.
    Spec(String),
    /// An edge endpoint is not in `0..n`.
    OutOfRange {
        /// First endpoint.
        a: usize,
        /// Second endpoint.
        b: usize,
        /// Number of processes.
        n: usize,
    },
    /// An edge joins a process to itself.
    SelfLoop(usize),
    /// The same undirected edge appears twice.
    Duplicate {
        /// Lower endpoint.
        a: usize,
        /// Higher endpoint.
        b: usize,
    },
    /// The graph is not connected.
    Disconnected,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Empty => write!(f, "topology has no processes"),
            TopologyError::TooManyProcesses(n) => write!(
                f,
                "topology has {n} processes, more than the limit of {MAX_PROCESSES} \
                 (the exact diameter of an edge list takes one BFS per process)"
            ),
            TopologyError::TooManyEdges => {
                write!(f, "topology has more than the limit of {MAX_EDGES} edges")
            }
            TopologyError::Spec(msg) => f.write_str(msg),
            TopologyError::OutOfRange { a, b, n } => {
                write!(f, "edge ({a},{b}) out of range for {n} processes")
            }
            TopologyError::SelfLoop(p) => write!(f, "self-loop at process {p}"),
            TopologyError::Duplicate { a, b } => write!(f, "duplicate edge ({a},{b})"),
            TopologyError::Disconnected => write!(f, "graph is not connected"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Breadth-first search from every process in `sources` at once, writing
/// hop distances into `dist`, which must hold `u32::MAX` everywhere on
/// entry. `queue` ends holding the reached processes in visiting order,
/// so its last entry is one farthest from the sources.
fn bfs(adj: &[Vec<ProcessId>], sources: &[ProcessId], dist: &mut [u32], queue: &mut Vec<usize>) {
    queue.clear();
    for &s in sources {
        if dist[s.0] != 0 {
            dist[s.0] = 0;
            queue.push(s.0);
        }
    }
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        let next = dist[u] + 1;
        for &v in &adj[u] {
            if dist[v.0] == u32::MAX {
                dist[v.0] = next;
                queue.push(v.0);
            }
        }
    }
}

/// The exact diameter of the connected graph `adj` with `edges` edges, in
/// O(n) memory. A tree (`n - 1` edges) takes a double sweep: the process
/// farthest from any start ends a longest path. Any other graph takes the
/// largest eccentricity over one BFS per process.
fn exact_diameter(adj: &[Vec<ProcessId>], edges: usize) -> u32 {
    let n = adj.len();
    let mut dist = vec![u32::MAX; n];
    let mut queue = Vec::with_capacity(n);
    let mut eccentricity = |s: usize| {
        dist.fill(u32::MAX);
        bfs(adj, &[ProcessId(s)], &mut dist, &mut queue);
        let far = *queue.last().expect("the source is reached");
        (far, dist[far])
    };
    if edges + 1 == n {
        let (end, _) = eccentricity(0);
        eccentricity(end).1
    } else {
        (0..n).map(|s| eccentricity(s).1).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_every_family_and_reject_bad_sizes() {
        for (spec, name) in [
            ("ring:3", "ring(n=3)"),
            ("line:1", "line(n=1)"),
            ("star:2", "star(n=2)"),
            ("complete:4", "complete(n=4)"),
            ("tree:7", "binary_tree(n=7)"),
            ("grid:4x3", "grid(4x3)"),
        ] {
            assert_eq!(Topology::from_spec(spec).unwrap().name(), name);
        }
        for (spec, why) in [
            ("ring:2", "ring needs sizes of at least 3"),
            ("line:0", "line needs sizes of at least 1"),
            ("star:1", "star needs sizes of at least 2"),
            ("complete:1", "complete needs sizes of at least 2"),
            ("tree:0", "tree needs sizes of at least 1"),
            ("grid:0x3", "grid needs sizes of at least 1"),
            ("grid:3x0", "grid needs sizes of at least 1"),
            ("grid:3", "grid expects WxH"),
            ("ring:x", "bad topology size \"x\""),
            ("ring", "is not family:size"),
            ("cube:3", "unknown topology family \"cube\""),
            // Above the size limits, before building anything.
            (
                "ring:100000",
                "100000 processes, more than the limit of 16384",
            ),
            (
                "complete:20000",
                "20000 processes, more than the limit of 16384",
            ),
            ("complete:2000", "more than the limit of 1048576 edges"),
            ("grid:1000x1000", "1000000 processes"),
        ] {
            let e = Topology::from_spec(spec).unwrap_err().to_string();
            assert!(e.contains(why), "{spec}: {e}");
        }
        // ring(8192), which the benchmark builds, stays legal.
        assert_eq!(check_size(8192, 8192), Ok(()));
    }

    #[test]
    fn ring_metrics() {
        let t = Topology::ring(8);
        assert_eq!(t.len(), 8);
        assert_eq!(t.edge_count(), 8);
        assert_eq!(t.diameter(), 4);
        assert_eq!(t.degree(ProcessId(0)), 2);
        let d = t.distances_from(&[ProcessId(0)]);
        assert_eq!(d[4], 4);
        assert_eq!(d[7], 1);
    }

    #[test]
    fn line_metrics() {
        let t = Topology::line(5);
        assert_eq!(t.diameter(), 4);
        assert_eq!(t.degree(ProcessId(0)), 1);
        assert_eq!(t.degree(ProcessId(2)), 2);
        assert_eq!(t.distances_from(&[ProcessId(0)])[4], 4);
    }

    #[test]
    fn single_process_line() {
        let t = Topology::line(1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.edge_count(), 0);
        assert_eq!(t.diameter(), 0);
    }

    #[test]
    fn grid_metrics() {
        let t = Topology::grid(3, 3);
        assert_eq!(t.len(), 9);
        assert_eq!(t.edge_count(), 12);
        assert_eq!(t.diameter(), 4);
        // Center has degree 4.
        assert_eq!(t.degree(ProcessId(4)), 4);
    }

    #[test]
    fn star_metrics() {
        let t = Topology::star(6);
        assert_eq!(t.diameter(), 2);
        assert_eq!(t.degree(ProcessId(0)), 5);
        assert_eq!(t.degree(ProcessId(3)), 1);
    }

    #[test]
    fn complete_metrics() {
        let t = Topology::complete(5);
        assert_eq!(t.edge_count(), 10);
        assert_eq!(t.diameter(), 1);
    }

    #[test]
    fn binary_tree_metrics() {
        let t = Topology::binary_tree(7);
        assert_eq!(t.edge_count(), 6);
        assert_eq!(t.diameter(), 4); // leaf to leaf through root
        assert_eq!(t.degree(ProcessId(0)), 2);
    }

    #[test]
    fn random_connected_is_connected_and_deterministic() {
        for seed in 0..20 {
            let t = Topology::random_connected(16, 0.1, seed);
            assert_eq!(t.len(), 16);
            // connectivity is established by successful construction
            let t2 = Topology::random_connected(16, 0.1, seed);
            assert_eq!(t.edges(), t2.edges());
        }
    }

    #[test]
    fn random_connected_p_zero_is_a_tree() {
        let t = Topology::random_connected(12, 0.0, 3);
        assert_eq!(t.edge_count(), 11);
    }

    #[test]
    fn from_edges_rejects_bad_input() {
        assert_eq!(
            Topology::from_edges(0, []).unwrap_err(),
            TopologyError::Empty
        );
        assert_eq!(
            Topology::from_edges(2, [(0, 0)]).unwrap_err(),
            TopologyError::SelfLoop(0)
        );
        assert_eq!(
            Topology::from_edges(2, [(0, 1), (1, 0)]).unwrap_err(),
            TopologyError::Duplicate { a: 0, b: 1 }
        );
        assert_eq!(
            Topology::from_edges(2, [(0, 5)]).unwrap_err(),
            TopologyError::OutOfRange { a: 0, b: 5, n: 2 }
        );
        assert_eq!(
            Topology::from_edges(3, [(0, 1)]).unwrap_err(),
            TopologyError::Disconnected
        );
        // Oversized graphs are rejected before anything is allocated.
        assert_eq!(
            Topology::from_edges(MAX_PROCESSES + 1, []).unwrap_err(),
            TopologyError::TooManyProcesses(MAX_PROCESSES + 1)
        );
        let star = (1..MAX_PROCESSES).map(|i| (0, i));
        let chords = (1..MAX_PROCESSES).flat_map(|a| (a + 1..MAX_PROCESSES).map(move |b| (a, b)));
        assert_eq!(
            Topology::from_edges(MAX_PROCESSES, star.chain(chords)).unwrap_err(),
            TopologyError::TooManyEdges
        );
    }

    #[test]
    fn edge_lookup_roundtrip() {
        let t = Topology::ring(5);
        for &(a, b) in t.edges() {
            let e = t.edge_between(a, b).unwrap();
            assert_eq!(t.endpoints(e), (a, b));
            assert_eq!(t.edge_between(b, a), Some(e));
        }
        assert_eq!(t.edge_between(ProcessId(0), ProcessId(2)), None);
    }

    #[test]
    fn incident_edges_parallel_to_neighbors() {
        let t = Topology::grid(3, 2);
        for p in t.processes() {
            let ns = t.neighbors(p);
            let es = t.incident_edges(p);
            assert_eq!(ns.len(), es.len());
            for (q, e) in ns.iter().zip(es) {
                let (a, b) = t.endpoints(*e);
                assert!((a == p && b == *q) || (a == *q && b == p));
            }
        }
    }

    #[test]
    fn closed_neighborhood_is_self_then_neighbors() {
        let t = Topology::grid(3, 2);
        for p in t.processes() {
            let cn = t.closed_neighborhood(p);
            assert_eq!(cn[0], p, "closed neighborhood starts with the process");
            assert_eq!(&cn[1..], t.neighbors(p));
        }
        let single = Topology::line(1);
        assert_eq!(single.closed_neighborhood(ProcessId(0)), &[ProcessId(0)]);
    }

    #[test]
    fn slot_of_matches_neighbor_order() {
        let t = Topology::star(5);
        let hub = ProcessId(0);
        for (i, &q) in t.neighbors(hub).iter().enumerate() {
            assert_eq!(t.slot_of(hub, q), i);
        }
    }

    #[test]
    #[should_panic(expected = "not a neighbor")]
    fn slot_of_panics_for_non_neighbor() {
        let t = Topology::line(4);
        t.slot_of(ProcessId(0), ProcessId(3));
    }

    #[test]
    fn distances_from_a_set() {
        let t = Topology::line(6);
        let dead = [ProcessId(0)];
        assert_eq!(t.distances_from(&dead)[3], 3);
        // No sources reach nothing.
        assert_eq!(t.distances_from(&[]), [u32::MAX; 6]);
    }

    #[test]
    fn diameter_matches_bfs_extremes() {
        let t = Topology::binary_tree(15);
        let mut best = 0;
        for a in t.processes() {
            best = best.max(*t.distances_from(&[a]).iter().max().unwrap());
        }
        assert_eq!(best, t.diameter());
    }

    /// All-pairs distances by Floyd–Warshall over the edge list: an
    /// oracle that shares no code with the BFS.
    fn floyd_warshall(t: &Topology) -> Vec<Vec<u32>> {
        let n = t.len();
        let far = u32::MAX / 2;
        let mut d = vec![vec![far; n]; n];
        for (p, row) in d.iter_mut().enumerate() {
            row[p] = 0;
        }
        for &(a, b) in t.edges() {
            d[a.0][b.0] = 1;
            d[b.0][a.0] = 1;
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    d[i][j] = d[i][j].min(d[i][k] + d[k][j]);
                }
            }
        }
        d
    }

    #[test]
    fn distances_from_is_the_minimum_over_its_sources() {
        let mut graphs = vec![
            Topology::grid(5, 4),
            Topology::grid(1, 7),
            Topology::grid(6, 6),
        ];
        graphs.extend((0..10).map(|seed| Topology::random_connected(20, 0.12, seed)));
        for t in &graphs {
            let rows = floyd_warshall(t);
            let n = t.len();
            for p in t.processes() {
                assert_eq!(t.distances_from(&[p]), rows[p.0], "{} from {p}", t.name());
            }
            let several = [
                ProcessId(1),
                ProcessId(n / 2),
                ProcessId(n - 1),
                ProcessId(n / 2),
            ];
            let all: Vec<ProcessId> = t.processes().collect();
            for sources in [&several[..], &all] {
                let want: Vec<u32> = (0..n)
                    .map(|q| sources.iter().map(|s| rows[s.0][q]).min().unwrap())
                    .collect();
                assert_eq!(
                    t.distances_from(sources),
                    want,
                    "{} from {sources:?}",
                    t.name()
                );
            }
        }
    }

    #[test]
    fn family_diameters_match_the_exact_sweep() {
        // One BFS per process, the sweep `from_edges` runs on a non-tree.
        let sweep = |t: &Topology| {
            t.processes()
                .map(|p| *t.distances_from(&[p]).iter().max().unwrap())
                .max()
                .unwrap()
        };
        let mut graphs: Vec<Topology> = Vec::new();
        graphs.extend((3..=64).map(Topology::ring));
        graphs.extend((1..=64).map(Topology::line));
        graphs.extend((1..=8).flat_map(|w| (1..=8).map(move |h| Topology::grid(w, h))));
        graphs.extend((2..=32).map(Topology::star));
        graphs.extend((2..=16).map(Topology::complete));
        graphs.extend((1..=64).map(Topology::binary_tree));
        // Every fourth random graph is a tree, taking the double sweep.
        graphs.extend((0..20).map(|seed| {
            let p = if seed % 4 == 0 { 0.0 } else { 0.15 };
            Topology::random_connected(10 + seed as usize, p, seed)
        }));
        for t in &graphs {
            let edges = t.edges().iter().map(|&(a, b)| (a.0, b.0));
            let custom = Topology::from_edges(t.len(), edges).unwrap();
            assert_eq!(t.diameter(), custom.diameter(), "{}", t.name());
            assert_eq!(t.diameter(), sweep(t), "{}", t.name());
        }
        // The double sweep on trees agrees with Floyd–Warshall.
        for t in [
            Topology::binary_tree(21),
            Topology::random_connected(30, 0.0, 5),
        ] {
            let rows = floyd_warshall(&t);
            assert_eq!(t.diameter(), rows.iter().flatten().copied().max().unwrap());
        }
    }
}
