//! A reference breadth-first search: the test oracle for the explorer.
//!
//! [`reference_bfs`] is the textbook formulation — one FIFO queue of
//! cloned states, a std `HashMap` keyed by full state contents, parent
//! links for the trace — and shares nothing with `explore_with` but the
//! algorithm's guards and commands: no codec, no fingerprints, no layers,
//! no threads. Its report carries the eight search-shaped fields the
//! differential suites compare (states, transitions, deadlocks,
//! violation, truncation, layers, peak frontier, dedup hits); layers and
//! peak frontier are recovered from each state's BFS depth.
//!
//! Include it with `#[path = "support/reference_bfs.rs"] mod reference_bfs;`.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::mem::size_of;
use std::time::{Duration, Instant};

use diners_sim::algorithm::{ActionId, Algorithm, Move, SystemState, View, Write};
use diners_sim::explore::{ExplorationReport, Limits};
use diners_sim::fault::Health;
use diners_sim::graph::Topology;
use diners_sim::predicate::Snapshot;

/// Search the states reachable from `initial`, checking `safety` in each.
///
/// Same contract as `explore_with` under `Reduction::Packed`: at most
/// `limits.max_states` states are visited, and discovering one more
/// marks the search truncated. `bytes_interned` is what the cloned
/// states would occupy on the heap (struct plus its two vectors'
/// payloads).
pub fn reference_bfs<A, F>(
    alg: &A,
    topo: &Topology,
    initial: SystemState<A>,
    health: &[Health],
    needs: &[bool],
    safety: F,
    limits: Limits,
) -> ExplorationReport
where
    A: Algorithm,
    A::Local: Hash + Eq,
    A::Edge: Hash + Eq,
    F: Fn(&Snapshot<'_, A>) -> bool,
{
    let start = Instant::now();
    let check = |s: &SystemState<A>| safety(&Snapshot::new(topo, s, health));
    let mut report = ExplorationReport {
        states: 1,
        transitions: 0,
        deadlocks: 0,
        violation: None,
        truncated: false,
        elapsed: Duration::ZERO,
        threads: 1,
        layers: 0,
        peak_frontier: 0,
        dedup_hits: 0,
        bytes_interned: 0,
        peak_states: 1,
    };
    let mut states = vec![initial];
    if check(&states[0]) {
        let key = |s: &SystemState<A>| (s.locals().to_vec(), s.edges().to_vec());
        let mut index = HashMap::from([(key(&states[0]), 0usize)]);
        let mut parent: Vec<Option<(usize, Move)>> = vec![None];
        let mut depth = vec![0usize];
        // States queued at each depth: the frontier sizes.
        let mut queued = vec![1usize];
        let mut queue = VecDeque::from([0usize]);
        'bfs: while let Some(i) = queue.pop_front() {
            if depth[i] == report.layers {
                report.layers += 1;
                report.peak_frontier = report.peak_frontier.max(queued[depth[i]]);
            }
            let moves = enabled_moves(alg, topo, &states[i], health, needs);
            if moves.is_empty() {
                report.deadlocks += 1;
            }
            for mv in moves {
                report.transitions += 1;
                let next = apply(alg, topo, &states[i], mv, needs);
                if index.contains_key(&key(&next)) {
                    report.dedup_hits += 1;
                    continue;
                }
                if states.len() >= limits.max_states {
                    report.truncated = true;
                    break 'bfs;
                }
                let j = states.len();
                index.insert(key(&next), j);
                parent.push(Some((i, mv)));
                depth.push(depth[i] + 1);
                let violated = !check(&next);
                states.push(next);
                if violated {
                    report.violation = Some(trace(&parent, j));
                    break 'bfs;
                }
                if queued.len() == depth[j] {
                    queued.push(0);
                }
                queued[depth[j]] += 1;
                queue.push_back(j);
            }
        }
    } else {
        report.violation = Some(Vec::new());
    }
    report.states = states.len();
    report.peak_states = states.len();
    report.bytes_interned = states.len()
        * (size_of::<SystemState<A>>()
            + topo.len() * size_of::<A::Local>()
            + topo.edge_count() * size_of::<A::Edge>());
    report.elapsed = start.elapsed();
    report
}

/// Two searches must agree on every search-shaped field.
pub fn assert_bit_identical(a: &ExplorationReport, b: &ExplorationReport, ctx: &str) {
    assert_eq!(a.states, b.states, "{ctx}: states");
    assert_eq!(a.transitions, b.transitions, "{ctx}: transitions");
    assert_eq!(a.deadlocks, b.deadlocks, "{ctx}: deadlocks");
    assert_eq!(a.violation, b.violation, "{ctx}: violation");
    assert_eq!(a.truncated, b.truncated, "{ctx}: truncated");
    assert_eq!(a.layers, b.layers, "{ctx}: layers");
    assert_eq!(a.peak_frontier, b.peak_frontier, "{ctx}: peak_frontier");
    assert_eq!(a.dedup_hits, b.dedup_hits, "{ctx}: dedup_hits");
}

/// Every enabled move of every live process, in process then action
/// order.
fn enabled_moves<A: Algorithm>(
    alg: &A,
    topo: &Topology,
    state: &SystemState<A>,
    health: &[Health],
    needs: &[bool],
) -> Vec<Move> {
    let mut moves = Vec::new();
    for pid in topo.processes().filter(|p| health[p.index()].is_live()) {
        let view = View::new(topo, state, pid, needs[pid.index()]);
        for (kind, k) in alg.kinds().iter().enumerate() {
            let actions: Vec<ActionId> = if k.per_neighbor {
                (0..topo.degree(pid))
                    .map(|slot| ActionId::at_slot(kind, slot))
                    .collect()
            } else {
                vec![ActionId::global(kind)]
            };
            for action in actions {
                if alg.enabled(&view, action) {
                    moves.push(Move { pid, action });
                }
            }
        }
    }
    moves
}

/// The state after `mv` fires in `state`.
fn apply<A: Algorithm>(
    alg: &A,
    topo: &Topology,
    state: &SystemState<A>,
    mv: Move,
    needs: &[bool],
) -> SystemState<A> {
    let writes = alg.execute(
        &View::new(topo, state, mv.pid, needs[mv.pid.index()]),
        mv.action,
    );
    let mut next = state.clone();
    for w in writes {
        match w {
            Write::Local(l) => *next.local_mut(mv.pid) = l,
            Write::Edge { neighbor, value } => {
                let e = topo.edge_between(mv.pid, neighbor).expect("incident edge");
                *next.edge_mut(e) = value;
            }
        }
    }
    next
}

/// The moves along the parent links from the root to `j`.
fn trace(parent: &[Option<(usize, Move)>], mut j: usize) -> Vec<Move> {
    let mut moves = Vec::new();
    while let Some((i, mv)) = parent[j] {
        moves.push(mv);
        j = i;
    }
    moves.reverse();
    moves
}
