//! The incremental engine's enabled set, kept as an index the dirty-set
//! loop updates in place.
//!
//! [`EnabledIndex`] holds every process's enabled moves in enumeration
//! order, their fairness ages in a dense `(pid, kind, slot)` table, and a
//! Fenwick tree over the per-process list lengths. Re-enumerating one
//! process costs O(Δ + log n); naming the move at a given *rank* costs
//! O(log n).
//!
//! **Rank order is the from-scratch enumeration order** of
//! `Engine::enabled_moves`, the process-major instance order defined by
//! [`action_instances`]. So rank `r` names exactly the move at index `r`
//! of a from-scratch enumeration of the state — the slice
//! [`EnabledView::as_slice`] hands to [`Scheduler::pick`] — and a daemon
//! that picks by rank through [`EnabledView`] makes the same decisions as
//! one that scans the slice.
//!
//! [`Scheduler::pick`]: crate::scheduler::Scheduler::pick

use crate::algorithm::{action_instances, ActionKind, Move};
use crate::graph::{ProcessId, Topology};
use crate::scheduler::EnabledMove;

/// Sentinel in the dense age table: the move is not currently enabled.
const NOT_ENABLED: u64 = u64::MAX;

/// Dense "first continuously enabled at step" table, indexed by
/// `(pid, action kind, neighbor slot)` with one extra slot per process
/// for the malicious pseudo-move, so admit/evict/lookup are O(1) array
/// accesses instead of `HashMap` operations.
struct AgeTable {
    kinds: usize,
    /// Start of each process's slot block; `base[n]` is the table size.
    /// The last slot of every block is the malicious pseudo-move.
    base: Vec<usize>,
    /// Start of each `(process, kind)` run inside the process block,
    /// flattened as `kind_base[p * kinds + kind]`.
    kind_base: Vec<usize>,
    ages: Vec<u64>,
}

impl AgeTable {
    fn new(topo: &Topology, kinds: &[ActionKind]) -> Self {
        let n = topo.len();
        let k = kinds.len();
        let mut base = Vec::with_capacity(n + 1);
        let mut kind_base = vec![0; n * k];
        let mut off = 0usize;
        for p in 0..n {
            base.push(off);
            for a in action_instances(kinds, topo.degree(ProcessId(p))) {
                // A kind's run starts at its first instance.
                if a.slot.unwrap_or(0) == 0 {
                    kind_base[p * k + a.kind] = off;
                }
                off += 1;
            }
            off += 1; // malicious pseudo-move
        }
        base.push(off);
        AgeTable {
            kinds: k,
            base,
            kind_base,
            ages: vec![NOT_ENABLED; off],
        }
    }

    /// Table index of a move. Strictly increasing along each process's
    /// enumeration order, and process-major overall — reconciliation
    /// relies on this to merge old/new cache lists with two pointers.
    #[inline]
    fn index(&self, mv: Move) -> usize {
        let p = mv.pid.index();
        if mv.action.is_malicious() {
            self.base[p + 1] - 1
        } else {
            self.kind_base[p * self.kinds + mv.action.kind] + mv.action.slot.unwrap_or(0)
        }
    }

    /// The step at which `mv` became continuously enabled.
    #[inline]
    fn first_enabled(&self, mv: Move) -> u64 {
        self.ages[self.index(mv)]
    }

    /// Evict `mv` (it was just executed).
    #[inline]
    fn evict(&mut self, mv: Move) {
        let i = self.index(mv);
        self.ages[i] = NOT_ENABLED;
    }

    /// Reconcile one process's recomputed enabled list against its old
    /// cached list: moves no longer enabled are evicted, newly (or re-)
    /// enabled moves are admitted at `step`, still-enabled moves keep
    /// their age. Both slices are in enumeration order, so their table
    /// indices are strictly increasing.
    fn reconcile(&mut self, old: &[Move], new: &[Move], step: u64) {
        let mut oi = 0;
        let mut ni = 0;
        while oi < old.len() && ni < new.len() {
            let io = self.index(old[oi]);
            let in_ = self.index(new[ni]);
            match io.cmp(&in_) {
                std::cmp::Ordering::Less => {
                    self.ages[io] = NOT_ENABLED;
                    oi += 1;
                }
                std::cmp::Ordering::Greater => {
                    debug_assert_eq!(self.ages[in_], NOT_ENABLED);
                    self.ages[in_] = step;
                    ni += 1;
                }
                std::cmp::Ordering::Equal => {
                    // Still enabled; re-admit if it was executed since
                    // (a from-scratch age map's `remove` + later
                    // `or_insert`).
                    if self.ages[io] == NOT_ENABLED {
                        self.ages[io] = step;
                    }
                    oi += 1;
                    ni += 1;
                }
            }
        }
        for &mv in &old[oi..] {
            let i = self.index(mv);
            self.ages[i] = NOT_ENABLED;
        }
        for &mv in &new[ni..] {
            let i = self.index(mv);
            if self.ages[i] == NOT_ENABLED {
                self.ages[i] = step;
            }
        }
    }
}

/// Every process's enabled moves with their fairness ages, indexed by
/// rank; see the module docs.
pub struct EnabledIndex {
    /// Per-process enabled moves, in enumeration order.
    lists: Vec<Vec<Move>>,
    ages: AgeTable,
    /// Fenwick tree (1-based) over the lengths of `lists`, updated with
    /// wrapping arithmetic so that a shrinking list is a wrapped add.
    tree: Vec<usize>,
    len: usize,
}

impl EnabledIndex {
    /// An empty index for `topo` under an algorithm with these kinds.
    pub(crate) fn new(topo: &Topology, kinds: &[ActionKind]) -> Self {
        EnabledIndex {
            lists: vec![Vec::new(); topo.len()],
            ages: AgeTable::new(topo, kinds),
            tree: vec![0; topo.len() + 1],
            len: 0,
        }
    }

    /// Replace `p`'s enabled moves with `fresh` (in enumeration order)
    /// at `step`, reconciling their ages; `fresh` gets `p`'s old list
    /// back, to reuse as a buffer.
    pub(crate) fn update(&mut self, p: usize, fresh: &mut Vec<Move>, step: u64) {
        self.ages.reconcile(&self.lists[p], fresh, step);
        let (old, new) = (self.lists[p].len(), fresh.len());
        if new != old {
            self.len = self.len - old + new;
            let delta = new.wrapping_sub(old);
            let mut j = p + 1;
            while j < self.tree.len() {
                self.tree[j] = self.tree[j].wrapping_add(delta);
                j += j & j.wrapping_neg();
            }
        }
        std::mem::swap(&mut self.lists[p], fresh);
    }

    /// Evict `mv` (it was just executed). Its process is re-enumerated
    /// before the next pick, which re-admits it at age 1 if still enabled.
    #[inline]
    pub(crate) fn evict(&mut self, mv: Move) {
        self.ages.evict(mv);
    }

    /// Number of enabled moves.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// `mv` with its age at `step`.
    #[inline]
    fn annotate(&self, mv: Move, step: u64) -> EnabledMove {
        let first = self.ages.first_enabled(mv);
        debug_assert_ne!(first, NOT_ENABLED, "cached move {mv:?} has no age");
        EnabledMove {
            mv,
            age: step - first + 1,
        }
    }

    /// The move at `rank` (< `len`), with its age at `step`.
    pub(crate) fn get(&self, rank: usize, step: u64) -> EnabledMove {
        self.annotate(self.move_at(rank), step)
    }

    /// The move at `rank` (< `len`).
    pub(crate) fn move_at(&self, rank: usize) -> Move {
        debug_assert!(rank < self.len, "rank {rank} out of {}", self.len);
        // Fenwick descent to the largest `p` whose predecessors hold at
        // most `rank` moves; `rest` is then the rank within `lists[p]`.
        let n = self.lists.len();
        let (mut p, mut rest) = (0, rank);
        let mut bit = 1usize << (usize::BITS - 1 - n.leading_zeros());
        while bit > 0 {
            if p + bit <= n && self.tree[p + bit] <= rest {
                p += bit;
                rest -= self.tree[p];
            }
            bit >>= 1;
        }
        self.lists[p][rest]
    }

    /// A scheduler's read-only view at `step`; `buf` backs the slice
    /// adapter ([`EnabledView::as_slice`]).
    pub(crate) fn view<'a>(&'a self, step: u64, buf: &'a mut Vec<EnabledMove>) -> EnabledView<'a> {
        EnabledView {
            index: self,
            step,
            buf,
        }
    }
}

/// A read-only view of the enabled set at one step, offered to
/// [`crate::scheduler::Scheduler::pick_from`]. Ranks follow the
/// from-scratch enumeration order (see the module docs).
pub struct EnabledView<'a> {
    index: &'a EnabledIndex,
    step: u64,
    buf: &'a mut Vec<EnabledMove>,
}

impl EnabledView<'_> {
    /// Number of enabled moves (never 0 when a scheduler is asked).
    pub fn len(&self) -> usize {
        self.index.len
    }

    /// Whether no move is enabled.
    pub fn is_empty(&self) -> bool {
        self.index.len == 0
    }

    /// The move at `rank` (< [`EnabledView::len`]) with its age,
    /// in O(log n).
    pub fn get(&self, rank: usize) -> EnabledMove {
        self.index.get(rank, self.step)
    }

    /// The whole enabled set as the slice [`Scheduler::pick`] takes,
    /// built into the engine's reused buffer in O(n·Δ).
    ///
    /// [`Scheduler::pick`]: crate::scheduler::Scheduler::pick
    pub fn as_slice(&mut self) -> &[EnabledMove] {
        self.buf.clear();
        for &mv in self.index.lists.iter().flatten() {
            self.buf.push(self.index.annotate(mv, self.step));
        }
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use rand::Rng;

    use super::*;
    use crate::algorithm::{ActionId, Algorithm};
    use crate::rng;
    use crate::toy::{ToyDiners, TOY_ENTER, TOY_JOIN};

    #[test]
    fn age_table_reconcile_semantics() {
        let topo = Topology::line(3);
        let kinds = ToyDiners.kinds();
        let mut t = AgeTable::new(&topo, kinds);
        let join = |p: usize| Move {
            pid: ProcessId(p),
            action: ActionId::global(TOY_JOIN),
        };
        let enter = |p: usize| Move {
            pid: ProcessId(p),
            action: ActionId::global(TOY_ENTER),
        };
        let mal = |p: usize| Move {
            pid: ProcessId(p),
            action: ActionId::MALICIOUS,
        };

        // Admit two moves at step 5.
        t.reconcile(&[], &[join(1), enter(1)], 5);
        assert_eq!(t.first_enabled(join(1)), 5);
        assert_eq!(t.first_enabled(enter(1)), 5);

        // Still enabled at step 8: ages preserved, not reset.
        t.reconcile(&[join(1), enter(1)], &[join(1), enter(1)], 8);
        assert_eq!(t.first_enabled(join(1)), 5);

        // enter drops out, join survives, malicious pseudo-move appears.
        t.reconcile(&[join(1), enter(1)], &[join(1), mal(1)], 9);
        assert_eq!(t.first_enabled(join(1)), 5);
        assert_eq!(t.first_enabled(enter(1)), NOT_ENABLED);
        assert_eq!(t.first_enabled(mal(1)), 9);

        // Executed (evicted) then still enabled → re-admitted fresh.
        t.evict(join(1));
        t.reconcile(&[join(1), mal(1)], &[join(1), mal(1)], 11);
        assert_eq!(t.first_enabled(join(1)), 11, "re-enabled move restarts");
        assert_eq!(t.first_enabled(mal(1)), 9, "untouched move keeps age");

        // Other processes' slots are independent.
        assert_eq!(t.first_enabled(join(0)), NOT_ENABLED);
        assert_eq!(t.first_enabled(join(2)), NOT_ENABLED);
    }

    /// A random enabled list for `p` in enumeration order: dead (empty),
    /// maliciously crashing (the pseudo-move alone), or live (any subset
    /// of its action instances, possibly none).
    fn random_moves(
        topo: &Topology,
        kinds: &[ActionKind],
        p: usize,
        r: &mut impl Rng,
    ) -> Vec<Move> {
        let pid = ProcessId(p);
        match r.gen_range(0..4) {
            0 => Vec::new(),
            1 => vec![Move {
                pid,
                action: ActionId::MALICIOUS,
            }],
            _ => action_instances(kinds, topo.degree(pid))
                .filter(|_| r.gen_bool(0.5))
                .map(|action| Move { pid, action })
                .collect(),
        }
    }

    #[test]
    fn ranks_match_the_materialised_slice_under_random_updates() {
        let kinds = [
            ActionKind {
                name: "a",
                per_neighbor: false,
            },
            ActionKind {
                name: "b",
                per_neighbor: true,
            },
            ActionKind {
                name: "c",
                per_neighbor: false,
            },
        ];
        let topos = [
            Topology::line(1),
            Topology::ring(5),
            Topology::random_connected(13, 0.3, 4),
            Topology::grid(8, 8),
        ];
        for (seed, topo) in topos.iter().enumerate() {
            let n = topo.len();
            let mut r = rng::rng(seed as u64);
            let mut index = EnabledIndex::new(topo, &kinds);
            // Reference: plain lists and a from-scratch `HashMap` age map.
            let mut lists: Vec<Vec<Move>> = vec![Vec::new(); n];
            let mut first: HashMap<Move, u64> = HashMap::new();
            let mut buf = Vec::new();
            for step in 0..400u64 {
                // Fire one move, as the engine does, then re-enumerate its
                // process and a few others.
                let mut dirty: Vec<usize> =
                    (0..r.gen_range(0..4)).map(|_| r.gen_range(0..n)).collect();
                if index.len() > 0 {
                    let mv = index.get(r.gen_range(0..index.len()), step).mv;
                    index.evict(mv);
                    first.remove(&mv);
                    dirty.push(mv.pid.index());
                }
                dirty.sort_unstable();
                dirty.dedup();
                for p in dirty {
                    let mut fresh = random_moves(topo, &kinds, p, &mut r);
                    first.retain(|m, _| m.pid.index() != p || fresh.contains(m));
                    for &m in &fresh {
                        first.entry(m).or_insert(step);
                    }
                    lists[p].clone_from(&fresh);
                    index.update(p, &mut fresh, step);
                }

                let expected: Vec<EnabledMove> = lists
                    .iter()
                    .flatten()
                    .map(|&mv| EnabledMove {
                        mv,
                        age: step - first[&mv] + 1,
                    })
                    .collect();
                let mut view = index.view(step, &mut buf);
                assert_eq!(view.len(), expected.len(), "{} step {step}", topo.name());
                for (rank, em) in expected.iter().enumerate() {
                    assert_eq!(
                        &view.get(rank),
                        em,
                        "{} step {step} rank {rank}",
                        topo.name()
                    );
                }
                assert_eq!(
                    view.as_slice(),
                    &expected[..],
                    "{} step {step}",
                    topo.name()
                );
            }
        }
    }
}
