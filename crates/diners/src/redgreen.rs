//! The paper's red/green classification (§3.2).
//!
//! A process is **red** when it is (transitively) blocked by dead
//! processes; the rest are **green**. `RD` is defined as a least fixpoint:
//!
//! ```text
//! RD:p ≡ (p is dead)
//!      ∨ (state:p = T ∧ ∃q ancestor of p:   RD:q ∧ state:q ≠ T)
//!      ∨ (state:p = H ∧ ∀q ancestor of p:  (RD:q ∧ state:q = T)
//!                     ∧ ∃q descendant of p: RD:q ∧ state:q = E)
//! ```
//!
//! `RD` is monotone (non-decreasing in the red set) and well-founded, so
//! iterating to fixpoint is well-defined and unique. Under the invariant
//! `I` the color of a red process never changes (Lemma 5) and every green
//! process that wants to eat eventually eats (Lemmas 6–7, Theorem 2).
//!
//! The red set is the paper's own analytic characterization of the
//! processes *affected* by crashes; the locality experiments measure its
//! radius around the dead processes.

use diners_sim::graph::ProcessId;
use diners_sim::Phase;

use crate::roles::{direct_ancestors, direct_descendants, DinerSnapshot};

/// The red/green classification of every process in a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Colors {
    red: Vec<bool>,
}

impl Colors {
    /// Compute the least fixpoint of `RD` on the snapshot.
    pub fn compute(snap: &DinerSnapshot<'_>) -> Self {
        let n = snap.topo.len();
        let mut red = vec![false; n];
        for p in snap.topo.processes() {
            if snap.is_dead(p) {
                red[p.index()] = true;
            }
        }
        loop {
            let mut changed = false;
            for p in snap.topo.processes() {
                if red[p.index()] || snap.is_dead(p) {
                    continue;
                }
                if rd_clause(snap, &red, p) {
                    red[p.index()] = true;
                    changed = true;
                }
            }
            if !changed {
                return Colors { red };
            }
        }
    }

    /// Whether `p` is red (blocked by dead processes).
    #[inline]
    pub fn is_red(&self, p: ProcessId) -> bool {
        self.red[p.index()]
    }

    /// Whether `p` is green.
    #[inline]
    pub fn is_green(&self, p: ProcessId) -> bool {
        !self.red[p.index()]
    }

    /// All red processes.
    pub fn red_set(&self) -> Vec<ProcessId> {
        self.red
            .iter()
            .enumerate()
            .filter(|(_, &r)| r)
            .map(|(i, _)| ProcessId(i))
            .collect()
    }

    /// All green processes.
    pub fn green_set(&self) -> Vec<ProcessId> {
        self.red
            .iter()
            .enumerate()
            .filter(|(_, &r)| !r)
            .map(|(i, _)| ProcessId(i))
            .collect()
    }

    /// Number of red processes.
    pub fn red_count(&self) -> usize {
        self.red.iter().filter(|&&r| r).count()
    }
}

fn rd_clause(snap: &DinerSnapshot<'_>, red: &[bool], p: ProcessId) -> bool {
    let phase = snap.state.local(p).phase;
    match phase {
        Phase::Thinking => direct_ancestors(snap, p)
            .into_iter()
            .any(|q| red[q.index()] && snap.state.local(q).phase != Phase::Thinking),
        Phase::Hungry => {
            let ancestors_locked = direct_ancestors(snap, p)
                .into_iter()
                .all(|q| red[q.index()] && snap.state.local(q).phase == Phase::Thinking);
            let eating_red_descendant = direct_descendants(snap, p)
                .into_iter()
                .any(|q| red[q.index()] && snap.state.local(q).phase == Phase::Eating);
            ancestors_locked && eating_red_descendant
        }
        Phase::Eating => false, // a live eater is never red by clause
    }
}

/// The maximum distance from a red *non-dead* process to its nearest dead
/// process — the measured failure-locality radius. Returns:
///
/// * `None` if no process is dead (locality is vacuous), and
/// * `Some(0)` if processes are dead but nothing live is red.
pub fn affected_radius(snap: &DinerSnapshot<'_>) -> Option<u32> {
    let colors = Colors::compute(snap);
    let dead: Vec<ProcessId> = snap.dead_set();
    if dead.is_empty() {
        return None;
    }
    let to_dead = snap.topo.distances_from(&dead);
    let radius = snap
        .topo
        .processes()
        .filter(|&p| !snap.is_dead(p) && colors.is_red(p))
        .map(|p| to_dead[p.index()])
        .max()
        .unwrap_or(0);
    Some(radius)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diners_sim::algorithm::SystemState;
    use diners_sim::fault::Health;
    use diners_sim::graph::Topology;
    use diners_sim::predicate::Snapshot;

    use crate::algorithm::MaliciousCrashDiners;
    use crate::state::PriorityVar;

    type State = SystemState<MaliciousCrashDiners>;

    fn alg() -> MaliciousCrashDiners {
        MaliciousCrashDiners::paper()
    }

    fn orient(t: &Topology, s: &mut State, from: usize, to: usize) {
        let e = t
            .edge_between(ProcessId(from), ProcessId(to))
            .expect("edge exists");
        *s.edge_mut(e) = PriorityVar::ancestor_is(ProcessId(from));
    }

    #[test]
    fn all_green_without_deaths() {
        let t = Topology::ring(5);
        let s = State::initial(&alg(), &t);
        let h = vec![Health::Live; 5];
        let snap = Snapshot::new(&t, &s, &h);
        let c = Colors::compute(&snap);
        assert_eq!(c.red_count(), 0);
        assert_eq!(c.green_set().len(), 5);
        assert_eq!(affected_radius(&snap), None);
    }

    #[test]
    fn dead_processes_are_red() {
        let t = Topology::line(3);
        let s = State::initial(&alg(), &t);
        let mut h = vec![Health::Live; 3];
        h[1] = Health::Dead;
        let snap = Snapshot::new(&t, &s, &h);
        let c = Colors::compute(&snap);
        assert!(c.is_red(ProcessId(1)));
        // Thinking neighbors of a dead *thinking* process are green:
        // the dead one never blocks them (it died thinking).
        assert!(c.is_green(ProcessId(0)));
        assert!(c.is_green(ProcessId(2)));
        assert_eq!(affected_radius(&snap), Some(0));
    }

    /// The canonical containment scenario from Figure 2's left half:
    /// dead eating `a`, hungry neighbor `b` whose descendant `a` is, and
    /// `b`'s descendant `d` thinking behind the red-hungry `b`.
    #[test]
    fn figure_2_left_half_coloring() {
        // line a(0) - b(1) - d(2) - e(3)
        let t = Topology::line(4);
        let mut s = State::initial(&alg(), &t);
        // a is b's descendant; b is d's ancestor; d is e's ancestor.
        orient(&t, &mut s, 1, 0);
        orient(&t, &mut s, 1, 2);
        orient(&t, &mut s, 2, 3);
        s.local_mut(ProcessId(0)).phase = Phase::Eating;
        s.local_mut(ProcessId(1)).phase = Phase::Hungry;
        s.local_mut(ProcessId(2)).phase = Phase::Thinking;
        s.local_mut(ProcessId(3)).phase = Phase::Hungry;
        let mut h = vec![Health::Live; 4];
        h[0] = Health::Dead;
        let snap = Snapshot::new(&t, &s, &h);
        let c = Colors::compute(&snap);
        assert!(c.is_red(ProcessId(0)), "dead a");
        assert!(
            c.is_red(ProcessId(1)),
            "b: hungry, no ancestors, red eating descendant a"
        );
        assert!(
            c.is_red(ProcessId(2)),
            "d: thinking with red non-thinking ancestor b"
        );
        assert!(c.is_green(ProcessId(3)), "e is beyond the locality radius");
        assert_eq!(affected_radius(&snap), Some(2), "radius is exactly 2");
    }

    #[test]
    fn hungry_with_live_ancestor_is_green() {
        // b hungry next to dead eating a, but b also has a live thinking
        // ancestor c: the all-ancestors-red clause fails, so b is green
        // (b can still `leave`/be unblocked when c acts).
        let t = Topology::line(3); // c(0) - b(1) - a(2)
        let mut s = State::initial(&alg(), &t);
        orient(&t, &mut s, 0, 1); // c ancestor of b
        orient(&t, &mut s, 1, 2); // a descendant of b
        s.local_mut(ProcessId(1)).phase = Phase::Hungry;
        s.local_mut(ProcessId(2)).phase = Phase::Eating;
        let mut h = vec![Health::Live; 3];
        h[2] = Health::Dead;
        let snap = Snapshot::new(&t, &s, &h);
        let c = Colors::compute(&snap);
        assert!(c.is_green(ProcessId(1)));
    }

    #[test]
    fn red_radius_never_exceeds_two_over_random_states() {
        // Property sweep: over many random states and dead sets, the RD
        // fixpoint never reaches beyond distance 2 from the dead set.
        use rand::Rng;
        let t = Topology::grid(4, 4);
        let a = alg();
        let mut rng = diners_sim::rng::rng(77);
        for _ in 0..200 {
            let mut s = State::initial(&a, &t);
            s.corrupt_all(&a, &t, &mut rng);
            let mut h = vec![Health::Live; t.len()];
            let deaths = rng.gen_range(1..4);
            for _ in 0..deaths {
                h[rng.gen_range(0..t.len())] = Health::Dead;
            }
            let snap = Snapshot::new(&t, &s, &h);
            let r = affected_radius(&snap).expect("dead set non-empty");
            assert!(r <= 2, "red radius {r} > 2");
        }
    }

    #[test]
    fn byzantine_counts_as_non_dead_for_colors() {
        let t = Topology::line(2);
        let mut s = State::initial(&alg(), &t);
        s.local_mut(ProcessId(0)).phase = Phase::Eating;
        let mut h = vec![Health::Live; 2];
        h[0] = Health::Byzantine { remaining: 3 };
        let snap = Snapshot::new(&t, &s, &h);
        let c = Colors::compute(&snap);
        assert!(
            c.is_green(ProcessId(0)),
            "byzantine processes are not dead yet"
        );
    }
}
