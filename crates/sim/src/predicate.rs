//! State predicates and convergence detection.
//!
//! The paper's proof structure is predicate-based: a predicate is *closed*
//! if computations preserve it, and the program *stabilizes to* `R` if
//! `true` converges to `R`. This module gives predicates a first-class
//! representation over immutable [`Snapshot`]s of a run, plus combinators
//! and empirical closure/convergence checks used throughout the test suite
//! and experiments.

use crate::algorithm::{Algorithm, SystemState};
use crate::fault::Health;
use crate::graph::{ProcessId, Topology};

/// An immutable view of everything a global predicate may mention: the
/// topology, the full variable state, and which processes are dead.
pub struct Snapshot<'a, A: Algorithm> {
    /// The conflict graph.
    pub topo: &'a Topology,
    /// All local and shared variables.
    pub state: &'a SystemState<A>,
    /// Per-process health.
    pub health: &'a [Health],
}

impl<'a, A: Algorithm> Snapshot<'a, A> {
    /// Construct a snapshot from parts.
    pub fn new(topo: &'a Topology, state: &'a SystemState<A>, health: &'a [Health]) -> Self {
        Snapshot {
            topo,
            state,
            health,
        }
    }

    /// Whether `p` has halted.
    #[inline]
    pub fn is_dead(&self, p: ProcessId) -> bool {
        self.health[p.index()].is_dead()
    }

    /// Whether `p` executes its program (not dead, not byzantine).
    #[inline]
    pub fn is_live(&self, p: ProcessId) -> bool {
        self.health[p.index()].is_live()
    }

    /// All dead processes.
    pub fn dead_set(&self) -> Vec<ProcessId> {
        self.topo.processes().filter(|&p| self.is_dead(p)).collect()
    }

    /// All live processes.
    pub fn live_set(&self) -> Vec<ProcessId> {
        self.topo.processes().filter(|&p| self.is_live(p)).collect()
    }
}

/// A named predicate over system snapshots.
pub trait StatePredicate<A: Algorithm> {
    /// Predicate name for reports and assertion messages.
    fn name(&self) -> String;

    /// Whether the predicate holds in the snapshot.
    fn holds(&self, snap: &Snapshot<'_, A>) -> bool;
}

/// Wrap a closure as a predicate.
pub struct FnPredicate<F> {
    label: String,
    f: F,
}

impl<F> FnPredicate<F> {
    /// Name a closure-backed predicate.
    pub fn new<A: Algorithm>(label: impl Into<String>, f: F) -> Self
    where
        F: Fn(&Snapshot<'_, A>) -> bool,
    {
        FnPredicate {
            label: label.into(),
            f,
        }
    }
}

impl<A: Algorithm, F: Fn(&Snapshot<'_, A>) -> bool> StatePredicate<A> for FnPredicate<F> {
    fn name(&self) -> String {
        self.label.clone()
    }
    fn holds(&self, snap: &Snapshot<'_, A>) -> bool {
        (self.f)(snap)
    }
}

/// Conjunction of two predicates.
pub struct And<P, Q>(pub P, pub Q);

impl<A: Algorithm, P: StatePredicate<A>, Q: StatePredicate<A>> StatePredicate<A> for And<P, Q> {
    fn name(&self) -> String {
        format!("({} && {})", self.0.name(), self.1.name())
    }
    fn holds(&self, snap: &Snapshot<'_, A>) -> bool {
        self.0.holds(snap) && self.1.holds(snap)
    }
}

/// Disjunction of two predicates.
pub struct Or<P, Q>(pub P, pub Q);

impl<A: Algorithm, P: StatePredicate<A>, Q: StatePredicate<A>> StatePredicate<A> for Or<P, Q> {
    fn name(&self) -> String {
        format!("({} || {})", self.0.name(), self.1.name())
    }
    fn holds(&self, snap: &Snapshot<'_, A>) -> bool {
        self.0.holds(snap) || self.1.holds(snap)
    }
}

impl<A: Algorithm, P: StatePredicate<A> + ?Sized> StatePredicate<A> for &P {
    fn name(&self) -> String {
        (**self).name()
    }
    fn holds(&self, snap: &Snapshot<'_, A>) -> bool {
        (**self).holds(snap)
    }
}

/// Negation of a predicate.
pub struct Not<P>(pub P);

impl<A: Algorithm, P: StatePredicate<A>> StatePredicate<A> for Not<P> {
    fn name(&self) -> String {
        format!("!{}", self.0.name())
    }
    fn holds(&self, snap: &Snapshot<'_, A>) -> bool {
        !self.0.holds(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{ActionId, ActionKind, View, Write};
    use crate::graph::{EdgeId, Topology};
    use rand::rngs::StdRng;

    struct Unit;
    impl Algorithm for Unit {
        type Local = u8;
        type Edge = ();
        fn name(&self) -> &str {
            "unit"
        }
        fn kinds(&self) -> &[ActionKind] {
            &[]
        }
        fn init_local(&self, _t: &Topology, _p: ProcessId) -> u8 {
            0
        }
        fn init_edge(&self, _t: &Topology, _e: EdgeId) {}
        fn enabled(&self, _v: &View<'_, Self>, _a: ActionId) -> bool {
            false
        }
        fn execute(&self, _v: &View<'_, Self>, _a: ActionId) -> Vec<Write<Self>> {
            Vec::new()
        }
        fn corrupt_local(&self, _r: &mut StdRng, _t: &Topology, _p: ProcessId) -> u8 {
            0
        }
        fn corrupt_edge(&self, _r: &mut StdRng, _t: &Topology, _e: EdgeId) {}
    }

    fn fixture() -> (Topology, SystemState<Unit>, Vec<Health>) {
        let t = Topology::line(4);
        let s = SystemState::initial(&Unit, &t);
        let mut h = vec![Health::Live; 4];
        h[0] = Health::Dead;
        h[2] = Health::Byzantine { remaining: 1 };
        (t, s, h)
    }

    #[test]
    fn snapshot_health_queries() {
        let (t, s, h) = fixture();
        let snap = Snapshot::new(&t, &s, &h);
        assert!(snap.is_dead(ProcessId(0)));
        assert!(!snap.is_live(ProcessId(2)), "byzantine is not live");
        assert!(!snap.is_dead(ProcessId(2)));
        assert_eq!(snap.dead_set(), vec![ProcessId(0)]);
        assert_eq!(snap.live_set(), vec![ProcessId(1), ProcessId(3)]);
        assert_eq!(t.distances_from(&snap.dead_set())[3], 3);
    }

    #[test]
    fn no_dead_process_is_at_any_distance_when_all_alive() {
        let t = Topology::line(3);
        let s = SystemState::initial(&Unit, &t);
        let h = vec![Health::Live; 3];
        let snap = Snapshot::new(&t, &s, &h);
        assert_eq!(t.distances_from(&snap.dead_set())[1], u32::MAX);
    }

    #[test]
    fn combinators_compose() {
        let (t, s, h) = fixture();
        let snap = Snapshot::new(&t, &s, &h);
        let yes = FnPredicate::new::<Unit>("yes", |_s: &Snapshot<'_, Unit>| true);
        let no = FnPredicate::new::<Unit>("no", |_s: &Snapshot<'_, Unit>| false);
        assert!(And(&yes, &yes).holds(&snap));
        assert!(!And(&yes, &no).holds(&snap));
        assert!(Or(&no, &yes).holds(&snap));
        assert!(!Or(&no, &no).holds(&snap));
        assert!(Not(&no).holds(&snap));
        assert_eq!(And(&yes, &no).name(), "(yes && no)");
        assert_eq!(Not(&no).name(), "!no");
    }
}
