//! Reproduction of the paper's Figure 2 — the example computation.
//!
//! The figure shows a 7-process system (here `a..g` = `p0..p6`, diameter
//! `D = 3`) in which process `a` has maliciously crashed while *eating*:
//!
//! * `b`, hungry next to the dead eater, is blocked forever (red);
//! * `c`, thinking behind the dead eater, can never join (red);
//! * `d`, hungry with the blocked-hungry ancestor `b`, executes **leave**
//!   and yields to its descendant `e` — the *dynamic threshold* that
//!   contains the crash within distance 2;
//! * `e`, `f`, `g` form a priority cycle; **fixdepth** pumps `depth`
//!   around the cycle until `depth:g = 4 > D`, whereupon `g` executes
//!   **exit**, breaking the cycle and letting `e` **enter** (eat).

use diners_sim::algorithm::{ActionId, Move, SystemState};
use diners_sim::engine::Engine;
use diners_sim::fault::FaultPlan;
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::scheduler::ScriptedScheduler;
use diners_sim::trace::Trace;
use diners_sim::Phase;

use crate::algorithm::{MaliciousCrashDiners, ENTER, EXIT, FIXDEPTH, LEAVE};
use crate::redgreen::{affected_radius, Colors};
use crate::state::PriorityVar;

/// Process names as used in the paper's figure, indexed by process id.
pub const NAMES: [&str; 7] = ["a", "b", "c", "d", "e", "f", "g"];

/// Process `a` (crashed while eating).
pub const A: ProcessId = ProcessId(0);
/// Process `b` (blocked hungry, distance 1).
pub const B: ProcessId = ProcessId(1);
/// Process `c` (blocked thinking, distance 1).
pub const C: ProcessId = ProcessId(2);
/// Process `d` (yields via dynamic threshold, distance 2).
pub const D: ProcessId = ProcessId(3);
/// Process `e` (eats once the cycle is broken).
pub const E: ProcessId = ProcessId(4);
/// Process `f` (on the priority cycle).
pub const F: ProcessId = ProcessId(5);
/// Process `g` (detects the cycle and breaks it).
pub const G: ProcessId = ProcessId(6);

/// The figure's topology: diameter 3, with `e,f,g` forming a triangle
/// hanging off `d`.
pub fn fig2_topology() -> Topology {
    let mut t = Topology::from_edges(
        7,
        [
            (0, 1), // a - b
            (0, 2), // a - c
            (1, 3), // b - d
            (2, 3), // c - d
            (3, 4), // d - e
            (3, 5), // d - f
            (3, 6), // d - g
            (4, 5), // e - f
            (4, 6), // e - g
            (5, 6), // f - g
        ],
    )
    .expect("figure 2 topology is valid");
    t.set_name("figure-2");
    t
}

/// The figure's first state: `a` dead while eating, `b`/`e`/`d`/`g`
/// hungry, the `e → f → g → e` priority cycle present, depths primed so
/// two `fixdepth` steps push `depth:g` past `D`.
pub fn fig2_initial_state(topo: &Topology) -> SystemState<MaliciousCrashDiners> {
    let alg = MaliciousCrashDiners::paper();
    let mut s = SystemState::initial(&alg, topo);

    let mut orient = |from: ProcessId, to: ProcessId| {
        let e = topo.edge_between(from, to).expect("edge in figure");
        *s.edge_mut(e) = PriorityVar::ancestor_is(from);
    };
    orient(B, A); // a is b's descendant (b waits on eating descendant a)
    orient(A, C); // a is c's ancestor (c cannot join past the dead eater)
    orient(B, D); // b is d's ancestor (the blocked-hungry ancestor)
    orient(D, C); // c is d's descendant
    orient(D, E); // d is e's ancestor (d will yield to e)
    orient(D, F);
    orient(D, G);
    orient(E, F); // the cycle: e -> f
    orient(F, G); //            f -> g
    orient(G, E); //            g -> e

    let set = |s: &mut SystemState<MaliciousCrashDiners>, p: ProcessId, ph: Phase, depth: u32| {
        let l = s.local_mut(p);
        l.phase = ph;
        l.depth = depth;
    };
    set(&mut s, A, Phase::Eating, 0);
    set(&mut s, B, Phase::Hungry, 0);
    set(&mut s, C, Phase::Thinking, 0);
    set(&mut s, D, Phase::Hungry, 0);
    set(&mut s, E, Phase::Hungry, 2);
    set(&mut s, F, Phase::Thinking, 2);
    set(&mut s, G, Phase::Hungry, 3);
    s
}

/// The exact schedule depicted by the figure's three transitions.
pub fn fig2_script(topo: &Topology) -> Vec<Move> {
    vec![
        // d yields to e: dynamic threshold.
        Move {
            pid: D,
            action: ActionId::global(LEAVE),
        },
        // fixdepth pumps the cycle: depth:e := depth:f + 1 = 3 ...
        Move {
            pid: E,
            action: ActionId::at_slot(FIXDEPTH, topo.slot_of(E, F)),
        },
        // ... then depth:g := depth:e + 1 = 4 > D.
        Move {
            pid: G,
            action: ActionId::at_slot(FIXDEPTH, topo.slot_of(G, E)),
        },
        // g breaks the cycle.
        Move {
            pid: G,
            action: ActionId::global(EXIT),
        },
        // e eats.
        Move {
            pid: E,
            action: ActionId::global(ENTER),
        },
    ]
}

/// An engine primed with the figure's scenario and scripted schedule.
pub fn fig2_engine() -> Engine<MaliciousCrashDiners> {
    let topo = fig2_topology();
    let state = fig2_initial_state(&topo);
    let script = fig2_script(&topo);
    Engine::builder(MaliciousCrashDiners::paper(), topo)
        .initial_state(state)
        .scheduler(ScriptedScheduler::new(script))
        .faults(FaultPlan::new().initially_dead(A.index()))
        .observe(Trace::new())
        .build()
}

/// The assertions the figure makes, evaluated after replaying its steps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Figure2Report {
    /// Narrative of the replayed computation, one line per transition.
    pub narrative: Vec<String>,
    /// `e` is eating in the final state.
    pub e_eats: bool,
    /// `b` remained hungry (blocked) throughout.
    pub b_still_hungry: bool,
    /// `c` remained thinking (blocked) throughout.
    pub c_still_thinking: bool,
    /// `d` yielded back to thinking.
    pub d_yielded: bool,
    /// `depth:g` exceeded the diameter before `g`'s exit.
    pub g_detected_cycle: bool,
    /// The red set after the computation is exactly `{a, b, c, d}`.
    pub red_set_is_abcd: bool,
    /// The measured affected radius (paper: contained within distance 2).
    pub affected_radius: Option<u32>,
}

impl Figure2Report {
    /// Whether every depicted property was reproduced.
    pub fn all_reproduced(&self) -> bool {
        self.e_eats
            && self.b_still_hungry
            && self.c_still_thinking
            && self.d_yielded
            && self.g_detected_cycle
            && self.red_set_is_abcd
            && self.affected_radius == Some(2)
    }
}

/// Replay the figure's computation and report what happened.
pub fn run_figure2() -> Figure2Report {
    let mut engine = fig2_engine();
    let mut narrative = Vec::new();
    let diameter = engine.topology().diameter();

    let mut g_detected_cycle = false;
    for i in 0..5 {
        engine.step();
        let gd = engine.state().local(G).depth;
        if gd > diameter {
            g_detected_cycle = true;
        }
        let phases: Vec<String> = engine
            .topology()
            .processes()
            .map(|p| format!("{}={}", NAMES[p.index()], engine.state().local(p)))
            .collect();
        narrative.push(format!("step {}: {}", i + 1, phases.join(" ")));
    }

    let snap = engine.snapshot();
    let colors = Colors::compute(&snap);
    let red = colors.red_set();
    Figure2Report {
        e_eats: engine.phase_of(E) == Phase::Eating,
        b_still_hungry: engine.phase_of(B) == Phase::Hungry,
        c_still_thinking: engine.phase_of(C) == Phase::Thinking,
        d_yielded: engine.phase_of(D) == Phase::Thinking,
        g_detected_cycle,
        red_set_is_abcd: red == vec![A, B, C, D],
        affected_radius: affected_radius(&snap),
        narrative,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_matches_figure() {
        let t = fig2_topology();
        assert_eq!(t.len(), 7);
        assert_eq!(t.diameter(), 3, "the paper states D = 3");
        assert_eq!(t.edge_count(), 10);
        let from_a = t.distances_from(&[A]);
        assert_eq!(from_a[E.index()], 3);
        assert_eq!(from_a[D.index()], 2);
    }

    #[test]
    fn initial_state_has_the_cycle() {
        let t = fig2_topology();
        let s = fig2_initial_state(&t);
        let h = vec![diners_sim::fault::Health::Live; 7];
        let snap = diners_sim::predicate::Snapshot::new(&t, &s, &h);
        assert!(crate::roles::live_cycle_exists(&snap));
    }

    #[test]
    fn figure_2_reproduces_exactly() {
        let r = run_figure2();
        assert!(r.e_eats, "e must eat after the cycle breaks");
        assert!(r.b_still_hungry, "b stays blocked hungry");
        assert!(r.c_still_thinking, "c stays blocked thinking");
        assert!(r.d_yielded, "d's leave contains the crash at distance 2");
        assert!(r.g_detected_cycle, "depth:g exceeded D before g's exit");
        assert!(r.red_set_is_abcd, "red set is {{a,b,c,d}}");
        assert_eq!(r.affected_radius, Some(2), "containment radius is 2");
        assert!(r.all_reproduced());
        assert_eq!(r.narrative.len(), 5);
    }

    #[test]
    fn cycle_is_gone_after_the_replay() {
        let mut engine = fig2_engine();
        engine.run(5);
        assert!(!crate::roles::live_cycle_exists(&engine.snapshot()));
    }

    #[test]
    fn trace_records_the_scripted_actions() {
        let mut engine = fig2_engine();
        engine.run(5);
        let trace = engine.observer::<Trace>().expect("trace attached");
        let d_actions = trace.actions_of(D);
        assert_eq!(d_actions.first().map(|(_, n)| *n), Some("leave"));
        let g_actions: Vec<&str> = trace.actions_of(G).into_iter().map(|(_, n)| n).collect();
        assert_eq!(g_actions, vec!["fixdepth", "exit"]);
    }
}
