//! A from-scratch reference step: the test oracle for `Engine::step`.
//!
//! [`ReferenceEngine`] is a [`StepObserver`] that re-derives every step the
//! way the paper's model states it, sharing nothing with the engine's
//! enabled index:
//!
//! * it enumerates every guard of every process itself, from the snapshot,
//!   in the documented rank order — process-major, then kinds in
//!   declaration order, per-neighbor slots ascending; a maliciously
//!   crashing process has only its arbitrary-step pseudo-move, a dead one
//!   none — with `needs()` from a twin of the engine's workload;
//! * it keeps fairness ages in a `HashMap` from each enabled move to the
//!   step it became continuously enabled;
//! * an identically seeded twin scheduler `pick`s from its own annotated
//!   slice.
//!
//! Like the engine's old naive mode it shares fault application and move
//! execution with the engine: it sees the state after each applied fault
//! and each fired move. It panics at the first step where the engine
//! fires a different move (or none), sees a different `needs` bit, or
//! offers its scheduler a different `(move, age)` list — [`Offering`]
//! wraps the engine's scheduler to report each offer, read both through
//! the slice adapter and rank by rank.
//!
//! [`assert_matches_reference`] builds one configuration twice, once
//! checked and once bare (no observer, so the observer-off path stays
//! under test), and steps them in lockstep.
//!
//! Include it with `#[path = "support/reference_engine.rs"] mod reference_engine;`.

#![allow(dead_code)]

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use diners_sim::algorithm::{ActionId, DinerAlgorithm, Move, Phase, View};
use diners_sim::enabled::EnabledView;
use diners_sim::engine::{EngineBuilder, StepOutcome};
use diners_sim::fault::Health;
use diners_sim::observe::{EventKind, StepEvent, StepObserver};
use diners_sim::predicate::Snapshot;
use diners_sim::scheduler::{EnabledMove, Scheduler};
use diners_sim::workload::Workload;

/// What the engine offered its scheduler at the current step, if it
/// asked it at all.
type Offer = Rc<RefCell<Option<Vec<EnabledMove>>>>;

/// The checked engine's scheduler, wrapped so that the reference sees the
/// `(move, age)` list the engine offers at each pick.
pub struct Offering {
    inner: Box<dyn Scheduler>,
    offer: Offer,
}

impl Scheduler for Offering {
    fn pick(&mut self, step: u64, enabled: &[EnabledMove]) -> usize {
        self.inner.pick(step, enabled)
    }

    fn pick_from(&mut self, step: u64, view: &mut EnabledView<'_>) -> usize {
        let by_rank: Vec<EnabledMove> = (0..view.len()).map(|r| view.get(r)).collect();
        assert_eq!(
            view.as_slice(),
            &by_rank[..],
            "step {step}: the slice adapter disagrees with the rank lookups"
        );
        *self.offer.borrow_mut() = Some(by_rank);
        self.inner.pick_from(step, view)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The from-scratch reference; see the module docs.
pub struct ReferenceEngine<A: DinerAlgorithm> {
    alg: A,
    workload: Box<dyn Workload>,
    twin: Box<dyn Scheduler>,
    offer: Offer,
    /// Step at which each enabled move became continuously enabled.
    first_enabled: HashMap<Move, u64>,
    /// The moves enabled in the latest state, in rank order.
    enabled: Vec<Move>,
    /// The step the engine is in.
    step: u64,
    /// The move the engine fired in this step, once it has.
    fired: Option<Move>,
}

impl<A: DinerAlgorithm> ReferenceEngine<A> {
    /// A reference for an engine running `alg` under a workload that
    /// `workload` twins, whose daemon `twin` twins: returns it together
    /// with the engine's own daemon `sched`, wrapped to report its offers.
    pub fn new(
        alg: A,
        workload: impl Workload + 'static,
        twin: impl Scheduler + 'static,
        sched: impl Scheduler + 'static,
    ) -> (Self, Offering) {
        let offer = Offer::default();
        let reference = ReferenceEngine {
            alg,
            workload: Box::new(workload),
            twin: Box::new(twin),
            offer: Rc::clone(&offer),
            first_enabled: HashMap::new(),
            enabled: Vec::new(),
            step: 0,
            fired: None,
        };
        let offering = Offering {
            inner: Box::new(sched),
            offer,
        };
        (reference, offering)
    }

    /// Steps checked so far.
    pub fn steps_checked(&self) -> u64 {
        self.step
    }

    /// Enumerate every enabled move of `view`'s state at the current step.
    fn enumerate(&mut self, view: &Snapshot<'_, A>) {
        self.enabled.clear();
        for p in view.topo.processes() {
            match view.health[p.index()] {
                Health::Dead => {}
                Health::Byzantine { .. } => self.enabled.push(Move {
                    pid: p,
                    action: ActionId::MALICIOUS,
                }),
                Health::Live => {
                    let needs = self.workload.needs(p, self.step);
                    let v = View::new(view.topo, view.state, p, needs);
                    for (kind, k) in self.alg.kinds().iter().enumerate() {
                        let slots = if k.per_neighbor {
                            view.topo.degree(p)
                        } else {
                            1
                        };
                        for slot in 0..slots {
                            let action = if k.per_neighbor {
                                ActionId::at_slot(kind, slot)
                            } else {
                                ActionId::global(kind)
                            };
                            if self.alg.enabled(&v, action) {
                                self.enabled.push(Move { pid: p, action });
                            }
                        }
                    }
                }
            }
        }
    }

    /// Refresh the ages for this step's enabled set and annotate it.
    fn annotate(&mut self) -> Vec<EnabledMove> {
        let step = self.step;
        let now: HashSet<Move> = self.enabled.iter().copied().collect();
        self.first_enabled.retain(|m, _| now.contains(m));
        self.enabled
            .iter()
            .map(|&mv| {
                let first = *self.first_enabled.entry(mv).or_insert(step);
                EnabledMove {
                    mv,
                    age: step - first + 1,
                }
            })
            .collect()
    }

    /// The engine fired `ev`: check it against the twin's pick.
    fn check_move(&mut self, ev: &StepEvent) {
        let step = self.step;
        let fired = Move {
            pid: ev.pid,
            action: match ev.kind {
                EventKind::Action { kind, slot, .. } => ActionId { kind, slot },
                _ => ActionId::MALICIOUS,
            },
        };
        assert!(self.fired.is_none(), "step {step}: a second move fired");
        let annotated = self.annotate();
        assert!(
            !annotated.is_empty(),
            "step {step}: the engine fired {fired:?} with nothing enabled"
        );
        let offered = self.offer.borrow_mut().take();
        assert_eq!(
            offered.as_deref(),
            Some(&annotated[..]),
            "step {step}: the engine offered a different (move, age) list"
        );
        let choice = self.twin.pick(step, &annotated);
        let expected = annotated[choice].mv;
        assert_eq!(
            fired, expected,
            "step {step}: the engine fired another move"
        );
        let needs = !fired.action.is_malicious() && self.workload.needs(fired.pid, step);
        assert_eq!(
            ev.needs, needs,
            "step {step}: {fired:?} saw another needs bit"
        );
        self.first_enabled.remove(&fired);
        if ev.phase_before != ev.phase_after && ev.phase_after == Phase::Eating {
            self.workload.note_eat(fired.pid, step);
        }
        self.fired = Some(fired);
    }
}

impl<A: DinerAlgorithm> StepObserver<A> for ReferenceEngine<A> {
    fn on_build(&mut self, _alg: &A, view: &Snapshot<'_, A>) {
        self.enumerate(view);
    }

    fn on_event(&mut self, ev: &StepEvent, view: &Snapshot<'_, A>) {
        assert_eq!(ev.step, self.step, "event out of step");
        if ev.kind.is_fault() {
            assert!(
                self.fired.is_none(),
                "step {}: fault after the move",
                ev.step
            );
            self.enumerate(view);
        } else {
            self.check_move(ev);
        }
    }

    fn on_step_end(&mut self, steps: u64, outcome: StepOutcome, view: &Snapshot<'_, A>) {
        let step = self.step;
        assert_eq!(steps, step + 1, "step {step}: the step count skipped");
        match self.fired.take() {
            Some(mv) => assert_eq!(outcome, StepOutcome::Executed(mv), "step {step}"),
            None => {
                let annotated = self.annotate();
                assert!(
                    annotated.is_empty(),
                    "step {step}: the engine was quiescent with {annotated:?} enabled"
                );
                assert_eq!(outcome, StepOutcome::Quiescent, "step {step}");
                assert!(
                    self.offer.borrow().is_none(),
                    "step {step}: a quiescent engine asked its scheduler"
                );
            }
        }
        self.step = steps;
        self.enumerate(view);
    }
}

/// Build the engine `base` describes twice, both with a fresh `workload()`
/// and `sched()`: one checked by a [`ReferenceEngine`] (with `alg`, a
/// third workload and a twin daemon), one bare. Step them in lockstep for
/// `steps` steps, checking that they agree on every outcome, that the
/// checked engine's eating-pair counters equal the edge scan after every
/// step, and that they end with equal state, health and metrics.
pub fn assert_matches_reference<A, W, S>(
    base: impl Fn() -> EngineBuilder<A>,
    alg: A,
    workload: impl Fn() -> W,
    sched: impl Fn() -> S,
    steps: u64,
    label: &str,
) where
    A: DinerAlgorithm,
    W: Workload + 'static,
    S: Scheduler + 'static,
{
    let (reference, offering) = ReferenceEngine::new(alg, workload(), sched(), sched());
    let mut checked = base()
        .workload(workload())
        .scheduler(offering)
        .observe(reference)
        .build();
    let mut bare = base().workload(workload()).scheduler(sched()).build();
    for s in 0..steps {
        let out = checked.step();
        assert_eq!(
            bare.step(),
            out,
            "{label}: the bare engine diverged at step {s}"
        );
        assert_eq!(
            checked.eating_pairs(),
            checked.eating_pairs_scan(),
            "{label}: eating-pair counters drifted from the scan at step {s}"
        );
    }
    assert_eq!(checked.step_count(), steps, "{label}: step count");
    assert_eq!(bare.state(), checked.state(), "{label}: final state");
    assert_eq!(bare.health(), checked.health(), "{label}: final health");
    assert_eq!(bare.metrics(), checked.metrics(), "{label}: metrics");
    let reference = checked
        .observer::<ReferenceEngine<A>>()
        .expect("reference attached");
    assert_eq!(reference.steps_checked(), steps, "{label}: steps checked");
}
