//! Fault model and fault injection plans.
//!
//! The paper's fault taxonomy (§1):
//!
//! * **Benign crash** — the process silently ceases all operation; other
//!   processes cannot detect it.
//! * **Malicious crash** — the process performs a *finite* number of
//!   arbitrary steps (within its write capability) and then ceases all
//!   operation, undetectably.
//! * **Transient fault** — perturbs the state of the system for a finite
//!   time, leaving it in an arbitrary state (countered by stabilization).
//! * **Initially dead** — a special case of crash: the process never does
//!   anything.
//!
//! A [`FaultPlan`] schedules any mix of these against a run. A
//! [`FaultTimeline`] reads the plan as a clock: it is the one definition
//! of which events fire at each step and which checkpoint each snapshot
//! restart restores, used by both substrates that run a plan, the
//! shared-memory engine and the message-passing `SimNet`.

use std::fmt;

use rand::rngs::StdRng;

use crate::graph::ProcessId;
use crate::rng;

/// Liveness status of a process during a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Health {
    /// Executing its program normally.
    Live,
    /// In the malicious pre-crash phase: will take `remaining` more
    /// arbitrary steps, then halt.
    Byzantine {
        /// Arbitrary steps left before the process halts.
        remaining: u32,
    },
    /// Halted (benign crash completed, malicious crash completed, or
    /// initially dead). Its variables remain readable by neighbors.
    Dead,
}

impl Health {
    /// Whether the process still takes steps (live or byzantine).
    #[inline]
    pub fn is_active(self) -> bool {
        !matches!(self, Health::Dead)
    }

    /// Whether the process executes its *program* (not arbitrary steps).
    #[inline]
    pub fn is_live(self) -> bool {
        matches!(self, Health::Live)
    }

    /// Whether the process has halted.
    #[inline]
    pub fn is_dead(self) -> bool {
        matches!(self, Health::Dead)
    }
}

/// How a restarted process re-seeds its local state.
///
/// Stabilization makes every variant sound: the algorithm converges to the
/// invariant `I` from *any* state, so a resurrected process — whatever it
/// wakes up with — is re-absorbed with disturbance bounded by the failure
/// locality. The variants differ only in how long re-absorption takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resurrection {
    /// Restart from the algorithm's legitimate initial local state
    /// (a clean reboot with no persisted state).
    Fresh,
    /// Restart from a checkpoint of the process's own local state captured
    /// `age` steps *before the restart fires* (a warm reboot from a
    /// possibly-stale snapshot; `age = 0` resumes the state at death).
    Snapshot {
        /// Staleness of the restored checkpoint, in engine steps.
        age: u64,
    },
    /// Restart with fully arbitrary local state drawn from a dedicated
    /// RNG stream keyed by `seed` ([`restart_rng`]; the worst case
    /// stabilization covers).
    Arbitrary {
        /// Seed of the corruption stream, independent of the run seed.
        seed: u64,
    },
}

/// The stream a [`Resurrection::Arbitrary`] restart with `seed` draws the
/// reborn process's local state from, independent of the run seed. Every
/// substrate that restarts a process draws from it, so one plan reboots a
/// process into the same state under the engine and under `SimNet`.
pub fn restart_rng(seed: u64) -> StdRng {
    rng::rng(rng::subseed(seed, 0x5EED))
}

impl fmt::Display for Resurrection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resurrection::Fresh => write!(f, "fresh"),
            Resurrection::Snapshot { age } => write!(f, "snapshot:{age}"),
            Resurrection::Arbitrary { seed } => write!(f, "arbitrary:{seed}"),
        }
    }
}

/// The kind of an injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Benign crash: the target halts immediately.
    Crash,
    /// Malicious crash: the target takes `steps` arbitrary steps
    /// (scheduled fairly among normal activity), then halts.
    MaliciousCrash {
        /// Number of arbitrary steps before halting.
        steps: u32,
    },
    /// Transient fault corrupting *every* variable in the system
    /// (the canonical stabilization challenge).
    TransientGlobal,
    /// Transient fault corrupting only the target process's local state.
    TransientLocal,
    /// Recovery event: re-enable a dead target, re-seeding its local
    /// state per [`Resurrection`]. A no-op unless the target is dead —
    /// restarting an active process must not disturb it.
    Restart {
        /// How the resurrected process's state is re-seeded.
        state: Resurrection,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Crash => write!(f, "crash"),
            FaultKind::MaliciousCrash { steps } => write!(f, "malicious-crash({steps})"),
            FaultKind::TransientGlobal => write!(f, "transient-global"),
            FaultKind::TransientLocal => write!(f, "transient-local"),
            FaultKind::Restart { state } => write!(f, "restart({state})"),
        }
    }
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Engine step at which the fault strikes (before any action fires
    /// at that step).
    pub at_step: u64,
    /// Target process; ignored for [`FaultKind::TransientGlobal`].
    pub target: ProcessId,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults for one run, fired step by step
/// through a [`FaultTimeline`].
///
/// # Examples
///
/// ```
/// use diners_sim::fault::FaultPlan;
/// let plan = FaultPlan::new()
///     .initially_dead(3)
///     .crash(100, 0)
///     .malicious_crash(250, 1, 16)
///     .transient_global(500);
/// assert_eq!(plan.events().len(), 3);
/// assert_eq!(plan.initially_dead_processes(), &[3.into()]);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    initially_dead: Vec<ProcessId>,
    /// Corrupt the entire initial state before step 0 (equivalent to a
    /// transient fault in the distant past — the stabilization start).
    random_initial_state: bool,
}

impl FaultPlan {
    /// An empty plan: no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Alias for [`FaultPlan::new`], reads better at call sites.
    pub fn none() -> Self {
        Self::default()
    }

    /// Mark a process dead from the very beginning.
    #[must_use]
    pub fn initially_dead(mut self, pid: impl Into<ProcessId>) -> Self {
        let pid = pid.into();
        if !self.initially_dead.contains(&pid) {
            self.initially_dead.push(pid);
            self.initially_dead.sort_unstable();
        }
        self
    }

    /// Schedule a benign crash.
    #[must_use]
    pub fn crash(mut self, at_step: u64, pid: impl Into<ProcessId>) -> Self {
        self.events.push(FaultEvent {
            at_step,
            target: pid.into(),
            kind: FaultKind::Crash,
        });
        self.normalize();
        self
    }

    /// Schedule a malicious crash: `steps` arbitrary steps, then halt.
    #[must_use]
    pub fn malicious_crash(mut self, at_step: u64, pid: impl Into<ProcessId>, steps: u32) -> Self {
        self.events.push(FaultEvent {
            at_step,
            target: pid.into(),
            kind: FaultKind::MaliciousCrash { steps },
        });
        self.normalize();
        self
    }

    /// Schedule a global transient fault (corrupts every variable).
    #[must_use]
    pub fn transient_global(mut self, at_step: u64) -> Self {
        self.events.push(FaultEvent {
            at_step,
            target: ProcessId(0),
            kind: FaultKind::TransientGlobal,
        });
        self.normalize();
        self
    }

    /// Schedule a local transient fault at one process.
    #[must_use]
    pub fn transient_local(mut self, at_step: u64, pid: impl Into<ProcessId>) -> Self {
        self.events.push(FaultEvent {
            at_step,
            target: pid.into(),
            kind: FaultKind::TransientLocal,
        });
        self.normalize();
        self
    }

    /// Schedule a restart: if the target is dead at `at_step`, re-enable
    /// it with its local state re-seeded per `state`.
    #[must_use]
    pub fn restart(mut self, at_step: u64, pid: impl Into<ProcessId>, state: Resurrection) -> Self {
        self.events.push(FaultEvent {
            at_step,
            target: pid.into(),
            kind: FaultKind::Restart { state },
        });
        self.normalize();
        self
    }

    /// Schedule a restart from the legitimate initial local state.
    #[must_use]
    pub fn restart_fresh(self, at_step: u64, pid: impl Into<ProcessId>) -> Self {
        self.restart(at_step, pid, Resurrection::Fresh)
    }

    /// Schedule a restart from a checkpoint `age` steps old.
    #[must_use]
    pub fn restart_snapshot(self, at_step: u64, pid: impl Into<ProcessId>, age: u64) -> Self {
        self.restart(at_step, pid, Resurrection::Snapshot { age })
    }

    /// Schedule a restart with arbitrary local state drawn from `seed`.
    #[must_use]
    pub fn restart_arbitrary(self, at_step: u64, pid: impl Into<ProcessId>, seed: u64) -> Self {
        self.restart(at_step, pid, Resurrection::Arbitrary { seed })
    }

    /// Rebuild a plan from raw events (the shrinker's path: drop or
    /// weaken events from an existing plan and re-run). Events are
    /// re-normalized into the same deterministic firing order the
    /// builders produce, so a plan round-trips through
    /// [`FaultPlan::events`] unchanged.
    pub fn from_events(events: impl IntoIterator<Item = FaultEvent>) -> Self {
        let mut plan = FaultPlan {
            events: events.into_iter().collect(),
            ..FaultPlan::default()
        };
        plan.normalize();
        plan
    }

    /// Start the run from a fully arbitrary state (the canonical
    /// stabilization experiment). The corruption is drawn from the
    /// engine's seeded RNG.
    #[must_use]
    pub fn from_arbitrary_state(mut self) -> Self {
        self.random_initial_state = true;
        self
    }

    /// Check that every process the plan names exists in a system of `n`
    /// processes.
    ///
    /// # Errors
    ///
    /// Names the first process out of range and what targets it.
    pub fn check_targets(&self, n: usize) -> Result<(), String> {
        if let Some(p) = self.initially_dead.iter().find(|p| p.index() >= n) {
            return Err(format!(
                "initially-dead process {p} is out of range for {n} processes"
            ));
        }
        match self.events.iter().find(|ev| ev.target.index() >= n) {
            Some(ev) => Err(format!(
                "{} at step {} targets {}, out of range for {n} processes",
                ev.kind, ev.at_step, ev.target
            )),
            None => Ok(()),
        }
    }

    /// Whether the initial state should be randomized.
    pub fn starts_arbitrary(&self) -> bool {
        self.random_initial_state
    }

    /// All scheduled events, sorted by step.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Processes dead from step 0.
    pub fn initially_dead_processes(&self) -> &[ProcessId] {
        &self.initially_dead
    }

    /// Total number of processes this plan ever kills (initially dead +
    /// crash + malicious crash targets, deduplicated).
    pub fn kill_count(&self) -> usize {
        let mut victims: Vec<ProcessId> = self.initially_dead.clone();
        for e in &self.events {
            if matches!(e.kind, FaultKind::Crash | FaultKind::MaliciousCrash { .. }) {
                victims.push(e.target);
            }
        }
        victims.sort_unstable();
        victims.dedup();
        victims.len()
    }

    /// Number of scheduled restart events.
    pub fn restart_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Restart { .. }))
            .count()
    }

    fn normalize(&mut self) {
        self.events
            .sort_by_key(|e| (e.at_step, e.target, kind_rank(e.kind)));
    }
}

fn kind_rank(k: FaultKind) -> u8 {
    match k {
        FaultKind::TransientGlobal => 0,
        FaultKind::TransientLocal => 1,
        FaultKind::MaliciousCrash { .. } => 2,
        FaultKind::Crash => 3,
        // Restarts sort after kills at the same step, so a same-step
        // crash→restart pair nets out to an immediate resurrection.
        FaultKind::Restart { .. } => 4,
    }
}

/// A [`FaultPlan`] read as a clock, checkpoints included.
///
/// Call [`FaultTimeline::next_due`] at every step, steps in increasing
/// order, until it returns `None`. It yields the plan's events that fire
/// at that step, in plan order. A `Restart { Snapshot { age } }` event
/// comes with the checkpoint of its target taken `age` steps before it
/// fires, clamped at step 0, before that step's events, one checkpoint
/// per event. A step with nothing due costs a few comparisons and no
/// allocation.
///
/// `C` is whatever the substrate checkpoints: the engine keeps the
/// target's local state, `SimNet` its node's snapshot bytes. The
/// substrate supplies it through the `capture` closure and applies each
/// event itself.
///
/// # Examples
///
/// ```
/// use diners_sim::fault::{FaultPlan, FaultTimeline};
/// let plan = FaultPlan::new().crash(3, 1).restart_snapshot(5, 1, 4);
/// let mut timeline = FaultTimeline::new(plan);
/// let mut fired = Vec::new();
/// for step in 0..8 {
///     // The checkpoint records the step it was taken at.
///     while let Some((ev, checkpoint)) = timeline.next_due(step, |_| step) {
///         fired.push((ev.at_step, checkpoint));
///     }
/// }
/// assert_eq!(fired, [(3, None), (5, Some(1))]);
/// ```
#[derive(Debug)]
pub struct FaultTimeline<C> {
    plan: FaultPlan,
    /// Index into the plan's events of the next one to fire.
    next_event: usize,
    /// One checkpoint per snapshot restart, sorted by capture step, then
    /// by event index.
    captures: Vec<Capture<C>>,
    /// Index into `captures` of the next checkpoint to take.
    next_capture: usize,
}

#[derive(Debug)]
struct Capture<C> {
    at: u64,
    event: usize,
    checkpoint: Option<C>,
}

impl<C> FaultTimeline<C> {
    /// The timeline of `plan`, before step 0.
    pub fn new(plan: FaultPlan) -> Self {
        let mut captures: Vec<Capture<C>> = plan
            .events
            .iter()
            .enumerate()
            .filter_map(|(event, ev)| match ev.kind {
                FaultKind::Restart {
                    state: Resurrection::Snapshot { age },
                } => Some(Capture {
                    at: ev.at_step.saturating_sub(age),
                    event,
                    checkpoint: None,
                }),
                _ => None,
            })
            .collect();
        captures.sort_unstable_by_key(|c| (c.at, c.event));
        FaultTimeline {
            plan,
            next_event: 0,
            captures,
            next_capture: 0,
        }
    }

    /// The plan this timeline fires.
    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The next event that fires at `step`, with the checkpoint it
    /// restores if it is a snapshot restart (`None` for every other
    /// kind), or `None` once the step has nothing left.
    ///
    /// The first call at a step first takes every checkpoint due by then,
    /// calling `capture` with the process to checkpoint: a kill at that
    /// step must not reach the state a restart restores. Events of steps
    /// passed over are skipped, never fired.
    pub fn next_due(
        &mut self,
        step: u64,
        mut capture: impl FnMut(ProcessId) -> C,
    ) -> Option<(FaultEvent, Option<C>)> {
        while let Some(c) = self.captures.get_mut(self.next_capture) {
            if c.at > step {
                break;
            }
            c.checkpoint = Some(capture(self.plan.events[c.event].target));
            self.next_capture += 1;
        }
        let events = &self.plan.events;
        while events
            .get(self.next_event)
            .is_some_and(|e| e.at_step < step)
        {
            self.next_event += 1;
        }
        let i = self.next_event;
        let ev = *events.get(i).filter(|e| e.at_step == step)?;
        self.next_event += 1;
        let checkpoint = match ev.kind {
            FaultKind::Restart {
                state: Resurrection::Snapshot { age },
            } => {
                let key = (ev.at_step.saturating_sub(age), i);
                let slot = self
                    .captures
                    .binary_search_by_key(&key, |c| (c.at, c.event))
                    .expect("every snapshot restart has a capture slot");
                self.captures[slot].checkpoint.take()
            }
            _ => None,
        };
        Some((ev, checkpoint))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_targets_names_the_first_process_out_of_range() {
        let plan = FaultPlan::new().crash(5, 2).transient_global(9);
        assert_eq!(plan.check_targets(3), Ok(()));
        let e = plan.check_targets(2).unwrap_err();
        assert_eq!(
            e,
            "crash at step 5 targets p2, out of range for 2 processes"
        );
        let e = FaultPlan::new()
            .initially_dead(4)
            .check_targets(4)
            .unwrap_err();
        assert!(e.contains("initially-dead process p4"), "{e}");
    }

    #[test]
    fn health_predicates() {
        assert!(Health::Live.is_active());
        assert!(Health::Live.is_live());
        assert!(!Health::Live.is_dead());
        assert!(Health::Byzantine { remaining: 2 }.is_active());
        assert!(!Health::Byzantine { remaining: 2 }.is_live());
        assert!(Health::Dead.is_dead());
        assert!(!Health::Dead.is_active());
    }

    #[test]
    fn plan_sorts_events_by_step() {
        let p = FaultPlan::new()
            .crash(50, 1)
            .crash(10, 2)
            .transient_global(30);
        let steps: Vec<u64> = p.events().iter().map(|e| e.at_step).collect();
        assert_eq!(steps, vec![10, 30, 50]);
    }

    /// A plan round-trips through `events()` → `from_events` unchanged
    /// (the shrinker's drop/weaken path), including re-normalizing
    /// unsorted input into the builders' firing order.
    #[test]
    fn from_events_round_trips_and_renormalizes() {
        let plan = FaultPlan::new()
            .crash(50, 1)
            .malicious_crash(10, 2, 4)
            .transient_global(30)
            .restart_fresh(70, 1);
        let rebuilt = FaultPlan::from_events(plan.events().iter().cloned());
        assert_eq!(rebuilt.events(), plan.events());

        // Unsorted raw events are normalized to the same firing order.
        let mut shuffled: Vec<FaultEvent> = plan.events().to_vec();
        shuffled.reverse();
        let renorm = FaultPlan::from_events(shuffled);
        assert_eq!(renorm.events(), plan.events());

        // Dropping an event (the shrinker's ddmin step) keeps the rest.
        let dropped: Vec<FaultEvent> = plan
            .events()
            .iter()
            .filter(|e| e.at_step != 30)
            .cloned()
            .collect();
        let smaller = FaultPlan::from_events(dropped);
        assert_eq!(smaller.events().len(), plan.events().len() - 1);
        assert!(smaller.events().iter().all(|e| e.at_step != 30));
    }

    /// Every event the timeline fires at `step`, with its checkpoint.
    fn fire<C>(
        timeline: &mut FaultTimeline<C>,
        step: u64,
        mut capture: impl FnMut(ProcessId) -> C,
    ) -> Vec<(FaultEvent, Option<C>)> {
        let mut fired = Vec::new();
        while let Some(due) = timeline.next_due(step, &mut capture) {
            fired.push(due);
        }
        fired
    }

    fn due_at(plan: &FaultPlan, step: u64) -> Vec<FaultEvent> {
        plan.events()
            .iter()
            .filter(|e| e.at_step == step)
            .copied()
            .collect()
    }

    #[test]
    fn timeline_fires_each_steps_events() {
        let p = FaultPlan::new().crash(10, 1).crash(10, 2).crash(20, 3);
        let mut t = FaultTimeline::new(p);
        assert_eq!(fire(&mut t, 10, |_| ()).len(), 2);
        assert_eq!(fire(&mut t, 15, |_| ()).len(), 0);
        assert_eq!(fire(&mut t, 20, |_| ()).len(), 1);
    }

    #[test]
    fn timeline_matches_the_plan_filter_step_by_step() {
        let p = FaultPlan::new()
            .crash(10, 1)
            .crash(10, 2)
            .transient_global(12)
            .crash(20, 3);
        let mut t = FaultTimeline::new(p.clone());
        for step in 0..25u64 {
            let fired: Vec<FaultEvent> = fire(&mut t, step, |_| ())
                .into_iter()
                .map(|(e, _)| e)
                .collect();
            assert_eq!(fired, due_at(&p, step), "step {step}");
        }
        // Past the last event the timeline stays empty.
        assert!(t.next_due(99, |_| ()).is_none());
    }

    #[test]
    fn timeline_skips_missed_steps() {
        let p = FaultPlan::new().crash(5, 0).crash(9, 1);
        let mut t = FaultTimeline::new(p.clone());
        // Jumping straight to step 9 passes over the step-5 event.
        let fired: Vec<FaultEvent> = fire(&mut t, 9, |_| ())
            .into_iter()
            .map(|(e, _)| e)
            .collect();
        assert_eq!(fired, p.events()[1..2]);
    }

    /// Seeded random plans, dense enough that kills and restarts of one
    /// process share steps, with snapshot ages up to past the fire step.
    /// At every step the timeline fires exactly the plan's events of that
    /// step, in order, and each snapshot restart gets the checkpoint
    /// taken at `at_step - age` (clamped at 0) before that step's events.
    #[test]
    fn timeline_matches_the_plan_on_random_plans() {
        use rand::Rng;
        use std::cell::Cell;
        const STEPS: u64 = 48;
        for seed in 0..300 {
            let mut r = rng::rng(seed);
            let mut plan = FaultPlan::new();
            for _ in 0..r.gen_range(0..24) {
                let at = r.gen_range(0..40u64);
                let pid = r.gen_range(0..4usize);
                let age = r.gen_range(0..64u64);
                plan = match r.gen_range(0..8) {
                    0 => plan.crash(at, pid),
                    1 => plan.malicious_crash(at, pid, r.gen_range(0..3)),
                    2 => plan.transient_global(at),
                    3 => plan.transient_local(at, pid),
                    4 => plan.restart_fresh(at, pid),
                    5 => plan.restart_arbitrary(at, pid, r.gen()),
                    6 => plan.restart_snapshot(at, pid, age),
                    _ => plan.crash(at, pid).restart_snapshot(at, pid, age),
                };
            }
            // A checkpoint is (step taken, process, events fired so far).
            let mut t = FaultTimeline::new(plan.clone());
            let so_far = Cell::new(0);
            for step in 0..STEPS {
                let mut fired = Vec::new();
                while let Some(due) = t.next_due(step, |p| (step, p, so_far.get())) {
                    so_far.set(so_far.get() + 1);
                    fired.push(due);
                }
                let events: Vec<FaultEvent> = fired.iter().map(|(e, _)| *e).collect();
                assert_eq!(events, due_at(&plan, step), "seed {seed} step {step}");
                for (ev, checkpoint) in fired {
                    let expected = match ev.kind {
                        FaultKind::Restart {
                            state: Resurrection::Snapshot { age },
                        } => {
                            let at = ev.at_step.saturating_sub(age);
                            let earlier = plan.events().iter().filter(|e| e.at_step < at).count();
                            Some((at, ev.target, earlier))
                        }
                        _ => None,
                    };
                    assert_eq!(checkpoint, expected, "seed {seed} {ev:?}");
                }
            }
        }
    }

    #[test]
    fn initially_dead_dedups_and_sorts() {
        let p = FaultPlan::new()
            .initially_dead(4)
            .initially_dead(1)
            .initially_dead(4);
        assert_eq!(p.initially_dead_processes(), &[ProcessId(1), ProcessId(4)]);
    }

    #[test]
    fn kill_count_dedups_across_kinds() {
        let p = FaultPlan::new()
            .initially_dead(0)
            .crash(5, 1)
            .malicious_crash(9, 1, 4)
            .transient_global(3);
        assert_eq!(p.kill_count(), 2);
    }

    #[test]
    fn arbitrary_start_flag() {
        assert!(!FaultPlan::none().starts_arbitrary());
        assert!(FaultPlan::new().from_arbitrary_state().starts_arbitrary());
    }

    #[test]
    fn fault_kind_display() {
        assert_eq!(FaultKind::Crash.to_string(), "crash");
        assert_eq!(
            FaultKind::MaliciousCrash { steps: 7 }.to_string(),
            "malicious-crash(7)"
        );
        assert_eq!(FaultKind::TransientGlobal.to_string(), "transient-global");
        assert_eq!(
            FaultKind::Restart {
                state: Resurrection::Fresh
            }
            .to_string(),
            "restart(fresh)"
        );
        assert_eq!(
            FaultKind::Restart {
                state: Resurrection::Snapshot { age: 32 }
            }
            .to_string(),
            "restart(snapshot:32)"
        );
        assert_eq!(
            FaultKind::Restart {
                state: Resurrection::Arbitrary { seed: 9 }
            }
            .to_string(),
            "restart(arbitrary:9)"
        );
    }

    #[test]
    fn restart_builders_and_count() {
        let p = FaultPlan::new()
            .crash(10, 1)
            .restart_fresh(20, 1)
            .restart_snapshot(30, 1, 8)
            .restart_arbitrary(40, 1, 7);
        assert_eq!(p.restart_count(), 3);
        // Restarts do not count as kills.
        assert_eq!(p.kill_count(), 1);
        assert_eq!(
            p.events()[1].kind,
            FaultKind::Restart {
                state: Resurrection::Fresh
            }
        );
    }

    #[test]
    fn same_step_crash_restart_orders_kill_first() {
        let p = FaultPlan::new().restart_fresh(10, 1).crash(10, 1);
        assert_eq!(p.events()[0].kind, FaultKind::Crash);
        assert!(matches!(p.events()[1].kind, FaultKind::Restart { .. }));
    }
}
