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
//! A [`FaultPlan`] schedules any mix of these against a run; the engine
//! executes the plan deterministically.

use std::fmt;

use crate::graph::ProcessId;

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
    /// RNG stream keyed by `seed` (the worst case stabilization covers).
    Arbitrary {
        /// Seed of the corruption stream, independent of the run seed.
        seed: u64,
    },
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

/// A deterministic schedule of faults for one run.
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

    /// Events striking exactly at `step`.
    pub fn due_at(&self, step: u64) -> impl Iterator<Item = &FaultEvent> + '_ {
        // events are sorted by step; a linear scan is fine at our scales.
        self.events.iter().filter(move |e| e.at_step == step)
    }

    /// Allocation-free cursor variant of [`FaultPlan::due_at`] for callers
    /// that visit steps in nondecreasing order (the engine hot path).
    ///
    /// Given a cursor into [`FaultPlan::events`] (initially `0`), returns
    /// the half-open index range of events striking exactly at `step`,
    /// skipping any already-passed events before it. Feed the returned
    /// `end` back as the next call's cursor; in the common no-fault case
    /// this is two comparisons and no allocation.
    pub fn due_span(&self, cursor: usize, step: u64) -> (usize, usize) {
        let mut start = cursor;
        while start < self.events.len() && self.events[start].at_step < step {
            start += 1;
        }
        let mut end = start;
        while end < self.events.len() && self.events[end].at_step == step {
            end += 1;
        }
        (start, end)
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

    #[test]
    fn due_at_filters() {
        let p = FaultPlan::new().crash(10, 1).crash(10, 2).crash(20, 3);
        assert_eq!(p.due_at(10).count(), 2);
        assert_eq!(p.due_at(15).count(), 0);
        assert_eq!(p.due_at(20).count(), 1);
    }

    #[test]
    fn due_span_matches_due_at_under_a_monotone_cursor() {
        let p = FaultPlan::new()
            .crash(10, 1)
            .crash(10, 2)
            .transient_global(12)
            .crash(20, 3);
        let mut cursor = 0;
        for step in 0..25u64 {
            let (start, end) = p.due_span(cursor, step);
            cursor = end;
            let via_span: Vec<_> = p.events()[start..end].to_vec();
            let via_filter: Vec<_> = p.due_at(step).copied().collect();
            assert_eq!(via_span, via_filter, "step {step}");
        }
        // Cursor past the end stays in range and yields nothing.
        assert_eq!(p.due_span(cursor, 99), (p.events().len(), p.events().len()));
    }

    #[test]
    fn due_span_skips_missed_steps() {
        let p = FaultPlan::new().crash(5, 0).crash(9, 1);
        // Jumping straight to step 9 passes over the step-5 event.
        assert_eq!(p.due_span(0, 9), (1, 2));
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
