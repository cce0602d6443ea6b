//! The simulation engine: weakly fair interleaving with fault injection.
//!
//! [`Engine`] executes one [`DinerAlgorithm`] over one [`Topology`] under
//! one [`Scheduler`] and one [`FaultPlan`]. Each step it
//!
//! 1. applies the faults its [`FaultTimeline`] fires at the current step,
//! 2. brings the enabled set up to date: the enabled action instances of
//!    every live process, plus one arbitrary-step pseudo-move per
//!    maliciously crashing process,
//! 3. lets the scheduler pick one and executes its command atomically
//!    (composite atomicity, serial/central daemon — the paper's model),
//! 4. updates the service metrics and the exclusion monitor.
//!
//! Runs are fully deterministic given the seed, the scheduler and the
//! fault plan.
//!
//! # Observers
//!
//! Everything that watches a run without steering it — the event trace,
//! telemetry, the flight recorder, the causal tracer — is a
//! [`StepObserver`] attached with [`EngineBuilder::observe`] and read back
//! with [`Engine::observer`] or [`Engine::take_observer`]. The engine
//! reports to them at four points: after it is built, after each applied
//! fault, after each fired move and at the end of each step, each time
//! through one loop over the attached observers. It builds a
//! [`StepEvent`] only when an observer is attached and knows none of their
//! formats; `Engine::recording` lives with the recorder in
//! [`crate::record`]. The service metrics, the exclusion monitor and
//! [`Workload::note_eat`] stay direct calls: they are always on, the
//! lockstep suites compare them, and the workload feeds back into the run.
//!
//! # The enabled set
//!
//! The engine exploits the model's locality: a step or fault at `p` can
//! only change guard values inside `p`'s closed neighborhood (guards read
//! a process's own local, neighbor locals and incident edge variables;
//! `p` writes only its own local and incident edges — malicious steps
//! included). It keeps the enabled set in an [`EnabledIndex`] —
//! per-process cached move lists, fairness ages in a dense
//! `(pid, kind, slot)` table, and a Fenwick tree over the list lengths —
//! and re-enumerates only the *dirty* processes into it. The scheduler
//! picks by rank through [`Scheduler::pick_from`], so a step costs
//! O(Δ log n) for the random daemon; the others get the O(n) slice
//! through the trait's default adapter. The eating-pairs monitor is kept
//! as running counters updated on phase transitions. A step-dependent
//! workload still costs one `needs()` call per process per step.
//!
//! The from-scratch specification — every guard of every process each
//! step, `HashMap` fairness ages — lives in test support
//! (`crates/sim/tests/support/reference_engine.rs`) as a [`StepObserver`]
//! that checks every step of the engine it watches, while the lockstep
//! suites check the counters against [`Engine::eating_pairs_scan`];
//! `crates/sim/tests/incremental_equiv.rs` runs it over topology × seed ×
//! scheduler × fault-plan sweeps.

use std::any::Any;

use rand::rngs::StdRng;

use crate::algorithm::{
    enabled_actions, ActionId, DinerAlgorithm, Move, Phase, SystemState, View, Write,
};
use crate::enabled::EnabledIndex;
use crate::fault::{self, FaultKind, FaultPlan, FaultTimeline, Health, Resurrection};
use crate::graph::{ProcessId, Topology};
use crate::metrics::DinerMetrics;
use crate::observe::{EventKind, StepEvent, StepObserver};
use crate::predicate::{Snapshot, StatePredicate};
use crate::rng;
use crate::scheduler::{EnabledMove, LeastRecentScheduler, Scheduler};
use crate::workload::{AlwaysHungry, Workload};

/// What happened in one engine step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The scheduler fired this move.
    Executed(Move),
    /// No action instance was enabled (the step still advances time, so
    /// later faults and step-dependent workloads still occur).
    Quiescent,
}

/// Aggregate result of [`Engine::run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Steps of simulated time that elapsed.
    pub steps: u64,
    /// Steps in which an action fired.
    pub executed: u64,
    /// Steps in which nothing was enabled.
    pub quiescent: u64,
}

/// Builder for [`Engine`]; see [`Engine::builder`].
pub struct EngineBuilder<A: DinerAlgorithm> {
    alg: A,
    topo: Topology,
    workload: Box<dyn Workload>,
    sched: Box<dyn Scheduler>,
    faults: FaultPlan,
    seed: u64,
    initial_state: Option<SystemState<A>>,
    observers: Vec<Box<dyn StepObserver<A>>>,
}

impl<A: DinerAlgorithm> EngineBuilder<A> {
    /// Set the workload (default: [`AlwaysHungry`]).
    #[must_use]
    pub fn workload(mut self, w: impl Workload + 'static) -> Self {
        self.workload = Box::new(w);
        self
    }

    /// Set the scheduler (default: [`LeastRecentScheduler`]).
    #[must_use]
    pub fn scheduler(mut self, s: impl Scheduler + 'static) -> Self {
        self.sched = Box::new(s);
        self
    }

    /// Set the fault plan (default: no faults).
    #[must_use]
    pub fn faults(mut self, f: FaultPlan) -> Self {
        self.faults = f;
        self
    }

    /// Seed for every randomized engine component (state corruption,
    /// malicious steps). Default 0.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Start from an explicit state instead of the algorithm's legitimate
    /// initial state (scenario reproductions). Overridden by
    /// [`FaultPlan::from_arbitrary_state`].
    #[must_use]
    pub fn initial_state(mut self, state: SystemState<A>) -> Self {
        self.initial_state = Some(state);
        self
    }

    /// Attach an observer (default: none): a [`crate::trace::Trace`],
    /// [`crate::telemetry::Telemetry`], [`crate::record::FlightRecorder`],
    /// [`crate::tracing::CausalTracer`] or any other [`StepObserver`].
    /// Observers never touch the engine's RNG, scheduler or state, so an
    /// observed run is step-for-step identical to a bare one; read one
    /// back with [`Engine::observer`] or [`Engine::take_observer`].
    #[must_use]
    pub fn observe(mut self, observer: impl StepObserver<A>) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Construct the engine.
    pub fn build(self) -> Engine<A> {
        let mut rng = rng::rng(rng::subseed(self.seed, 0xE61E));
        let mut state = self
            .initial_state
            .unwrap_or_else(|| SystemState::initial(&self.alg, &self.topo));
        if self.faults.starts_arbitrary() {
            state.corrupt_all(&self.alg, &self.topo, &mut rng);
        }
        let n = self.topo.len();
        let mut health = vec![Health::Live; n];
        for &p in self.faults.initially_dead_processes() {
            health[p.index()] = Health::Dead;
        }
        let index = EnabledIndex::new(&self.topo, self.alg.kinds());
        let needs_now: Vec<bool> = (0..n)
            .map(|i| self.workload.needs(ProcessId(i), 0))
            .collect();
        let step_dependent_needs = self.workload.step_dependent();
        let mut engine = Engine {
            metrics: DinerMetrics::new(n),
            last_phase: (0..n)
                .map(|i| self.alg.phase(state.local(ProcessId(i))))
                .collect(),
            alg: self.alg,
            topo: self.topo,
            state,
            health,
            workload: self.workload,
            sched: self.sched,
            faults: FaultTimeline::new(self.faults),
            seed: self.seed,
            step: 0,
            executed: 0,
            quiescent: 0,
            rng,
            dirty_mask: vec![true; n],
            dirty: (0..n).collect(),
            index,
            needs_now,
            step_dependent_needs,
            eat_pairs_total: 0,
            eat_pairs_live: 0,
            annotated: Vec::new(),
            scratch: Vec::new(),
            observers: self.observers,
            write_violations: 0,
        };
        let (total, live) = engine.eating_pairs_scan();
        engine.eat_pairs_total = total;
        engine.eat_pairs_live = live;
        let view = Snapshot::new(&engine.topo, &engine.state, &engine.health);
        for o in &mut engine.observers {
            o.on_build(&engine.alg, &view);
        }
        engine
    }
}

/// A deterministic single-threaded run of one algorithm over one topology.
pub struct Engine<A: DinerAlgorithm> {
    alg: A,
    topo: Topology,
    state: SystemState<A>,
    health: Vec<Health>,
    workload: Box<dyn Workload>,
    sched: Box<dyn Scheduler>,
    /// The fault plan and the checkpoints its snapshot restarts restore.
    faults: FaultTimeline<A::Local>,
    step: u64,
    executed: u64,
    quiescent: u64,
    rng: StdRng,
    metrics: DinerMetrics,
    last_phase: Vec<Phase>,
    /// Which processes need re-enumeration (mask + stack, no dup pushes).
    dirty_mask: Vec<bool>,
    dirty: Vec<usize>,
    /// Per-process enabled moves and their fairness ages, indexed by
    /// rank.
    index: EnabledIndex,
    /// Last `needs()` evaluation per process (step-dependent rescan memo).
    needs_now: Vec<bool>,
    step_dependent_needs: bool,
    /// Running eating-pairs counters (all pairs / pairs with a live
    /// endpoint), maintained on phase transitions and deaths.
    eat_pairs_total: usize,
    eat_pairs_live: usize,
    /// Scratch buffers reused across steps to avoid per-step allocation
    /// (`annotated` backs the scheduler's slice adapter).
    annotated: Vec<EnabledMove>,
    scratch: Vec<Move>,
    /// Engine seed, kept for the recording header.
    seed: u64,
    /// Attached observers; with none, the engine builds no events.
    observers: Vec<Box<dyn StepObserver<A>>>,
    /// Writes rejected by the runtime write-contract check
    /// ([`crate::footprint::check_write`]): non-neighbor edge writes and
    /// malicious writes outside the capability. Such writes panic under
    /// `debug_assertions` and are dropped (and counted here) in release.
    write_violations: u64,
}

impl<A: DinerAlgorithm> Engine<A> {
    /// Start building an engine for `alg` on `topo`.
    pub fn builder(alg: A, topo: Topology) -> EngineBuilder<A> {
        EngineBuilder {
            alg,
            topo,
            workload: Box::new(AlwaysHungry),
            sched: Box::new(LeastRecentScheduler::new()),
            faults: FaultPlan::none(),
            seed: 0,
            initial_state: None,
            observers: Vec::new(),
        }
    }

    /// The first attached observer of type `T`, if any.
    pub fn observer<T: StepObserver<A>>(&self) -> Option<&T> {
        self.observers
            .iter()
            .find_map(|o| (o.as_ref() as &dyn Any).downcast_ref())
    }

    /// Detach and return the first attached observer of type `T` (e.g. to
    /// fold one run's telemetry into a report while the engine is
    /// dropped).
    pub fn take_observer<T: StepObserver<A>>(&mut self) -> Option<T> {
        let i = self
            .observers
            .iter()
            .position(|o| (o.as_ref() as &dyn Any).is::<T>())?;
        let o: Box<dyn Any> = self.observers.remove(i);
        o.downcast().ok().map(|o| *o)
    }

    /// Writes rejected so far by the runtime write-contract check
    /// (non-neighbor edge writes, malicious writes outside the
    /// capability). Always 0 for a contract-certified algorithm; only
    /// release builds can observe a nonzero value, since debug builds
    /// panic on the first violation.
    pub fn write_violations(&self) -> u64 {
        self.write_violations
    }

    /// The scheduler's name (recording header).
    pub(crate) fn scheduler_name(&self) -> &str {
        self.sched.name()
    }

    /// The workload's name (recording header).
    pub(crate) fn workload_name(&self) -> &str {
        self.workload.name()
    }

    /// The seed the engine was built with (recording header).
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault plan the engine was built with (recording header).
    pub(crate) fn fault_plan(&self) -> &FaultPlan {
        self.faults.plan()
    }

    /// The algorithm under simulation.
    pub fn algorithm(&self) -> &A {
        &self.alg
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The current variable state.
    pub fn state(&self) -> &SystemState<A> {
        &self.state
    }

    /// Per-process health.
    pub fn health(&self) -> &[Health] {
        &self.health
    }

    /// The current step counter (steps of simulated time so far).
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Service metrics accumulated so far.
    pub fn metrics(&self) -> &DinerMetrics {
        &self.metrics
    }

    /// The diner phase of `p` in the current state.
    pub fn phase_of(&self, p: ProcessId) -> Phase {
        self.alg.phase(self.state.local(p))
    }

    /// Whether `p` has halted.
    pub fn is_dead(&self, p: ProcessId) -> bool {
        self.health[p.index()].is_dead()
    }

    /// All halted processes.
    pub fn dead_processes(&self) -> Vec<ProcessId> {
        self.topo.processes().filter(|&p| self.is_dead(p)).collect()
    }

    /// An immutable snapshot for predicate evaluation.
    pub fn snapshot(&self) -> Snapshot<'_, A> {
        Snapshot::new(&self.topo, &self.state, &self.health)
    }

    /// Evaluate a predicate on the current state.
    pub fn check<P: StatePredicate<A>>(&self, pred: &P) -> bool {
        pred.holds(&self.snapshot())
    }

    /// Pairs of neighbors simultaneously eating right now, as
    /// `(total, with_live_endpoint)` — Theorem 3 bounds the first,
    /// the `E` predicate says the second is eventually zero.
    ///
    /// O(1): returns running counters maintained on phase transitions,
    /// deaths and transient corruption. [`Engine::eating_pairs_scan`] is
    /// the O(|E|) reference recount.
    pub fn eating_pairs(&self) -> (usize, usize) {
        (self.eat_pairs_total, self.eat_pairs_live)
    }

    /// Reference O(|E|) edge scan for [`Engine::eating_pairs`] — used to
    /// (re)initialize the counters, and by the differential tests to
    /// validate them.
    pub fn eating_pairs_scan(&self) -> (usize, usize) {
        let mut total = 0;
        let mut live = 0;
        for &(a, b) in self.topo.edges() {
            if self.phase_of(a) == Phase::Eating && self.phase_of(b) == Phase::Eating {
                total += 1;
                if !self.is_dead(a) || !self.is_dead(b) {
                    live += 1;
                }
            }
        }
        (total, live)
    }

    /// Enumerate the enabled moves in the current state, from scratch.
    pub fn enabled_moves(&self) -> Vec<Move> {
        let mut moves = Vec::new();
        for p in self.topo.processes() {
            self.enumerate_process(p, &mut moves);
        }
        moves
    }

    /// Append the enabled moves of `p` to `out`: its [`enabled_actions`]
    /// if live, the single malicious pseudo-move if crashing maliciously.
    fn enumerate_process(&self, p: ProcessId, out: &mut Vec<Move>) {
        match self.health[p.index()] {
            Health::Dead => {}
            Health::Byzantine { .. } => out.push(Move {
                pid: p,
                action: ActionId::MALICIOUS,
            }),
            Health::Live => {
                let needs = self.workload.needs(p, self.step);
                let view = View::new(&self.topo, &self.state, p, needs);
                // `for_each`, not `extend`: extending from the filtered
                // iterator ran engine-ring8k 4–8% slower in paired runs.
                enabled_actions(&self.alg, &view)
                    .for_each(|action| out.push(Move { pid: p, action }));
            }
        }
    }

    /// Execute one step of the computation: re-enumerate only the dirty
    /// processes into the enabled index, let the scheduler pick by rank,
    /// and keep the exclusion monitor from the running counter; see the
    /// module docs.
    pub fn step(&mut self) -> StepOutcome {
        self.apply_due_faults();
        let step = self.step;

        // Step-dependent workloads can flip any `needs()` between steps;
        // a changed needs bit only feeds that process's own guards.
        if self.step_dependent_needs {
            for i in 0..self.topo.len() {
                let need = self.workload.needs(ProcessId(i), step);
                if need != self.needs_now[i] {
                    self.needs_now[i] = need;
                    if !self.dirty_mask[i] {
                        self.dirty_mask[i] = true;
                        self.dirty.push(i);
                    }
                }
            }
        }

        // Re-enumerate dirty processes into the index.
        while let Some(i) = self.dirty.pop() {
            self.dirty_mask[i] = false;
            let mut fresh = std::mem::take(&mut self.scratch);
            fresh.clear();
            self.enumerate_process(ProcessId(i), &mut fresh);
            self.index.update(i, &mut fresh, step);
            self.scratch = fresh;
        }

        let len = self.index.len();
        let out = if len == 0 {
            self.quiescent += 1;
            StepOutcome::Quiescent
        } else {
            let mut view = self.index.view(step, &mut self.annotated);
            let choice = self.sched.pick_from(step, &mut view);
            assert!(
                choice < len,
                "scheduler {} returned out-of-range index {choice}",
                self.sched.name()
            );
            let mv = self.index.move_at(choice);
            self.execute_move(mv);
            self.index.evict(mv);
            self.metrics.on_exclusion_check(step, self.eat_pairs_live);
            self.executed += 1;
            StepOutcome::Executed(mv)
        };
        self.step += 1;

        let view = Snapshot::new(&self.topo, &self.state, &self.health);
        for o in &mut self.observers {
            o.on_step_end(self.step, out, &view);
        }
        out
    }

    /// Run `steps` steps of simulated time.
    pub fn run(&mut self, steps: u64) -> RunSummary {
        let start_exec = self.executed;
        let start_quiet = self.quiescent;
        for _ in 0..steps {
            self.step();
        }
        RunSummary {
            steps,
            executed: self.executed - start_exec,
            quiescent: self.quiescent - start_quiet,
        }
    }

    /// Run until `pred` holds (checked before each step), at most
    /// `max_steps` further steps. Returns the step count at which the
    /// predicate first held.
    pub fn run_until<P: StatePredicate<A>>(&mut self, pred: &P, max_steps: u64) -> Option<u64> {
        let deadline = self.step + max_steps;
        loop {
            if pred.holds(&self.snapshot()) {
                return Some(self.step);
            }
            if self.step >= deadline {
                return None;
            }
            self.step();
        }
    }

    /// Run up to `max_steps` steps and report the first step from which
    /// `pred` held *continuously* through the horizon (the empirical
    /// convergence point for closed predicates). `None` if the predicate
    /// does not hold at the end of the horizon.
    pub fn convergence_step<P: StatePredicate<A>>(
        &mut self,
        pred: &P,
        max_steps: u64,
    ) -> Option<u64> {
        let mut since: Option<u64> = if pred.holds(&self.snapshot()) {
            Some(self.step)
        } else {
            None
        };
        for _ in 0..max_steps {
            self.step();
            if pred.holds(&self.snapshot()) {
                since.get_or_insert(self.step);
            } else {
                since = None;
            }
        }
        since
    }

    /// Mark a single process for re-enumeration.
    fn mark_dirty(&mut self, p: ProcessId) {
        let i = p.index();
        if !self.dirty_mask[i] {
            self.dirty_mask[i] = true;
            self.dirty.push(i);
        }
    }

    /// Mark `p` and its neighbors — the guard footprint of a write set
    /// confined to `p`'s local and incident edges.
    fn mark_dirty_closed(&mut self, p: ProcessId) {
        let topo = &self.topo;
        for &q in topo.closed_neighborhood(p) {
            let i = q.index();
            if !self.dirty_mask[i] {
                self.dirty_mask[i] = true;
                self.dirty.push(i);
            }
        }
    }

    fn mark_all_dirty(&mut self) {
        for i in 0..self.topo.len() {
            if !self.dirty_mask[i] {
                self.dirty_mask[i] = true;
                self.dirty.push(i);
            }
        }
    }

    /// Adjust the eating-pairs counters for `p` changing phase from
    /// `before` to `after` while every *other* entry of `last_phase` is
    /// current. Must run before `last_phase[p]` is updated and after any
    /// health change at `p` took effect.
    fn update_eating_pairs(&mut self, p: ProcessId, before: Phase, after: Phase) {
        let was = before == Phase::Eating;
        let now = after == Phase::Eating;
        if was == now {
            return;
        }
        let p_dead = self.health[p.index()].is_dead();
        let topo = &self.topo;
        for &q in topo.neighbors(p) {
            if self.last_phase[q.index()] != Phase::Eating {
                continue;
            }
            let live = !p_dead || !self.health[q.index()].is_dead();
            if now {
                self.eat_pairs_total += 1;
                if live {
                    self.eat_pairs_live += 1;
                }
            } else {
                self.eat_pairs_total -= 1;
                if live {
                    self.eat_pairs_live -= 1;
                }
            }
        }
    }

    /// Counter fix-up for an active process dying: eating pairs it shared
    /// with an already-dead eating neighbor stop counting as live. Call
    /// with `self.health[p]` already `Dead` and `last_phase[p]` still
    /// reflecting `p`'s phase at the moment of death.
    fn on_process_died(&mut self, p: ProcessId) {
        if self.last_phase[p.index()] != Phase::Eating {
            return;
        }
        let topo = &self.topo;
        for &q in topo.neighbors(p) {
            if self.last_phase[q.index()] == Phase::Eating && self.health[q.index()].is_dead() {
                self.eat_pairs_live -= 1;
            }
        }
    }

    /// Counter fix-up for a dead process coming back: eating pairs it
    /// shared with a dead eating neighbor count as live again. Call with
    /// `self.health[p]` already `Live` and `last_phase[p]` still
    /// reflecting `p`'s frozen phase at death (the exact mirror of
    /// [`Engine::on_process_died`]).
    fn on_process_revived(&mut self, p: ProcessId) {
        if self.last_phase[p.index()] != Phase::Eating {
            return;
        }
        let topo = &self.topo;
        for &q in topo.neighbors(p) {
            if self.last_phase[q.index()] == Phase::Eating && self.health[q.index()].is_dead() {
                self.eat_pairs_live += 1;
            }
        }
    }

    fn apply_due_faults(&mut self) {
        let step = self.step;
        while let Some((ev, checkpoint)) =
            self.faults.next_due(step, |p| self.state.local(p).clone())
        {
            let phase_before =
                (!self.observers.is_empty()).then(|| self.alg.phase(self.state.local(ev.target)));
            let mut revived = false;
            match ev.kind {
                FaultKind::Crash => {
                    let was_active = self.health[ev.target.index()].is_active();
                    self.health[ev.target.index()] = Health::Dead;
                    if was_active {
                        self.on_process_died(ev.target);
                        // Health is invisible to neighbor guards
                        // (crashes are undetectable); only the target's
                        // own move set changes.
                        self.mark_dirty(ev.target);
                    }
                }
                FaultKind::MaliciousCrash { steps } => {
                    if self.health[ev.target.index()].is_active() {
                        if steps == 0 {
                            self.health[ev.target.index()] = Health::Dead;
                            self.on_process_died(ev.target);
                        } else {
                            self.health[ev.target.index()] = Health::Byzantine { remaining: steps };
                        }
                        self.mark_dirty(ev.target);
                    }
                }
                FaultKind::TransientGlobal => {
                    self.state.corrupt_all(&self.alg, &self.topo, &mut self.rng);
                    self.resync_phases();
                    self.mark_all_dirty();
                }
                FaultKind::TransientLocal => {
                    self.state
                        .corrupt_process(&self.alg, &self.topo, &mut self.rng, ev.target);
                    let before = self.last_phase[ev.target.index()];
                    let after = self.alg.phase(self.state.local(ev.target));
                    self.update_eating_pairs(ev.target, before, after);
                    self.last_phase[ev.target.index()] = after;
                    self.mark_dirty_closed(ev.target);
                }
                FaultKind::Restart { state } => {
                    if self.health[ev.target.index()].is_dead() {
                        revived = true;
                        self.health[ev.target.index()] = Health::Live;
                        self.on_process_revived(ev.target);
                        match state {
                            Resurrection::Fresh => {
                                *self.state.local_mut(ev.target) =
                                    self.alg.init_local(&self.topo, ev.target);
                            }
                            Resurrection::Snapshot { .. } => {
                                if let Some(snap) = checkpoint {
                                    *self.state.local_mut(ev.target) = snap;
                                }
                            }
                            Resurrection::Arbitrary { seed } => {
                                let mut r = fault::restart_rng(seed);
                                self.state
                                    .corrupt_process(&self.alg, &self.topo, &mut r, ev.target);
                            }
                        }
                        let before = self.last_phase[ev.target.index()];
                        let after = self.alg.phase(self.state.local(ev.target));
                        self.update_eating_pairs(ev.target, before, after);
                        self.last_phase[ev.target.index()] = after;
                        // The resurrected state is neighbor-visible (unlike
                        // the health flip), so the whole closed neighborhood
                        // re-enumerates.
                        self.mark_dirty_closed(ev.target);
                    }
                }
            }
            if let Some(phase_before) = phase_before {
                self.notify(&StepEvent {
                    step,
                    pid: ev.target,
                    kind: EventKind::Fault(ev.kind),
                    needs: false,
                    phase_before,
                    phase_after: self.alg.phase(self.state.local(ev.target)),
                    rejected_writes: 0,
                    revived,
                    waited: None,
                });
            }
        }
    }

    /// Report one applied fault or fired move to every observer.
    fn notify(&mut self, ev: &StepEvent) {
        let view = Snapshot::new(&self.topo, &self.state, &self.health);
        for o in &mut self.observers {
            o.on_event(ev, &view);
        }
    }

    /// Rebuild `last_phase` and the eating-pairs counters from the state
    /// (after bulk corruption or at engine construction).
    fn resync_phases(&mut self) {
        for p in self.topo.processes() {
            self.last_phase[p.index()] = self.alg.phase(self.state.local(p));
        }
        let (total, live) = self.eating_pairs_scan();
        self.eat_pairs_total = total;
        self.eat_pairs_live = live;
    }

    fn execute_move(&mut self, mv: Move) {
        let pid = mv.pid;
        let before = self.alg.phase(self.state.local(pid));
        let (writes, needs): (Vec<Write<A>>, bool) = if mv.action.is_malicious() {
            let view = View::new(&self.topo, &self.state, pid, false);
            let w = self.alg.malicious_writes(&view, &mut self.rng);
            let mut died = false;
            match &mut self.health[pid.index()] {
                Health::Byzantine { remaining } => {
                    *remaining -= 1;
                    if *remaining == 0 {
                        self.health[pid.index()] = Health::Dead;
                        died = true;
                    }
                }
                other => unreachable!("malicious move for non-byzantine process: {other:?}"),
            }
            if died {
                self.on_process_died(pid);
            }
            (w, false)
        } else {
            let needs = self.workload.needs(pid, self.step);
            let view = View::new(&self.topo, &self.state, pid, needs);
            debug_assert!(
                self.alg.enabled(&view, mv.action),
                "scheduler fired a disabled move {mv:?}"
            );
            (self.alg.execute(&view, mv.action), needs)
        };

        // Runtime write-contract check (the dynamic counterpart of the
        // `footprint` locality certifier): adjacency for every edge
        // write, capability for malicious ones. Violations panic in
        // debug builds; release builds reject the write and count it, so
        // fuzzing surfaces contract breaches without crashing soaks.
        let malicious = mv.action.is_malicious();
        let mut rejected_writes = 0;
        for w in writes {
            if let Some(v) =
                crate::footprint::check_write(&self.alg, &self.topo, pid, malicious, &w)
            {
                if cfg!(debug_assertions) {
                    panic!("write contract violation: {v}");
                }
                rejected_writes += 1;
                continue;
            }
            match w {
                Write::Local(l) => *self.state.local_mut(pid) = l,
                Write::Edge { neighbor, value } => {
                    let e = self
                        .topo
                        .edge_between(pid, neighbor)
                        .expect("checked adjacent above");
                    *self.state.edge_mut(e) = value;
                }
            }
        }

        self.write_violations += rejected_writes;

        let after = self.alg.phase(self.state.local(pid));
        self.update_eating_pairs(pid, before, after);
        self.last_phase[pid.index()] = after;
        if !self.observers.is_empty() {
            let kind = if malicious {
                EventKind::MaliciousStep
            } else {
                EventKind::Action {
                    kind: mv.action.kind,
                    slot: mv.action.slot,
                    name: self.alg.kinds()[mv.action.kind].name,
                }
            };
            // Read before the metrics below account for the meal.
            let waited = (before != after && after == Phase::Eating)
                .then(|| self.metrics.hungry_since(pid))
                .flatten()
                .map(|since| self.step.saturating_sub(since));
            self.notify(&StepEvent {
                step: self.step,
                pid,
                kind,
                needs,
                phase_before: before,
                phase_after: after,
                rejected_writes,
                revived: false,
                waited,
            });
        }
        if before != after {
            self.metrics.on_phase_change(pid, before, after, self.step);
            if after == Phase::Eating {
                self.workload.note_eat(pid, self.step);
            }
        }
        // The write set was confined to pid's local + incident edges, so
        // only the closed neighborhood's guards can have changed.
        self.mark_dirty_closed(pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::predicate::FnPredicate;
    use crate::scheduler::RandomScheduler;
    use crate::toy::{ToyDiners, TOY_ENTER, TOY_EXIT, TOY_JOIN};
    use crate::trace::Trace;
    use crate::workload::{NeverHungry, QuotaWorkload};

    fn toy_engine(n: usize) -> Engine<ToyDiners> {
        Engine::builder(ToyDiners, Topology::line(n))
            .scheduler(RandomScheduler::new(1))
            .seed(1)
            .build()
    }

    #[test]
    fn never_hungry_system_is_quiescent() {
        let mut e = Engine::builder(ToyDiners, Topology::ring(4))
            .workload(NeverHungry)
            .build();
        let s = e.run(10);
        assert_eq!(s.executed, 0);
        assert_eq!(s.quiescent, 10);
        assert_eq!(e.step_count(), 10);
    }

    #[test]
    fn everyone_eats_under_fair_scheduling() {
        let mut e = toy_engine(5);
        e.run(2_000);
        for p in e.topology().processes() {
            assert!(e.metrics().eats_of(p) > 0, "{p} never ate");
        }
        assert_eq!(e.metrics().violation_step_count(), 0);
    }

    #[test]
    fn quota_workload_quiesces_after_meals() {
        let mut e = Engine::builder(ToyDiners, Topology::line(3))
            .workload(QuotaWorkload::uniform(3, 2))
            .build();
        e.run(500);
        for p in e.topology().processes() {
            assert_eq!(e.metrics().eats_of(p), 2, "{p} should eat exactly twice");
        }
        // After quotas are filled, nothing is enabled.
        assert!(e.enabled_moves().is_empty());
    }

    #[test]
    fn crash_fault_halts_a_process() {
        let mut e = Engine::builder(ToyDiners, Topology::line(4))
            .faults(FaultPlan::new().crash(10, 0))
            .observe(Trace::new())
            .build();
        e.run(100);
        assert!(e.is_dead(ProcessId(0)));
        assert_eq!(e.dead_processes(), vec![ProcessId(0)]);
        // Dead process takes no further actions.
        let actions_after: Vec<_> = e
            .observer::<Trace>()
            .unwrap()
            .actions_of(ProcessId(0))
            .into_iter()
            .filter(|(s, _)| *s >= 10)
            .collect();
        assert!(
            actions_after.is_empty(),
            "dead process acted: {actions_after:?}"
        );
    }

    #[test]
    fn malicious_crash_takes_exactly_k_steps_then_halts() {
        let mut e = Engine::builder(ToyDiners, Topology::line(3))
            .faults(FaultPlan::new().malicious_crash(0, 1, 3))
            .observe(Trace::new())
            .build();
        e.run(200);
        assert!(e.is_dead(ProcessId(1)));
        let malicious = e
            .observer::<Trace>()
            .unwrap()
            .events()
            .filter(|ev| matches!(ev.kind, EventKind::MaliciousStep))
            .count();
        assert_eq!(malicious, 3);
    }

    #[test]
    fn malicious_crash_with_zero_steps_is_benign() {
        let mut e = Engine::builder(ToyDiners, Topology::line(3))
            .faults(FaultPlan::new().malicious_crash(5, 2, 0))
            .build();
        e.run(50);
        assert!(e.is_dead(ProcessId(2)));
    }

    #[test]
    fn initially_dead_never_acts() {
        let mut e = Engine::builder(ToyDiners, Topology::line(3))
            .faults(FaultPlan::new().initially_dead(1))
            .observe(Trace::new())
            .build();
        e.run(200);
        assert!(e
            .observer::<Trace>()
            .unwrap()
            .actions_of(ProcessId(1))
            .is_empty());
        // Its neighbors can still eat (it died thinking).
        assert!(e.metrics().eats_of(ProcessId(0)) > 0);
    }

    #[test]
    fn arbitrary_start_is_deterministic_in_seed() {
        let build = |seed| {
            Engine::builder(ToyDiners, Topology::ring(6))
                .faults(FaultPlan::new().from_arbitrary_state())
                .seed(seed)
                .build()
        };
        assert_eq!(build(7).state(), build(7).state());
        // Over several seeds, at least one differs from the legitimate
        // initial state (all thinking).
        let legit = SystemState::initial(&ToyDiners, &Topology::ring(6));
        assert!((0..10).any(|s| build(s).state() != &legit));
    }

    #[test]
    fn transient_global_corrupts_state() {
        let mut e = Engine::builder(ToyDiners, Topology::ring(8))
            .workload(NeverHungry)
            .faults(FaultPlan::new().transient_global(5))
            .seed(3)
            .build();
        e.run(5);
        let before = e.state().clone();
        e.run(1);
        assert_ne!(&before, e.state(), "transient fault should perturb state");
    }

    #[test]
    fn run_until_and_convergence() {
        let mut e = toy_engine(4);
        let p0_ate = FnPredicate::new::<ToyDiners>("p0-eating", |s: &Snapshot<'_, ToyDiners>| {
            *s.state.local(ProcessId(0)) == Phase::Eating
        });
        let at = e.run_until(&p0_ate, 10_000);
        assert!(at.is_some(), "p0 eventually eats");

        // Toy diners converge to "no live neighbors both eating" trivially.
        let mut e2 = toy_engine(4);
        let excl = FnPredicate::new::<ToyDiners>("exclusion", |s: &Snapshot<'_, ToyDiners>| {
            s.topo.edges().iter().all(|&(a, b)| {
                !(*s.state.local(a) == Phase::Eating && *s.state.local(b) == Phase::Eating)
            })
        });
        assert!(e2.convergence_step(&excl, 500).is_some());
    }

    #[test]
    fn eating_pairs_counts() {
        let t = Topology::line(3);
        let mut st: SystemState<ToyDiners> = SystemState::initial(&ToyDiners, &t);
        *st.local_mut(ProcessId(0)) = Phase::Eating;
        *st.local_mut(ProcessId(1)) = Phase::Eating;
        let e = Engine::builder(ToyDiners, t).initial_state(st).build();
        assert_eq!(e.eating_pairs(), (1, 1));
        assert_eq!(e.eating_pairs_scan(), (1, 1));
    }

    #[test]
    fn enabled_moves_reflect_guards() {
        let e = toy_engine(3);
        let moves = e.enabled_moves();
        // Initially everyone is thinking and hungry-able: only joins.
        assert_eq!(moves.len(), 3);
        assert!(moves.iter().all(|m| m.action.kind == TOY_JOIN));
    }

    #[test]
    fn step_outcome_reports_move() {
        let mut e = toy_engine(2);
        match e.step() {
            StepOutcome::Executed(m) => assert_eq!(m.action.kind, TOY_JOIN),
            StepOutcome::Quiescent => panic!("join should be enabled"),
        }
    }

    #[test]
    fn phases_and_metrics_agree() {
        let mut e = toy_engine(2);
        e.run(100);
        let total: u64 = e
            .topology()
            .processes()
            .map(|p| e.metrics().eats_of(p))
            .sum();
        assert!(total > 0);
        // Whoever is eating now is counted in current phase queries.
        for p in e.topology().processes() {
            let _ = e.phase_of(p);
        }
        let _ = (TOY_ENTER, TOY_EXIT);
    }

    // ---- the enabled index's ages and the slice adapter ----

    use std::cell::RefCell;
    use std::rc::Rc;

    /// Scheduler that logs every annotated enabled set it is offered and
    /// delegates the actual choice.
    struct ProbeScheduler {
        log: Rc<RefCell<Vec<Vec<EnabledMove>>>>,
        inner: RandomScheduler,
    }

    impl Scheduler for ProbeScheduler {
        fn pick(&mut self, step: u64, enabled: &[EnabledMove]) -> usize {
            self.log.borrow_mut().push(enabled.to_vec());
            self.inner.pick(step, enabled)
        }
        fn name(&self) -> &str {
            "probe"
        }
    }

    #[test]
    fn ages_grow_while_enabled_and_reset_on_reenable() {
        // line(4): p3's join stays enabled (and un-executed) while other
        // moves fire → its age must grow monotonically; a move that is
        // executed and later re-enabled must restart at age 1.
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut e = Engine::builder(ToyDiners, Topology::line(4))
            .scheduler(ProbeScheduler {
                log: Rc::clone(&log),
                inner: RandomScheduler::new(3),
            })
            .seed(3)
            .build();
        e.run(400);
        drop(e);
        let log = Rc::try_unwrap(log).unwrap().into_inner();

        // This run is never quiescent (some join/enter/exit is always
        // enabled), so consecutive picks are consecutive steps:
        // still-enabled moves must age by exactly 1, and a move admitted
        // after an absence must restart at age 1 — even if it had aged
        // before (the stale age must not survive the disabled interval).
        let mut seen_aged: std::collections::HashSet<Move> = Default::default();
        let mut seen_reset = false;
        for w in log.windows(2) {
            for em in &w[1] {
                match w[0].iter().find(|p| p.mv == em.mv) {
                    Some(old) => {
                        assert_eq!(em.age, old.age + 1, "{:?} did not age monotonically", em.mv)
                    }
                    None => {
                        assert_eq!(em.age, 1, "{:?} kept a stale age", em.mv);
                        if seen_aged.contains(&em.mv) {
                            seen_reset = true;
                        }
                    }
                }
                if em.age > 1 {
                    seen_aged.insert(em.mv);
                }
            }
        }
        assert!(seen_reset, "expected at least one age reset over the run");
    }

    #[test]
    fn eating_pair_counters_track_scan_under_faults() {
        // Stress the running counters against the reference scan across
        // malicious crashes, benign crashes and transient corruption.
        for seed in 0..4u64 {
            let mut e = Engine::builder(ToyDiners, Topology::ring(6))
                .scheduler(RandomScheduler::new(seed))
                .faults(
                    FaultPlan::new()
                        .malicious_crash(20, 1, 5)
                        .crash(60, 3)
                        .transient_local(90, 4)
                        .transient_global(120),
                )
                .seed(seed)
                .build();
            for _ in 0..300 {
                e.step();
                assert_eq!(
                    e.eating_pairs(),
                    e.eating_pairs_scan(),
                    "counter drifted from scan at step {} (seed {seed})",
                    e.step_count()
                );
            }
        }
    }

    #[test]
    fn random_daemon_never_builds_the_slice() {
        // The random daemon picks through the index; only the slice
        // adapter fills the engine's slice buffer.
        let run = |sched: Box<dyn Scheduler>| {
            let mut e = Engine::builder(ToyDiners, Topology::ring(8))
                .scheduler(sched)
                .faults(FaultPlan::new().malicious_crash(10, 3, 4))
                .build();
            e.run(300);
            e.annotated.capacity()
        };
        assert_eq!(run(Box::new(RandomScheduler::new(4))), 0);
        assert_ne!(run(Box::new(LeastRecentScheduler::new())), 0);
    }

    #[test]
    fn restart_revives_a_crashed_process() {
        let mut e = Engine::builder(ToyDiners, Topology::line(4))
            .faults(FaultPlan::new().crash(10, 0).restart_fresh(100, 0))
            .observe(Trace::new())
            .build();
        e.run(2_000);
        assert!(!e.is_dead(ProcessId(0)), "restart did not land");
        assert!(e.dead_processes().is_empty());
        // The reborn process acts again.
        let acted_after = e
            .observer::<Trace>()
            .unwrap()
            .actions_of(ProcessId(0))
            .into_iter()
            .filter(|(s, _)| *s >= 100)
            .count();
        assert!(acted_after > 0, "reborn process never acted");
    }

    #[test]
    fn same_step_crash_restart_nets_to_immediate_rebirth() {
        // Restarts order after kills at the same step (fault.rs), so the
        // pair applies as crash-then-revive within one step.
        let mut e = Engine::builder(ToyDiners, Topology::line(3))
            .faults(FaultPlan::new().crash(50, 1).restart_fresh(50, 1))
            .observe(Trace::new())
            .build();
        e.run(500);
        assert!(!e.is_dead(ProcessId(1)));
        assert!(
            e.observer::<Trace>()
                .unwrap()
                .actions_of(ProcessId(1))
                .into_iter()
                .any(|(s, _)| s >= 50),
            "process must keep acting after the same-step crash+restart"
        );
    }

    #[test]
    fn restart_of_a_live_process_is_a_no_op() {
        let build = |faults| {
            Engine::builder(ToyDiners, Topology::ring(5))
                .scheduler(RandomScheduler::new(3))
                .faults(faults)
                .seed(3)
                .build()
        };
        let mut a = build(FaultPlan::none());
        let mut b = build(FaultPlan::new().restart_fresh(100, 2));
        a.run(1_000);
        b.run(1_000);
        assert_eq!(a.state(), b.state(), "no-op restart perturbed the run");
        assert_eq!(a.health(), b.health());
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn snapshot_restart_restores_the_checkpointed_local() {
        // Quota workload quiesces after one meal each, freezing locals.
        // The checkpoint (age 350 before the restart at 900) lands at
        // step 550 — before the transient corrupts the victim at 600 —
        // so the resurrected local must equal the step-550 value even
        // though the victim died holding corrupted state.
        let mut e = Engine::builder(ToyDiners, Topology::line(3))
            .workload(QuotaWorkload::uniform(3, 1))
            .scheduler(RandomScheduler::new(1))
            .seed(9)
            .faults(
                FaultPlan::new()
                    .transient_local(600, 1)
                    .crash(700, 1)
                    .restart_snapshot(900, 1, 350),
            )
            .build();
        e.run(550);
        let checkpointed = *e.state().local(ProcessId(1));
        e.run(200); // corrupted at 600, dead at 700
        assert!(e.is_dead(ProcessId(1)));
        e.run(300); // restored at 900
        assert!(!e.is_dead(ProcessId(1)));
        assert_eq!(
            e.state().local(ProcessId(1)),
            &checkpointed,
            "snapshot resurrection must restore the checkpointed local"
        );
    }

    #[test]
    fn arbitrary_restart_is_deterministic_in_its_own_seed() {
        let build = |restart_seed| {
            Engine::builder(ToyDiners, Topology::ring(5))
                .scheduler(RandomScheduler::new(2))
                .seed(2)
                .faults(
                    FaultPlan::new()
                        .crash(100, 3)
                        .restart_arbitrary(200, 3, restart_seed),
                )
                .build()
        };
        let mut a = build(77);
        let mut b = build(77);
        a.run(201);
        b.run(201);
        assert_eq!(a.state(), b.state(), "same seed must resurrect equally");
        // The resurrection stream is its own: across seeds, at least one
        // rebirth lands in a different local state.
        let differs = (0..8u64).any(|s| {
            let mut c = build(1_000 + s);
            c.run(201);
            c.state().local(ProcessId(3)) != a.state().local(ProcessId(3))
        });
        assert!(differs, "arbitrary resurrection ignored its seed");
    }

    #[test]
    fn eating_pair_counters_survive_crash_restart_storms() {
        for seed in 0..6 {
            let mut e = Engine::builder(ToyDiners, Topology::ring(6))
                .scheduler(RandomScheduler::new(seed))
                .seed(seed)
                .faults(
                    FaultPlan::new()
                        .crash(50, 1)
                        .restart_fresh(150, 1)
                        .malicious_crash(200, 4, 5)
                        .restart_arbitrary(350, 4, seed)
                        .crash(400, 2)
                        .restart_snapshot(520, 2, 60),
                )
                .build();
            for _ in 0..700 {
                e.step();
                assert_eq!(
                    e.eating_pairs(),
                    e.eating_pairs_scan(),
                    "counter drifted from scan at step {} (seed {seed})",
                    e.step_count()
                );
            }
        }
    }

    // ---- runtime write-contract enforcement (satellite of the footprint
    // certification work; the static counterpart lives in footprint.rs) --

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "write contract violation")]
    fn engine_rejects_non_neighbor_edge_writes() {
        use crate::footprint::testbad::FarWriter;
        // far-grab writes the p0–? edge two hops out on a line; the
        // write check must refuse it rather than corrupt the far edge.
        let mut e = Engine::builder(FarWriter, Topology::line(3))
            .scheduler(RandomScheduler::new(3))
            .seed(3)
            .build();
        e.run(20);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "write contract violation")]
    fn engine_rejects_malicious_writes_outside_capability() {
        use crate::footprint::testbad::RogueMalicious;
        // rogue-malicious writes a shared edge during its byzantine
        // phase while declaring the default (empty) capability.
        let mut e = Engine::builder(RogueMalicious, Topology::line(3))
            .scheduler(RandomScheduler::new(3))
            .faults(FaultPlan::new().malicious_crash(1, 1, 2))
            .seed(3)
            .build();
        e.run(20);
    }

    #[test]
    fn well_behaved_runs_count_no_write_violations() {
        let mut e = Engine::builder(ToyDiners, Topology::ring(5))
            .scheduler(RandomScheduler::new(7))
            .faults(FaultPlan::new().malicious_crash(10, 2, 3))
            .seed(7)
            .build();
        e.run(500);
        assert_eq!(e.write_violations(), 0);
    }
}
