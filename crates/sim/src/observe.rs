//! The engine's observer seam: one trait fed one event.
//!
//! Everything that watches a run without steering it is a
//! [`StepObserver`] attached with `EngineBuilder::observe`: the event
//! [`Trace`](crate::trace::Trace), [`Telemetry`](crate::telemetry::Telemetry),
//! the [`FlightRecorder`](crate::record::FlightRecorder) and the
//! [`CausalTracer`](crate::tracing::CausalTracer). The engine reports to
//! its observers at four points — once when it is built, after each
//! applied fault, after each fired move, and at the end of each step —
//! and each observer maps the [`StepEvent`] to its own format; the engine
//! knows none of them. Observers see the run through a read-only
//! [`Snapshot`], so attaching one cannot perturb it, and an engine with
//! none attached builds no events at all.

use std::any::Any;

use crate::algorithm::{DinerAlgorithm, Phase};
use crate::engine::StepOutcome;
use crate::fault::FaultKind;
use crate::graph::ProcessId;
use crate::predicate::Snapshot;

/// What happened in one observed event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A program action fired.
    Action {
        /// Action kind index in the algorithm's `kinds()`.
        kind: usize,
        /// Neighbor slot for per-neighbor actions.
        slot: Option<usize>,
        /// Static action name.
        name: &'static str,
    },
    /// A maliciously crashing process took one arbitrary step.
    MaliciousStep,
    /// A fault struck the process (or the whole system for global faults).
    Fault(FaultKind),
}

impl EventKind {
    /// Whether this is a fault injection (a blame-chain root).
    pub fn is_fault(self) -> bool {
        matches!(self, EventKind::Fault(_))
    }
}

/// One applied fault or fired move, as the engine reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepEvent {
    /// Engine step at which the event occurred.
    pub step: u64,
    /// The acting process, or the fault's target (`p0` for global
    /// transients).
    pub pid: ProcessId,
    /// What happened.
    pub kind: EventKind,
    /// The workload's `needs()` bit the fired guard saw (false for
    /// malicious steps and faults).
    pub needs: bool,
    /// `pid`'s diner phase before the event.
    pub phase_before: Phase,
    /// `pid`'s diner phase after the event.
    pub phase_after: Phase,
    /// Writes of this move the runtime write-contract check rejected
    /// (see `Engine::write_violations`; 0 for faults).
    pub rejected_writes: u64,
    /// For a restart: whether it revived a dead target (restarting a
    /// live process is a no-op).
    pub revived: bool,
    /// For a move into `Eating`: the steps `pid` had been hungry, when
    /// the service metrics saw the hunger start.
    pub waited: Option<u64>,
}

/// Something that watches an engine run without steering it.
///
/// Observers get read-only views and never touch the engine's RNG,
/// scheduler or variables, so an observed run is step-for-step identical
/// to a bare one. Attach with `EngineBuilder::observe`; read back with
/// `Engine::observer` or `Engine::take_observer`.
pub trait StepObserver<A: DinerAlgorithm>: Any {
    /// The engine was built; `view` shows the state before step 0.
    fn on_build(&mut self, _alg: &A, _view: &Snapshot<'_, A>) {}

    /// A fault was applied or a move fired; `view` shows the state after
    /// it.
    fn on_event(&mut self, ev: &StepEvent, view: &Snapshot<'_, A>);

    /// A step ended with `outcome`; `view` shows the state after `steps`
    /// steps.
    fn on_step_end(&mut self, _steps: u64, _outcome: StepOutcome, _view: &Snapshot<'_, A>) {}
}
