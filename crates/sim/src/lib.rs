//! Guarded-command shared-memory simulation substrate for the
//! malicious-crash dining-philosophers reproduction.
//!
//! This crate implements the computation model of Nesterenko & Arora,
//! *Dining Philosophers that Tolerate Malicious Crashes* (ICDCS 2002),
//! §2: processes joined by a symmetric neighbor relation, guarded-command
//! actions over local and shared edge variables, weakly fair serial
//! execution, and the paper's fault taxonomy (benign crash, malicious
//! crash, transient fault, initially-dead processes).
//!
//! The paper's algorithm itself lives in the `diners-core` crate; this
//! crate is algorithm-agnostic and is also used by the baseline and
//! message-passing crates.
//!
//! # Quick tour
//!
//! * [`graph::Topology`] — the conflict graph, with distances and the
//!   diameter constant `D`.
//! * [`algorithm::Algorithm`] / [`algorithm::DinerAlgorithm`] — a
//!   guarded-command program: action kinds, guards over a neighborhood
//!   [`algorithm::View`], commands as atomic [`algorithm::Write`] sets.
//! * [`scheduler`] — weakly fair daemons: round-robin, least-recent,
//!   random, bounded-adversarial, scripted.
//! * [`fault::FaultPlan`] — deterministic fault schedules, including the
//!   paper's malicious crash (k arbitrary steps, then halt).
//! * [`engine::Engine`] — deterministic interleaving execution with
//!   service metrics and an exclusion monitor.
//! * [`predicate`] — named global predicates and convergence detection.
//!
//! # Example
//!
//! ```
//! use diners_sim::engine::Engine;
//! use diners_sim::fault::FaultPlan;
//! use diners_sim::graph::Topology;
//! use diners_sim::scheduler::RandomScheduler;
//! use diners_sim::toy::ToyDiners;
//!
//! let mut engine = Engine::builder(ToyDiners, Topology::ring(8))
//!     .scheduler(RandomScheduler::new(42))
//!     .faults(FaultPlan::new().crash(500, 3))
//!     .seed(42)
//!     .build();
//! engine.run(5_000);
//! assert_eq!(engine.metrics().violation_step_count(), 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algorithm;
pub mod codec;
pub mod enabled;
pub mod engine;
pub mod explore;
pub mod expose;
pub mod fault;
pub mod fingerprint;
pub mod footprint;
pub mod graph;
pub mod liveness;
pub mod metrics;
pub mod predicate;
pub mod record;
pub mod rng;
pub mod scheduler;
pub mod shrink;
pub mod symmetry;
pub mod sync;
pub mod table;
pub mod telemetry;
pub mod toy;
pub mod trace;
pub mod tracing;
pub mod workload;

pub use algorithm::{
    ActionId, ActionKind, Algorithm, DinerAlgorithm, Move, Phase, SystemState, View, Write,
};
pub use codec::{Codec, StateCodec};
pub use engine::{Engine, EnumerationMode, RunSummary, StepOutcome};
pub use explore::{ExploreConfig, Reduction};
pub use expose::MetricsServer;
pub use fault::{FaultKind, FaultPlan, Health, Resurrection};
pub use footprint::{analyze, AnalysisConfig, ContractReport, IndependenceMatrix};
pub use graph::{EdgeId, Family, ProcessId, Topology};
pub use liveness::{check_liveness, check_liveness_multi, Lasso, LivenessConfig, LivenessReport};
pub use predicate::{Snapshot, StatePredicate};
pub use record::{
    state_digest, Checkpoint, FlightRecorder, RecordedFault, Recording, ReplayScheduler, Replayer,
    StepDecision,
};
pub use scheduler::Scheduler;
pub use symmetry::{Perm, SymmetryGroup};
pub use telemetry::{
    AlertKind, Deviation, EventSink, Histogram, JsonlSink, MetricsRegistry, NetOp, RingSink,
    Telemetry, TelemetryEvent, TelemetryKind,
};
pub use tracing::{BlameChain, CausalTracer, Span, SpanId, SpanKind};
pub use workload::Workload;
