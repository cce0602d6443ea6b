//! Experiment harness for the malicious-crash diners reproduction.
//!
//! Every figure and theorem-backed claim of the paper maps to one
//! experiment module (see `DESIGN.md` §4 for the index):
//!
//! | id   | claim                                   | name | module |
//! |------|-----------------------------------------|------|--------|
//! | FIG2 | the example computation                 | `fig2` | [`experiments::fig2`] |
//! | T1   | Theorem 1 — stabilization to `I`        | `stabilization` | [`experiments::stabilization`] |
//! | T2   | Theorems 2+3 — failure locality ≤ 2     | `locality` | [`experiments::locality`] |
//! | T3   | malicious crashes / MCA(m=2)            | `malicious` | [`experiments::malicious`] |
//! | T4   | Lemma 1 — cycle breaking                | `cycles` | [`experiments::cycles`] |
//! | T5   | fault-free service vs baselines         | `throughput` | [`experiments::throughput`] |
//! | T6   | masking outside the locality            | `masking` | [`experiments::masking`] |
//! | T7   | §4 message-passing transformation       | `message-passing` | [`experiments::message_passing`] |
//! | T8   | daemon robustness (synchronous rounds)  | `daemons` | [`experiments::daemons`] |
//! | T9   | chaos soak — randomized link faults     | `chaos` | [`experiments::chaos`] |
//! | T10  | substrate perf — engine & explorer      | `perf` | [`experiments::perf`] |
//! | T11  | observability — telemetry & disturbance | `telemetry` | [`experiments::telemetry`] |
//! | T12  | causal tracing & deterministic replay   | `trace` | [`experiments::tracing`] |
//! | T13  | crash recovery & supervision            | `recovery` | [`experiments::recovery`] |
//! | T14  | explorer compaction (codec & symmetry)  | `codec` | [`experiments::codec`] |
//! | T15  | liveness checking, shrinking, fuzz      | `fuzz` | [`experiments::fuzz`] |
//! | T16  | online monitoring & global snapshots    | `monitor` | [`experiments::monitor`] |
//! | T17  | contract certification (footprints)     | `analyze` | [`experiments::analyze`] |
//!
//! One binary runs them from [`experiments::REGISTRY`]:
//!
//! ```text
//! exp <name>|all [--quick] [--out DIR] [--check]
//! ```
//!
//! A full run writes its `BENCH_*.json` files to the working directory
//! (the committed baselines); a `--quick` run writes to `target/exp/`
//! unless `--out` says otherwise. `--check` compares against the
//! committed baselines, and any failed acceptance check exits 1.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod common;
pub mod experiments;
pub mod timing;

pub use common::Scale;
