//! The explorer workloads: exhaustive search of the paper's algorithm on
//! a ring of 5 from the initial state, every process live and hungry,
//! checking `E` in every reachable state.
//!
//! * `explore-packed`: `Reduction::Packed` — encoding, hashing and
//!   interning 565,440 states over 3,531,600 transitions.
//! * `explore-symmetry`: `Reduction::Symmetry` — 56,544 orbit
//!   representatives, with canonicalisation under the dihedral group of
//!   order 10 dominating.

use std::cell::Cell;
use std::time::Instant;

use diners_core::predicates::e_holds;
use diners_core::MaliciousCrashDiners;
use diners_sim::algorithm::SystemState;
use diners_sim::codec::Codec;
use diners_sim::explore::{explore_with, ExplorationReport, ExploreConfig, Limits, Reduction};
use diners_sim::fault::Health;
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::predicate::Snapshot;
use diners_sim::scheduler::RandomScheduler;
use diners_sim::symmetry::SymmetryGroup;
use diners_sim::workload::AlwaysHungry;
use diners_sim::Engine;

use crate::harness::{ratio, repeated_setup, Budget, Opts};
use crate::probes::{guards_per_state, AlgorithmCost, CodecCost};
use crate::report::{rss_mb, Outcome};
use crate::spans::SharedSpans;
use crate::stats;

/// One explorer workload.
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    reduction: Reduction,
    prefix_searches: u64,
    states: usize,
    transitions: u64,
}

/// `explore-packed`.
pub const PACKED: Spec = Spec {
    name: "explore-packed",
    reduction: Reduction::Packed,
    prefix_searches: 5,
    states: 565_440,
    transitions: 3_531_600,
};

/// `explore-symmetry`.
pub const SYMMETRY: Spec = Spec {
    name: "explore-symmetry",
    reduction: Reduction::Symmetry,
    prefix_searches: 15,
    states: 56_544,
    transitions: 353_160,
};

const RING: usize = 5;

/// What a search starts from.
struct Context {
    alg: MaliciousCrashDiners,
    topo: Topology,
    initial: SystemState<MaliciousCrashDiners>,
    health: Vec<Health>,
    needs: Vec<bool>,
    group: SymmetryGroup,
}

/// Topology, initial state, and what the explorer derives from them
/// before its first layer: the packed encoding of the initial state and
/// the symmetry group.
fn build(spec: &Spec) -> Context {
    let alg = MaliciousCrashDiners::paper();
    let topo = Topology::ring(RING);
    let initial = SystemState::initial(&alg, &topo);
    let health = vec![Health::Live; RING];
    let needs = vec![true; RING];
    std::hint::black_box(Codec::new(&alg, &topo).encode(&initial));
    let group = match spec.reduction {
        Reduction::Symmetry => SymmetryGroup::for_topology(&topo).stabilizing(&needs, &health),
        _ => SymmetryGroup::identity(&topo),
    };
    Context {
        alg,
        topo,
        initial,
        health,
        needs,
        group,
    }
}

fn search(
    spec: &Spec,
    ctx: &Context,
    safety: impl Fn(&Snapshot<'_, MaliciousCrashDiners>) -> bool,
) -> ExplorationReport {
    explore_with(
        &ctx.alg,
        &ctx.topo,
        ctx.initial.clone(),
        &ctx.health,
        &ctx.needs,
        safety,
        ExploreConfig {
            limits: Limits {
                max_states: 2 * spec.states,
            },
            reduction: spec.reduction,
            threads: 1,
        },
    )
}

/// Run one explorer workload; with `spans`, the traced variant.
pub fn run(spec: &Spec, opts: &Opts, spans: Option<SharedSpans>) -> Outcome {
    let mut out = Outcome::default();
    let prefix = if opts.quick {
        spec.prefix_searches.div_ceil(5)
    } else {
        spec.prefix_searches
    };
    let (ctx, setup_s, reps) = repeated_setup(opts.quick, || build(spec));
    out.set(
        "setup_s",
        setup_s,
        format!("fastest decile of {reps}: topology, initial state, encoding, symmetry group"),
    );

    let (search_layer, safety_layer) = match &spans {
        Some(s) => {
            let mut s = s.borrow_mut();
            (s.layer_id("explore.search"), s.layer_id("explore.safety"))
        }
        None => (0, 0),
    };
    let safety_calls = Cell::new(0u64);
    let mut budget = Budget::new(prefix, 10_000, opts);
    let mut step_rates = Vec::new();
    let mut state_rates = Vec::new();
    let mut first: Option<ExplorationReport> = None;
    let mut failed = 0u64;
    let mut searches = 0u64;
    while budget.next_segment(searches, true) {
        let t = Instant::now();
        let report = match &spans {
            None => search(spec, &ctx, e_holds),
            Some(sp) => {
                sp.borrow_mut().enter(search_layer);
                let r = search(spec, &ctx, |s| {
                    sp.borrow_mut().enter(safety_layer);
                    let ok = e_holds(s);
                    sp.borrow_mut().exit();
                    safety_calls.set(safety_calls.get() + 1);
                    ok
                });
                let mut sp = sp.borrow_mut();
                sp.exit();
                sp.stop_raw();
                r
            }
        };
        let secs = t.elapsed().as_secs_f64();
        searches += 1;
        let ok = report.verified()
            && report.states == spec.states
            && report.transitions == spec.transitions;
        if !ok {
            failed += 1;
            out.check(
                format!(
                    "search {searches}: {} states, {} transitions, verified {} (expected {} / {})",
                    report.states,
                    report.transitions,
                    report.verified(),
                    spec.states,
                    spec.transitions
                ),
                false,
            );
        }
        step_rates.push(report.transitions as f64 / secs);
        state_rates.push(report.states as f64 / secs);
        first.get_or_insert(report);
        if searches == prefix {
            out.set("peak_rss_mb", rss_mb().0, "VmHWM after the fixed prefix");
        }
    }
    let report = first.expect("at least one search");
    out.attempted = searches;
    out.failed = failed;
    out.check(
        format!(
            "{searches} searches: {} states, {} transitions, E verified in each",
            spec.states, spec.transitions
        ),
        failed == 0,
    );

    out.set(
        "steps_per_s",
        stats::p90(&step_rates),
        format!(
            "transitions per second, p90 of {searches} searches (median {:.0}, IQR {:.1}% of it)",
            stats::median(&step_rates),
            100.0 * stats::spread(&step_rates)
        ),
    );
    let states_per_s = stats::p90(&state_rates);
    out.set(
        "states_per_s",
        states_per_s,
        format!("p90 of {searches} searches"),
    );
    out.set("explore.states_per_s", states_per_s, "");
    out.set(
        "failed_share",
        ratio(failed as f64, searches as f64),
        "searches whose counts or verdict were wrong",
    );

    out.count("searches", prefix);
    out.count("states", report.states as u64);
    out.count("transitions", report.transitions);
    out.count("deadlocks", report.deadlocks as u64);
    out.count("layers", report.layers as u64);
    out.count("peak_frontier", report.peak_frontier as u64);
    out.count("dedup_hits", report.dedup_hits);
    out.count("bytes_interned", report.bytes_interned as u64);

    if let Some(spans) = &spans {
        // The search time that goes with the reported rate.
        let search_ns = report.transitions as f64 / stats::p90(&step_rates) * 1e9;
        let safety_ns = spans.borrow().layer("explore.safety").mean_ns();
        out.set(
            "explore.search_s",
            search_ns / 1e9,
            "traced search at the p90 rate",
        );
        out.set("explore.safety_ns", safety_ns, "e_holds per new state");
        out.set("explore.bytes_per_state", report.bytes_per_state(), "");
        out.set("explore.dedup_rate", report.dedup_rate(), "");
        out.set(
            "explore.transitions_per_state",
            report.transitions as f64 / report.states as f64,
            "",
        );
        out.set("explore.peak_frontier", report.peak_frontier as f64, "");
        out.set("explore.layers", report.layers as f64, "");
        out.set(
            "symmetry.group_order",
            ctx.group.order() as f64,
            "group the search dedups under",
        );
        out.check(
            format!(
                "safety checked once per state ({} calls over {searches} searches)",
                safety_calls.get()
            ),
            safety_calls.get() == searches * report.states as u64,
        );

        let (codec, alg) = primitive_costs(&ctx, opts);
        out.set(
            "codec.encode_ns",
            codec.encode.per_call_ns(),
            "Codec::encode_into",
        );
        out.set(
            "codec.decode_ns",
            codec.decode.per_call_ns(),
            "Codec::decode_into",
        );
        out.set(
            "fingerprint.words_ns",
            codec.fingerprint.per_call_ns(),
            "fingerprint_words",
        );
        let canon_ns = if ctx.group.is_trivial() {
            0.0
        } else {
            codec.canonicalize.per_call_ns()
        };
        out.set(
            "symmetry.canonicalize_ns",
            canon_ns,
            "canonicalize_into under the search's group",
        );
        out.set(
            "mca.guard_ns",
            alg.guard.per_call_ns(),
            "Algorithm::enabled",
        );
        out.set(
            "mca.execute_ns",
            alg.execute.per_call_ns(),
            "Algorithm::execute",
        );
        // Per state: one decode to expand it, every guard, and one decode
        // plus the safety check when it is new. Per transition: the
        // command, the fingerprint and (under symmetry) canonicalisation.
        let states = report.states as f64;
        let transitions = report.transitions as f64;
        let guards = guards_per_state(&ctx.alg, &ctx.topo) as f64;
        let attributed = states
            * (2.0 * codec.decode.per_call_ns() + guards * alg.guard.per_call_ns() + safety_ns)
            + transitions
                * (alg.execute.per_call_ns() + codec.fingerprint.per_call_ns() + canon_ns);
        out.set(
            "explore.unattributed_share",
            1.0 - attributed / search_ns,
            "search time not explained by per-call costs x counts",
        );
    }
    out
}

/// Per-call costs on 1,000 states sampled from a seeded engine walk on
/// the same ring.
fn primitive_costs(ctx: &Context, opts: &Opts) -> (CodecCost, AlgorithmCost) {
    let samples = if opts.quick { 200 } else { 1_000 };
    let mut engine = Engine::builder(MaliciousCrashDiners::paper(), ctx.topo.clone())
        .workload(AlwaysHungry)
        .scheduler(RandomScheduler::new(opts.seed))
        .seed(opts.seed)
        .build();
    let states: Vec<SystemState<MaliciousCrashDiners>> = (0..samples)
        .map(|_| {
            engine.run(4);
            engine.state().clone()
        })
        .collect();
    let codec = Codec::new(&ctx.alg, &ctx.topo);
    let mut codec_cost = CodecCost::default();
    codec_cost.sample(&codec, &ctx.group, &states);
    let procs: Vec<ProcessId> = ctx.topo.processes().collect();
    let mut alg_cost = AlgorithmCost::default();
    for s in &states {
        alg_cost.sample(&ctx.alg, &ctx.topo, s, &procs, |_| true);
    }
    (codec_cost, alg_cost)
}
