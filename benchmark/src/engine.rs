//! The shared-memory engine workloads.
//!
//! * `engine-ring8k`: the paper's algorithm on a ring of 8192 processes,
//!   always hungry, no faults. Few processes change per step, so the cost
//!   outside the guards (assembling the enabled set, the scheduler's
//!   scan) and the topology's set-up dominate.
//! * `engine-churn64`: an 8×8 grid with demand redrawn every step and a
//!   fault cycle every 4,000 steps (malicious crash, arbitrary restart,
//!   local corruption). Guard re-evaluation, fault handling and the
//!   write check dominate.
//!
//! Timing covers `Engine::step` and the benchmark's grant bookkeeping
//! after each step; the safety checks between segments are not timed.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use diners_core::predicates::ExclusionAmongLive;
use diners_core::MaliciousCrashDiners;
use diners_sim::fault::{FaultEvent, FaultKind, FaultPlan, Health, Resurrection};
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::rng::hash2;
use diners_sim::scheduler::{EnabledMove, RandomScheduler, Scheduler};
use diners_sim::workload::{AlwaysHungry, BernoulliWorkload, Workload};
use diners_sim::{state_digest, Engine, StepOutcome};

use crate::harness::{ratio, repeated_setup, Budget, Opts};
use crate::probes::AlgorithmCost;
use crate::report::{rss_mb, Outcome};
use crate::service::{self, GrantTracker};
use crate::spans::SharedSpans;
use crate::stats;

/// Steps between the starts of two fault cycles of `engine-churn64`.
const CYCLE: u64 = 5_000;
/// Arbitrary steps a maliciously crashing process takes before halting.
const MALICIOUS_STEPS: u32 = 30;
/// Offsets of the restart and of the local corruption within a cycle.
const RESTART_AT: u64 = 3_000;
const CORRUPT_AT: u64 = 3_500;
/// Raw spans are kept for this many steps of a traced run.
const RAW_STEPS: u64 = 10_000;

static FIRST_GRAPH_RSS_MB: OnceLock<f64> = OnceLock::new();

/// One engine workload.
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    topo: fn() -> Topology,
    n: usize,
    churn: bool,
    seg_steps: u64,
    check_every: u64,
    prefix_segments: u64,
    quick_segments: u64,
    max_segments: u64,
    slo: u64,
}

fn ring8k() -> Topology {
    Topology::ring(8192)
}

fn grid64() -> Topology {
    Topology::grid(8, 8)
}

/// `engine-ring8k`.
pub const RING8K: Spec = Spec {
    name: "engine-ring8k",
    topo: ring8k,
    n: 8192,
    churn: false,
    seg_steps: 2_000,
    check_every: 10_000,
    prefix_segments: 100,
    quick_segments: 10,
    max_segments: 100_000,
    slo: 131_072,
};

/// `engine-churn64`.
pub const CHURN64: Spec = Spec {
    name: "engine-churn64",
    topo: grid64,
    n: 64,
    churn: true,
    seg_steps: CYCLE,
    check_every: CYCLE,
    prefix_segments: 120,
    quick_segments: 24,
    max_segments: 2_400,
    slo: 8_192,
};

impl Spec {
    fn prefix(&self, opts: &Opts) -> u64 {
        if opts.quick {
            self.quick_segments
        } else {
            self.prefix_segments
        }
    }

    /// The service limit: in quick runs a quarter of the prefix, so that
    /// some episodes are judged at all.
    fn slo(&self, opts: &Opts) -> u64 {
        if opts.quick {
            self.slo.min(self.prefix(opts) * self.seg_steps / 4)
        } else {
            self.slo
        }
    }

    fn demand(&self, seed: u64) -> Option<BernoulliWorkload> {
        self.churn.then(|| BernoulliWorkload::new(seed, 1, 2))
    }
}

/// The seeded fault cycles of `engine-churn64`, as a plan for the engine
/// and as the list of strikes the grant tracker resets on.
struct Plan {
    faults: FaultPlan,
    strikes: Vec<Strike>,
    digest: u64,
}

/// A fault event as the benchmark tracks it.
struct Strike {
    at: u64,
    pid: usize,
    restart: bool,
}

fn fault_plan(spec: &Spec, n: usize, seed: u64) -> Plan {
    let cycles = if spec.churn {
        spec.max_segments * spec.seg_steps / CYCLE
    } else {
        0
    };
    let mut events = Vec::with_capacity(3 * cycles as usize);
    let mut strikes = Vec::with_capacity(3 * cycles as usize);
    let mut digest = seed;
    let n64 = n as u64;
    for c in 1..cycles {
        let t0 = c * CYCLE;
        let victim = (hash2(seed, 3 * c) % n64) as usize;
        let other = (victim + 1 + (hash2(seed, 3 * c + 1) % (n64 - 1)) as usize) % n;
        let restart_seed = hash2(seed, 3 * c + 2);
        for (at, pid, kind) in [
            (
                t0,
                victim,
                FaultKind::MaliciousCrash {
                    steps: MALICIOUS_STEPS,
                },
            ),
            (
                t0 + RESTART_AT,
                victim,
                FaultKind::Restart {
                    state: Resurrection::Arbitrary { seed: restart_seed },
                },
            ),
            (t0 + CORRUPT_AT, other, FaultKind::TransientLocal),
        ] {
            events.push(FaultEvent {
                at_step: at,
                target: ProcessId(pid),
                kind,
            });
            strikes.push(Strike {
                at,
                pid,
                restart: matches!(kind, FaultKind::Restart { .. }),
            });
        }
        digest = hash2(digest ^ victim as u64, other as u64 ^ restart_seed);
    }
    Plan {
        faults: FaultPlan::from_events(events),
        strikes,
        digest,
    }
}

/// Counters the traced wrappers share with the benchmark.
#[derive(Default)]
struct Tally {
    picks: Cell<u64>,
    enabled: Cell<u64>,
    needs_calls: Cell<u64>,
    needs_flips: Cell<u64>,
}

/// A scheduler that times each `pick` of the one it wraps.
struct TracedScheduler {
    inner: RandomScheduler,
    spans: SharedSpans,
    layer: usize,
    tally: Rc<Tally>,
}

impl Scheduler for TracedScheduler {
    fn pick(&mut self, step: u64, enabled: &[EnabledMove]) -> usize {
        self.spans.borrow_mut().enter(self.layer);
        let i = self.inner.pick(step, enabled);
        self.spans.borrow_mut().exit();
        self.tally.picks.set(self.tally.picks.get() + 1);
        self.tally
            .enabled
            .set(self.tally.enabled.get() + enabled.len() as u64);
        i
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A workload that times each `needs` of the one it wraps and counts
/// answers that differ from the previous one for the same process.
struct TracedWorkload<W> {
    inner: W,
    spans: SharedSpans,
    layer: usize,
    tally: Rc<Tally>,
    last: RefCell<Vec<Option<bool>>>,
}

impl<W> TracedWorkload<W> {
    fn new(inner: W, spans: &SharedSpans, layer: usize, tally: &Rc<Tally>, n: usize) -> Self {
        TracedWorkload {
            inner,
            spans: spans.clone(),
            layer,
            tally: tally.clone(),
            last: RefCell::new(vec![None; n]),
        }
    }
}

impl<W: Workload> Workload for TracedWorkload<W> {
    fn needs(&self, pid: ProcessId, step: u64) -> bool {
        self.spans.borrow_mut().enter(self.layer);
        let v = self.inner.needs(pid, step);
        self.spans.borrow_mut().exit();
        self.tally.needs_calls.set(self.tally.needs_calls.get() + 1);
        let mut last = self.last.borrow_mut();
        if last[pid.index()].is_some_and(|l| l != v) {
            self.tally.needs_flips.set(self.tally.needs_flips.get() + 1);
        }
        last[pid.index()] = Some(v);
        v
    }

    fn note_eat(&mut self, pid: ProcessId, step: u64) {
        self.inner.note_eat(pid, step);
    }

    fn step_dependent(&self) -> bool {
        self.inner.step_dependent()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The engine plus what the benchmark observes of it.
struct Observed<'p> {
    engine: Engine<MaliciousCrashDiners>,
    tracker: GrantTracker,
    plan: &'p Plan,
    next_strike: usize,
    restarts_missed: u64,
    quiescent: u64,
    spans: Option<(SharedSpans, usize)>,
}

impl Observed<'_> {
    /// One step, its grant observed unless the moving process is `skip`.
    #[inline]
    fn step(&mut self, skip: Option<usize>) {
        if let Some((spans, layer)) = &self.spans {
            spans.borrow_mut().enter(*layer);
        }
        let out = self.engine.step();
        if let Some((spans, _)) = &self.spans {
            spans.borrow_mut().exit();
            if self.engine.step_count() == RAW_STEPS {
                spans.borrow_mut().stop_raw();
            }
        }
        match out {
            StepOutcome::Executed(mv) => {
                let p = mv.pid.index();
                if Some(p) != skip && self.tracker.tracked(p) {
                    let phase = self.engine.phase_of(mv.pid);
                    self.tracker.observe(p, phase, self.engine.step_count() - 1);
                }
            }
            StepOutcome::Quiescent => self.quiescent += 1,
        }
    }

    /// Run until the engine has taken `target` steps. A step at which a
    /// fault strikes is taken alone, and the tracker restarts the struck
    /// process from what the fault left.
    fn run_to(&mut self, target: u64) {
        while self.engine.step_count() < target {
            let fault_at = self
                .plan
                .strikes
                .get(self.next_strike)
                .map_or(u64::MAX, |s| s.at);
            let stop = target.min(fault_at);
            while self.engine.step_count() < stop {
                self.step(None);
            }
            if self.engine.step_count() == fault_at && fault_at < target {
                self.fault_step(fault_at);
            }
        }
    }

    fn fault_step(&mut self, at: u64) {
        let first = self.next_strike;
        while self
            .plan
            .strikes
            .get(self.next_strike)
            .is_some_and(|s| s.at == at)
        {
            self.next_strike += 1;
        }
        let struck = &self.plan.strikes[first..self.next_strike];
        // A restart is a no-op on a process that is still byzantine.
        self.restarts_missed += struck
            .iter()
            .filter(|s| s.restart && !self.engine.is_dead(ProcessId(s.pid)))
            .count() as u64;
        // At most one process is struck per step in these plans.
        self.step(struck.first().map(|s| s.pid));
        for s in struck {
            let now = match self.engine.health()[s.pid] {
                Health::Live => Some(self.engine.phase_of(ProcessId(s.pid))),
                _ => None,
            };
            self.tracker.reset(s.pid, now, at);
        }
    }
}

struct Built<'p> {
    obs: Observed<'p>,
    graph_s: f64,
    graph_rss_mb: f64,
    build_s: f64,
    tally: Option<Rc<Tally>>,
}

/// Topology, engine and the first step, which enumerates every process.
fn build<'p>(spec: &Spec, seed: u64, plan: &'p Plan, spans: Option<&SharedSpans>) -> Built<'p> {
    let t = Instant::now();
    let rss0 = rss_mb().1;
    let topo = (spec.topo)();
    let graph_s = t.elapsed().as_secs_f64();
    // Only the first topology of a process shows as resident growth: the
    // allocator keeps freed rows for the next one.
    let growth = rss_mb().1 - rss0;
    let graph_rss_mb = *FIRST_GRAPH_RSS_MB.get_or_init(|| growth);
    let n = topo.len();
    let t = Instant::now();
    let builder = Engine::builder(MaliciousCrashDiners::paper(), topo)
        .seed(seed)
        .faults(plan.faults.clone());
    let sched = RandomScheduler::new(seed);
    let (builder, tally, step_layer) = match spans {
        None => {
            let b = builder.scheduler(sched);
            let b = match spec.demand(seed) {
                Some(w) => b.workload(w),
                None => b.workload(AlwaysHungry),
            };
            (b, None, None)
        }
        Some(spans) => {
            let tally = Rc::new(Tally::default());
            let (pick, needs, step) = {
                let mut s = spans.borrow_mut();
                (
                    s.layer_id("scheduler.pick"),
                    s.layer_id("workload.needs"),
                    s.layer_id("engine.step"),
                )
            };
            let b = builder.scheduler(TracedScheduler {
                inner: sched,
                spans: spans.clone(),
                layer: pick,
                tally: tally.clone(),
            });
            let b = match spec.demand(seed) {
                Some(w) => b.workload(TracedWorkload::new(w, spans, needs, &tally, n)),
                None => b.workload(TracedWorkload::new(AlwaysHungry, spans, needs, &tally, n)),
            };
            (b, Some(tally), Some((spans.clone(), step)))
        }
    };
    let engine = builder.build();
    let build_s = t.elapsed().as_secs_f64();
    let tracker = GrantTracker::new(
        (0..n).map(|p| engine.phase_of(ProcessId(p))),
        engine.step_count(),
    );
    let mut obs = Observed {
        engine,
        tracker,
        plan,
        next_strike: 0,
        restarts_missed: 0,
        quiescent: 0,
        spans: step_layer,
    };
    obs.run_to(1);
    Built {
        obs,
        graph_s,
        graph_rss_mb,
        build_s,
        tally,
    }
}

/// Run one engine workload; with `spans`, the traced variant.
pub fn run(spec: &Spec, opts: &Opts, spans: Option<SharedSpans>) -> Outcome {
    let mut out = Outcome::default();
    let prefix = spec.prefix(opts);
    let slo = spec.slo(opts);
    let plan = fault_plan(spec, spec.n, opts.seed);

    let (built, setup_s, reps) = match &spans {
        None => repeated_setup(opts.quick, || build(spec, opts.seed, &plan, None)),
        Some(sp) => {
            let t = Instant::now();
            let b = build(spec, opts.seed, &plan, Some(sp));
            (b, t.elapsed().as_secs_f64(), 1)
        }
    };
    let Built {
        mut obs,
        graph_s,
        graph_rss_mb,
        build_s,
        tally,
    } = built;
    out.set(
        "setup_s",
        setup_s,
        format!("fastest decile of {reps}: topology, engine, first step"),
    );

    let mut budget = Budget::new(prefix, spec.max_segments, opts);
    let mut rates = Vec::new();
    let mut busy_total = Duration::ZERO;
    let mut checks_failed = 0u64;
    let mut checks_run = 0u64;
    let mut at_prefix = None;
    let mut segments = 0;
    while budget.next_segment(segments, true) {
        let seg_end = (segments + 1) * spec.seg_steps;
        let start_step = obs.engine.step_count();
        let t = Instant::now();
        obs.run_to(seg_end);
        let busy = t.elapsed();
        if seg_end.is_multiple_of(spec.check_every) {
            checks_run += 1;
            checks_failed += u64::from(!obs.engine.check(&ExclusionAmongLive));
        }
        busy_total += busy;
        rates.push((seg_end - start_step) as f64 / busy.as_secs_f64());
        segments += 1;
        if segments == prefix {
            at_prefix = Some((
                obs.tracker.summary(seg_end, slo),
                obs.engine.metrics().total_eats(),
                obs.quiescent,
                state_digest(obs.engine.state(), obs.engine.health()),
                obs.restarts_missed,
            ));
            out.set("peak_rss_mb", rss_mb().0, "VmHWM after the fixed prefix");
        }
    }
    let (summary, meals, quiescent, digest, restarts_missed) = at_prefix.expect("prefix ran");
    let prefix_steps = prefix * spec.seg_steps;
    let steps_done = obs.engine.step_count();

    out.set(
        "steps_per_s",
        stats::p90(&rates),
        format!(
            "p90 of {} segments of {} steps (median {:.0}, IQR {:.1}% of it)",
            rates.len(),
            spec.seg_steps,
            stats::median(&rates),
            100.0 * stats::spread(&rates)
        ),
    );
    service::record(
        &mut out,
        &summary,
        slo,
        obs.engine.metrics().total_eats(),
        steps_done,
        busy_total.as_secs_f64(),
    );
    out.count("steps", prefix_steps);
    out.count("meals", meals);
    out.count("quiescent_steps", quiescent);
    out.count("state_digest", digest);
    out.count("fault_plan_digest", plan.digest);

    out.check(
        format!("ExclusionAmongLive at {checks_run} check points ({checks_failed} failed)"),
        checks_failed == 0,
    );
    out.check(
        format!(
            "write_violations() == 0 (saw {})",
            obs.engine.write_violations()
        ),
        obs.engine.write_violations() == 0,
    );
    if spec.churn {
        out.check(
            format!("every restart found its process halted ({restarts_missed} did not)"),
            restarts_missed == 0,
        );
    }

    if let Some(spans) = spans {
        let tally = tally.expect("traced build");
        let s = spans.borrow();
        let step = s.layer("engine.step");
        let pick = s.layer("scheduler.pick");
        let needs = s.layer("workload.needs");
        out.set("graph.build_s", graph_s, "traced set-up");
        out.set(
            "graph.rss_mb",
            graph_rss_mb,
            "resident growth while building the first topology",
        );
        out.set("engine.build_s", build_s, "traced set-up");
        out.set(
            "engine.step_ns",
            step.mean_ns(),
            format!("{} steps", step.count),
        );
        out.set(
            "engine.self_ns",
            step.mean_self_ns(),
            "step minus scheduler and workload spans inside it",
        );
        out.set(
            "scheduler.pick_ns",
            pick.mean_ns(),
            format!("{} picks", pick.count),
        );
        out.set(
            "scheduler.enabled_len",
            ratio(tally.enabled.get() as f64, tally.picks.get() as f64),
            "mean length of the slice handed to pick",
        );
        out.set("workload.needs_ns", needs.mean_ns(), "per call");
        out.set(
            "workload.needs_calls",
            tally.needs_calls.get() as f64,
            "whole traced run",
        );
        out.set(
            "workload.needs_flips",
            tally.needs_flips.get() as f64,
            "answers that differ from the previous one for the process",
        );
        out.set(
            "fault.events",
            plan.faults
                .events()
                .iter()
                .filter(|e| e.at_step < steps_done)
                .count() as f64,
            "fault events applied",
        );
        out.set(
            "engine.write_violations",
            obs.engine.write_violations() as f64,
            "",
        );
        out.set(
            "engine.quiescent_share",
            quiescent as f64 / prefix_steps as f64,
            "steps with nothing enabled, prefix",
        );
        drop(s);
        let cost = guard_costs(spec, opts, &mut obs);
        out.set(
            "mca.guard_ns",
            cost.guard.per_call_ns(),
            "Algorithm::enabled on sampled neighbourhoods",
        );
        out.set(
            "mca.execute_ns",
            cost.execute.per_call_ns(),
            "Algorithm::execute of enabled instances",
        );
    }
    out
}

/// Guard and command costs on 1,000 neighbourhoods sampled from a
/// continuation of the traced walk (untimed).
fn guard_costs(spec: &Spec, opts: &Opts, obs: &mut Observed<'_>) -> AlgorithmCost {
    let samples = if opts.quick { 200 } else { 1_000 };
    let demand = spec.demand(opts.seed);
    let mut cost = AlgorithmCost::default();
    obs.spans = None;
    for _ in 0..samples {
        let target = obs.engine.step_count() + 16;
        obs.run_to(target);
        let step = obs.engine.step_count();
        let topo = obs.engine.topology();
        let p = ProcessId((hash2(opts.seed, step) % topo.len() as u64) as usize);
        let procs: Vec<ProcessId> = topo
            .closed_neighborhood(p)
            .iter()
            .copied()
            .filter(|q| obs.engine.health()[q.index()].is_live())
            .collect();
        cost.sample(
            obs.engine.algorithm(),
            topo,
            obs.engine.state(),
            &procs,
            |q| demand.as_ref().is_none_or(|w| w.needs(q, step)),
        );
    }
    cost
}
