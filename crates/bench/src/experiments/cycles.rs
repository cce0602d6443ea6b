//! T4 — Lemma 1: depth-based cycle breaking.
//!
//! Seed the priority graph with a directed cycle around a ring of `L`
//! live hungry processes. The paper's livelock scenario — "these
//! processes can forever alternate between hungry and thinking without
//! ever eating" — is *schedule-dependent*: under a friendly (random)
//! daemon some process usually eats by luck and its exit breaks the
//! cycle. We therefore drive the system with a **weakly fair adversarial
//! daemon that avoids `enter`** (legal: the cycle keeps interrupting the
//! enter guards, so fairness never forces one) and measure:
//!
//! * the paper's algorithm: `fixdepth` pumps some depth past the bound,
//!   the depth-`exit` fires, the cycle breaks, and meals follow even
//!   against the adversary;
//! * the no-cycle-breaking ablation: the cycle persists and nobody ever
//!   eats — the livelock the depth mechanism exists to prevent.
//!
//! A random-daemon column shows the contrast (luck usually suffices).

use diners_core::predicates::NoLiveCycles;
use diners_core::{MaliciousCrashDiners, Variant, EXIT, FIXDEPTH, JOIN, LEAVE};
use diners_sim::algorithm::{ActionId, Move, Phase, SystemState};
use diners_sim::engine::Engine;
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::predicate::StatePredicate;
use diners_sim::scheduler::{
    AdversarialScheduler, Adversary, EnabledMove, RandomScheduler, Scheduler,
};
use diners_sim::table::{fmt_opt, Table};

use super::Report;
use crate::common::{max_opt, median_opt, Scale};

/// Fairness bound for the adversarial daemon.
const FAIRNESS_BOUND: u64 = 64;

/// A ring of length `l` with every edge oriented the same way around —
/// a full priority cycle — and every process hungry.
pub fn cycle_state(
    alg: &MaliciousCrashDiners,
    topo: &Topology,
) -> SystemState<MaliciousCrashDiners> {
    let l = topo.len();
    let mut s = SystemState::initial(alg, topo);
    for i in 0..l {
        let a = ProcessId(i);
        let b = ProcessId((i + 1) % l);
        let e = topo.edge_between(a, b).expect("ring edge");
        *s.edge_mut(e) = diners_core::PriorityVar::ancestor_is(a);
        s.local_mut(a).phase = Phase::Hungry;
    }
    s
}

fn engine_for(
    alg: MaliciousCrashDiners,
    l: usize,
    sched: impl Scheduler + 'static,
    seed: u64,
) -> Engine<MaliciousCrashDiners> {
    let topo = Topology::ring(l);
    let state = cycle_state(&alg, &topo);
    Engine::builder(alg, topo)
        .initial_state(state)
        .scheduler(sched)
        .seed(seed)
        .build()
}

fn adversary(seed: u64) -> AdversarialScheduler {
    // A hostile but weakly fair daemon for the *paper* variant: flap
    // leave/join as long as possible; the fairness bound eventually
    // forces the continuously-enabled fixdepth/exit moves, so the depth
    // mechanism still breaks the cycle.
    AdversarialScheduler::new(
        Adversary::KindOrder(vec![LEAVE, JOIN, FIXDEPTH, EXIT]),
        FAIRNESS_BOUND,
        seed,
    )
}

/// The paper's livelock schedule, realized exactly: a "thinking wave"
/// rotates backwards around the priority cycle — fire `leave(t-1)` then
/// `join(t)` where `t` is the unique thinking process. Every `enter`
/// guard is invalidated within three steps and every `leave` within one
/// wave revolution (≤ 2L steps), so the daemon is weakly fair for the
/// no-cycle-breaking ablation (which has no other actions), yet nobody
/// ever eats: the cycle makes the processes "forever alternate between
/// hungry and thinking" (§2).
struct WaveScheduler {
    l: usize,
    /// Position of the thinking process, once the wave has started.
    t: Option<usize>,
    /// Next scripted move: false = leave(t-1), true = join(t).
    join_next: bool,
}

impl WaveScheduler {
    fn new(l: usize) -> Self {
        WaveScheduler {
            l,
            t: None,
            join_next: false,
        }
    }
}

impl Scheduler for WaveScheduler {
    fn pick(&mut self, _step: u64, enabled: &[EnabledMove]) -> usize {
        let want: Move = match self.t {
            None => Move {
                pid: ProcessId(0),
                action: ActionId::global(LEAVE),
            },
            Some(t) => {
                if self.join_next {
                    Move {
                        pid: ProcessId(t),
                        action: ActionId::global(JOIN),
                    }
                } else {
                    Move {
                        pid: ProcessId((t + self.l - 1) % self.l),
                        action: ActionId::global(LEAVE),
                    }
                }
            }
        };
        let i = enabled
            .iter()
            .position(|m| m.mv == want)
            .unwrap_or_else(|| {
                panic!(
                    "wave move {want:?} not enabled; enabled: {:?}",
                    enabled.iter().map(|m| m.mv).collect::<Vec<_>>()
                )
            });
        // Advance the wave program.
        match self.t {
            None => {
                self.t = Some(0);
                self.join_next = false;
            }
            Some(t) => {
                if self.join_next {
                    // join(t) fired: the wave's thinking slot moved back.
                    self.t = Some((t + self.l - 1) % self.l);
                    self.join_next = false;
                } else {
                    self.join_next = true;
                }
            }
        }
        i
    }

    fn name(&self) -> &str {
        "thinking-wave"
    }
}

/// Steps until `NC` holds for good, and the step of the first meal,
/// under the enter-avoiding adversary.
pub fn measure_adversarial(
    alg: MaliciousCrashDiners,
    l: usize,
    seed: u64,
    horizon: u64,
) -> (Option<u64>, Option<u64>) {
    let mut engine = engine_for(alg, l, adversary(seed), seed);
    let broken = engine.convergence_step(&NoLiveCycles, horizon);
    (broken, engine.metrics().first_eat())
}

/// Run the sweep and produce the result table.
pub fn run(scale: &Scale) -> Report {
    let mut t = Table::new(
        "T4: breaking a seeded priority cycle on ring(L), enter-avoiding adversary",
        [
            "L",
            "D",
            "broken med",
            "broken max",
            "first meal med",
            "random daemon broken",
            "no-depth broken",
            "no-depth meals",
        ],
    );
    for &l in scale.sizes {
        let l = l.max(4);
        let mut broken = Vec::new();
        let mut meals = Vec::new();
        for seed in 0..scale.seeds {
            let (b, m) = measure_adversarial(MaliciousCrashDiners::paper(), l, seed, scale.horizon);
            broken.push(b);
            meals.push(m);
        }

        // Contrast 1: random daemon, paper algorithm (luck usually breaks
        // the cycle through an ordinary meal-exit too).
        let mut random_broken = 0;
        for seed in 0..scale.seeds {
            let mut engine = engine_for(
                MaliciousCrashDiners::paper(),
                l,
                RandomScheduler::new(seed),
                seed,
            );
            if engine
                .convergence_step(&NoLiveCycles, scale.settle)
                .is_some()
            {
                random_broken += 1;
            }
        }

        // Contrast 2: no cycle breaking, thinking-wave daemon — the
        // paper's livelock, deterministic.
        let mut engine = engine_for(
            MaliciousCrashDiners::with_variant(Variant::without_cycle_breaking()),
            l,
            WaveScheduler::new(l),
            0,
        );
        engine.run(scale.settle);
        let ablation_broken = usize::from(NoLiveCycles.holds(&engine.snapshot()));
        let ablation_meals = engine.metrics().total_eats();

        let bmax = max_opt(&broken);
        t.row([
            l.to_string(),
            Topology::ring(l).diameter().to_string(),
            fmt_opt(median_opt(&mut broken)),
            fmt_opt(bmax),
            fmt_opt(median_opt(&mut meals)),
            format!("{random_broken}/{}", scale.seeds),
            format!("{ablation_broken}/1"),
            ablation_meals.to_string(),
        ]);
    }
    Report::of([t])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_breaks_cycles_even_against_the_adversary() {
        let (broken, meal) = measure_adversarial(MaliciousCrashDiners::paper(), 8, 1, 120_000);
        assert!(broken.is_some(), "cycle never broken");
        assert!(meal.is_some(), "nobody ever ate");
    }

    #[test]
    fn ablation_livelocks_under_the_thinking_wave() {
        let mut engine = engine_for(
            MaliciousCrashDiners::with_variant(Variant::without_cycle_breaking()),
            8,
            WaveScheduler::new(8),
            0,
        );
        engine.run(30_000);
        assert!(
            !NoLiveCycles.holds(&engine.snapshot()),
            "the wave daemon let the cycle break"
        );
        assert_eq!(
            engine.metrics().total_eats(),
            0,
            "the wave daemon let someone eat"
        );
    }

    #[test]
    fn wave_daemon_is_weakly_fair_for_the_ablation() {
        // Every enabled move is fired or invalidated within ~2L steps:
        // track the maximum age the engine ever reports to the daemon.
        struct MaxAge<S> {
            inner: S,
            max_age: std::rc::Rc<std::cell::Cell<u64>>,
        }
        impl<S: Scheduler> Scheduler for MaxAge<S> {
            fn pick(&mut self, step: u64, enabled: &[EnabledMove]) -> usize {
                let m = enabled.iter().map(|e| e.age).max().unwrap_or(0);
                self.max_age.set(self.max_age.get().max(m));
                self.inner.pick(step, enabled)
            }
            fn name(&self) -> &str {
                "max-age-probe"
            }
        }
        let max_age = std::rc::Rc::new(std::cell::Cell::new(0));
        let sched = MaxAge {
            inner: WaveScheduler::new(8),
            max_age: std::rc::Rc::clone(&max_age),
        };
        let mut engine = engine_for(
            MaliciousCrashDiners::with_variant(Variant::without_cycle_breaking()),
            8,
            sched,
            0,
        );
        engine.run(10_000);
        assert!(
            max_age.get() <= 2 * 8 + 2,
            "an action stayed enabled {} steps without firing",
            max_age.get()
        );
    }
}
