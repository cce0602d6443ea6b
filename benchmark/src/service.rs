//! The lock-service view of a run: hunger episodes, how long each waited
//! for its grant, and which of them missed a fixed service-level limit.
//!
//! The tracker is fed phases the benchmark observes from outside the
//! program (`phase_of` after each step). A fault that rewrites or kills a
//! process ends its open episode without a verdict; the process is
//! tracked again from its phase once it is live.

use diners_sim::Phase;

use crate::harness::ratio;
use crate::report::Outcome;
use crate::stats;

#[derive(Clone, Copy)]
struct Episode {
    start: u64,
    wait: u64,
    granted: bool,
}

/// Hunger episodes of every process, in simulated steps.
#[derive(Clone)]
pub struct GrantTracker {
    phase: Vec<Option<Phase>>,
    since: Vec<Option<u64>>,
    closed: Vec<Episode>,
}

/// What a tracker saw up to some step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceSummary {
    /// Waits of granted episodes, ascending.
    pub waits: Vec<u64>,
    /// Episodes started more than the limit before the end.
    pub attempted: u64,
    /// Of those, the ones not granted within the limit.
    pub failed: u64,
}

impl GrantTracker {
    /// Track processes whose current phases are `phases`, at `step`; a
    /// process already hungry starts an episode there.
    pub fn new(phases: impl IntoIterator<Item = Phase>, step: u64) -> Self {
        let phase: Vec<Option<Phase>> = phases.into_iter().map(Some).collect();
        let since = phase
            .iter()
            .map(|p| (*p == Some(Phase::Hungry)).then_some(step))
            .collect();
        GrantTracker {
            phase,
            since,
            closed: Vec::new(),
        }
    }

    /// Process `p` was seen in phase `now` at `step`.
    #[inline]
    pub fn observe(&mut self, p: usize, now: Phase, step: u64) {
        let Some(before) = self.phase[p] else {
            return;
        };
        if before == now {
            return;
        }
        self.phase[p] = Some(now);
        match now {
            Phase::Hungry => self.since[p] = Some(step),
            Phase::Eating | Phase::Thinking => {
                if let Some(start) = self.since[p].take() {
                    self.closed.push(Episode {
                        start,
                        wait: step - start,
                        granted: now == Phase::Eating,
                    });
                }
            }
        }
    }

    /// Process `p` began a meal by `step`, seen in its meal counter rather
    /// than its phase: a node can finish one meal, want another and start
    /// it within one event, so its phase reads `Eating` throughout. Such a
    /// meal is an episode that waited no step.
    pub fn grant(&mut self, p: usize, step: u64) {
        if self.phase[p].is_none() {
            return;
        }
        let start = self.since[p].take().unwrap_or(step);
        self.closed.push(Episode {
            start,
            wait: step - start,
            granted: true,
        });
        self.phase[p] = Some(Phase::Eating);
    }

    /// A fault struck `p` at `step`: its open episode ends without a
    /// verdict. `now` is its phase if it is live, `None` while it is
    /// byzantine or dead (untracked until the next reset).
    pub fn reset(&mut self, p: usize, now: Option<Phase>, step: u64) {
        self.phase[p] = now;
        self.since[p] = (now == Some(Phase::Hungry)).then_some(step);
    }

    /// Whether `p` is tracked (live and not faulted).
    pub fn tracked(&self, p: usize) -> bool {
        self.phase[p].is_some()
    }

    /// Episodes up to `end` against a limit of `slo` steps. An episode
    /// counts as attempted when it started more than `slo` steps before
    /// `end`; it failed when it was not granted within `slo` steps
    /// (granted late, given up late, or still waiting).
    pub fn summary(&self, end: u64, slo: u64) -> ServiceSummary {
        let mut waits: Vec<u64> = self
            .closed
            .iter()
            .filter(|e| e.granted)
            .map(|e| e.wait)
            .collect();
        waits.sort_unstable();
        let mut attempted = 0;
        let mut failed = 0;
        for e in &self.closed {
            if e.start + slo < end {
                attempted += 1;
                failed += u64::from(e.wait > slo);
            }
        }
        for start in self.since.iter().flatten() {
            if start + slo < end {
                attempted += 1;
                failed += 1;
            }
        }
        ServiceSummary {
            waits,
            attempted,
            failed,
        }
    }
}

impl ServiceSummary {
    /// Median wait, if any episode was granted.
    pub fn p50(&self) -> Option<u64> {
        stats::percentile(&self.waits, 50.0).or_else(|| {
            // Fewer than 20 grants: the median itself is still defined.
            (!self.waits.is_empty()).then(|| self.waits[(self.waits.len() - 1) / 2])
        })
    }

    /// The highest percentile up to p99 with ten grants beyond it.
    pub fn tail(&self) -> Option<(f64, u64)> {
        stats::tail(&self.waits, 99.0)
    }
}

/// Record the lock-service numbers of a run: meals per timed second over
/// the whole run (`meals` in `steps`, `busy_s` timed), and grant latency
/// and missed limits over the prefix (`summary`, limit `slo`). The
/// episodes become the run's attempted and failed operations.
pub fn record(
    out: &mut Outcome,
    summary: &ServiceSummary,
    slo: u64,
    meals: u64,
    steps: u64,
    busy_s: f64,
) {
    let note = format!("{meals} meals in {steps} steps");
    out.set("meals_per_s", meals as f64 / busy_s, note.clone());
    out.set("service.meals_per_s", meals as f64 / busy_s, note);
    let grants = summary.waits.len();
    let p50 = summary.p50().unwrap_or(0);
    let (label, tail) = summary.tail().unwrap_or((0.0, 0));
    for (name, value, note) in [
        (
            "grant_latency_p50_steps",
            p50,
            format!("{grants} grants in the prefix"),
        ),
        ("service.grant_p50_steps", p50, format!("{grants} grants")),
        (
            "grant_latency_p99_steps",
            tail,
            format!("p{label} of {grants} grants (>= 10 beyond)"),
        ),
        ("service.grant_p99_steps", tail, format!("p{label}")),
    ] {
        out.set(name, value as f64, note);
    }
    out.set("service.grants", grants as f64, "grants in the prefix");
    let failed_share = ratio(summary.failed as f64, summary.attempted as f64);
    let note = format!(
        "{} of {} hunger episodes not granted within {slo} steps",
        summary.failed, summary.attempted
    );
    out.set("failed_share", failed_share, note.clone());
    out.set("service.failed_share", failed_share, note);
    out.attempted = summary.attempted;
    out.failed = summary.failed;
    out.count("grants", grants as u64);
    out.count("grant_p50_steps", p50);
    out.count("grant_tail_steps", tail);
    out.count("episodes_attempted", summary.attempted);
    out.count("episodes_failed", summary.failed);
    out.check(
        format!("episodes judged against the limit ({})", summary.attempted),
        summary.attempted > 0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waits_attempts_and_failures() {
        let mut t = GrantTracker::new([Phase::Thinking, Phase::Hungry], 0);
        t.observe(0, Phase::Hungry, 10);
        t.observe(0, Phase::Eating, 15); // wait 5
        t.observe(1, Phase::Eating, 40); // wait 40 > slo
        t.observe(0, Phase::Thinking, 16);
        t.observe(0, Phase::Hungry, 20);
        t.observe(0, Phase::Thinking, 22); // gave up after 2
        t.observe(0, Phase::Hungry, 30); // still waiting at the end
        let s = t.summary(100, 30);
        assert_eq!(s.waits, vec![5, 40]);
        assert_eq!(s.attempted, 4);
        assert_eq!(s.failed, 2, "late grant and open episode");
        // Only episodes that had more than `slo` steps count.
        assert_eq!(t.summary(50, 30).attempted, 2);
    }

    #[test]
    fn unseen_meals_close_episodes() {
        let mut t = GrantTracker::new([Phase::Hungry], 0);
        t.grant(0, 7);
        t.observe(0, Phase::Eating, 7);
        t.grant(0, 9); // ate again without being seen hungry
        t.observe(0, Phase::Hungry, 12);
        t.grant(0, 15);
        assert_eq!(t.summary(100, 50).waits, vec![0, 3, 7]);
    }

    #[test]
    fn faults_end_episodes_without_a_verdict() {
        let mut t = GrantTracker::new([Phase::Hungry], 0);
        t.reset(0, None, 5);
        assert!(!t.tracked(0));
        t.observe(0, Phase::Eating, 6); // byzantine: ignored
        t.reset(0, Some(Phase::Hungry), 50);
        t.observe(0, Phase::Eating, 53);
        let s = t.summary(1000, 100);
        assert_eq!(s.waits, vec![3]);
        assert_eq!((s.attempted, s.failed), (1, 0));
        assert_eq!(s.p50(), Some(3));
        assert_eq!(s.tail(), None);
    }
}
