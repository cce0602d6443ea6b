//! Service metrics for diners runs.
//!
//! Tracks, per process: completed meals (transitions into `Eating`), the
//! step of the last one, and response times (hungry → eating latency);
//! plus the step of the run's first meal and the system-wide
//! exclusion-violation counters (how many steps some pair of live
//! neighbors ate simultaneously, and the last such step — the quantity
//! Theorem 3 says must not increase once the invariant holds). Every
//! field is a counter or a latest value: nothing grows with the run.

use crate::algorithm::Phase;
use crate::graph::ProcessId;

/// Per-run service metrics, maintained by the engine.
///
/// `PartialEq` compares every recorded quantity; the lockstep suites use
/// it to show that an engine checked by the from-scratch reference and
/// its bare twin record exactly the same metrics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DinerMetrics {
    n: usize,
    eats: Vec<u64>,
    /// Step of each process's last meal (`None` before its first).
    last_eat: Vec<Option<u64>>,
    first_eat: Option<u64>,
    hungry_since: Vec<Option<u64>>,
    response_count: Vec<u64>,
    response_sum: Vec<u64>,
    response_max: Vec<u64>,
    violation_step_count: u64,
    max_violation_pairs: usize,
    last_violation_step: Option<u64>,
}

impl DinerMetrics {
    /// Fresh metrics for an `n`-process system.
    pub fn new(n: usize) -> Self {
        DinerMetrics {
            n,
            eats: vec![0; n],
            last_eat: vec![None; n],
            first_eat: None,
            hungry_since: vec![None; n],
            response_count: vec![0; n],
            response_sum: vec![0; n],
            response_max: vec![0; n],
            violation_step_count: 0,
            max_violation_pairs: 0,
            last_violation_step: None,
        }
    }

    /// Record that `pid` changed phase at `step`.
    pub fn on_phase_change(&mut self, pid: ProcessId, from: Phase, to: Phase, step: u64) {
        if from == to {
            return;
        }
        match to {
            Phase::Hungry => self.hungry_since[pid.index()] = Some(step),
            Phase::Eating => {
                self.eats[pid.index()] += 1;
                self.last_eat[pid.index()] = Some(step);
                self.first_eat.get_or_insert(step);
                if let Some(h) = self.hungry_since[pid.index()].take() {
                    let rt = step.saturating_sub(h);
                    let i = pid.index();
                    self.response_count[i] += 1;
                    self.response_sum[i] += rt;
                    self.response_max[i] = self.response_max[i].max(rt);
                }
            }
            Phase::Thinking => {
                // Leaving hungry without eating (dynamic threshold) clears
                // the pending response-time measurement: the wait will be
                // re-counted from the next join.
                self.hungry_since[pid.index()] = None;
            }
        }
    }

    /// Record the number of simultaneously-eating live neighbor pairs
    /// observed at `step` (call once per step; `pairs == 0` is a no-op).
    pub fn on_exclusion_check(&mut self, step: u64, pairs: usize) {
        if pairs == 0 {
            return;
        }
        self.violation_step_count += 1;
        self.max_violation_pairs = self.max_violation_pairs.max(pairs);
        self.last_violation_step = Some(step);
    }

    /// Number of processes tracked.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the metrics track no processes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Meals completed by `pid`.
    pub fn eats_of(&self, pid: ProcessId) -> u64 {
        self.eats[pid.index()]
    }

    /// Total meals over all processes.
    pub fn total_eats(&self) -> u64 {
        self.eats.iter().sum()
    }

    /// Meals per process, indexed by process.
    pub fn eats(&self) -> &[u64] {
        &self.eats
    }

    /// Step of the last meal completed by `pid`, if any: `pid` ate at a
    /// step in `[since, now)` iff `last_eat_of(pid) >= Some(since)`.
    pub fn last_eat_of(&self, pid: ProcessId) -> Option<u64> {
        self.last_eat[pid.index()]
    }

    /// Step of the run's first meal, by any process.
    pub fn first_eat(&self) -> Option<u64> {
        self.first_eat
    }

    /// Maximum hungry→eating latency observed for `pid`.
    pub fn max_response(&self, pid: ProcessId) -> u64 {
        self.response_max[pid.index()]
    }

    /// Maximum hungry→eating latency over all processes.
    pub fn max_response_overall(&self) -> u64 {
        self.response_max.iter().copied().max().unwrap_or(0)
    }

    /// Mean hungry→eating latency over all completed waits, or `None` if
    /// no process ever completed a wait.
    pub fn mean_response(&self) -> Option<f64> {
        let count: u64 = self.response_count.iter().sum();
        if count == 0 {
            return None;
        }
        let sum: u64 = self.response_sum.iter().sum();
        Some(sum as f64 / count as f64)
    }

    /// Step at which `pid` became hungry, if it is currently waiting.
    pub fn hungry_since(&self, pid: ProcessId) -> Option<u64> {
        self.hungry_since[pid.index()]
    }

    /// Number of steps at which some pair of live neighbors was eating
    /// simultaneously.
    pub fn violation_step_count(&self) -> u64 {
        self.violation_step_count
    }

    /// The most recent step with an exclusion violation, if any: some
    /// step in `[since, now)` violated exclusion iff
    /// `last_violation_step() >= Some(since)`.
    pub fn last_violation_step(&self) -> Option<u64> {
        self.last_violation_step
    }

    /// Largest number of simultaneously-violating pairs seen in one step.
    pub fn max_violation_pairs(&self) -> usize {
        self.max_violation_pairs
    }

    /// Jain's fairness index over per-process meal counts
    /// (`1.0` = perfectly even service; `1/n` = one process hogs all).
    /// Returns `None` when nothing was eaten.
    pub fn fairness_index(&self) -> Option<f64> {
        let total: u64 = self.eats.iter().sum();
        if total == 0 {
            return None;
        }
        let n = self.n as f64;
        let sum = total as f64;
        let sumsq: f64 = self.eats.iter().map(|&e| (e as f64) * (e as f64)).sum();
        Some(sum * sum / (n * sumsq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eats_and_response_times() {
        let mut m = DinerMetrics::new(2);
        let p = ProcessId(0);
        m.on_phase_change(p, Phase::Thinking, Phase::Hungry, 10);
        assert_eq!(m.hungry_since(p), Some(10));
        m.on_phase_change(p, Phase::Hungry, Phase::Eating, 17);
        assert_eq!(m.eats_of(p), 1);
        assert_eq!(m.max_response(p), 7);
        assert_eq!(m.mean_response(), Some(7.0));
        assert_eq!(m.hungry_since(p), None);
        assert_eq!(m.last_eat_of(p), Some(17));
        assert_eq!(m.total_eats(), 1);
    }

    #[test]
    fn leave_clears_pending_wait() {
        let mut m = DinerMetrics::new(1);
        let p = ProcessId(0);
        m.on_phase_change(p, Phase::Thinking, Phase::Hungry, 5);
        m.on_phase_change(p, Phase::Hungry, Phase::Thinking, 9); // leave
        m.on_phase_change(p, Phase::Thinking, Phase::Hungry, 20);
        m.on_phase_change(p, Phase::Hungry, Phase::Eating, 23);
        assert_eq!(m.max_response(p), 3, "wait restarts after a leave");
    }

    #[test]
    fn same_phase_change_is_ignored() {
        let mut m = DinerMetrics::new(1);
        m.on_phase_change(ProcessId(0), Phase::Eating, Phase::Eating, 3);
        assert_eq!(m.total_eats(), 0);
    }

    #[test]
    fn last_and_first_eat_track_meals() {
        let mut m = DinerMetrics::new(2);
        let (p, q) = (ProcessId(0), ProcessId(1));
        assert_eq!((m.first_eat(), m.last_eat_of(p)), (None, None));
        for step in [5u64, 15, 25] {
            m.on_phase_change(p, Phase::Hungry, Phase::Eating, step);
            m.on_phase_change(p, Phase::Eating, Phase::Thinking, step + 1);
        }
        m.on_phase_change(q, Phase::Hungry, Phase::Eating, 30);
        assert_eq!(m.first_eat(), Some(5));
        assert_eq!(m.last_eat_of(p), Some(25));
        assert_eq!(m.last_eat_of(q), Some(30));
        // "Ate in [since, now)" reads the last meal.
        assert!(m.last_eat_of(p) >= Some(10));
        assert!(m.last_eat_of(p) >= Some(25));
        assert!(m.last_eat_of(p) < Some(26));
    }

    #[test]
    fn exclusion_violations_tracked() {
        let mut m = DinerMetrics::new(3);
        m.on_exclusion_check(0, 0);
        assert_eq!(m.violation_step_count(), 0);
        m.on_exclusion_check(1, 2);
        m.on_exclusion_check(2, 1);
        assert_eq!(m.violation_step_count(), 2);
        assert_eq!(m.max_violation_pairs(), 2);
        assert_eq!(m.last_violation_step(), Some(2));
        // The latest violation is seen however many came before it.
        for step in 3..5_003 {
            m.on_exclusion_check(step, 1);
        }
        m.on_exclusion_check(10_000, 1);
        assert_eq!(m.violation_step_count(), 5_003);
        assert_eq!(m.last_violation_step(), Some(10_000));
    }

    #[test]
    fn fairness_index() {
        let mut m = DinerMetrics::new(2);
        assert_eq!(m.fairness_index(), None);
        m.on_phase_change(ProcessId(0), Phase::Hungry, Phase::Eating, 1);
        m.on_phase_change(ProcessId(0), Phase::Eating, Phase::Hungry, 2);
        m.on_phase_change(ProcessId(1), Phase::Hungry, Phase::Eating, 3);
        let f = m.fairness_index().unwrap();
        assert!((f - 1.0).abs() < 1e-9, "even service => index 1, got {f}");
        m.on_phase_change(ProcessId(1), Phase::Eating, Phase::Hungry, 4);
        m.on_phase_change(ProcessId(1), Phase::Hungry, Phase::Eating, 5);
        m.on_phase_change(ProcessId(1), Phase::Eating, Phase::Hungry, 6);
        m.on_phase_change(ProcessId(1), Phase::Hungry, Phase::Eating, 7);
        let f = m.fairness_index().unwrap();
        assert!(f < 1.0, "uneven service lowers the index, got {f}");
    }

    #[test]
    fn response_without_recorded_hungry_is_not_counted() {
        let mut m = DinerMetrics::new(1);
        // Eating reached from an arbitrary (corrupted) state without a
        // recorded join: the meal counts, but no response time is recorded.
        m.on_phase_change(ProcessId(0), Phase::Thinking, Phase::Eating, 4);
        assert_eq!(m.eats_of(ProcessId(0)), 1);
        assert_eq!(m.max_response(ProcessId(0)), 0);
        assert_eq!(m.mean_response(), None);
    }
}
