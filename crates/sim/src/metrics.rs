//! Service metrics for diners runs.
//!
//! Tracks, per process: completed meals (transitions into `Eating`),
//! response times (hungry → eating latency), and time spent in each phase;
//! plus the system-wide exclusion-violation record (steps at which some
//! pair of live neighbors ate simultaneously — the quantity Theorem 3 says
//! must not increase once the invariant holds).

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
    eat_log: Vec<(u64, ProcessId)>,
    hungry_since: Vec<Option<u64>>,
    response_count: Vec<u64>,
    response_sum: Vec<u64>,
    response_max: Vec<u64>,
    /// Steps at which at least one live neighbor pair was simultaneously
    /// eating (bounded log).
    violation_steps: Vec<u64>,
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
            eat_log: Vec::new(),
            hungry_since: vec![None; n],
            response_count: vec![0; n],
            response_sum: vec![0; n],
            response_max: vec![0; n],
            violation_steps: Vec::new(),
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
                self.eat_log.push((step, pid));
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
        if self.violation_steps.len() < 4096 {
            self.violation_steps.push(step);
        }
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

    /// The `(step, pid)` log of every meal, in order.
    pub fn eat_log(&self) -> &[(u64, ProcessId)] {
        &self.eat_log
    }

    /// Meals completed by `pid` at steps in `[from, to)`.
    pub fn eats_in_window(&self, pid: ProcessId, from: u64, to: u64) -> u64 {
        self.eat_log
            .iter()
            .filter(|(s, p)| *p == pid && *s >= from && *s < to)
            .count() as u64
    }

    /// Step of the last meal completed by `pid`, if any.
    pub fn last_eat_of(&self, pid: ProcessId) -> Option<u64> {
        self.eat_log
            .iter()
            .rev()
            .find(|(_, p)| *p == pid)
            .map(|(s, _)| *s)
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

    /// The most recent step with an exclusion violation, if any.
    pub fn last_violation_step(&self) -> Option<u64> {
        self.last_violation_step
    }

    /// Largest number of simultaneously-violating pairs seen in one step.
    pub fn max_violation_pairs(&self) -> usize {
        self.max_violation_pairs
    }

    /// The recorded violation steps (bounded log, oldest first).
    pub fn violation_steps(&self) -> &[u64] {
        &self.violation_steps
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
    fn eats_in_window_filters() {
        let mut m = DinerMetrics::new(1);
        let p = ProcessId(0);
        for step in [5u64, 15, 25] {
            m.on_phase_change(p, Phase::Hungry, Phase::Eating, step);
            m.on_phase_change(p, Phase::Eating, Phase::Thinking, step + 1);
        }
        assert_eq!(m.eats_in_window(p, 0, 10), 1);
        assert_eq!(m.eats_in_window(p, 10, 30), 2);
        assert_eq!(m.eats_in_window(p, 26, 100), 0);
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
        assert_eq!(m.violation_steps(), &[1, 2]);
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
