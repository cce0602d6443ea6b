//! Execution traces: the engine's own event records, newest last.
//!
//! Traces serve three purposes: debugging (render the last `k` events),
//! scenario assertions (the Figure 2 reproduction checks the exact event
//! sequence), and post-hoc analysis (counting how often each action kind
//! fired during an experiment).

use std::collections::{vec_deque, VecDeque};

use crate::algorithm::DinerAlgorithm;
use crate::graph::ProcessId;
use crate::observe::{EventKind, StepEvent, StepObserver};
use crate::predicate::Snapshot;

/// A bounded in-memory log of [`StepEvent`]s.
///
/// Attach one to an engine with `EngineBuilder::observe` to record every
/// fault and fired move. It keeps the newest `cap` events (default
/// 2²⁰; see [`Trace::with_capacity`]): each event past the capacity
/// evicts the oldest, which is counted in [`Trace::dropped`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    events: VecDeque<StepEvent>,
    cap: usize,
    dropped: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Self::with_capacity(1 << 20)
    }
}

impl Trace {
    /// An empty trace with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty trace keeping the newest `cap` events (at least one).
    pub fn with_capacity(cap: usize) -> Self {
        Trace {
            events: VecDeque::new(),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    fn record(&mut self, ev: StepEvent) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// The stored events, oldest first.
    pub fn events(&self) -> vec_deque::Iter<'_, StepEvent> {
        self.events.iter()
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are stored.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted to keep the newest `cap`.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The program actions taken by `pid`, in order, as
    /// `(step, action name)`.
    pub fn actions_of(&self, pid: ProcessId) -> Vec<(u64, &'static str)> {
        self.events
            .iter()
            .filter(|e| e.pid == pid)
            .filter_map(|e| match e.kind {
                EventKind::Action { name, .. } => Some((e.step, name)),
                _ => None,
            })
            .collect()
    }

    /// How many times each named action fired, over all processes.
    pub fn action_counts(&self) -> Vec<(&'static str, u64)> {
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        for e in &self.events {
            if let EventKind::Action { name, .. } = e.kind {
                match counts.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, c)) => *c += 1,
                    None => counts.push((name, 1)),
                }
            }
        }
        counts
    }

    /// Render the last `k` stored events, one per line.
    pub fn render_tail(&self, k: usize) -> String {
        let start = self.events.len().saturating_sub(k);
        let mut out = String::new();
        for e in self.events.range(start..) {
            out.push_str(&line(e));
            out.push('\n');
        }
        out
    }
}

/// One rendered trace line: `[  step] pid what`.
fn line(e: &StepEvent) -> String {
    let StepEvent { step, pid, .. } = *e;
    match e.kind {
        EventKind::Action { name, slot, .. } => match slot {
            Some(s) => format!("[{step:>6}] {pid} {name}(slot {s})"),
            None => format!("[{step:>6}] {pid} {name}"),
        },
        EventKind::MaliciousStep => format!("[{step:>6}] {pid} <malicious step>"),
        EventKind::Fault(k) => format!("[{step:>6}] {pid} !fault {k}"),
    }
}

impl<A: DinerAlgorithm> StepObserver<A> for Trace {
    fn on_event(&mut self, ev: &StepEvent, _view: &Snapshot<'_, A>) {
        self.record(*ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Phase;
    use crate::fault::FaultKind;

    fn event(step: u64, pid: usize, kind: EventKind) -> StepEvent {
        StepEvent {
            step,
            pid: ProcessId(pid),
            kind,
            needs: false,
            phase_before: Phase::Thinking,
            phase_after: Phase::Thinking,
            rejected_writes: 0,
            revived: false,
            waited: None,
        }
    }

    fn action(step: u64, pid: usize, name: &'static str) -> StepEvent {
        let kind = EventKind::Action {
            kind: 0,
            slot: None,
            name,
        };
        event(step, pid, kind)
    }

    #[test]
    fn trace_records_in_order() {
        let mut t = Trace::new();
        t.record(action(0, 0, "join"));
        t.record(action(1, 1, "enter"));
        assert_eq!(t.len(), 2);
        let steps: Vec<u64> = t.events().map(|e| e.step).collect();
        assert_eq!(steps, [0, 1]);
    }

    #[test]
    fn capacity_keeps_the_newest_events() {
        let mut t = Trace::with_capacity(4);
        for i in 1..=10 {
            t.record(action(i, 0, "join"));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        let steps: Vec<u64> = t.events().map(|e| e.step).collect();
        assert_eq!(steps, [7, 8, 9, 10]);
        assert_eq!(t.render_tail(2), "[     9] p0 join\n[    10] p0 join\n");
    }

    #[test]
    fn actions_of_filters_by_pid_and_kind() {
        let mut t = Trace::new();
        t.record(action(0, 0, "join"));
        t.record(event(1, 0, EventKind::MaliciousStep));
        t.record(action(2, 1, "enter"));
        t.record(action(3, 0, "enter"));
        assert_eq!(t.actions_of(ProcessId(0)), vec![(0, "join"), (3, "enter")]);
    }

    #[test]
    fn action_counts_aggregate() {
        let mut t = Trace::new();
        t.record(action(0, 0, "join"));
        t.record(action(1, 1, "join"));
        t.record(action(2, 0, "exit"));
        let counts = t.action_counts();
        assert!(counts.contains(&("join", 2)));
        assert!(counts.contains(&("exit", 1)));
    }

    #[test]
    fn render_tail_formats_lines() {
        let mut t = Trace::new();
        t.record(action(7, 3, "leave"));
        let s = t.render_tail(10);
        assert!(s.contains("p3 leave"), "got: {s}");
    }

    #[test]
    fn line_variants() {
        let crash = event(1, 2, EventKind::Fault(FaultKind::Crash));
        assert!(line(&crash).contains("!fault crash"));
        let m = event(1, 2, EventKind::MaliciousStep);
        assert!(line(&m).contains("<malicious step>"));
        let kind = EventKind::Action {
            kind: 4,
            slot: Some(1),
            name: "fixdepth",
        };
        assert!(line(&event(1, 2, kind)).contains("fixdepth(slot 1)"));
    }
}
