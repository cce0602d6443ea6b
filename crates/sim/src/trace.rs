//! Execution traces: a replayable record of what fired when.
//!
//! Traces serve three purposes: debugging (render the last `k` events),
//! scenario assertions (the Figure 2 reproduction checks the exact event
//! sequence), and post-hoc analysis (counting how often each action kind
//! fired during an experiment).

use std::fmt;

use crate::algorithm::DinerAlgorithm;
use crate::graph::ProcessId;
use crate::observe::{EventKind, StepEvent, StepObserver};
use crate::predicate::Snapshot;

/// One trace entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Engine step at which the event occurred.
    pub step: u64,
    /// The process involved.
    pub pid: ProcessId,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            EventKind::Action { name, slot, .. } => match slot {
                Some(s) => write!(f, "[{:>6}] {} {}(slot {})", self.step, self.pid, name, s),
                None => write!(f, "[{:>6}] {} {}", self.step, self.pid, name),
            },
            EventKind::MaliciousStep => {
                write!(f, "[{:>6}] {} <malicious step>", self.step, self.pid)
            }
            EventKind::Fault(k) => write!(f, "[{:>6}] {} !fault {}", self.step, self.pid, k),
        }
    }
}

/// A bounded in-memory event log.
///
/// Attach one to an engine with `EngineBuilder::observe` to record every
/// fault and fired move. When the capacity is reached, further events are
/// counted but not stored.
#[derive(Clone, Debug)]
pub struct Trace {
    events: Vec<Event>,
    capacity: usize,
    dropped: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            events: Vec::new(),
            capacity: 1 << 20,
            dropped: 0,
        }
    }
}

impl Trace {
    /// An empty trace with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Limit the number of stored events (further events are dropped and
    /// counted).
    pub fn set_capacity(&mut self, cap: usize) {
        self.capacity = cap;
    }

    /// Record an event.
    pub fn record(&mut self, ev: Event) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// All stored events, oldest first.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are stored.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped after capacity was reached.
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

    /// Render the last `k` events, one per line.
    pub fn render_tail(&self, k: usize) -> String {
        let start = self.events.len().saturating_sub(k);
        let mut out = String::new();
        for e in &self.events[start..] {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }

    /// Drop all stored events.
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }
}

impl<A: DinerAlgorithm> StepObserver<A> for Trace {
    fn on_event(&mut self, ev: &StepEvent, _view: &Snapshot<'_, A>) {
        self.record(Event {
            step: ev.step,
            pid: ev.pid,
            kind: ev.kind,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;

    fn action(step: u64, pid: usize, name: &'static str) -> Event {
        Event {
            step,
            pid: ProcessId(pid),
            kind: EventKind::Action {
                kind: 0,
                slot: None,
                name,
            },
        }
    }

    #[test]
    fn trace_records_in_order() {
        let mut t = Trace::new();
        t.record(action(0, 0, "join"));
        t.record(action(1, 1, "enter"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.events()[0].step, 0);
        assert_eq!(t.events()[1].step, 1);
    }

    #[test]
    fn capacity_drops_and_counts() {
        let mut t = Trace::new();
        t.set_capacity(2);
        for i in 0..5 {
            t.record(action(i, 0, "join"));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn actions_of_filters_by_pid_and_kind() {
        let mut t = Trace::new();
        t.record(action(0, 0, "join"));
        t.record(Event {
            step: 1,
            pid: ProcessId(0),
            kind: EventKind::MaliciousStep,
        });
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
    fn event_display_variants() {
        let e = Event {
            step: 1,
            pid: ProcessId(2),
            kind: EventKind::Fault(FaultKind::Crash),
        };
        assert!(e.to_string().contains("!fault crash"));
        let m = Event {
            step: 1,
            pid: ProcessId(2),
            kind: EventKind::MaliciousStep,
        };
        assert!(m.to_string().contains("<malicious step>"));
        let s = Event {
            step: 1,
            pid: ProcessId(2),
            kind: EventKind::Action {
                kind: 4,
                slot: Some(1),
                name: "fixdepth",
            },
        };
        assert!(s.to_string().contains("fixdepth(slot 1)"));
    }

    #[test]
    fn clear_resets() {
        let mut t = Trace::new();
        t.record(action(0, 0, "join"));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }
}
