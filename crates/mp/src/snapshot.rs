//! Consistent global snapshots under the full fault model.
//!
//! A classic Chandy–Lamport snapshot assumes reliable FIFO channels —
//! exactly what this codebase's adversary destroys. This module adapts
//! the protocol with **epoch coloring** (in the style of Lai–Yang):
//!
//! * Snapshot rounds are numbered by a monotone **epoch**. Every data
//!   message carries a [`SnapStamp`]: the sender's *color* (the highest
//!   epoch it has recorded) plus its vector clock.
//! * A node records its local state when it is told to
//!   ([`SnapAgent::record`]), when a **marker** for the epoch arrives,
//!   or — the rule that survives reordering — when a data message
//!   stamped with a *future* color arrives, in which case it records
//!   **before** processing the message. A post-record ("red") message
//!   can therefore never contaminate a pre-record ("white") state, no
//!   matter how the adversary reorders the wire.
//! * Markers exist for **channel capture** and **completion**, not for
//!   correctness of the state cut: after recording, white messages
//!   arriving on a link belong to the channel's in-flight state until
//!   that link's marker lands. Markers are retransmitted by the driver
//!   while the epoch is open, so marker loss delays completion but
//!   cannot wedge it; duplicated markers are idempotent. Whites that
//!   straggle in *after* the marker (reordering) are counted as
//!   [`LocalSnapshot::late_whites`] — channel capture is best-effort
//!   under reordering, the state cut itself is not.
//! * A crash or rebirth mid-round **aborts the epoch** (the driver
//!   clears agents and restarts under a bumped epoch number), matching
//!   the fault model: a cut spanning a rebirth would mix incarnations.
//!
//! The agent is runtime-agnostic: [`crate::SimNet`] drives it from the
//! deterministic step loop (shadow marker queues, a dedicated
//! `LinkAdversary` for marker faults) and [`crate::ThreadRuntime`]
//! drives it from real threads (markers as wire messages). Either way
//! the agent owns its marker source set ([`SnapAgent::members`]): the
//! set it was built with (a thread starts with its node's neighbors)
//! until an initiation names the live ones, armed by every later epoch
//! and used as the targets of the node's own markers. Consistency of
//! every completed cut is checked downstream with
//! [`VectorClock::cut_consistent`]-style pid-aware dominance — see
//! [`crate::monitor`].

use diners_sim::graph::ProcessId;
use diners_sim::Phase;

use crate::message::LinkMsg;
use crate::node::Node;
use crate::vclock::VectorClock;

/// The snapshot color riding every data message while monitoring is
/// attached: the sender's most recently recorded epoch plus its
/// monitor-plane vector clock at send time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapStamp {
    /// Highest epoch the sender had recorded when this copy was sent.
    pub color: u64,
    /// The sender's clock immediately after the send tick.
    pub clock: VectorClock,
}

/// One node's contribution to an epoch's global cut.
#[derive(Clone, Debug)]
pub struct LocalSnapshot {
    /// The recording node.
    pub pid: ProcessId,
    /// The epoch this snapshot belongs to.
    pub epoch: u64,
    /// Diner phase at the record point.
    pub phase: Phase,
    /// Depth at the record point.
    pub depth: u32,
    /// Meals finished by the record point.
    pub meals: u64,
    /// Full protocol state (see [`Node::snapshot_bytes`]).
    pub state: Vec<u8>,
    /// The node's vector clock at the record point.
    pub clock: VectorClock,
    /// Captured in-flight channel state per incident link: white
    /// messages delivered between this node's record point and the
    /// peer's marker.
    pub channels: Vec<(ProcessId, Vec<LinkMsg>)>,
    /// White messages that arrived *after* the peer's marker
    /// (reordering): missed by channel capture, harmless to the cut.
    pub late_whites: u64,
}

struct PendingEpoch {
    epoch: u64,
    expected: Vec<ProcessId>,
    marker_seen: Vec<bool>,
    snap: Option<LocalSnapshot>,
}

/// Per-node snapshot protocol state, driven by the owning runtime.
///
/// Call order per delivered data message: [`SnapAgent::on_deliver`]
/// **before** the node processes it. Per sent copy:
/// [`SnapAgent::on_send`] to obtain the stamp. The driver arms epochs
/// with [`SnapAgent::expect`], records via [`SnapAgent::record`] (or
/// lets markers/red stamps trigger the recording), feeds markers to
/// [`SnapAgent::on_marker`], and drains finished snapshots with
/// [`SnapAgent::take_completed`].
#[derive(Debug)]
pub struct SnapAgent {
    pid: ProcessId,
    clock: VectorClock,
    color: u64,
    /// Marker sources the next arming expects, and the targets of this
    /// node's own markers: the construction set until
    /// [`SnapAgent::expect`] names the live ones.
    members: Vec<ProcessId>,
    pending: Option<PendingEpoch>,
}

impl std::fmt::Debug for PendingEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingEpoch")
            .field("epoch", &self.epoch)
            .field("recorded", &self.snap.is_some())
            .field("markers", &self.marker_seen)
            .finish()
    }
}

impl SnapAgent {
    /// A fresh agent for node `pid` in an `n`-node system. `members` is
    /// the marker source set an arming uses until [`SnapAgent::expect`]
    /// names one: a node that can meet a red stamp before its first
    /// initiation passes its neighbors.
    pub fn new(pid: ProcessId, n: usize, members: &[ProcessId]) -> Self {
        SnapAgent {
            pid,
            clock: VectorClock::new(n),
            color: 0,
            members: members.to_vec(),
            pending: None,
        }
    }

    /// The agent's current vector clock.
    pub fn clock(&self) -> &VectorClock {
        &self.clock
    }

    /// Highest epoch this agent has recorded.
    pub fn color(&self) -> u64 {
        self.color
    }

    /// The epoch currently armed (recorded or not), if any.
    pub fn epoch_in_progress(&self) -> Option<u64> {
        self.pending.as_ref().map(|p| p.epoch)
    }

    /// Whether the armed epoch has recorded its local state.
    pub fn recorded(&self) -> bool {
        self.pending.as_ref().is_some_and(|p| p.snap.is_some())
    }

    /// The marker source set: whom the next arming expects markers
    /// from, and whom this node's markers go to.
    pub fn members(&self) -> &[ProcessId] {
        &self.members
    }

    /// Name the live `members` and arm `epoch`, expecting markers from
    /// them. The set is kept even when the epoch does not arm: every
    /// later arming (by a red stamp or a marker) uses it.
    pub fn expect(&mut self, epoch: u64, members: impl IntoIterator<Item = ProcessId>) {
        self.members.clear();
        self.members.extend(members);
        self.arm(epoch);
    }

    /// Arm `epoch` on the member set. Replaces any older armed epoch;
    /// ignores arming an epoch not newer than the current one
    /// (duplicate initiations are idempotent).
    fn arm(&mut self, epoch: u64) {
        if epoch <= self.color || self.pending.as_ref().is_some_and(|p| p.epoch >= epoch) {
            return;
        }
        self.pending = Some(PendingEpoch {
            epoch,
            marker_seen: vec![false; self.members.len()],
            expected: self.members.clone(),
            snap: None,
        });
    }

    /// Record the node's local state for the armed epoch (idempotent).
    pub fn record(&mut self, node: &Node) {
        let Some(p) = &mut self.pending else { return };
        if p.snap.is_some() {
            return;
        }
        self.color = p.epoch;
        p.snap = Some(LocalSnapshot {
            pid: self.pid,
            epoch: p.epoch,
            phase: node.phase(),
            depth: node.depth(),
            meals: node.meals(),
            state: node.snapshot_bytes(),
            clock: self.clock.clone(),
            channels: p.expected.iter().map(|&q| (q, Vec::new())).collect(),
            late_whites: 0,
        });
    }

    /// One message copy is entering a link: tick the clock and return
    /// the stamp to ride on that copy (duplicates get distinct stamps).
    pub fn on_send(&mut self) -> SnapStamp {
        self.clock.tick(self.pid);
        SnapStamp {
            color: self.color,
            clock: self.clock.clone(),
        }
    }

    /// A stamped data message from `from` is about to be processed by
    /// the node. Must run **before** the node handles the message: a
    /// red stamp (future color) forces the recording *first*, which is
    /// what keeps completed cuts consistent under reordering. White
    /// messages landing after the recording are captured as channel
    /// state until `from`'s marker arrives. A red stamp that has to arm
    /// the epoch itself arms it on the member set.
    pub fn on_deliver(&mut self, from: ProcessId, msg: &LinkMsg, stamp: &SnapStamp, node: &Node) {
        if stamp.color > self.color && self.pending.is_none() {
            // First sign of a new epoch is a red data message (the
            // initiation or marker is still in flight / lost).
            self.arm(stamp.color);
        }
        if let Some(p) = &self.pending {
            if p.snap.is_none() && stamp.color >= p.epoch {
                self.record(node);
            }
        }
        if let Some(p) = &mut self.pending {
            if let (Some(snap), Some(slot)) =
                (p.snap.as_mut(), p.expected.iter().position(|&q| q == from))
            {
                if stamp.color < p.epoch {
                    if p.marker_seen[slot] {
                        snap.late_whites += 1;
                    } else {
                        snap.channels[slot].1.push(*msg);
                    }
                }
            }
        }
        self.clock.merge(&stamp.clock);
        self.clock.tick(self.pid);
    }

    /// A marker for `epoch` arrived from `from`. Records the local
    /// state if this is the first sign of the epoch (arming it on the
    /// member set if necessary), closes channel capture on that link,
    /// and ignores stale or duplicate markers.
    pub fn on_marker(&mut self, from: ProcessId, epoch: u64, node: &Node) {
        match &self.pending {
            Some(p) if p.epoch > epoch => return,
            Some(p) if p.epoch == epoch => {}
            _ => {
                if epoch <= self.color {
                    return;
                }
                self.arm(epoch);
            }
        }
        if !self.recorded() {
            self.record(node);
        }
        if let Some(p) = &mut self.pending {
            if let Some(slot) = p.expected.iter().position(|&q| q == from) {
                p.marker_seen[slot] = true;
            }
        }
    }

    /// Whether the armed epoch has recorded and seen every expected
    /// marker.
    pub fn is_complete(&self) -> bool {
        self.pending
            .as_ref()
            .is_some_and(|p| p.snap.is_some() && p.marker_seen.iter().all(|&m| m))
    }

    /// Take the finished local snapshot, clearing the armed epoch.
    /// Returns `None` while incomplete.
    pub fn take_completed(&mut self) -> Option<LocalSnapshot> {
        if !self.is_complete() {
            return None;
        }
        self.pending.take().and_then(|p| p.snap)
    }

    /// Abort the armed epoch (crash or rebirth observed mid-round).
    /// The clock survives — it is observer bookkeeping, monotone across
    /// incarnations — only the partial snapshot is discarded.
    pub fn abort(&mut self) {
        self.pending = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeConfig;

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    fn node(i: usize, peers: &[usize]) -> Node {
        Node::new(NodeConfig {
            id: p(i),
            neighbors: peers.iter().map(|&q| p(q)).collect(),
            diameter: 2,
        })
    }

    fn white(agent: &mut SnapAgent) -> SnapStamp {
        agent.on_send()
    }

    #[test]
    fn two_agents_complete_a_round_and_cut_is_consistent() {
        let (n0, n1) = (node(0, &[1]), node(1, &[0]));
        let mut a0 = SnapAgent::new(p(0), 2, &[p(1)]);
        let mut a1 = SnapAgent::new(p(1), 2, &[p(0)]);

        // Some pre-epoch traffic builds causal history.
        let s = white(&mut a0);
        a1.on_deliver(p(0), &LinkMsg::probe(p(0)), &s, &n1);

        a0.expect(1, [p(1)]);
        a1.expect(1, [p(0)]);
        a0.record(&n0);
        a1.record(&n1);
        assert!(a0.recorded() && a1.recorded());
        assert!(!a0.is_complete(), "markers still outstanding");

        a0.on_marker(p(1), 1, &n0);
        a1.on_marker(p(0), 1, &n1);
        // Duplicate markers are idempotent.
        a1.on_marker(p(0), 1, &n1);

        let s0 = a0.take_completed().expect("complete");
        let s1 = a1.take_completed().expect("complete");
        assert_eq!((s0.epoch, s1.epoch), (1, 1));
        assert_eq!(a0.color(), 1);
        // Pid-aware consistency: nobody saw more of i than i recorded.
        assert!(s1.clock.get(p(0)) <= s0.clock.get(p(0)));
        assert!(s0.clock.get(p(1)) <= s1.clock.get(p(1)));
        assert!(a0.take_completed().is_none(), "drained");
    }

    #[test]
    fn red_stamp_forces_record_before_merge() {
        // p0 records first, then sends a red message. If p1 processed
        // (merged) it before recording, p1's cut clock would include
        // p0's post-record tick — an inconsistent cut. The implicit-
        // marker rule must record p1 first.
        let (n0, n1) = (node(0, &[1]), node(1, &[0]));
        let mut a0 = SnapAgent::new(p(0), 2, &[p(1)]);
        let mut a1 = SnapAgent::new(p(1), 2, &[p(0)]);

        a0.expect(1, [p(1)]);
        a1.expect(1, [p(0)]);
        a0.record(&n0);
        let red = a0.on_send(); // color 1
        assert_eq!(red.color, 1);

        a1.on_deliver(p(0), &LinkMsg::probe(p(0)), &red, &n1);
        assert!(a1.recorded(), "red stamp is an implicit marker");
        let c1 = a1
            .pending
            .as_ref()
            .and_then(|p| p.snap.as_ref())
            .unwrap()
            .clock
            .clone();
        // p1's recorded clock must NOT include p0's post-record send...
        assert_eq!(c1.get(p(0)), 0);
        // ...even though its live clock now does.
        assert_eq!(a1.clock().get(p(0)), 1);
    }

    #[test]
    fn red_stamp_arms_an_unannounced_epoch() {
        // The initiation marker was lost; the first sign of epoch 3 is
        // a red data message. The receiver arms and records on the spot.
        let n1 = node(1, &[0]);
        let mut a0 = SnapAgent::new(p(0), 2, &[p(1)]);
        let mut a1 = SnapAgent::new(p(1), 2, &[p(0)]);
        a0.expect(3, [p(1)]);
        a0.record(&node(0, &[1]));
        let red = a0.on_send();

        a1.on_deliver(p(0), &LinkMsg::probe(p(0)), &red, &n1);
        assert_eq!(a1.epoch_in_progress(), Some(3));
        assert!(a1.recorded());
        assert_eq!(a1.color(), 3);
    }

    #[test]
    fn arming_uses_the_last_named_member_set() {
        // p1 sits between p0 and p2. Before any initiation, a red stamp
        // arms the epoch on all of p1's neighbors.
        let n1 = node(1, &[0, 2]);
        let mut a0 = SnapAgent::new(p(0), 3, &[p(1)]);
        let mut a1 = SnapAgent::new(p(1), 3, &[p(0), p(2)]);
        a0.expect(1, [p(1)]);
        a0.record(&node(0, &[1]));
        let red = a0.on_send();
        a1.on_deliver(p(0), &LinkMsg::probe(p(0)), &red, &n1);
        assert_eq!(a1.epoch_in_progress(), Some(1));
        assert_eq!(a1.members(), &[p(0), p(2)]);
        a1.on_marker(p(0), 1, &n1);
        assert!(!a1.is_complete(), "p2's marker is still expected");
        a1.on_marker(p(2), 1, &n1);
        assert!(a1.take_completed().is_some());

        // A late initiation of the finished epoch arms nothing, but its
        // smaller member set (p2 died) is what the next arming uses.
        a1.expect(1, [p(0)]);
        assert!(a1.epoch_in_progress().is_none(), "epoch 1 is done");
        assert_eq!(a1.members(), &[p(0)]);
        a1.on_marker(p(0), 2, &n1);
        assert_eq!(a1.epoch_in_progress(), Some(2));
        assert!(a1.is_complete(), "only p0's marker was expected");
    }

    #[test]
    fn whites_are_captured_until_marker_then_counted_late() {
        let (n0, n1) = (node(0, &[1]), node(1, &[0]));
        let mut a0 = SnapAgent::new(p(0), 2, &[p(1)]);
        let mut a1 = SnapAgent::new(p(1), 2, &[p(0)]);

        // p0 sends two whites before recording (in-flight at the cut).
        let w1 = white(&mut a0);
        let w2 = white(&mut a0);
        a0.expect(1, [p(1)]);
        a1.expect(1, [p(0)]);
        a0.record(&n0);
        a1.record(&n1);

        // First white lands inside the capture window.
        a1.on_deliver(p(0), &LinkMsg::probe(p(0)), &w1, &n1);
        // Marker closes the p0→p1 channel.
        a1.on_marker(p(0), 1, &n1);
        // Second white was reordered past the marker: late.
        a1.on_deliver(p(0), &LinkMsg::probe(p(0)), &w2, &n1);

        let s1 = a1.take_completed().expect("complete");
        assert_eq!(s1.channels, vec![(p(0), vec![LinkMsg::probe(p(0))])]);
        assert_eq!(s1.late_whites, 1);
    }

    #[test]
    fn stale_future_and_duplicate_arming_is_safe() {
        let n0 = node(0, &[1]);
        let mut a = SnapAgent::new(p(0), 2, &[p(1)]);
        a.expect(2, [p(1)]);
        // Arming an older or equal epoch is ignored.
        a.expect(1, [p(1)]);
        a.expect(2, [p(1)]);
        assert_eq!(a.epoch_in_progress(), Some(2));
        // Stale marker (epoch 1) is ignored; nothing records.
        a.on_marker(p(1), 1, &n0);
        assert!(!a.recorded());
        // A newer epoch replaces an armed-but-unrecorded round.
        a.expect(5, [p(1)]);
        assert_eq!(a.epoch_in_progress(), Some(5));
        // Marker for a fully finished epoch is ignored too.
        a.record(&n0);
        a.on_marker(p(1), 5, &n0);
        assert!(a.take_completed().is_some());
        a.on_marker(p(1), 5, &n0);
        assert!(a.epoch_in_progress().is_none(), "done epochs stay done");
    }

    #[test]
    fn abort_discards_partial_round_but_keeps_clock() {
        let n0 = node(0, &[1]);
        let mut a = SnapAgent::new(p(0), 2, &[p(1)]);
        let _ = a.on_send();
        a.expect(1, [p(1)]);
        a.record(&n0);
        let clock_before = a.clock().clone();
        a.abort();
        assert!(a.epoch_in_progress().is_none());
        assert_eq!(a.clock(), &clock_before);
        // The aborted epoch stays recorded in the color: a re-run must
        // use a fresh (bumped) epoch number.
        assert_eq!(a.color(), 1);
        a.expect(1, [p(1)]);
        assert!(a.epoch_in_progress().is_none(), "stale epoch rejected");
        a.expect(2, [p(1)]);
        assert_eq!(a.epoch_in_progress(), Some(2));
    }

    #[test]
    fn isolated_node_completes_immediately() {
        // All neighbors dead: no markers expected; record completes it.
        let n0 = node(0, &[1]);
        let mut a = SnapAgent::new(p(0), 2, &[p(1)]);
        a.expect(1, []);
        a.record(&n0);
        assert!(a.is_complete());
        let s = a.take_completed().unwrap();
        assert!(s.channels.is_empty());
    }
}
