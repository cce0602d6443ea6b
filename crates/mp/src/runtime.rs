//! A real concurrent runtime: one OS thread per diner node, crossbeam
//! channels as links.
//!
//! The node logic is exactly [`crate::node::Node`] — the same state
//! machine the deterministic [`crate::simnet::SimNet`] drives — so this
//! runtime demonstrates that the protocol's guarantees do not depend on
//! the simulator's serialization. Each thread blocks on its channel with
//! a small timeout; the timeout doubles as the node's tick (retransmit /
//! finish meals). Every node publishes its phase and meal count through
//! atomics so a monitor can sample global state without locks.
//!
//! Crashes are injected by control message: a benign crash halts the
//! node silently; a malicious crash makes it spew arbitrary messages for
//! a bounded number of turns first. A halted node's thread parks until a
//! restart, which rebuilds the node with `Node::restarted`, or until
//! shutdown.
//!
//! Network faults come from the same [`AdversaryPlan`] vocabulary the
//! simulator uses ([`ThreadRuntime::spawn_with_adversary`]): each thread
//! runs its outgoing messages through its own seeded [`LinkAdversary`]
//! at the send boundary, counting its ticks as the adversary's clock.
//! Two deviations from the simulator, both inherent to real channels:
//! reordering degrades to extra hold-back jitter (crossbeam channels are
//! FIFO, so overtaking is realized by delaying a copy), and
//! byzantine-adjacent corruption is not applied (a thread cannot observe
//! its peers' health; malicious crashes already spew arbitrary payloads
//! themselves).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use diners_sim::fault::Resurrection;
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::rng;
use diners_sim::Phase;

use crate::adversary::{AdversaryPlan, Delivery, LinkAdversary, NetStats};
use crate::message::LinkMsg;
use crate::node::{Node, NodeConfig, NodeEvent};
use crate::snapshot::{LocalSnapshot, SnapAgent, SnapStamp};
use crate::supervisor::{RestartPolicy, Supervisor, SupervisorAction};

/// Cadence (in node ticks) of each thread's self-checkpoint into its
/// shared snapshot slot, read back on `Restart(Snapshot)`.
const SNAPSHOT_EVERY_TICKS: u64 = 64;

/// Messages on the control/data channels between threads.
enum Wire {
    /// A protocol message from a neighbor.
    Data {
        /// Sending node.
        from: ProcessId,
        /// Payload.
        msg: LinkMsg,
        /// Snapshot color stamp (None when monitoring is off — and on
        /// byzantine spew, which bypasses the snapshot plane).
        snap: Option<SnapStamp>,
    },
    /// Initiate snapshot epoch `epoch`; `dead` is the membership the
    /// initiator excluded (their markers will never come).
    SnapInit {
        /// Epoch to arm.
        epoch: u64,
        /// Processes known-dead at initiation.
        dead: Vec<ProcessId>,
    },
    /// A snapshot marker from a neighbor.
    Marker {
        /// Sending node.
        from: ProcessId,
        /// Epoch the marker belongs to.
        epoch: u64,
    },
    /// Behave arbitrarily for this many turns, then halt (0 turns: a
    /// benign crash, which halts silently).
    Crash(u32),
    /// Resurrect a halted node with the given state policy (a live
    /// recipient ignores this: restart is recovery, not preemption).
    Restart(Resurrection),
    /// A neighbor was resurrected: reset the link's wire epoch.
    PeerReborn(ProcessId),
    /// Clean shutdown at the end of the run.
    Shutdown,
}

fn phase_to_u8(p: Phase) -> u8 {
    match p {
        Phase::Thinking => 0,
        Phase::Hungry => 1,
        Phase::Eating => 2,
    }
}

fn u8_to_phase(v: u8) -> Phase {
    match v {
        0 => Phase::Thinking,
        1 => Phase::Hungry,
        _ => Phase::Eating,
    }
}

/// Aggregate adversary-verdict counters, updated by every sender thread.
#[derive(Default)]
struct SharedNet {
    sent: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
    reordered: AtomicU64,
    corrupted: AtomicU64,
}

impl SharedNet {
    fn add(&self, t: &NetStats) {
        // Skip zero adds: most sends are clean and touch one counter.
        for (cell, v) in [
            (&self.sent, t.sent),
            (&self.dropped, t.dropped),
            (&self.duplicated, t.duplicated),
            (&self.delayed, t.delayed),
            (&self.reordered, t.reordered),
            (&self.corrupted, t.corrupted),
        ] {
            if v > 0 {
                cell.fetch_add(v, Ordering::Relaxed);
            }
        }
    }

    fn snapshot(&self) -> NetStats {
        NetStats {
            sent: self.sent.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
        }
    }
}

struct Shared {
    phases: Vec<AtomicU8>,
    meals: Vec<AtomicU64>,
    dead: Vec<AtomicBool>,
    /// Per-node protocol-hardening counters, published with each phase.
    retransmits: Vec<AtomicU64>,
    resyncs: Vec<AtomicU64>,
    /// Per-node liveness counters, bumped on every publish; the watchdog
    /// thread reads a changed value as a heartbeat.
    beats: Vec<AtomicU64>,
    /// Per-node self-checkpoints (most recent [`Node::snapshot_bytes`]).
    snaps: Vec<Mutex<Option<Vec<u8>>>>,
    /// Completed local snapshots, pushed by node threads as their
    /// epochs finish; drained by [`ThreadRuntime::snapshot_round`].
    snapshots: Mutex<Vec<LocalSnapshot>>,
    /// Watchdog bookkeeping: restarts issued / processes abandoned.
    sup_restarts: AtomicU64,
    sup_giveups: AtomicU64,
    net: SharedNet,
}

/// A running fleet of diner threads.
pub struct ThreadRuntime {
    topo: Topology,
    senders: Vec<Sender<Wire>>,
    handles: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
    /// Watchdog thread (stop flag + handle), present under
    /// [`ThreadRuntime::spawn_supervised`].
    watchdog: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
}

impl ThreadRuntime {
    /// Spawn one thread per process of `topo`, all in the legitimate
    /// initial state. `tick` is the per-node retransmission timeout.
    pub fn spawn(topo: Topology, tick: Duration, seed: u64) -> Self {
        Self::spawn_with_adversary(topo, tick, AdversaryPlan::none(), seed)
    }

    /// Like [`ThreadRuntime::spawn`], but every thread runs its outgoing
    /// messages through `plan` (loss, duplication, delay, jitter,
    /// outages), with the thread's own tick count as the adversary's
    /// clock — an outage `until_step` of 500 means "until my 500th
    /// tick".
    pub fn spawn_with_adversary(
        topo: Topology,
        tick: Duration,
        plan: AdversaryPlan,
        seed: u64,
    ) -> Self {
        Self::spawn_inner(topo, tick, plan, seed, false)
    }

    /// Like [`ThreadRuntime::spawn_with_adversary`], with the snapshot
    /// plane attached: data messages carry [`SnapStamp`] colors, markers
    /// travel as wire messages through their own [`LinkAdversary`]
    /// (same plan, independent stream), and
    /// [`ThreadRuntime::snapshot_round`] drives consistent global cuts.
    pub fn spawn_monitored(topo: Topology, tick: Duration, plan: AdversaryPlan, seed: u64) -> Self {
        Self::spawn_inner(topo, tick, plan, seed, true)
    }

    fn spawn_inner(
        topo: Topology,
        tick: Duration,
        plan: AdversaryPlan,
        seed: u64,
        monitored: bool,
    ) -> Self {
        let n = topo.len();
        let shared = Arc::new(Shared {
            phases: (0..n).map(|_| AtomicU8::new(0)).collect(),
            meals: (0..n).map(|_| AtomicU64::new(0)).collect(),
            dead: (0..n).map(|_| AtomicBool::new(false)).collect(),
            retransmits: (0..n).map(|_| AtomicU64::new(0)).collect(),
            resyncs: (0..n).map(|_| AtomicU64::new(0)).collect(),
            beats: (0..n).map(|_| AtomicU64::new(0)).collect(),
            snaps: (0..n).map(|_| Mutex::new(None)).collect(),
            snapshots: Mutex::new(Vec::new()),
            sup_restarts: AtomicU64::new(0),
            sup_giveups: AtomicU64::new(0),
            net: SharedNet::default(),
        });
        let channels: Vec<(Sender<Wire>, Receiver<Wire>)> = (0..n).map(|_| unbounded()).collect();
        let senders: Vec<Sender<Wire>> = channels.iter().map(|(s, _)| s.clone()).collect();

        let mut handles = Vec::new();
        for p in topo.processes() {
            let cfg = NodeConfig::new(&topo, p);
            let rx = channels[p.index()].1.clone();
            let peers: Vec<(ProcessId, Sender<Wire>)> = topo
                .neighbors(p)
                .iter()
                .map(|&q| (q, senders[q.index()].clone()))
                .collect();
            let shared = Arc::clone(&shared);
            let node_seed = rng::subseed(seed, p.index() as u64);
            let node_plan = plan.clone();
            let snap_n = monitored.then_some(n);
            handles.push(std::thread::spawn(move || {
                node_thread(cfg, rx, peers, shared, tick, node_seed, node_plan, snap_n);
            }));
        }
        ThreadRuntime {
            topo,
            senders,
            handles,
            shared,
            watchdog: None,
        }
    }

    /// Like [`ThreadRuntime::spawn`], plus a watchdog thread running a
    /// [`Supervisor`] over the fleet: every node's publishes double as
    /// heartbeats, silence past the policy's `probe_timeout` (measured
    /// in watchdog ticks of `tick` each) triggers a capped-backoff
    /// restart message, and budget exhaustion abandons the node.
    ///
    /// Snapshots here are the *threads' own* periodic self-checkpoints
    /// (every `SNAPSHOT_EVERY_TICKS` ticks); the policy's
    /// `snapshot_every` knob and the supervisor's checksummed custody
    /// are exercised by the deterministic [`crate::SimNet`] path.
    pub fn spawn_supervised(
        topo: Topology,
        tick: Duration,
        seed: u64,
        policy: RestartPolicy,
    ) -> Self {
        let mut rt = Self::spawn(topo, tick, seed);
        let n = rt.topo.len();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let shared = Arc::clone(&rt.shared);
        let senders = rt.senders.clone();
        let handle = std::thread::spawn(move || {
            let mut sup = Supervisor::new(n, policy, rng::subseed(seed, 0x50B5));
            let mut last_beats = vec![u64::MAX; n];
            let mut now = 0u64;
            while !stop2.load(Ordering::SeqCst) {
                std::thread::sleep(tick);
                now += 1;
                for (i, last) in last_beats.iter_mut().enumerate() {
                    let b = shared.beats[i].load(Ordering::SeqCst);
                    if b != *last {
                        *last = b;
                        sup.heartbeat(now, ProcessId(i));
                    }
                }
                for a in sup.poll(now) {
                    match a {
                        SupervisorAction::Restart { pid, state } => {
                            shared.sup_restarts.fetch_add(1, Ordering::SeqCst);
                            let _ = senders[pid.index()].send(Wire::Restart(state));
                        }
                        SupervisorAction::GiveUp { .. } => {
                            shared.sup_giveups.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            }
        });
        rt.watchdog = Some((stop, handle));
        rt
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Sampled phase of node `p`.
    pub fn phase_of(&self, p: ProcessId) -> Phase {
        u8_to_phase(self.shared.phases[p.index()].load(Ordering::SeqCst))
    }

    /// Sampled meal count of node `p`.
    pub fn meals_of(&self, p: ProcessId) -> u64 {
        self.shared.meals[p.index()].load(Ordering::SeqCst)
    }

    /// Whether node `p` has halted.
    pub fn is_dead(&self, p: ProcessId) -> bool {
        self.shared.dead[p.index()].load(Ordering::SeqCst)
    }

    /// Sampled adversary verdicts aggregated over all sender threads.
    pub fn net_stats(&self) -> NetStats {
        self.shared.net.snapshot()
    }

    /// Sampled total of timer-driven retransmissions across all nodes.
    pub fn retransmits(&self) -> u64 {
        self.shared
            .retransmits
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .sum()
    }

    /// Sampled total of stale-run resyncs across all nodes.
    pub fn resyncs(&self) -> u64 {
        self.shared
            .resyncs
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .sum()
    }

    /// Inject a benign crash.
    pub fn crash(&self, p: ProcessId) {
        let _ = self.senders[p.index()].send(Wire::Crash(0));
    }

    /// Inject a malicious crash with the given arbitrary-step budget.
    pub fn malicious_crash(&self, p: ProcessId, steps: u32) {
        let _ = self.senders[p.index()].send(Wire::Crash(steps));
    }

    /// Resurrect a halted node with the given state policy. Ignored by a
    /// live node (restart is recovery, not preemption).
    pub fn restart(&self, p: ProcessId, state: Resurrection) {
        let _ = self.senders[p.index()].send(Wire::Restart(state));
    }

    /// Drive one snapshot epoch to completion: broadcast the initiation
    /// to every live node, then wait (up to `deadline`) for all of them
    /// to finish their local snapshots. Returns the pid-sorted cut, or
    /// `None` if the round did not complete in time — a node crashed
    /// mid-round, a spewing malicious node sat on the initiation, or the
    /// adversary delayed too many markers. The caller aborts by simply
    /// retrying with a *bumped* epoch number: agents discard the stale
    /// round when the newer epoch arms (requires
    /// [`ThreadRuntime::spawn_monitored`]).
    pub fn snapshot_round(&self, epoch: u64, deadline: Duration) -> Option<Vec<LocalSnapshot>> {
        let dead: Vec<ProcessId> = self.topo.processes().filter(|&p| self.is_dead(p)).collect();
        let expected: Vec<ProcessId> = self
            .topo
            .processes()
            .filter(|p| !dead.contains(p))
            .collect();
        if expected.is_empty() {
            return Some(Vec::new());
        }
        for &p in &expected {
            let _ = self.senders[p.index()].send(Wire::SnapInit {
                epoch,
                dead: dead.clone(),
            });
        }
        let until = std::time::Instant::now() + deadline;
        loop {
            {
                let mut pool = self
                    .shared
                    .snapshots
                    .lock()
                    .expect("snapshot pool poisoned");
                // Older epochs can never complete once a newer one has
                // been initiated; prune them so the pool stays bounded.
                pool.retain(|s| s.epoch >= epoch);
                let done = expected
                    .iter()
                    .all(|&p| pool.iter().any(|s| s.pid == p && s.epoch == epoch));
                if done {
                    let mut cut: Vec<LocalSnapshot> = Vec::new();
                    pool.retain(|s| {
                        if s.epoch == epoch && expected.contains(&s.pid) {
                            cut.push(s.clone());
                            false
                        } else {
                            true
                        }
                    });
                    cut.sort_by_key(|s| s.pid.index());
                    return Some(cut);
                }
            }
            if std::time::Instant::now() >= until {
                return None;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Restarts issued by the watchdog so far (0 without supervision).
    pub fn supervisor_restarts(&self) -> u64 {
        self.shared.sup_restarts.load(Ordering::SeqCst)
    }

    /// Processes abandoned by the watchdog (restart budget exhausted).
    pub fn supervisor_giveups(&self) -> u64 {
        self.shared.sup_giveups.load(Ordering::SeqCst)
    }

    /// Let the system run for `d`, sampling exclusion among live
    /// neighbors every `sample_every`; returns the number of samples at
    /// which two non-dead neighbors were simultaneously eating.
    pub fn observe(&self, d: Duration, sample_every: Duration) -> u64 {
        let deadline = std::time::Instant::now() + d;
        let mut violations = 0;
        while std::time::Instant::now() < deadline {
            std::thread::sleep(sample_every);
            for &(a, b) in self.topo.edges() {
                if self.phase_of(a) == Phase::Eating
                    && self.phase_of(b) == Phase::Eating
                    && (!self.is_dead(a) || !self.is_dead(b))
                {
                    violations += 1;
                }
            }
        }
        violations
    }

    /// Shut every thread down and join them.
    pub fn shutdown(mut self) {
        if let Some((stop, h)) = self.watchdog.take() {
            stop.store(true, Ordering::SeqCst);
            let _ = h.join();
        }
        for s in &self.senders {
            let _ = s.send(Wire::Shutdown);
        }
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// The per-thread sending machinery: every outgoing message runs
/// through the thread's own [`LinkAdversary`]; surviving copies go out
/// at once or join the hold-back queue until their due tick.
struct FaultySender {
    id: ProcessId,
    peers: Vec<(ProcessId, Sender<Wire>)>,
    adversary: LinkAdversary,
    /// Messages held back by the adversary: `(due_tick, to, msg, stamp)`.
    /// The snapshot stamp is fixed at adversary-apply time — a held-back
    /// copy carries the clock of its *send*, not its release.
    held: Vec<(u64, ProcessId, LinkMsg, Option<SnapStamp>)>,
    /// Marker-plane adversary (monitored runtimes only): same plan as
    /// the data adversary on an independent stream, so marker loss and
    /// delay are exercised without perturbing data-fault verdicts.
    marker_adv: Option<LinkAdversary>,
    /// Markers held back by the marker adversary: `(due_tick, to, epoch)`.
    held_markers: Vec<(u64, ProcessId, u64)>,
    scratch: Vec<Delivery>,
    /// Aggregate verdict counters, shared with the monitor.
    shared: Shared2,
}

impl FaultySender {
    fn raw_send(
        peers: &[(ProcessId, Sender<Wire>)],
        id: ProcessId,
        to: ProcessId,
        msg: LinkMsg,
        snap: Option<SnapStamp>,
    ) {
        if let Some((_, tx)) = peers.iter().find(|(q, _)| *q == to) {
            let _ = tx.send(Wire::Data {
                from: id,
                msg,
                snap,
            });
        }
    }

    fn raw_marker(peers: &[(ProcessId, Sender<Wire>)], id: ProcessId, to: ProcessId, epoch: u64) {
        if let Some((_, tx)) = peers.iter().find(|(q, _)| *q == to) {
            let _ = tx.send(Wire::Marker { from: id, epoch });
        }
    }

    fn send_all(
        &mut self,
        now: u64,
        outs: Vec<(ProcessId, LinkMsg)>,
        mut agent: Option<&mut SnapAgent>,
    ) {
        for (to, msg) in outs {
            let mut ds = std::mem::take(&mut self.scratch);
            self.adversary.apply(now, self.id, to, msg, false, &mut ds);
            let mut tally = NetStats::default();
            tally.absorb(&msg, &ds);
            self.shared.net.add(&tally);
            for d in ds.drain(..) {
                // Stamp each surviving copy (duplicates get distinct
                // stamps; dropped copies never get one).
                let snap = agent.as_mut().map(|a| a.on_send());
                // Real channels are FIFO, so "reordering" is realized as
                // a little extra hold-back on the affected copy.
                let jitter = d.reorder_key.map_or(0, |k| k % 3);
                let due = now + d.delay + jitter;
                if due <= now {
                    Self::raw_send(&self.peers, self.id, to, d.msg, snap);
                } else {
                    self.held.push((due, to, d.msg, snap));
                }
            }
            self.scratch = ds;
        }
    }

    /// Broadcast a marker for `epoch` to `targets` through the marker
    /// adversary (or directly, for unmonitored runtimes).
    fn send_markers(&mut self, now: u64, epoch: u64, targets: &[ProcessId]) {
        for &to in targets {
            let Some(adv) = self.marker_adv.as_mut() else {
                Self::raw_marker(&self.peers, self.id, to, epoch);
                continue;
            };
            let mut ds = std::mem::take(&mut self.scratch);
            adv.apply(now, self.id, to, LinkMsg::probe(self.id), false, &mut ds);
            for d in ds.drain(..) {
                let jitter = d.reorder_key.map_or(0, |k| k % 3);
                let due = now + d.delay + jitter;
                if due <= now {
                    Self::raw_marker(&self.peers, self.id, to, epoch);
                } else {
                    self.held_markers.push((due, to, epoch));
                }
            }
            self.scratch = ds;
        }
    }

    /// Release every held-back message whose due tick has come.
    fn flush(&mut self, now: u64) {
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].0 <= now {
                let (_, to, msg, snap) = self.held.swap_remove(i);
                Self::raw_send(&self.peers, self.id, to, msg, snap);
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.held_markers.len() {
            if self.held_markers[i].0 <= now {
                let (_, to, epoch) = self.held_markers.swap_remove(i);
                Self::raw_marker(&self.peers, self.id, to, epoch);
            } else {
                i += 1;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn node_thread(
    cfg: NodeConfig,
    rx: Receiver<Wire>,
    peers: Vec<(ProcessId, Sender<Wire>)>,
    shared: Shared2,
    tick: Duration,
    seed: u64,
    plan: AdversaryPlan,
    snap_n: Option<usize>,
) {
    let id = cfg.id;
    let mut node = Node::new(cfg.clone());
    let mut rng = rng::rng(seed);
    // The snapshot agent (monitored runtimes only). It belongs to the
    // *observer*, not the node: it survives the node's crashes and
    // rebirths, because its vector clock must stay monotone across
    // incarnations for cut-consistency checks to mean anything.
    let mut agent: Option<SnapAgent> = snap_n.map(|n| SnapAgent::new(id, n));
    // Marker source set for the round in flight; all neighbors until the
    // first initiation names the dead.
    let mut snap_expected: Vec<ProcessId> = cfg.neighbors.clone();
    // After finishing an epoch, keep re-driving its markers for a while:
    // a peer that lost this node's marker still needs one, and this node
    // can no longer tell (its own round is closed).
    let mut marker_tail: Option<(u64, u64)> = None;
    let mut net = FaultySender {
        id,
        peers,
        marker_adv: snap_n.map(|_| LinkAdversary::new(plan.clone(), rng::subseed(seed, 0x3A7C))),
        adversary: LinkAdversary::new(plan, seed),
        held: Vec::new(),
        held_markers: Vec::new(),
        scratch: Vec::new(),
        shared: Arc::clone(&shared),
    };
    let mut ticks: u64 = 0;
    let publish = |node: &Node| {
        shared.phases[id.index()].store(phase_to_u8(node.phase()), Ordering::SeqCst);
        shared.meals[id.index()].store(node.meals(), Ordering::SeqCst);
        shared.retransmits[id.index()].store(node.retransmits(), Ordering::SeqCst);
        shared.resyncs[id.index()].store(node.resyncs(), Ordering::SeqCst);
        // Each publish is a liveness proof for the watchdog.
        shared.beats[id.index()].fetch_add(1, Ordering::SeqCst);
    };
    publish(&node);
    // Ticks must fire even under continuous traffic: the stabilizing
    // handshake relies on periodic retransmission, and a saturated
    // `recv_timeout` would never time out.
    let mut last_tick = std::time::Instant::now();
    loop {
        if last_tick.elapsed() >= tick {
            last_tick = std::time::Instant::now();
            ticks += 1;
            net.flush(ticks);
            resend_markers(&mut net, agent.as_ref(), &snap_expected, ticks, marker_tail);
            let outs = node.handle(NodeEvent::Tick);
            publish(&node);
            net.send_all(ticks, outs, agent.as_mut());
            checkpoint(&node, ticks, &shared);
        }
        let event = match rx.recv_timeout(tick) {
            Ok(Wire::Data { from, msg, snap }) => {
                // Snapshot bookkeeping runs *before* the node processes
                // the message: a red stamp (future color) must force the
                // recording first (see `crate::snapshot`).
                if let (Some(a), Some(stamp)) = (agent.as_mut(), &snap) {
                    a.on_deliver(from, &msg, stamp, &snap_expected, &node);
                }
                Some(NodeEvent::Deliver { from, msg })
            }
            Ok(Wire::SnapInit { epoch, dead }) => {
                if let Some(a) = agent.as_mut() {
                    snap_expected = cfg
                        .neighbors
                        .iter()
                        .copied()
                        .filter(|q| !dead.contains(q))
                        .collect();
                    a.expect(epoch, &snap_expected);
                    a.record(&node);
                    if let Some(ep) = a.epoch_in_progress() {
                        let targets = snap_expected.clone();
                        net.send_markers(ticks, ep, &targets);
                    }
                }
                None
            }
            Ok(Wire::Marker { from, epoch }) => {
                if let Some(a) = agent.as_mut() {
                    a.on_marker(from, epoch, &snap_expected, &node);
                }
                None
            }
            Ok(Wire::Crash(steps)) => {
                // A malicious crash first behaves arbitrarily within its
                // capability: it spews garbage. The spew bypasses the
                // adversary — a faulty process is its own fault model.
                for _ in 0..steps {
                    for (q, tx) in &net.peers {
                        use rand::Rng;
                        if rng.gen_bool(0.5) {
                            let msg = LinkMsg::arbitrary(&mut rng, id, *q);
                            // Unstamped: a faulty process is outside the
                            // snapshot plane; its garbage cannot merge
                            // into anyone's clock.
                            let _ = tx.send(Wire::Data {
                                from: id,
                                msg,
                                snap: None,
                            });
                        }
                    }
                    std::thread::sleep(tick / 4);
                }
                shared.dead[id.index()].store(true, Ordering::SeqCst);
                let Some(state) = dead_wait(&rx) else { return };
                let checkpoint = shared.snaps[id.index()]
                    .lock()
                    .expect("snapshot slot poisoned")
                    .clone();
                node = Node::restarted(cfg.clone(), state, checkpoint.as_deref());
                if let Some(a) = agent.as_mut() {
                    a.abort();
                }
                rebirth(&node, &mut net, &shared, &publish);
                None
            }
            // A live node ignores restarts: recovery, not preemption.
            Ok(Wire::Restart(_)) => None,
            Ok(Wire::PeerReborn(q)) => {
                // A resurrected neighbor starts a fresh wire epoch:
                // realign the link so its first messages are not dropped
                // as stale duplicates of the dead incarnation's stream.
                node.peer_reborn(q);
                None
            }
            Ok(Wire::Shutdown) => return,
            Err(RecvTimeoutError::Timeout) => {
                ticks += 1;
                net.flush(ticks);
                resend_markers(&mut net, agent.as_ref(), &snap_expected, ticks, marker_tail);
                checkpoint(&node, ticks, &shared);
                Some(NodeEvent::Tick)
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        if let Some(ev) = event {
            let outs = node.handle(ev);
            publish(&node);
            net.send_all(ticks, outs, agent.as_mut());
        }
        // A finished epoch (recorded + all markers) ships its local
        // snapshot to the shared pool for `snapshot_round` to assemble.
        if let Some(s) = agent.as_mut().and_then(SnapAgent::take_completed) {
            marker_tail = Some((s.epoch, ticks + 64));
            shared
                .snapshots
                .lock()
                .expect("snapshot pool poisoned")
                .push(s);
        }
    }
}

/// Re-drive this node's markers while its epoch is open — marker loss
/// must delay completion, never wedge it — and for a bounded tail after
/// completion, for peers whose copy of this node's marker was lost.
fn resend_markers(
    net: &mut FaultySender,
    agent: Option<&SnapAgent>,
    expected: &[ProcessId],
    ticks: u64,
    tail: Option<(u64, u64)>,
) {
    let Some(a) = agent else { return };
    if a.recorded() && !a.is_complete() {
        if let Some(ep) = a.epoch_in_progress() {
            net.send_markers(ticks, ep, expected);
        }
    } else if a.epoch_in_progress().is_none() {
        if let Some((ep, until)) = tail {
            if ticks < until {
                net.send_markers(ticks, ep, expected);
            }
        }
    }
}

/// Periodic self-checkpoint into the node's shared snapshot slot.
fn checkpoint(node: &Node, ticks: u64, shared: &Shared) {
    if ticks.is_multiple_of(SNAPSHOT_EVERY_TICKS) {
        let slot = &shared.snaps[node.id().index()];
        *slot.lock().expect("snapshot slot poisoned") = Some(node.snapshot_bytes());
    }
}

/// Halted-node holding pattern: drain the mailbox (a dead node drops
/// traffic on the floor) until a restart, shutdown, or disconnect. The
/// thread itself stays parked here so peers' senders stay connected.
fn dead_wait(rx: &Receiver<Wire>) -> Option<Resurrection> {
    loop {
        match rx.recv() {
            Ok(Wire::Restart(state)) => return Some(state),
            Ok(Wire::Shutdown) | Err(_) => return None,
            Ok(_) => {}
        }
    }
}

/// Publish the rebirth: void held-back pre-crash traffic, tell every
/// peer to reset the link epoch, clear the dead flag, republish state.
fn rebirth(node: &Node, net: &mut FaultySender, shared: &Shared, publish: &impl Fn(&Node)) {
    net.held.clear();
    for (_, tx) in &net.peers {
        let _ = tx.send(Wire::PeerReborn(node.id()));
    }
    shared.dead[node.id().index()].store(false, Ordering::SeqCst);
    publish(node);
}

type Shared2 = Arc<Shared>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_eat_and_exclude() {
        let rt = ThreadRuntime::spawn(Topology::ring(4), Duration::from_micros(200), 1);
        let violations = rt.observe(Duration::from_millis(400), Duration::from_micros(100));
        assert_eq!(violations, 0, "sampled exclusion must hold");
        for p in rt.topology().processes() {
            assert!(rt.meals_of(p) > 0, "{p} never ate under the thread runtime");
        }
        rt.shutdown();
    }

    #[test]
    fn crash_localizes_under_threads() {
        let rt = ThreadRuntime::spawn(Topology::line(5), Duration::from_micros(200), 2);
        std::thread::sleep(Duration::from_millis(100));
        rt.malicious_crash(ProcessId(0), 8);
        std::thread::sleep(Duration::from_millis(100));
        let before: Vec<u64> = rt.topology().processes().map(|p| rt.meals_of(p)).collect();
        std::thread::sleep(Duration::from_millis(400));
        // Distance >= 3 from the crash keeps being served.
        for p in [3usize, 4] {
            assert!(
                rt.meals_of(ProcessId(p)) > before[p],
                "p{p} starved though far from the crash"
            );
        }
        assert!(rt.is_dead(ProcessId(0)));
        rt.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let rt = ThreadRuntime::spawn(Topology::line(2), Duration::from_micros(500), 3);
        std::thread::sleep(Duration::from_millis(20));
        rt.shutdown();
    }

    #[test]
    fn threads_tolerate_a_noisy_adversary() {
        let plan = AdversaryPlan::new()
            .loss(150)
            .duplication(150)
            .delay(200, 4)
            .reorder(100);
        let rt = ThreadRuntime::spawn_with_adversary(
            Topology::ring(4),
            Duration::from_micros(200),
            plan,
            7,
        );
        let violations = rt.observe(Duration::from_millis(600), Duration::from_micros(100));
        assert_eq!(violations, 0, "exclusion must survive the noise");
        for p in rt.topology().processes() {
            assert!(rt.meals_of(p) > 0, "{p} starved under the noisy adversary");
        }
        rt.shutdown();
    }

    #[test]
    fn restarted_thread_rejoins_and_eats() {
        let rt = ThreadRuntime::spawn(Topology::ring(4), Duration::from_micros(200), 5);
        std::thread::sleep(Duration::from_millis(100));
        rt.crash(ProcessId(2));
        std::thread::sleep(Duration::from_millis(100));
        assert!(rt.is_dead(ProcessId(2)), "crash did not land");
        let frozen = rt.meals_of(ProcessId(2));
        rt.restart(ProcessId(2), Resurrection::Fresh);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while (rt.is_dead(ProcessId(2)) || rt.meals_of(ProcessId(2)) <= frozen)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(!rt.is_dead(ProcessId(2)), "restart did not land");
        assert!(
            rt.meals_of(ProcessId(2)) > frozen,
            "reborn thread never ate again"
        );
        let violations = rt.observe(Duration::from_millis(200), Duration::from_micros(100));
        assert_eq!(violations, 0, "exclusion must hold after the rebirth");
        rt.shutdown();
    }

    #[test]
    fn supervised_runtime_revives_a_crashed_thread() {
        let rt = ThreadRuntime::spawn_supervised(
            Topology::line(4),
            Duration::from_micros(200),
            9,
            RestartPolicy {
                probe_timeout: 40,
                base_backoff: 5,
                max_backoff: 80,
                jitter: 3,
                max_restarts: 4,
                snapshot_every: 0,
                resurrection: Resurrection::Snapshot { age: 0 },
            },
        );
        std::thread::sleep(Duration::from_millis(150));
        rt.crash(ProcessId(1));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !rt.is_dead(ProcessId(1)) && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(rt.is_dead(ProcessId(1)), "crash did not land");
        // The watchdog notices the silence and restores the node from
        // its self-checkpoint (or fresh, if none was taken yet).
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while rt.is_dead(ProcessId(1)) && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(!rt.is_dead(ProcessId(1)), "watchdog never revived p1");
        assert!(rt.supervisor_restarts() >= 1, "restart must be counted");
        let frozen = rt.meals_of(ProcessId(1));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while rt.meals_of(ProcessId(1)) <= frozen && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(
            rt.meals_of(ProcessId(1)) > frozen,
            "revived thread never ate again"
        );
        assert_eq!(rt.supervisor_giveups(), 0, "no budget exhaustion here");
        rt.shutdown();
    }

    #[test]
    fn monitored_threads_complete_consistent_rounds() {
        use crate::monitor::GlobalCut;
        let rt = ThreadRuntime::spawn_monitored(
            Topology::ring(4),
            Duration::from_micros(200),
            AdversaryPlan::new().loss(100).duplication(100),
            17,
        );
        std::thread::sleep(Duration::from_millis(50));
        let mut done = 0;
        for epoch in 1..=20u64 {
            let Some(snaps) = rt.snapshot_round(epoch, Duration::from_millis(500)) else {
                continue; // adversary outran the deadline; bumped retry
            };
            assert_eq!(snaps.len(), 4, "epoch {epoch} is missing nodes");
            let cut = GlobalCut {
                epoch,
                step: epoch,
                snaps,
                dead: Vec::new(),
            };
            assert!(cut.consistent(), "epoch {epoch} cut is inconsistent");
            done += 1;
            if done >= 5 {
                break;
            }
        }
        assert!(done >= 5, "only {done}/5 rounds completed in 20 epochs");
        rt.shutdown();
    }

    #[test]
    fn threads_recover_after_a_partition_heals() {
        // Cut the middle link for each endpoint's first 300 ticks; with a
        // 200µs tick that is ~60ms of partition out of a 700ms run.
        let plan = AdversaryPlan::new().cut_link(ProcessId(1), ProcessId(2), 0, 300);
        let rt = ThreadRuntime::spawn_with_adversary(
            Topology::line(4),
            Duration::from_micros(200),
            plan,
            11,
        );
        let violations = rt.observe(Duration::from_millis(200), Duration::from_micros(100));
        assert_eq!(violations, 0, "exclusion must hold across the partition");
        std::thread::sleep(Duration::from_millis(200));
        let before: Vec<u64> = rt.topology().processes().map(|p| rt.meals_of(p)).collect();
        std::thread::sleep(Duration::from_millis(300));
        for p in rt.topology().processes() {
            assert!(
                rt.meals_of(p) > before[p.index()],
                "{p} made no progress after the partition healed"
            );
        }
        rt.shutdown();
    }
}
