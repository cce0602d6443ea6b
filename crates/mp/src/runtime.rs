//! A real concurrent runtime: one OS thread per diner node, crossbeam
//! channels as links.
//!
//! The node logic is exactly [`crate::node::Node`] — the same state
//! machine the deterministic [`crate::simnet::SimNet`] drives — so this
//! runtime demonstrates that the protocol's guarantees do not depend on
//! the simulator's serialization. Each thread blocks on its channel with
//! a small timeout; the timeout doubles as the node's tick (retransmit /
//! finish meals). Every node publishes its phase, meal count, protocol
//! counters and adversary verdicts into its own status cell, one mutex
//! per node: every read from another thread goes through that lock, and
//! no lock is held across a channel send or a sleep.
//!
//! Crashes are injected by control message: a benign crash halts the
//! node silently; a malicious crash makes it spew arbitrary messages for
//! a bounded number of turns first. A halted node's thread parks until a
//! restart, which rebuilds the node with `Node::restarted`, or until
//! shutdown.
//!
//! The runtime is built one way, [`ThreadRuntime::spawn`], with the
//! simulator's argument order: network faults come from the same
//! [`AdversaryPlan`] vocabulary, and each thread runs its outgoing
//! messages through its own seeded [`LinkAdversary`] at the send
//! boundary, counting its ticks as the adversary's clock.
//! [`ThreadRuntime::supervise`] adds a watchdog under any plan, and the
//! snapshot plane is always attached: data copies carry snapshot stamps,
//! markers travel as wire messages through a second adversary, and
//! [`ThreadRuntime::snapshot_round`] drives consistent global cuts.
//!
//! Three deviations from the simulator, all inherent to real threads and
//! channels:
//! - reordering degrades to extra hold-back jitter (crossbeam channels
//!   are FIFO, so overtaking is realized by delaying a copy);
//! - byzantine-adjacent corruption is not applied (a thread cannot
//!   observe its peers' health; malicious crashes already spew arbitrary
//!   payloads themselves);
//! - stamps ride every data send: a thread cannot see whether a global
//!   round is open, so the simulator's idle-plane skip does not apply.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use rand::rngs::StdRng;
use rand::Rng;

use diners_sim::fault::Resurrection;
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::rng;
use diners_sim::Phase;

use crate::adversary::{AdversaryPlan, Delivery, LinkAdversary, NetStats};
use crate::message::LinkMsg;
use crate::node::{Node, NodeConfig, NodeEvent};
use crate::snapshot::{LocalSnapshot, SnapAgent, SnapStamp};
use crate::supervisor::{RestartPolicy, Supervisor, SupervisorAction};

/// Cadence (in node ticks) of each thread's self-checkpoint, read back
/// on `Restart(Snapshot)`.
const SNAPSHOT_EVERY_TICKS: u64 = 64;

/// Ticks a node keeps re-driving a finished epoch's markers, for peers
/// whose copy was lost.
const MARKER_TAIL_TICKS: u64 = 64;

/// Messages on the control/data channels between threads.
enum Wire {
    /// A protocol message from a neighbor.
    Data {
        /// Sending node.
        from: ProcessId,
        /// Payload.
        msg: LinkMsg,
        /// Snapshot color stamp (None on byzantine spew, which bypasses
        /// the snapshot plane).
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

/// One node's published state: written by its own thread, read by the
/// observer and the watchdog.
#[derive(Default)]
struct Status {
    phase: Phase,
    meals: u64,
    dead: bool,
    /// Protocol-hardening counters.
    retransmits: u64,
    resyncs: u64,
    /// Bumped on every publish; the watchdog reads a change as a
    /// heartbeat.
    beats: u64,
    /// Adversary verdicts on this node's sends.
    net: NetStats,
}

struct Shared {
    /// One status cell per node.
    status: Vec<Mutex<Status>>,
    /// Completed local snapshots, pushed by node threads as their
    /// epochs finish; drained by [`ThreadRuntime::snapshot_round`].
    snapshots: Mutex<Vec<LocalSnapshot>>,
    /// Watchdog bookkeeping: restarts issued / processes abandoned.
    sup_restarts: AtomicU64,
    sup_giveups: AtomicU64,
}

impl Shared {
    fn status(&self, p: ProcessId) -> MutexGuard<'_, Status> {
        self.status[p.index()].lock().expect("status cell poisoned")
    }
}

/// A running fleet of diner threads.
pub struct ThreadRuntime {
    topo: Topology,
    tick: Duration,
    seed: u64,
    senders: Vec<Sender<Wire>>,
    handles: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
    /// Watchdog thread (stop flag + handle), once
    /// [`ThreadRuntime::supervise`] was called.
    watchdog: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
}

impl ThreadRuntime {
    /// Spawn one thread per process of `topo`, all in the legitimate
    /// initial state. `tick` is the per-node retransmission timeout.
    /// Every thread runs its outgoing messages through `plan` (loss,
    /// duplication, delay, jitter, outages; [`AdversaryPlan::none`] for a
    /// clean network), with the thread's own tick count as the
    /// adversary's clock — an outage `until_step` of 500 means "until my
    /// 500th tick".
    pub fn spawn(topo: Topology, tick: Duration, plan: AdversaryPlan, seed: u64) -> Self {
        let n = topo.len();
        let shared = Arc::new(Shared {
            status: (0..n).map(|_| Mutex::default()).collect(),
            snapshots: Mutex::default(),
            sup_restarts: AtomicU64::new(0),
            sup_giveups: AtomicU64::new(0),
        });
        let channels: Vec<(Sender<Wire>, Receiver<Wire>)> = (0..n).map(|_| unbounded()).collect();
        let senders: Vec<Sender<Wire>> = channels.iter().map(|(s, _)| s.clone()).collect();
        let handles = topo
            .processes()
            .zip(channels)
            .map(|(p, (_, rx))| {
                let peers = topo
                    .neighbors(p)
                    .iter()
                    .map(|&q| (q, senders[q.index()].clone()))
                    .collect();
                let host = Host::new(
                    NodeConfig::new(&topo, p),
                    n,
                    peers,
                    Arc::clone(&shared),
                    &plan,
                    rng::subseed(seed, p.index() as u64),
                );
                std::thread::spawn(move || host.run(&rx, tick))
            })
            .collect();
        ThreadRuntime {
            topo,
            tick,
            seed,
            senders,
            handles,
            shared,
            watchdog: None,
        }
    }

    /// Start a watchdog thread running a [`Supervisor`] over the fleet,
    /// as [`crate::SimNet::supervise`] does for the simulator: every
    /// node's publishes double as heartbeats, silence past the policy's
    /// `probe_timeout` (measured in watchdog ticks of `tick` each)
    /// triggers a capped-backoff restart message, and budget exhaustion
    /// abandons the node. A second call replaces the first watchdog.
    ///
    /// Snapshots here are the *threads' own* periodic self-checkpoints
    /// (every `SNAPSHOT_EVERY_TICKS` ticks); the policy's
    /// `snapshot_every` knob and the supervisor's checksummed custody
    /// are exercised by the deterministic [`crate::SimNet`] path.
    pub fn supervise(&mut self, policy: RestartPolicy) {
        self.stop_watchdog();
        let n = self.topo.len();
        let stop = Arc::new(AtomicBool::new(false));
        let halted = Arc::clone(&stop);
        let shared = Arc::clone(&self.shared);
        let senders = self.senders.clone();
        let (tick, seed) = (self.tick, self.seed);
        let handle = std::thread::spawn(move || {
            let mut sup = Supervisor::new(n, policy, rng::subseed(seed, 0x50B5));
            let mut last_beats = vec![u64::MAX; n];
            let mut now = 0u64;
            while !halted.load(Ordering::SeqCst) {
                std::thread::sleep(tick);
                now += 1;
                for (i, last) in last_beats.iter_mut().enumerate() {
                    let beats = shared.status(ProcessId(i)).beats;
                    if beats != *last {
                        *last = beats;
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
        self.watchdog = Some((stop, handle));
    }

    fn stop_watchdog(&mut self) {
        if let Some((stop, h)) = self.watchdog.take() {
            stop.store(true, Ordering::SeqCst);
            let _ = h.join();
        }
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Sampled phase of node `p`.
    pub fn phase_of(&self, p: ProcessId) -> Phase {
        self.shared.status(p).phase
    }

    /// Sampled meal count of node `p`.
    pub fn meals_of(&self, p: ProcessId) -> u64 {
        self.shared.status(p).meals
    }

    /// Whether node `p` has halted.
    pub fn is_dead(&self, p: ProcessId) -> bool {
        self.shared.status(p).dead
    }

    /// Sampled adversary verdicts, each node's tally folded in.
    pub fn net_stats(&self) -> NetStats {
        let mut total = NetStats::default();
        for p in self.topo.processes() {
            total.merge(&self.shared.status(p).net);
        }
        total
    }

    /// Sampled total of timer-driven retransmissions across all nodes.
    pub fn retransmits(&self) -> u64 {
        self.topo
            .processes()
            .map(|p| self.shared.status(p).retransmits)
            .sum()
    }

    /// Sampled total of stale-run resyncs across all nodes.
    pub fn resyncs(&self) -> u64 {
        self.topo
            .processes()
            .map(|p| self.shared.status(p).resyncs)
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
    /// round when the newer epoch arms.
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
        let until = Instant::now() + deadline;
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
            if Instant::now() >= until {
                return None;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Restarts issued by this runtime's watchdogs so far (0 without
    /// supervision).
    pub fn supervisor_restarts(&self) -> u64 {
        self.shared.sup_restarts.load(Ordering::SeqCst)
    }

    /// Processes abandoned by this runtime's watchdogs (restart budget
    /// exhausted).
    pub fn supervisor_giveups(&self) -> u64 {
        self.shared.sup_giveups.load(Ordering::SeqCst)
    }

    /// Let the system run for `d`, sampling exclusion among live
    /// neighbors every `sample_every`; returns the number of samples at
    /// which two non-dead neighbors were simultaneously eating.
    pub fn observe(&self, d: Duration, sample_every: Duration) -> u64 {
        let deadline = Instant::now() + d;
        let read = |p| {
            let s = self.shared.status(p);
            (s.phase == Phase::Eating, s.dead, s.beats)
        };
        let mut violations = 0;
        while Instant::now() < deadline {
            std::thread::sleep(sample_every);
            for &(a, b) in self.topo.edges() {
                let ((eats_a, dead_a, beats_a), (eats_b, dead_b, _)) = (read(a), read(b));
                // `a` is read first, so it must not have published since:
                // a node publishes before it sends, so it may have handed
                // `b` the fork only after a publish.
                if eats_a && eats_b && (!dead_a || !dead_b) && read(a).2 == beats_a {
                    violations += 1;
                }
            }
        }
        violations
    }

    /// Shut every thread down and join them (dropping the runtime does
    /// the same).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ThreadRuntime {
    /// Stop the watchdog, tell every node to shut down and join them:
    /// each node holds its peers' senders, so no channel ever
    /// disconnects on its own.
    fn drop(&mut self) {
        self.stop_watchdog();
        for s in &self.senders {
            let _ = s.send(Wire::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The send side of one node's thread: every outgoing data message runs
/// through the thread's own [`LinkAdversary`], every marker through a
/// second one; surviving copies go out at once or join the hold-back
/// queue until their due tick.
struct Outbox {
    id: ProcessId,
    peers: Vec<(ProcessId, Sender<Wire>)>,
    data: LinkAdversary,
    /// Same plan as `data` on an independent stream, so marker loss and
    /// delay are exercised without perturbing data-fault verdicts.
    markers: LinkAdversary,
    /// Copies held back by an adversary, data and markers alike:
    /// `(due tick, to, wire)`. A held data copy carries the stamp of its
    /// send, not of its release.
    held: Vec<(u64, ProcessId, Wire)>,
    scratch: Vec<Delivery>,
}

impl Outbox {
    /// Put `wire` on `to`'s channel.
    fn post(&self, to: ProcessId, wire: Wire) {
        if let Some((_, tx)) = self.peers.iter().find(|(q, _)| *q == to) {
            let _ = tx.send(wire);
        }
    }

    /// Post `wire` now, or hold it until the delivery's due tick. Real
    /// channels are FIFO, so "reordering" is realized as a little extra
    /// hold-back on the affected copy.
    fn schedule(&mut self, now: u64, to: ProcessId, d: &Delivery, wire: Wire) {
        let due = now + d.delay + d.reorder_key.map_or(0, |k| k % 3);
        if due <= now {
            self.post(to, wire);
        } else {
            self.held.push((due, to, wire));
        }
    }

    /// Send `outs` through the data adversary, stamping each surviving
    /// copy (duplicates get distinct stamps; dropped copies never get
    /// one). Returns the batch's verdict tally.
    fn send_all(
        &mut self,
        now: u64,
        outs: Vec<(ProcessId, LinkMsg)>,
        agent: &mut SnapAgent,
    ) -> NetStats {
        let mut tally = NetStats::default();
        let mut ds = std::mem::take(&mut self.scratch);
        for (to, msg) in outs {
            self.data.apply(now, self.id, to, msg, false, &mut ds);
            tally.absorb(&msg, &ds);
            for d in ds.drain(..) {
                let wire = Wire::Data {
                    from: self.id,
                    msg: d.msg,
                    snap: Some(agent.on_send()),
                };
                self.schedule(now, to, &d, wire);
            }
        }
        self.scratch = ds;
        tally
    }

    /// Send a marker for `epoch` to each of `targets` through the marker
    /// adversary.
    fn send_markers(&mut self, now: u64, epoch: u64, targets: &[ProcessId]) {
        let from = self.id;
        let mut ds = std::mem::take(&mut self.scratch);
        for &to in targets {
            self.markers
                .apply(now, from, to, LinkMsg::probe(from), false, &mut ds);
            for d in ds.drain(..) {
                self.schedule(now, to, &d, Wire::Marker { from, epoch });
            }
        }
        self.scratch = ds;
    }

    /// Release every held-back copy whose due tick has come.
    fn flush(&mut self, now: u64) {
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].0 <= now {
                let (_, to, wire) = self.held.swap_remove(i);
                self.post(to, wire);
            } else {
                i += 1;
            }
        }
    }
}

/// One node's thread: the node, its snapshot agent and its outbox.
struct Host {
    cfg: NodeConfig,
    node: Node,
    /// The snapshot agent belongs to the *observer*, not the node: it
    /// survives the node's crashes and rebirths, because its vector
    /// clock must stay monotone across incarnations for cut-consistency
    /// checks to mean anything.
    agent: SnapAgent,
    out: Outbox,
    shared: Arc<Shared>,
    rng: StdRng,
    ticks: u64,
    /// The most recent self-checkpoint ([`Node::snapshot_bytes`]), read
    /// back on `Restart(Snapshot)`.
    checkpoint: Option<Vec<u8>>,
    /// A finished epoch and the tick until which its markers are still
    /// re-driven: a peer that lost this node's marker still needs one,
    /// and this node can no longer tell (its own round is closed).
    marker_tail: Option<(u64, u64)>,
}

impl Host {
    fn new(
        cfg: NodeConfig,
        n: usize,
        peers: Vec<(ProcessId, Sender<Wire>)>,
        shared: Arc<Shared>,
        plan: &AdversaryPlan,
        seed: u64,
    ) -> Self {
        Host {
            node: Node::new(cfg.clone()),
            agent: SnapAgent::new(cfg.id, n, &cfg.neighbors),
            out: Outbox {
                id: cfg.id,
                peers,
                data: LinkAdversary::new(plan.clone(), seed),
                markers: LinkAdversary::new(plan.clone(), rng::subseed(seed, 0x3A7C)),
                held: Vec::new(),
                scratch: Vec::new(),
            },
            shared,
            rng: rng::rng(seed),
            ticks: 0,
            checkpoint: None,
            marker_tail: None,
            cfg,
        }
    }

    fn run(mut self, rx: &Receiver<Wire>, tick: Duration) {
        self.publish();
        // Ticks must fire even under continuous traffic: the stabilizing
        // handshake relies on periodic retransmission, and a saturated
        // `recv_timeout` would never time out.
        let mut last_tick = Instant::now();
        loop {
            if last_tick.elapsed() >= tick {
                last_tick = Instant::now();
                self.tick();
            }
            match rx.recv_timeout(tick) {
                Ok(Wire::Data { from, msg, snap }) => {
                    // Snapshot bookkeeping runs *before* the node processes
                    // the message: a red stamp (future color) must force
                    // the recording first (see `crate::snapshot`).
                    if let Some(stamp) = &snap {
                        self.agent.on_deliver(from, &msg, stamp, &self.node);
                    }
                    self.handle(NodeEvent::Deliver { from, msg });
                }
                Ok(Wire::SnapInit { epoch, dead }) => {
                    let live = self.cfg.neighbors.iter().copied();
                    self.agent.expect(epoch, live.filter(|q| !dead.contains(q)));
                    self.agent.record(&self.node);
                    if let Some(ep) = self.agent.epoch_in_progress() {
                        self.out.send_markers(self.ticks, ep, self.agent.members());
                    }
                }
                Ok(Wire::Marker { from, epoch }) => {
                    self.agent.on_marker(from, epoch, &self.node);
                }
                Ok(Wire::Crash(steps)) => {
                    self.crash(steps, tick);
                    let Some(state) = dead_wait(rx) else { return };
                    self.rebirth(state);
                }
                // A live node ignores restarts: recovery, not preemption.
                Ok(Wire::Restart(_)) => {}
                // A resurrected neighbor starts a fresh wire epoch:
                // realign the link so its first messages are not dropped
                // as stale duplicates of the dead incarnation's stream.
                Ok(Wire::PeerReborn(q)) => self.node.peer_reborn(q),
                Ok(Wire::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => self.tick(),
            }
            // A finished epoch (recorded + all markers) ships its local
            // snapshot to the shared pool for `snapshot_round` to assemble.
            if let Some(s) = self.agent.take_completed() {
                self.marker_tail = Some((s.epoch, self.ticks + MARKER_TAIL_TICKS));
                self.shared
                    .snapshots
                    .lock()
                    .expect("snapshot pool poisoned")
                    .push(s);
            }
        }
    }

    /// One node tick: release due copies, re-drive markers, checkpoint
    /// on the cadence, and let the node retransmit / finish its meal.
    fn tick(&mut self) {
        self.ticks += 1;
        self.out.flush(self.ticks);
        self.resend_markers();
        if self.ticks.is_multiple_of(SNAPSHOT_EVERY_TICKS) {
            self.checkpoint = Some(self.node.snapshot_bytes());
        }
        self.handle(NodeEvent::Tick);
    }

    /// Run one event through the node, publish, then send: a node that
    /// leaves `Eating` is seen thinking before its fork can reach a
    /// neighbor.
    fn handle(&mut self, ev: NodeEvent) {
        let outs = self.node.handle(ev);
        self.publish();
        let tally = self.out.send_all(self.ticks, outs, &mut self.agent);
        if tally.sent > 0 {
            self.shared.status(self.cfg.id).net.merge(&tally);
        }
    }

    /// Publish the node's state into its status cell. Each publish is a
    /// liveness proof for the watchdog, and only a live node publishes.
    fn publish(&self) {
        let mut s = self.shared.status(self.cfg.id);
        s.phase = self.node.phase();
        s.meals = self.node.meals();
        s.retransmits = self.node.retransmits();
        s.resyncs = self.node.resyncs();
        s.dead = false;
        s.beats += 1;
    }

    /// Re-drive this node's markers while its epoch is open — marker loss
    /// must delay completion, never wedge it — and for a bounded tail
    /// after completion, for peers whose copy of this node's marker was
    /// lost.
    fn resend_markers(&mut self) {
        let a = &self.agent;
        let epoch = match (a.epoch_in_progress(), self.marker_tail) {
            (Some(ep), _) if a.recorded() && !a.is_complete() => ep,
            (None, Some((ep, until))) if self.ticks < until => ep,
            _ => return,
        };
        self.out.send_markers(self.ticks, epoch, a.members());
    }

    /// Halt, after behaving arbitrarily for `steps` turns: a malicious
    /// crash spews garbage first. The spew bypasses the adversary — a
    /// faulty process is its own fault model — and is unstamped: a
    /// faulty process is outside the snapshot plane, and its garbage
    /// cannot merge into anyone's clock.
    fn crash(&mut self, steps: u32, tick: Duration) {
        for _ in 0..steps {
            for (q, tx) in &self.out.peers {
                if self.rng.gen_bool(0.5) {
                    let msg = LinkMsg::arbitrary(&mut self.rng, self.cfg.id, *q);
                    let _ = tx.send(Wire::Data {
                        from: self.cfg.id,
                        msg,
                        snap: None,
                    });
                }
            }
            std::thread::sleep(tick / 4);
        }
        self.shared.status(self.cfg.id).dead = true;
    }

    /// Rebuild the node from `state` (and the last self-checkpoint),
    /// abort the open snapshot epoch, void every held-back copy of the
    /// dead incarnation (data and markers alike), tell every peer to
    /// reset the link epoch, and publish.
    fn rebirth(&mut self, state: Resurrection) {
        self.node = Node::restarted(self.cfg.clone(), state, self.checkpoint.as_deref());
        self.agent.abort();
        self.out.held.clear();
        for (_, tx) in &self.out.peers {
            let _ = tx.send(Wire::PeerReborn(self.cfg.id));
        }
        self.publish();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::GlobalCut;

    const TICK: Duration = Duration::from_micros(200);

    fn clean(topo: Topology, seed: u64) -> ThreadRuntime {
        ThreadRuntime::spawn(topo, TICK, AdversaryPlan::none(), seed)
    }

    /// Poll `done` every few milliseconds for up to `limit`.
    fn wait_for(limit: Duration, done: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + limit;
        while !done() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        done()
    }

    fn watchdog_policy() -> RestartPolicy {
        RestartPolicy {
            probe_timeout: 40,
            base_backoff: 5,
            max_backoff: 80,
            jitter: 3,
            max_restarts: 4,
            snapshot_every: 0,
            resurrection: Resurrection::Snapshot { age: 0 },
        }
    }

    /// Run bumped-epoch rounds until `want` full-membership cuts
    /// completed (each checked for consistency) or 20 epochs passed;
    /// returns how many completed.
    fn consistent_rounds(rt: &ThreadRuntime, want: usize) -> usize {
        let n = rt.topology().len();
        let mut done = 0;
        for epoch in 1..=20u64 {
            let Some(snaps) = rt.snapshot_round(epoch, Duration::from_millis(500)) else {
                continue; // adversary outran the deadline; bumped retry
            };
            assert_eq!(snaps.len(), n, "epoch {epoch} is missing nodes");
            let cut = GlobalCut {
                epoch,
                step: epoch,
                snaps,
                dead: Vec::new(),
            };
            assert!(cut.consistent(), "epoch {epoch} cut is inconsistent");
            done += 1;
            if done >= want {
                break;
            }
        }
        done
    }

    #[test]
    fn threads_eat_and_exclude() {
        let rt = clean(Topology::ring(4), 1);
        let violations = rt.observe(Duration::from_millis(400), Duration::from_micros(100));
        assert_eq!(violations, 0, "sampled exclusion must hold");
        for p in rt.topology().processes() {
            assert!(rt.meals_of(p) > 0, "{p} never ate under the thread runtime");
        }
        rt.shutdown();
    }

    #[test]
    fn crash_localizes_under_threads() {
        let rt = clean(Topology::line(5), 2);
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
        let rt = ThreadRuntime::spawn(
            Topology::line(2),
            Duration::from_micros(500),
            AdversaryPlan::none(),
            3,
        );
        std::thread::sleep(Duration::from_millis(20));
        rt.shutdown();
    }

    #[test]
    fn dropping_a_runtime_stops_its_threads() {
        for supervised in [false, true] {
            let mut rt = clean(Topology::ring(8), 4);
            if supervised {
                rt.supervise(watchdog_policy());
            }
            let shared = Arc::clone(&rt.shared);
            drop(rt);
            // Every node thread and the watchdog held a clone.
            assert_eq!(Arc::strong_count(&shared), 1, "supervised: {supervised}");
        }
    }

    #[test]
    fn threads_tolerate_a_noisy_adversary() {
        let plan = AdversaryPlan::new()
            .loss(150)
            .duplication(150)
            .delay(200, 4)
            .reorder(100);
        let rt = ThreadRuntime::spawn(Topology::ring(4), TICK, plan, 7);
        let violations = rt.observe(Duration::from_millis(600), Duration::from_micros(100));
        assert_eq!(violations, 0, "exclusion must survive the noise");
        for p in rt.topology().processes() {
            assert!(rt.meals_of(p) > 0, "{p} starved under the noisy adversary");
        }
        let stats = rt.net_stats();
        assert!(stats.dropped > 0 && stats.duplicated > 0, "{stats:?}");
        rt.shutdown();
    }

    #[test]
    fn restarted_thread_rejoins_and_eats() {
        let rt = clean(Topology::ring(4), 5);
        std::thread::sleep(Duration::from_millis(100));
        rt.crash(ProcessId(2));
        std::thread::sleep(Duration::from_millis(100));
        assert!(rt.is_dead(ProcessId(2)), "crash did not land");
        let frozen = rt.meals_of(ProcessId(2));
        rt.restart(ProcessId(2), Resurrection::Fresh);
        let ate = wait_for(Duration::from_secs(5), || {
            !rt.is_dead(ProcessId(2)) && rt.meals_of(ProcessId(2)) > frozen
        });
        assert!(!rt.is_dead(ProcessId(2)), "restart did not land");
        assert!(ate, "reborn thread never ate again");
        let violations = rt.observe(Duration::from_millis(200), Duration::from_micros(100));
        assert_eq!(violations, 0, "exclusion must hold after the rebirth");
        rt.shutdown();
    }

    #[test]
    fn supervised_runtime_revives_a_crashed_thread() {
        let mut rt = clean(Topology::line(4), 9);
        rt.supervise(watchdog_policy());
        std::thread::sleep(Duration::from_millis(150));
        rt.crash(ProcessId(1));
        let crashed = wait_for(Duration::from_secs(5), || rt.is_dead(ProcessId(1)));
        assert!(crashed, "crash did not land");
        // The watchdog notices the silence and restores the node from
        // its self-checkpoint (or fresh, if none was taken yet).
        let revived = wait_for(Duration::from_secs(10), || !rt.is_dead(ProcessId(1)));
        assert!(revived, "watchdog never revived p1");
        assert!(rt.supervisor_restarts() >= 1, "restart must be counted");
        let frozen = rt.meals_of(ProcessId(1));
        let ate = wait_for(Duration::from_secs(5), || {
            rt.meals_of(ProcessId(1)) > frozen
        });
        assert!(ate, "revived thread never ate again");
        assert_eq!(rt.supervisor_giveups(), 0, "no budget exhaustion here");
        rt.shutdown();
    }

    #[test]
    fn every_runtime_completes_consistent_rounds() {
        let rt = ThreadRuntime::spawn(
            Topology::ring(4),
            TICK,
            AdversaryPlan::new().loss(100).duplication(100),
            17,
        );
        std::thread::sleep(Duration::from_millis(50));
        let done = consistent_rounds(&rt, 5);
        assert!(done >= 5, "only {done}/5 rounds completed in 20 epochs");
        rt.shutdown();

        let rt = clean(Topology::line(3), 19);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(consistent_rounds(&rt, 1), 1, "a clean runtime cuts too");
        rt.shutdown();
    }

    #[test]
    fn supervised_noisy_runtime_revives_a_crash_and_keeps_cutting() {
        // A noisy plan, a watchdog and the snapshot plane on one
        // runtime: the crashed node is revived, and full-membership
        // rounds, the revived node included, complete consistently.
        let plan = AdversaryPlan::new()
            .loss(100)
            .duplication(100)
            .delay(100, 3);
        let mut rt = ThreadRuntime::spawn(Topology::ring(4), TICK, plan, 29);
        rt.supervise(watchdog_policy());
        std::thread::sleep(Duration::from_millis(100));
        rt.crash(ProcessId(1));
        let crashed = wait_for(Duration::from_secs(5), || rt.is_dead(ProcessId(1)));
        assert!(crashed, "crash did not land");
        let revived = wait_for(Duration::from_secs(10), || !rt.is_dead(ProcessId(1)));
        assert!(revived, "watchdog never revived p1 under the noisy plan");
        assert!(rt.supervisor_restarts() >= 1, "restart must be counted");
        let done = consistent_rounds(&rt, 3);
        assert!(done >= 3, "only {done}/3 rounds completed in 20 epochs");
        rt.shutdown();
    }

    #[test]
    fn threads_recover_after_a_partition_heals() {
        // Cut the middle link for each endpoint's first 300 ticks; with a
        // 200µs tick that is ~60ms of partition out of a 700ms run.
        let plan = AdversaryPlan::new().cut_link(ProcessId(1), ProcessId(2), 0, 300);
        let rt = ThreadRuntime::spawn(Topology::line(4), TICK, plan, 11);
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
